"""Wire protocol, server, throttling, and prefetching connector tests."""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import open_connections, serve_process
from reference_interp import simulate_cache
from treeduce.iostats import IoStats
from treeduce.xrdlite import (
    ConnectionPool,
    ServerConfig,
    TokenBucket,
    XrdConnection,
    XrdProtocolError,
    XrdStatusError,
    parse_url,
    serve,
)
from treeduce.xrdlite import protocol as P
from treeduce.xrdlite.client import CACHE_WINDOWS

CONTENT = bytes(range(256)) * 40  # 10240 bytes


@pytest.fixture
def server(tmp_path, serve_dir):
    """A server whose root holds ``data.bin`` with ``CONTENT``."""
    (tmp_path / "data.bin").write_bytes(CONTENT)
    return serve_dir(tmp_path)


@pytest.fixture
def served_file(server):
    return server.address


def data_url(address, name="data.bin") -> str:
    host, port = address
    return f"xrdl://{host}:{port}/{name}"


@pytest.fixture
def open_remote(server):
    """Opens ``data.bin`` as a byte source over a pool that teardown closes."""
    pool = ConnectionPool()
    yield lambda read_ahead=65536, stats=None: pool.open(data_url(server.address), read_ahead, stats)
    pool.close()
    assert open_connections(server) == 0


def raw_socket(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5)
    sock.settimeout(5)
    return sock


def count_requests(conn: XrdConnection) -> list[int]:
    """The opcode of every request ``conn`` sends from now on, in order."""
    opcodes: list[int] = []
    expect_ok = conn._expect_ok

    def counting(frame):
        opcodes.append(frame[4])
        return expect_ok(frame)

    conn._expect_ok = counting
    return opcodes


# --- frame encoding ----------------------------------------------------------


def test_frame_bytes_pinned():
    assert P.pack_frame(2, b"xyz") == struct.pack(">IB", 4, 2) + b"xyz"
    assert P.pack_open_request("data.trf") == (
        struct.pack(">IB", 1 + 2 + 8, P.OP_OPEN) + struct.pack(">H", 8) + b"data.trf"
    )
    assert P.pack_readv_request(7, [(1024, 512), (0, 3)]) == (
        struct.pack(">IB", 1 + 8 + 2 * 12, P.OP_READV)
        + struct.pack(">IIQIQI", 7, 2, 1024, 512, 0, 3)
    )
    # READV is the one read request; opcode 2 is unassigned
    assert (P.OP_OPEN, P.OP_STAT, P.OP_CLOSE, P.OP_READV) == (1, 3, 4, 5)
    assert P.MAX_FRAME == 1 << 20


def test_parse_url_forms():
    assert parse_url("xrdl://h:2000/a/b.trf") == ("h", 2000, "/a/b.trf")
    assert parse_url("xrdl://h/a.trf") == ("h", 1094, "/a.trf")
    assert parse_url("xrdl://h") == ("h", 1094, "/")
    with pytest.raises(ValueError):
        parse_url("http://h/a")
    with pytest.raises(ValueError):
        parse_url("xrdl:///nohost")
    with pytest.raises(ValueError, match="port 0"):
        parse_url("xrdl://h:0/a.trf")


# --- request handling ---------------------------------------------------------


def test_open_stat_read_close_round_trip(served_file):
    conn = XrdConnection(served_file)
    try:
        handle, file_len = conn.open("data.bin")
        assert file_len == len(CONTENT)
        assert conn.stat(handle) == len(CONTENT)
        assert conn.read(handle, 0, 16) == CONTENT[:16]
        assert conn.read(handle, 100, 200) == CONTENT[100:300]
        conn.close_handle(handle)
        with pytest.raises(XrdStatusError) as exc:
            conn.read(handle, 0, 1)  # stale after CLOSE
        assert exc.value.status == P.ST_BAD_HANDLE
    finally:
        conn.close()


def test_read_boundaries(served_file):
    conn = XrdConnection(served_file)
    try:
        handle, file_len = conn.open("data.bin")
        assert conn.read(handle, file_len - 5, 5) == CONTENT[-5:]
        assert conn.read(handle, 0, file_len) == CONTENT
        assert conn.read(handle, 0, 0) == b""
        assert conn.read(handle, file_len, 0) == b""  # exactly at EOF
        for offset, length in [(file_len - 5, 6), (file_len, 1), (file_len + 1, 0)]:
            with pytest.raises(XrdStatusError) as exc:
                conn.read(handle, offset, length)  # ends or starts past the end
            assert exc.value.status == P.ST_RANGE_ERROR
        assert conn.read(handle, 1, 2) == CONTENT[1:3]  # the connection stays usable
    finally:
        conn.close()


def test_open_failures(served_file, tmp_path, tmp_path_factory):
    (tmp_path / "subdir").mkdir()
    outside = tmp_path_factory.mktemp("outside") / "data.bin"
    outside.write_bytes(CONTENT)
    (tmp_path / "link.bin").symlink_to(outside)  # inside the root, pointing out of it
    conn = XrdConnection(served_file)
    try:
        for path in ["missing.bin", "../escape.bin", "a/../../etc/passwd", "subdir", "link.bin"]:
            with pytest.raises(XrdStatusError) as exc:
                conn.open(path)
            assert exc.value.status == P.ST_NOT_FOUND
        # leading slash is interpreted relative to the export root
        handle, _ = conn.open("/data.bin")
        assert conn.read(handle, 0, 4) == CONTENT[:4]
    finally:
        conn.close()


def test_bad_handle_paths(served_file):
    conn = XrdConnection(served_file)
    try:
        for frame in [
            P.pack_frame(P.OP_STAT, P.HANDLE.pack(999)),
            P.pack_frame(P.OP_CLOSE, P.HANDLE.pack(999)),
            P.pack_readv_request(999, [(0, 1)]),
        ]:
            status, _ = conn._request(frame)
            assert status == P.ST_BAD_HANDLE
    finally:
        conn.close()


def test_small_responses_are_not_delayed(served_file):
    # a response held back by Nagle's algorithm waits for the client's
    # delayed ACK, about 44 ms per RPC, so 50 of them would take ~2.2 s
    conn = XrdConnection(served_file)
    try:
        handle, _ = conn.open("data.bin")
        t0 = time.perf_counter()
        for _ in range(50):
            assert conn.stat(handle) == len(CONTENT)
        assert time.perf_counter() - t0 < 1.0
    finally:
        conn.close()


def test_two_handles_on_one_connection(tmp_path, serve_dir):
    (tmp_path / "a.bin").write_bytes(b"aaaa")
    (tmp_path / "b.bin").write_bytes(b"bbbbbbbb")
    server = serve_dir(tmp_path)
    conn = XrdConnection(server.address)
    try:
        ha, la = conn.open("a.bin")
        hb, lb = conn.open("b.bin")
        assert (la, lb) == (4, 8)
        assert conn.read(hb, 0, 8) == b"bbbbbbbb"
        assert conn.read(ha, 0, 4) == b"aaaa"
    finally:
        conn.close()


def test_reads_larger_than_frame_budget_are_split(tmp_path, serve_dir):
    big = np.random.default_rng(5).bytes(P.MAX_FRAME * 2 + 12345)
    (tmp_path / "big.bin").write_bytes(big)
    server = serve_dir(tmp_path)
    conn = XrdConnection(server.address)
    try:
        handle, file_len = conn.open("big.bin")
        assert file_len == len(big)
        requests = count_requests(conn)
        assert conn.read(handle, 0, file_len) == big
        assert requests == [P.OP_READV] * 3
    finally:
        conn.close()


def test_malformed_frames_get_status_then_close(served_file):
    for frame in [
        P.pack_frame(200, b""),  # unknown opcode
        P.pack_frame(2, b"short"),  # unassigned opcode
        P.pack_frame(2, struct.pack(">IQI", 1, 0, 1)),  # the retired READ's request layout
        P.pack_frame(P.OP_OPEN, struct.pack(">H", 99) + b"x"),  # length mismatch
        P.pack_frame(P.OP_READV, b"abc"),  # shorter than handle and count
        P.pack_frame(P.OP_READV, P.READV_HEAD.pack(1, 2) + P.READV_RANGE.pack(0, 1)),
        P.pack_frame(P.OP_READV, P.READV_HEAD.pack(1, 0) + b"x"),  # not 8 + 12n
    ]:
        sock = raw_socket(served_file)
        try:
            sock.sendall(frame)
            status, payload = P.recv_frame(sock)
            assert status == P.ST_MALFORMED
            assert P.recv_frame(sock) == (-1, b"")  # server hangs up
        finally:
            sock.close()


def test_oversized_frame_header_closes_connection(served_file):
    sock = raw_socket(served_file)
    try:
        sock.sendall(struct.pack(">I", P.MAX_FRAME + 1))
        status, _ = P.recv_frame(sock)
        assert status == P.ST_MALFORMED
    finally:
        sock.close()


def test_server_survives_garbage(served_file):
    rng = np.random.default_rng(17)
    for _ in range(40):
        sock = raw_socket(served_file)
        try:
            blob = rng.bytes(int(rng.integers(1, 64)))
            sock.sendall(struct.pack(">I", len(blob)) + blob)
            try:
                status, _ = P.recv_frame(sock)
            except P.FrameError:
                continue  # connection died mid-frame; that is fine
            if status != -1:
                assert status in P.STATUS_NAMES
        except (ConnectionError, socket.timeout):
            pass
        finally:
            sock.close()
    # server still serves real clients afterwards
    conn = XrdConnection(served_file)
    try:
        handle, _ = conn.open("data.bin")
        assert conn.read(handle, 0, 8) == CONTENT[:8]
    finally:
        conn.close()


def _valid_frames() -> list[bytes]:
    """OPEN of the served file, then requests on its handle, 1."""
    return [
        P.pack_open_request("data.bin"),
        P.pack_readv_request(1, [(0, 10), (10, 5), (9000, 1240)]),
        P.pack_frame(P.OP_STAT, P.HANDLE.pack(1)),
    ]


def _drain(sock: socket.socket) -> None:
    """Read responses until the server hangs up; each must carry a known status."""
    while True:
        status, _ = P.recv_frame(sock)
        if status == -1:
            return
        assert status in P.STATUS_NAMES


def test_server_survives_truncated_and_mutated_frames(serve_dir, tmp_path, monkeypatch):
    (tmp_path / "data.bin").write_bytes(CONTENT)
    server = serve_dir(tmp_path)
    handler_errors = []
    monkeypatch.setattr(
        server._server, "handle_error", lambda request, address: handler_errors.append(address)
    )
    rng = np.random.default_rng(23)
    frames = _valid_frames()
    for case in range(300):
        index = int(rng.integers(len(frames)))
        frame = bytearray(frames[index])
        if case % 2:
            frame = frame[: int(rng.integers(1, len(frame)))]
        else:
            for pos in rng.integers(0, len(frame), size=int(rng.integers(1, 4))):
                frame[pos] = int(rng.integers(256))
        sock = raw_socket(server.address)
        try:
            # a valid OPEN first, so mutated requests can hit a live handle
            sock.sendall(b"".join(frames[:index]) + bytes(frame))
            sock.shutdown(socket.SHUT_WR)
            _drain(sock)
        except socket.timeout:
            raise  # the server neither answered nor hung up
        except (P.FrameError, OSError):
            pass  # the server hung up before reading or answering everything
        finally:
            sock.close()
    assert handler_errors == []
    conn = XrdConnection(server.address)
    try:
        handle, _ = conn.open("data.bin")
        assert conn.readv(handle, [(3, 4), (100, 0)]) == [CONTENT[3:7], b""]
    finally:
        conn.close()


def test_open_path_with_nul_byte_is_not_found(served_file):
    conn = XrdConnection(served_file)
    try:
        with pytest.raises(XrdStatusError) as exc:
            conn.open("data\x00.bin")
        assert exc.value.status == P.ST_NOT_FOUND
        handle, _ = conn.open("data.bin")
        assert conn.read(handle, 0, 4) == CONTENT[:4]
    finally:
        conn.close()


def test_simultaneous_connects_are_served_promptly(tmp_path):
    # past the listen backlog, a connect waits on SYN retransmits: 1 s and more.
    # A server in this process would accept only as fast as its clients
    # take turns on the interpreter lock, so it runs in a process of its own.
    (tmp_path / "data.bin").write_bytes(CONTENT)
    n = 16
    start = threading.Barrier(n)
    elapsed: list[float] = []

    def connect_and_open(address):
        start.wait()
        t0 = time.perf_counter()
        conn = XrdConnection(address)
        try:
            conn.open("data.bin")
            elapsed.append(time.perf_counter() - t0)
        finally:
            conn.close()

    with serve_process(tmp_path) as (_, address):
        threads = [threading.Thread(target=connect_and_open, args=(address,)) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(elapsed) == n
    assert max(elapsed) < 0.5, sorted(elapsed)[-3:]


def test_stop_returns_promptly(tmp_path):
    # the accept loop looks for a stop request every 0.05 s; at socketserver's
    # default of 0.5 s each stop took about 0.45 s
    (tmp_path / "data.bin").write_bytes(CONTENT)
    waits = []
    for _ in range(3):
        server = serve(ServerConfig(root_dir=str(tmp_path), port=0))
        conn = XrdConnection(server.address)
        try:
            conn.close_handle(conn.open("data.bin")[0])
        finally:
            conn.close()
        t0 = time.perf_counter()
        server.stop()
        waits.append(time.perf_counter() - t0)
    assert sorted(waits)[1] < 0.2, waits


def test_server_counts_connections_requests_bytes_and_throttle_wait(tmp_path, serve_dir):
    (tmp_path / "data.bin").write_bytes(CONTENT)
    server = serve_dir(tmp_path, bandwidth_cap=64 << 10)  # 655-byte chunks
    first, second = XrdConnection(server.address), XrdConnection(server.address)
    try:
        handle, _ = first.open("data.bin")
        assert first.read(handle, 0, 4096) == CONTENT[:4096]
        assert first.stat(handle) == len(CONTENT)
        first.close_handle(handle)
        with pytest.raises(XrdStatusError):
            second.open("missing.bin")
        counters = server.counters()
        assert (counters.connections_accepted, counters.connections_open) == (2, 2)
    finally:
        first.close()
        second.close()
    assert open_connections(server) == 0
    counters = server.counters()
    assert counters.connections_accepted == 2
    assert counters.requests == {P.OP_OPEN: 2, P.OP_READV: 1, P.OP_STAT: 1, P.OP_CLOSE: 1}
    # OPEN's handle and length, the range, STAT's length, CLOSE's nothing, the missing path
    assert counters.payload_bytes_sent == 12 + 4096 + 8 + 0 + len("missing.bin")
    # all but the bucket's two-tick burst waits for tokens at 64 KiB/s
    assert counters.throttle_wait_s > 0.5 * (4096 - 2 * 655) / (64 << 10)
    assert counters.summary() == (
        "connections: 2 accepted, 0 open; requests: OPEN 2, STAT 1, CLOSE 1, READV 1; "
        f"payload bytes sent: 4127; throttle wait: {counters.throttle_wait_s:.3f} s"
    )


# --- connection pool --------------------------------------------------------------


def test_pool_lends_each_thread_one_connection_and_closes_them(server):
    address = server.address
    pool = ConnectionPool()
    try:
        def read(offset):
            src = pool.open(data_url(address), 64)
            assert src.read_at(offset, 100) == CONTENT[offset : offset + 100]
            src.close()  # closes its handle, not the pooled connection

        conn = pool.connection(address)
        assert pool.connection(address) is conn
        elsewhere = []

        def read_elsewhere():
            read(100)
            elsewhere.append(pool.connection(address))

        thread = threading.Thread(target=read_elsewhere)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert elsewhere[0] is not conn
        for offset in (0, 5000, 10000):
            read(offset)
        assert pool.connection(address) is conn and not conn.broken
        counters = server.counters()
        assert (counters.connections_accepted, counters.connections_open) == (2, 2)
        assert counters.requests[P.OP_OPEN] == counters.requests[P.OP_CLOSE] == 4
    finally:
        pool.close()
    assert open_connections(server) == 0


def test_pool_and_counters_hold_under_thread_contention(server):
    n_threads, per_thread = 8, 20
    pool = ConnectionPool()
    lent: dict[int, set[int]] = {}
    errors: list[BaseException] = []

    def work(index: int):
        try:
            for i in range(per_thread):
                src = pool.open(data_url(server.address), 16)
                try:
                    offset = (index * per_thread + i) * 48 % len(CONTENT)  # whole 16-byte reads
                    assert src.read_at(offset, 16) == CONTENT[offset : offset + 16]
                finally:
                    src.close()
                lent.setdefault(index, set()).add(id(pool.connection(server.address)))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert errors == []
    assert all(len(ids) == 1 for ids in lent.values()) and len(lent) == n_threads
    assert open_connections(server) == 0
    counters = server.counters()
    assert counters.connections_accepted == n_threads
    n = n_threads * per_thread
    assert counters.requests == {P.OP_OPEN: n, P.OP_READV: n, P.OP_CLOSE: n}
    assert counters.payload_bytes_sent == n * (12 + 16)


def test_a_status_error_keeps_the_pooled_connection(server):
    pool = ConnectionPool()
    try:
        conn = pool.connection(server.address)
        with pytest.raises(XrdStatusError):
            pool.open(data_url(server.address, "missing.bin"), 64)
        src = pool.open(data_url(server.address), 64)
        with pytest.raises(XrdStatusError):
            conn.stat(999)  # BadHandle
        assert src.read_at(0, 8) == CONTENT[:8]
        src.close()
        assert pool.connection(server.address) is conn and not conn.broken
    finally:
        pool.close()
    assert server.counters().connections_accepted == 1


@pytest.mark.parametrize("break_it", ["hang up", "time out"])
def test_a_broken_pooled_connection_is_closed_and_replaced(tmp_path, serve_dir, break_it):
    (tmp_path / "data.bin").write_bytes(CONTENT)
    # at 1000 B/s the server sends a 10-byte chunk every 10 ms after a 20-byte burst
    server = serve_dir(tmp_path, bandwidth_cap=1000)
    pool = ConnectionPool()
    try:
        src = pool.open(data_url(server.address), 16)
        conn = pool.connection(server.address)
        if break_it == "hang up":
            conn._sock.shutdown(socket.SHUT_RDWR)
            expected = (OSError, XrdProtocolError)
        else:  # the next chunk is due well after the receive timeout
            conn._sock.settimeout(0.001)
            expected = TimeoutError
        with pytest.raises(expected):
            src.read_at(0, 5000)
        assert conn.broken
        src.close()  # raises nothing over the read's error, and leaves the connection to the pool
        assert conn._sock.fileno() != -1
        fresh = pool.connection(server.address)
        assert fresh is not conn and conn._sock.fileno() == -1
        src = pool.open(data_url(server.address), 16)
        assert src.read_at(0, 10) == CONTENT[:10]
        src.close()
    finally:
        pool.close()
    assert open_connections(server) == 0
    assert server.counters().connections_accepted == 2


# --- vectored reads -------------------------------------------------------------


def test_readv_matches_the_file(served_file):
    rng = np.random.default_rng(29)
    size = len(CONTENT)
    conn = XrdConnection(served_file)
    try:
        handle, _ = conn.open("data.bin")
        assert conn.readv(handle, []) == []
        fixed = [(0, 10), (10, 20), (30, 0), (size - 1, 1), (size, 0), (5, 5), (0, size)]
        cases = [fixed]
        for _ in range(100):
            starts = rng.integers(0, size + 1, size=int(rng.integers(1, 12)))
            cases.append([(int(a), int(rng.integers(0, size - a + 1))) for a in starts])
        for ranges in cases:
            got = conn.readv(handle, ranges)
            assert [bytes(b) for b in got] == [CONTENT[o : o + n] for o, n in ranges]
    finally:
        conn.close()


def test_readv_splits_at_the_frame_budget(tmp_path, serve_dir):
    big = np.random.default_rng(31).bytes(P.MAX_FRAME * 2 + 12345)
    (tmp_path / "big.bin").write_bytes(big)
    server = serve_dir(tmp_path)
    conn = XrdConnection(server.address)
    requests = count_requests(conn)
    budget = P.MAX_FRAME - 1
    cases = [
        [(i * 100_000, 100_000) for i in range(15)],  # 1.5 MB in ranges under the budget
        [(7, 2 * P.MAX_FRAME)],  # one range larger than a frame
        [(0, 3), (10, budget), (5, 0), (P.MAX_FRAME, budget - 3)],  # cut across ranges
        [(i % 4096, 1) for i in range(P.READV_MAX_RANGES + 5)],  # more ranges than a frame holds
    ]
    try:
        handle, _ = conn.open("big.bin")
        for ranges in cases:
            requests.clear()
            got = conn.readv(handle, ranges)
            assert [bytes(b) for b in got] == [big[o : o + n] for o, n in ranges]
            total = sum(n for _, n in ranges)
            fewest = max(-(-total // budget), -(-len(ranges) // P.READV_MAX_RANGES))
            assert requests == [P.OP_READV] * fewest
    finally:
        conn.close()


def test_readv_error_statuses(served_file):
    size = len(CONTENT)
    conn = XrdConnection(served_file)
    try:
        handle, _ = conn.open("data.bin")
        full, rest = divmod(P.MAX_FRAME - 1, size)
        at_budget = [(0, size)] * full + [(0, rest)]
        assert len(b"".join(conn.readv(handle, at_budget))) == P.MAX_FRAME - 1
        for ranges in [
            [(0, 10), (size - 5, 6)],  # ends one byte past the end
            [(size + 1, 0)],  # starts past the end
            at_budget + [(0, 1)],  # one byte more than a frame holds
        ]:
            status, _ = conn._request(P.pack_readv_request(handle, ranges))
            assert status == P.ST_RANGE_ERROR
        status, _ = conn._request(P.pack_readv_request(handle + 1, [(0, 1)]))
        assert status == P.ST_BAD_HANDLE
        # status errors leave the connection usable
        assert conn.readv(handle, [(1, 2)]) == [CONTENT[1:3]]
    finally:
        conn.close()


def test_a_file_that_shrinks_after_open_fails_loudly(tmp_path, server, open_remote):
    conn = XrdConnection(server.address)
    src = open_remote(read_ahead=64)
    try:
        handle, _ = conn.open("data.bin")
        os.truncate(tmp_path / "data.bin", 100)
        with pytest.raises(XrdStatusError, match="short read") as exc:
            conn.read(handle, 50, 200)
        assert exc.value.status == P.ST_SERVER_ERROR
        # a READV is all or nothing
        status, payload = conn._request(P.pack_readv_request(handle, [(0, 10), (90, 20)]))
        assert (status, bytes(payload)) == (P.ST_SERVER_ERROR, b"short read")
        assert conn.readv(handle, [(0, 10)]) == [CONTENT[:10]]
        assert conn.read(handle, 90, 10) == CONTENT[90:100]
        # the connector measured the file at OPEN: it fails rather than return short bytes
        with pytest.raises(XrdStatusError, match="short read"):
            src.read_at(50, 200)
        assert src.read_at(0, 10) == CONTENT[:10]
    finally:
        src.close()
        conn.close()


def test_capped_server_sends_read_and_readv_payloads_whole(tmp_path, serve_dir):
    data = np.random.default_rng(37).bytes(200_000)
    (tmp_path / "f.bin").write_bytes(data)
    server = serve_dir(tmp_path, bandwidth_cap=8 << 20)  # 83,886-byte chunks
    conn = XrdConnection(server.address)
    ranges = [(0, 90_000), (150_000, 50_000), (7, 0), (95_000, 3)]
    try:
        handle, _ = conn.open("f.bin")
        assert conn.read(handle, 1, 199_999) == data[1:]
        assert [bytes(b) for b in conn.readv(handle, ranges)] == [data[o : o + n] for o, n in ranges]
        assert conn.stat(handle) == len(data)  # a payload smaller than one chunk
    finally:
        conn.close()


def test_remote_read_ranges_bypass_the_window_and_count_bytes(open_remote):
    stats = IoStats()
    src = open_remote(read_ahead=4096, stats=stats)
    try:
        ranges = [(0, 100), (100, 50), (10000, 1000), (4, 0)]
        got = src.read_ranges(ranges)
        assert [bytes(b) for b in got] == [CONTENT[o : o + n] for o, n in ranges]
        assert (stats.fetch_calls, stats.bytes_fetched) == (1, 100 + 50 + 240)
        assert stats.bytes_requested == 100 + 50 + 1000
        assert src.read_ranges([]) == []
        assert stats.fetch_calls == 1
        src.read_at(0, 10)  # the vectored read cached no window
        assert (stats.fetch_calls, stats.bytes_fetched) == (2, 390 + 4096)
    finally:
        src.close()


# --- token bucket -------------------------------------------------------------


def test_token_bucket_geometry():
    bucket = TokenBucket(rate=50_000)
    assert bucket.chunk_size == 500
    with pytest.raises(ValueError):
        bucket.consume(bucket.chunk_size * 2 + 1)  # beyond burst capacity


def test_token_bucket_paces_consumption():
    rate = 200_000
    bucket = TokenBucket(rate=rate)
    total = 0
    t0 = time.perf_counter()
    while total < 60_000:
        bucket.consume(bucket.chunk_size)
        total += bucket.chunk_size
    elapsed = time.perf_counter() - t0
    # burst capacity is two ticks; everything else must wait for refill
    expected = (total - bucket.chunk_size * 2) / rate
    assert elapsed >= expected * 0.8


def test_bandwidth_cap_slows_transfers(tmp_path, serve_dir):
    payload = np.random.default_rng(1).bytes(128 * 1024)
    (tmp_path / "f.bin").write_bytes(payload)
    cap = 256 * 1024
    server = serve_dir(tmp_path, bandwidth_cap=cap)
    conn = XrdConnection(server.address)
    try:
        handle, file_len = conn.open("f.bin")
        t0 = time.perf_counter()
        got = conn.read(handle, 0, file_len)
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert got == payload
    nominal = len(payload) / cap
    assert nominal * 0.6 < elapsed < nominal * 1.8


# --- prefetching connector ------------------------------------------------------


def test_connector_matches_direct_reads(open_remote):
    src = open_remote(read_ahead=512)
    try:
        assert src.size == len(CONTENT)
        for offset, length in [(0, 10), (5, 5), (1000, 2000), (10239, 1), (10230, 100), (0, 10240)]:
            assert src.read_at(offset, length) == CONTENT[offset : offset + length]
        assert src.read_at(4, 0) == b""
        assert src.read_at(len(CONTENT), 10) == b""
    finally:
        src.close()


def test_cache_hits_and_eviction_accounting(open_remote):
    assert CACHE_WINDOWS == 4
    stats = IoStats()
    src = open_remote(read_ahead=1024, stats=stats)
    try:
        src.read_at(0, 100)  # miss: fetch [0, 1024)
        src.read_at(100, 100)  # hit
        src.read_at(900, 124)  # hit (fully contained)
        assert (stats.fetch_calls, stats.bytes_fetched) == (1, 1024)
        src.read_at(2048, 100)  # miss: fetch [2048, 3072)
        src.read_at(4096, 100)  # miss: fetch [4096, 5120)
        src.read_at(6144, 100)  # miss: fetch [6144, 7168); four windows cached
        src.read_at(0, 100)  # hit; moves the first window back to MRU
        src.read_at(8192, 100)  # miss: evicts the [2048, 3072) window
        assert (stats.fetch_calls, stats.bytes_fetched) == (5, 5120)
        for offset in (0, 4096, 6144, 8192):
            src.read_at(offset, 100)  # all still cached
        assert stats.fetch_calls == 5
        src.read_at(2048, 100)  # was evicted: fetched again
        assert stats.fetch_calls == 6
        assert stats.bytes_requested == 100 * 12 + 124
        assert stats.read_calls == 13
    finally:
        src.close()


def test_amplification_is_one_without_read_ahead(open_remote):
    stats = IoStats()
    src = open_remote(read_ahead=1, stats=stats)
    try:
        for offset, length in [(0, 32), (64, 128), (500, 1), (9000, 1240)]:
            src.read_at(offset, length)
    finally:
        src.close()
    assert stats.bytes_fetched == stats.bytes_requested
    assert stats.amplification == 1.0


def test_read_ahead_clips_at_end_of_file(open_remote):
    stats = IoStats()
    src = open_remote(read_ahead=1 << 20, stats=stats)
    try:
        src.read_at(10000, 16)
    finally:
        src.close()
    assert stats.bytes_fetched == len(CONTENT) - 10000


@settings(max_examples=25)
@given(
    st.integers(1, 4096),
    st.lists(
        st.tuples(st.integers(0, len(CONTENT)), st.integers(0, 2048)),
        max_size=30,
    ),
)
def test_connector_traffic_matches_cache_simulation(open_remote, read_ahead, reads):
    stats = IoStats()
    src = open_remote(read_ahead=read_ahead, stats=stats)
    try:
        for offset, length in reads:
            got = src.read_at(offset, length)
            expect = CONTENT[offset : offset + length]
            assert got == expect
    finally:
        src.close()
    expected = simulate_cache(reads, len(CONTENT), read_ahead, CACHE_WINDOWS)
    assert stats.bytes_requested == expected["bytes_requested"]
    assert stats.bytes_fetched == expected["bytes_fetched"]
    assert stats.fetch_calls == expected["fetch_calls"]
