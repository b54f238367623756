"""Wire protocol, server, throttling, and prefetching connector tests."""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_interp import simulate_cache
from treeduce.iostats import IoStats
from treeduce.xrdlite import (
    ConnectorConfig,
    ServerConfig,
    TokenBucket,
    XrdConnection,
    XrdStatusError,
    connector_open,
    parse_url,
    serve,
)
from treeduce.xrdlite import protocol as P

CONTENT = bytes(range(256)) * 40  # 10240 bytes


@pytest.fixture
def served_file(tmp_path, serve_dir):
    (tmp_path / "data.bin").write_bytes(CONTENT)
    server = serve_dir(tmp_path)
    return server.address


def raw_socket(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5)
    sock.settimeout(5)
    return sock


# --- frame encoding ----------------------------------------------------------


def test_frame_bytes_pinned():
    assert P.pack_frame(2, b"xyz") == struct.pack(">IB", 4, 2) + b"xyz"
    assert P.pack_open_request("data.trf") == (
        struct.pack(">IB", 1 + 2 + 8, P.OP_OPEN) + struct.pack(">H", 8) + b"data.trf"
    )
    assert P.pack_read_request(7, 1024, 512) == (
        struct.pack(">IB", 17, P.OP_READ) + struct.pack(">IQI", 7, 1024, 512)
    )
    assert (P.OP_OPEN, P.OP_READ, P.OP_STAT, P.OP_CLOSE) == (1, 2, 3, 4)
    assert P.MAX_FRAME == 1 << 20


def test_parse_url_forms():
    assert parse_url("xrdl://h:2000/a/b.trf") == ("h", 2000, "/a/b.trf")
    assert parse_url("xrdl://h/a.trf") == ("h", 1094, "/a.trf")
    assert parse_url("xrdl://h") == ("h", 1094, "/")
    with pytest.raises(ValueError):
        parse_url("http://h/a")
    with pytest.raises(ValueError):
        parse_url("xrdl:///nohost")


def test_connector_config_validation():
    with pytest.raises(ValueError):
        ConnectorConfig(read_ahead=0)
    with pytest.raises(ValueError):
        ConnectorConfig(max_cache_windows=0)


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
        assert conn.read(handle, file_len - 5, 100) == CONTENT[-5:]  # clipped
        assert conn.read(handle, file_len, 10) == b""  # exactly at EOF
        assert conn.read(handle, 0, 0) == b""
        with pytest.raises(XrdStatusError) as exc:
            conn.read(handle, file_len + 1, 1)
        assert exc.value.status == P.ST_RANGE_ERROR
    finally:
        conn.close()


def test_open_failures(served_file):
    conn = XrdConnection(served_file)
    try:
        for path in ["missing.bin", "../escape.bin", "a/../../etc/passwd"]:
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
            P.pack_read_request(999, 0, 1),
            P.pack_frame(P.OP_STAT, P.HANDLE.pack(999)),
            P.pack_frame(P.OP_CLOSE, P.HANDLE.pack(999)),
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
        got = conn.read(handle, 0, file_len)
        assert got == big
        # single wire READ answers short rather than break the frame cap
        raw = conn._expect_ok(P.pack_read_request(handle, 0, file_len))
        assert len(raw) == P.MAX_FRAME - 1
    finally:
        conn.close()


def test_malformed_frames_get_status_then_close(served_file):
    for frame in [
        P.pack_frame(200, b""),  # unknown opcode
        P.pack_frame(P.OP_READ, b"short"),
        P.pack_frame(P.OP_OPEN, struct.pack(">H", 99) + b"x"),  # length mismatch
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


def open_remote(address, read_ahead=65536, windows=4, stats=None):
    config = ConnectorConfig(read_ahead=read_ahead, max_cache_windows=windows)
    return connector_open(address, "data.bin", config, stats)


def test_connector_matches_direct_reads(served_file):
    src = open_remote(served_file, read_ahead=512)
    try:
        assert src.size == len(CONTENT)
        for offset, length in [(0, 10), (5, 5), (1000, 2000), (10239, 1), (10230, 100), (0, 10240)]:
            assert src.read_at(offset, length) == CONTENT[offset : offset + length]
        assert src.read_at(4, 0) == b""
        assert src.read_at(len(CONTENT), 10) == b""
    finally:
        src.close()


def test_cache_hits_and_eviction_accounting(served_file):
    stats = IoStats()
    src = open_remote(served_file, read_ahead=1024, windows=2, stats=stats)
    try:
        src.read_at(0, 100)  # miss: fetch [0, 1024)
        src.read_at(100, 100)  # hit
        src.read_at(900, 124)  # hit (fully contained)
        assert (stats.fetch_calls, stats.bytes_fetched) == (1, 1024)
        src.read_at(2048, 100)  # miss: fetch [2048, 3072)
        src.read_at(0, 100)  # hit; moves first window back to MRU
        src.read_at(4096, 100)  # miss: evicts the [2048, 3072) window
        assert (stats.fetch_calls, stats.bytes_fetched) == (3, 3072)
        src.read_at(0, 100)  # still cached
        assert stats.fetch_calls == 3
        src.read_at(2048, 100)  # was evicted: fetched again
        assert stats.fetch_calls == 4
        assert stats.bytes_requested == 100 * 7 + 124
        assert stats.read_calls == 8
    finally:
        src.close()


def test_amplification_is_one_without_read_ahead(served_file):
    stats = IoStats()
    src = open_remote(served_file, read_ahead=1, stats=stats)
    try:
        for offset, length in [(0, 32), (64, 128), (500, 1), (9000, 1240)]:
            src.read_at(offset, length)
    finally:
        src.close()
    assert stats.bytes_fetched == stats.bytes_requested
    assert stats.amplification == 1.0


def test_read_ahead_clips_at_end_of_file(served_file):
    stats = IoStats()
    src = open_remote(served_file, read_ahead=1 << 20, stats=stats)
    try:
        src.read_at(10000, 16)
    finally:
        src.close()
    assert stats.bytes_fetched == len(CONTENT) - 10000


@settings(max_examples=25)
@given(
    st.integers(1, 4096),
    st.integers(1, 4),
    st.lists(
        st.tuples(st.integers(0, len(CONTENT)), st.integers(0, 2048)),
        max_size=30,
    ),
)
def test_connector_traffic_matches_cache_simulation(served_file, read_ahead, windows, reads):
    stats = IoStats()
    src = open_remote(served_file, read_ahead=read_ahead, windows=windows, stats=stats)
    try:
        for offset, length in reads:
            got = src.read_at(offset, length)
            expect = CONTENT[offset : offset + length]
            assert got == expect
    finally:
        src.close()
    expected = simulate_cache(reads, len(CONTENT), read_ahead, windows)
    assert stats.bytes_requested == expected["bytes_requested"]
    assert stats.bytes_fetched == expected["bytes_fetched"]
    assert stats.fetch_calls == expected["fetch_calls"]
