"""Threaded TCP server exposing files under a root directory for range reads."""

from __future__ import annotations

import os
import socket
import socketserver
import stat
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import protocol as P
from .throttle import TokenBucket

DEFAULT_PORT = 1094
# How often the accept loop checks for a stop request, in seconds: stop()
# waits up to this long. socketserver's default of 0.5 s made every stop take
# about 0.45 s. An idle server's 20 wake-ups a second took 0.27% of a core
# (0.03% at 0.5 s) on a 2-core VM, about 0.2% of a reduce-remote job's CPU.
_POLL_INTERVAL_S = 0.05
# Files one connection may hold open at once; an OPEN past it is answered
# ServerError without opening the file, so a client that never sends CLOSE
# cannot use up the server's descriptors. The engine holds at most one per
# connection, as each worker thread has its own and reads one file at a time.
MAX_OPEN_HANDLES = 64


@dataclass
class ServerConfig:
    root_dir: str
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    bandwidth_cap: int | None = None  # payload bytes/second; None = unlimited


class _Handler(socketserver.BaseRequestHandler):
    """One loop per connection: synchronous request/response, no pipelining."""

    def handle(self) -> None:
        sock = self.request
        server: _TcpServer = self.server  # type: ignore[assignment]
        self.handles: dict[int, tuple[int, int]] = {}  # handle -> (fd, file_len)
        self.next_handle = 1
        server.count_connection(opened=True)
        try:
            # responses are small and the client waits for each one, so
            # Nagle's algorithm would hold them until the client's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    opcode, payload = P.recv_frame(sock)
                except P.FrameError:
                    self._respond(sock, P.ST_MALFORMED, b"bad frame")
                    return
                if opcode == -1:
                    return
                server.count_request(opcode)
                if not self._serve(sock, opcode, payload):
                    return
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            for fd, _ in self.handles.values():
                try:
                    os.close(fd)
                except OSError:
                    pass
            server.count_connection(opened=False)

    def _serve(self, sock, opcode: int, payload: bytearray) -> bool:
        """Answer one request; False once the connection is to be closed."""
        handles = self.handles
        if opcode == P.OP_OPEN:
            if len(payload) < 2:
                self._respond(sock, P.ST_MALFORMED, b"short OPEN payload")
                return False
            (name_len,) = struct.unpack_from(">H", payload, 0)
            if len(payload) != 2 + name_len:
                self._respond(sock, P.ST_MALFORMED, b"OPEN length mismatch")
                return False
            try:
                path = payload[2:].decode("utf-8")
            except UnicodeDecodeError:
                self._respond(sock, P.ST_MALFORMED, b"path not UTF-8")
                return False
            if len(handles) >= MAX_OPEN_HANDLES:
                message = f"at most {MAX_OPEN_HANDLES} handles may be open on one connection"
                self._respond(sock, P.ST_SERVER_ERROR, message.encode("utf-8"))
                return True
            resolved = self._resolve(path)
            if resolved is None:
                self._respond(sock, P.ST_NOT_FOUND, path.encode("utf-8"))
                return True
            try:
                fd = os.open(resolved, os.O_RDONLY)
                file_len = os.fstat(fd).st_size
            except OSError as exc:
                self._respond(sock, P.ST_SERVER_ERROR, str(exc).encode("utf-8"))
                return True
            handle = self.next_handle
            self.next_handle += 1
            handles[handle] = (fd, file_len)
            self._respond(sock, P.ST_OK, P.OPEN_RESPONSE.pack(handle, file_len))
        elif opcode == P.OP_READV:
            head = P.READV_HEAD.size
            if len(payload) < head:
                self._respond(sock, P.ST_MALFORMED, b"short READV payload")
                return False
            handle, n = P.READV_HEAD.unpack_from(payload)
            if len(payload) != head + n * P.READV_RANGE.size:
                self._respond(sock, P.ST_MALFORMED, b"READV length mismatch")
                return False
            if handle not in handles:
                self._respond(sock, P.ST_BAD_HANDLE, b"")
                return True
            fd, file_len = handles[handle]
            ranges = list(P.READV_RANGE.iter_unpack(payload[head:]))
            if any(offset + length > file_len for offset, length in ranges):
                self._respond(sock, P.ST_RANGE_ERROR, b"range past end of file")
                return True
            total = sum(length for _, length in ranges)
            if total > P.MAX_FRAME - 1:
                self._respond(sock, P.ST_RANGE_ERROR, b"ranges exceed one frame")
                return True
            # each range is read straight into its place in the response
            frame = _frame(P.ST_OK, total)
            view = memoryview(frame)
            pos = P.PREFIX.size
            try:
                for offset, length in ranges:
                    if os.preadv(fd, [view[pos : pos + length]], offset) != length:
                        break  # the file shrank after OPEN measured it
                    pos += length
            except OSError as exc:
                self._respond(sock, P.ST_SERVER_ERROR, str(exc).encode("utf-8"))
                return True
            if pos != len(frame):
                self._respond(sock, P.ST_SERVER_ERROR, b"short read")
                return True
            self._send(sock, frame)
        elif opcode in (P.OP_STAT, P.OP_CLOSE):
            if len(payload) != P.HANDLE.size:
                self._respond(sock, P.ST_MALFORMED, b"bad handle payload")
                return False
            (handle,) = P.HANDLE.unpack(payload)
            if handle not in handles:
                self._respond(sock, P.ST_BAD_HANDLE, b"")
                return True
            if opcode == P.OP_STAT:
                self._respond(sock, P.ST_OK, P.FILE_LEN.pack(handles[handle][1]))
            else:
                os.close(handles.pop(handle)[0])
                self._respond(sock, P.ST_OK, b"")
        else:
            self._respond(sock, P.ST_MALFORMED, b"unknown opcode")
            return False
        return True

    def _resolve(self, path: str) -> str | None:
        """Map a request path to a regular file in the served root; else NotFound."""
        prefix: str = self.server.root_prefix  # type: ignore[attr-defined]
        try:
            target = os.path.realpath(prefix + path.lstrip("/"))
            if target.startswith(prefix) and stat.S_ISREG(os.stat(target).st_mode):
                return target
        except (OSError, ValueError):  # ValueError: a NUL byte in the path
            pass
        return None

    def _respond(self, sock, status: int, payload: bytes) -> None:
        frame = _frame(status, len(payload))
        frame[P.PREFIX.size :] = payload
        self._send(sock, frame)

    def _send(self, sock, frame: bytearray) -> None:
        """Send one response frame, its payload through the bandwidth cap if one is set."""
        server: _TcpServer = self.server  # type: ignore[assignment]
        bucket = server.bucket
        head = P.PREFIX.size
        if bucket is None or len(frame) == head:
            sock.sendall(frame)
            server.count_sent(len(frame) - head, 0.0)
            return
        view = memoryview(frame)
        sock.sendall(view[:head])
        # only data bytes count against the cap; headers are negligible
        step = bucket.chunk_size
        waited = 0.0
        for start in range(head, len(view), step):
            chunk = view[start : start + step]
            t0 = time.perf_counter()
            bucket.consume(len(chunk))
            waited += time.perf_counter() - t0
            sock.sendall(chunk)
        server.count_sent(len(frame) - head, waited)


def _frame(status: int, n: int) -> bytearray:
    """A response frame for an ``n``-byte payload: the header packed, the payload to fill."""
    frame = bytearray(P.PREFIX.size + n)
    P.PREFIX.pack_into(frame, 0, 1 + n, status)
    return frame


@dataclass
class ServerCounters:
    """What a server did since it started, as :meth:`XrdServer.counters` reads it."""

    connections_accepted: int = 0
    connections_open: int = 0
    requests: dict[int, int] = field(default_factory=dict)  # opcode -> requests received
    payload_bytes_sent: int = 0  # response payloads, frame headers not counted
    throttle_wait_s: float = 0.0  # seconds responses waited on the bandwidth cap

    def summary(self) -> str:
        """The counters as one line."""
        requests = ", ".join(
            f"{P.OP_NAMES.get(op, f'opcode {op}')} {n}" for op, n in sorted(self.requests.items())
        )
        return (
            f"connections: {self.connections_accepted} accepted, {self.connections_open} open; "
            f"requests: {requests or 'none'}; payload bytes sent: {self.payload_bytes_sent}; "
            f"throttle wait: {self.throttle_wait_s:.3f} s"
        )


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # socketserver's default backlog of 5 makes a burst of simultaneous
    # connects wait on SYN retransmits, a second or more each
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address: tuple[str, int], root: Path, bucket: TokenBucket | None):
        super().__init__(address, _Handler)
        self.root_prefix = os.path.join(root, "")  # the resolved root, ending in a separator
        self.bucket = bucket
        self.counters = ServerCounters()
        self.counters_lock = threading.Lock()

    def count_connection(self, opened: bool) -> None:
        with self.counters_lock:
            self.counters.connections_accepted += opened
            self.counters.connections_open += 1 if opened else -1

    def count_request(self, opcode: int) -> None:
        with self.counters_lock:
            requests = self.counters.requests
            requests[opcode] = requests.get(opcode, 0) + 1

    def count_sent(self, payload_bytes: int, waited_s: float) -> None:
        with self.counters_lock:
            self.counters.payload_bytes_sent += payload_bytes
            self.counters.throttle_wait_s += waited_s


class XrdServer:
    """Running server handle with explicit lifecycle, usable as a context manager."""

    def __init__(self, config: ServerConfig):
        root = Path(config.root_dir).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"root_dir {config.root_dir!r} is not a directory")
        if config.bandwidth_cap is not None and config.bandwidth_cap <= 0:
            raise ValueError("bandwidth_cap must be positive when set")
        if not 0 <= config.port <= 65535:
            raise ValueError(f"port must be 0-65535, got {config.port}")
        self.config = config
        bucket = TokenBucket(config.bandwidth_cap) if config.bandwidth_cap else None
        self._server = _TcpServer((config.host, config.port), root, bucket)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def counters(self) -> ServerCounters:
        """A snapshot of the server's counters."""
        with self._server.counters_lock:
            counters = self._server.counters
            return replace(counters, requests=dict(counters.requests))

    def start(self) -> "XrdServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        self._thread = None

    def __enter__(self) -> "XrdServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(config: ServerConfig) -> XrdServer:
    """Start a server in a background thread; caller stops it."""
    return XrdServer(config).start()
