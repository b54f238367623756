"""Threaded TCP server exposing files under a root directory for range reads."""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from . import protocol as P
from .throttle import TokenBucket

DEFAULT_PORT = 1094


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
        handles: dict[int, tuple[int, int]] = {}  # handle -> (fd, file_len)
        next_handle = 1
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
                if opcode == P.OP_OPEN:
                    if len(payload) < 2:
                        self._respond(sock, P.ST_MALFORMED, b"short OPEN payload")
                        return
                    (name_len,) = struct.unpack_from(">H", payload, 0)
                    if len(payload) != 2 + name_len:
                        self._respond(sock, P.ST_MALFORMED, b"OPEN length mismatch")
                        return
                    try:
                        path = payload[2:].decode("utf-8")
                    except UnicodeDecodeError:
                        self._respond(sock, P.ST_MALFORMED, b"path not UTF-8")
                        return
                    resolved = self._resolve(path)
                    if resolved is None:
                        self._respond(sock, P.ST_NOT_FOUND, path.encode("utf-8"))
                        continue
                    try:
                        fd = os.open(resolved, os.O_RDONLY)
                        file_len = os.fstat(fd).st_size
                    except OSError as exc:
                        self._respond(sock, P.ST_SERVER_ERROR, str(exc).encode("utf-8"))
                        continue
                    handle = next_handle
                    next_handle += 1
                    handles[handle] = (fd, file_len)
                    self._respond(sock, P.ST_OK, P.OPEN_RESPONSE.pack(handle, file_len))
                elif opcode == P.OP_READV:
                    head = P.READV_HEAD.size
                    if len(payload) < head:
                        self._respond(sock, P.ST_MALFORMED, b"short READV payload")
                        return
                    handle, n = P.READV_HEAD.unpack_from(payload)
                    if len(payload) != head + n * P.READV_RANGE.size:
                        self._respond(sock, P.ST_MALFORMED, b"READV length mismatch")
                        return
                    if handle not in handles:
                        self._respond(sock, P.ST_BAD_HANDLE, b"")
                        continue
                    fd, file_len = handles[handle]
                    ranges = list(P.READV_RANGE.iter_unpack(payload[head:]))
                    if any(offset + length > file_len for offset, length in ranges):
                        self._respond(sock, P.ST_RANGE_ERROR, b"range past end of file")
                        continue
                    total = sum(length for _, length in ranges)
                    if total > P.MAX_FRAME - 1:
                        self._respond(sock, P.ST_RANGE_ERROR, b"ranges exceed one frame")
                        continue
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
                        continue
                    if pos != len(frame):
                        self._respond(sock, P.ST_SERVER_ERROR, b"short read")
                        continue
                    self._send(sock, frame)
                elif opcode in (P.OP_STAT, P.OP_CLOSE):
                    if len(payload) != P.HANDLE.size:
                        self._respond(sock, P.ST_MALFORMED, b"bad handle payload")
                        return
                    (handle,) = P.HANDLE.unpack(payload)
                    if handle not in handles:
                        self._respond(sock, P.ST_BAD_HANDLE, b"")
                        continue
                    if opcode == P.OP_STAT:
                        self._respond(sock, P.ST_OK, P.FILE_LEN.pack(handles[handle][1]))
                    else:
                        os.close(handles.pop(handle)[0])
                        self._respond(sock, P.ST_OK, b"")
                else:
                    self._respond(sock, P.ST_MALFORMED, b"unknown opcode")
                    return
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            for fd, _ in handles.values():
                try:
                    os.close(fd)
                except OSError:
                    pass

    def _resolve(self, path: str) -> Path | None:
        """Map a request path into the served root; anything escaping is NotFound."""
        root: Path = self.server.root  # type: ignore[attr-defined]
        try:
            target = (root / path.lstrip("/")).resolve()
        except (OSError, ValueError):  # ValueError: a NUL byte in the path
            return None
        if not target.is_relative_to(root):
            return None
        if not target.is_file():
            return None
        return target

    def _respond(self, sock, status: int, payload: bytes) -> None:
        frame = _frame(status, len(payload))
        frame[P.PREFIX.size :] = payload
        self._send(sock, frame)

    def _send(self, sock, frame: bytearray) -> None:
        """Send one response frame, its payload through the bandwidth cap if one is set."""
        bucket: TokenBucket | None = self.server.bucket  # type: ignore[attr-defined]
        head = P.PREFIX.size
        if bucket is None or len(frame) == head:
            sock.sendall(frame)
            return
        view = memoryview(frame)
        sock.sendall(view[:head])
        # only data bytes count against the cap; headers are negligible
        step = bucket.chunk_size
        for start in range(head, len(view), step):
            chunk = view[start : start + step]
            bucket.consume(len(chunk))
            sock.sendall(chunk)


def _frame(status: int, n: int) -> bytearray:
    """A response frame for an ``n``-byte payload: the header packed, the payload to fill."""
    frame = bytearray(P.PREFIX.size + n)
    P.PREFIX.pack_into(frame, 0, 1 + n, status)
    return frame


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class XrdServer:
    """Running server handle with explicit lifecycle, usable as a context manager."""

    def __init__(self, config: ServerConfig):
        root = Path(config.root_dir).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"root_dir {config.root_dir!r} is not a directory")
        if config.bandwidth_cap is not None and config.bandwidth_cap <= 0:
            raise ValueError("bandwidth_cap must be positive when set")
        self.config = config
        self._server = _TcpServer((config.host, config.port), _Handler)
        self._server.root = root  # type: ignore[attr-defined]
        self._server.bucket = (  # type: ignore[attr-defined]
            TokenBucket(config.bandwidth_cap) if config.bandwidth_cap else None
        )
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> "XrdServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
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
