"""Client connection plus the read-ahead connector byte source."""

from __future__ import annotations

import socket
import threading
from typing import Sequence
from urllib.parse import urlsplit

from ..iostats import IoStats
from . import protocol as P
from .server import DEFAULT_PORT

CACHE_WINDOWS = 4  # read-ahead windows a RemoteByteSource keeps, least recently used dropped
TIMEOUT_S = 30.0  # connect and per-receive socket timeout


class XrdError(Exception):
    pass


class XrdProtocolError(XrdError):
    """The peer sent something the wire format does not allow."""


class XrdStatusError(XrdError):
    def __init__(self, status: int, message: str = ""):
        name = P.STATUS_NAMES.get(status, f"status {status}")
        super().__init__(f"{name}: {message}" if message else name)
        self.status = status


class XrdUrlError(XrdError, ValueError):
    """A URL that is not ``xrdl://host[:port]/path``."""


def parse_url(url: str) -> tuple[str, int, str]:
    """Split ``xrdl://host:port/path`` into (host, port, path)."""
    try:
        parts = urlsplit(url)
        port = parts.port
    except ValueError as exc:  # a port that is no number in 0-65535, a malformed IPv6 host
        raise XrdUrlError(f"bad xrdl URL {url!r}: {exc}") from None
    if parts.scheme != "xrdl":
        raise XrdUrlError(f"not an xrdl URL: {url!r}")
    if not parts.hostname:
        raise XrdUrlError(f"missing host in {url!r}")
    return parts.hostname, port or DEFAULT_PORT, parts.path or "/"


class XrdConnection:
    """Synchronous RPC over one TCP connection. Single-owner, not thread-safe.

    A request that ends in anything but a status reply, an ``OSError``
    (timeouts included) or an :class:`XrdProtocolError`, leaves the stream
    in an unknown state and marks the connection ``broken``: it must not
    carry another request. A status error leaves it usable.
    """

    def __init__(self, address: tuple[str, int]):
        self.broken = False
        self._sock = socket.create_connection(address, timeout=TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _request(self, frame: bytes) -> tuple[int, bytes]:
        try:
            self._sock.sendall(frame)
            status, payload = P.recv_frame(self._sock)
        except P.FrameError as exc:
            raise self._bad_reply(str(exc)) from exc
        except OSError:
            self.broken = True
            raise
        if status == -1:
            raise self._bad_reply("server closed the connection")
        return status, payload

    def _bad_reply(self, message: str) -> XrdProtocolError:
        self.broken = True
        return XrdProtocolError(message)

    def _expect_ok(self, frame: bytes) -> bytes:
        status, payload = self._request(frame)
        if status != P.ST_OK:
            raise XrdStatusError(status, payload.decode("utf-8", "replace"))
        return payload

    def open(self, path: str) -> tuple[int, int]:
        payload = self._expect_ok(P.pack_open_request(path))
        if len(payload) != P.OPEN_RESPONSE.size:
            raise self._bad_reply(f"OPEN response payload has {len(payload)} bytes")
        handle, file_len = P.OPEN_RESPONSE.unpack(payload)
        return handle, file_len

    def read(self, handle: int, offset: int, length: int) -> bytes | memoryview:
        """Read one range, which must lie wholly inside the file: a one-range :meth:`readv`."""
        return self.readv(handle, [(offset, length)])[0]

    def readv(self, handle: int, ranges: Sequence[tuple[int, int]]) -> list[bytes | memoryview]:
        """Read every (offset, length) range in full, returning one buffer per range.

        Each range must lie wholly inside the file. The list goes out in as
        few READV requests as the frame budget allows; a range larger than
        the budget is split across requests and joined again here.
        """
        out: list[list[bytes | memoryview]] = [[] for _ in ranges]
        for batch in _readv_batches(ranges):
            payload = self._expect_ok(
                P.pack_readv_request(handle, [(off, length) for _, off, length in batch])
            )
            if len(payload) != sum(length for _, _, length in batch):
                raise self._bad_reply(f"READV response payload has {len(payload)} bytes")
            view = memoryview(payload)
            pos = 0
            for index, _, length in batch:
                out[index].append(view[pos : pos + length])
                pos += length
        return [parts[0] if len(parts) == 1 else b"".join(parts) for parts in out]

    def stat(self, handle: int) -> int:
        payload = self._expect_ok(P.pack_frame(P.OP_STAT, P.HANDLE.pack(handle)))
        if len(payload) != P.FILE_LEN.size:
            raise self._bad_reply(f"STAT response payload has {len(payload)} bytes")
        return P.FILE_LEN.unpack(payload)[0]

    def close_handle(self, handle: int) -> None:
        self._expect_ok(P.pack_frame(P.OP_CLOSE, P.HANDLE.pack(handle)))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _readv_batches(ranges: Sequence[tuple[int, int]]) -> list[list[tuple[int, int, int]]]:
    """Pack ranges, in order, into the fewest READV requests that fit a frame.

    Each request carries at most MAX_FRAME - 1 bytes of ranges and
    READV_MAX_RANGES ranges. Items are (index into ``ranges``, offset,
    length); a range that does not fit the room left is cut.
    """
    budget = P.MAX_FRAME - 1
    batches: list[list[tuple[int, int, int]]] = []
    batch: list[tuple[int, int, int]] = []
    room = budget
    for index, (offset, length) in enumerate(ranges):
        while True:
            if len(batch) == P.READV_MAX_RANGES or (room == 0 and length > 0):
                batches.append(batch)
                batch, room = [], budget
            piece = min(length, room)
            batch.append((index, offset, piece))
            room -= piece
            offset += piece
            length -= piece
            if length == 0:
                break
    if batch:
        batches.append(batch)
    return batches


class RemoteByteSource:
    """Byte source over the wire with prefetch and LRU window caching.

    A read served entirely by a cached window costs no wire traffic;
    anything else fetches max(length, read_ahead) bytes anchored at the
    requested offset, clipped to the file end, as a one-range READV and
    caches that window, keeping the ``CACHE_WINDOWS`` most recently used.
    Reads return views of the cached response.
    :meth:`read_ranges` fetches exactly the ranges asked for, with no
    window.

    The source reads over a connection lent by a :class:`ConnectionPool`
    (:meth:`ConnectionPool.open`) and owns only its handle on the file.
    """

    def __init__(
        self,
        conn: XrdConnection,
        handle: int,
        file_len: int,
        read_ahead: int,
        stats: IoStats | None = None,
    ):
        self._conn = conn
        self._handle = handle
        self._size = file_len
        self._read_ahead = read_ahead
        self.stats = stats if stats is not None else IoStats()
        self._windows: list[tuple[int, bytes | memoryview]] = []  # LRU order: oldest first

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes | memoryview:
        if length <= 0:
            return b""
        self.stats.record_request(length)
        for i, (start, data) in enumerate(self._windows):
            if start <= offset and offset + length <= start + len(data):
                if i + 1 != len(self._windows):
                    self._windows.append(self._windows.pop(i))
                rel = offset - start
                return data[rel : rel + length]
        fetch_len = min(max(length, self._read_ahead), self._size - offset)
        if fetch_len <= 0:
            return b""
        data = self._conn.read(self._handle, offset, fetch_len)
        self.stats.record_fetch(len(data))
        self._windows.append((offset, data))
        if len(self._windows) > CACHE_WINDOWS:
            self._windows.pop(0)
        return data[:length]

    def read_ranges(self, ranges: Sequence[tuple[int, int]]) -> list[bytes | memoryview]:
        """Fetch every range with one vectored read, bypassing the window cache.

        Ranges are clipped to the file end, so a range is short only there,
        as with :meth:`read_at`.
        """
        clipped = []
        for offset, length in ranges:
            if length > 0:
                self.stats.record_request(length)
            start = min(offset, self._size)
            clipped.append((start, max(min(length, self._size - start), 0)))
        if not any(length for _, length in clipped):
            return [b""] * len(clipped)
        parts = self._conn.readv(self._handle, clipped)
        self.stats.record_fetch(sum(len(p) for p in parts))
        return parts

    def close(self) -> None:
        """Close the handle, unless the connection broke; the pool closes the connection.

        Raises nothing, so it cannot mask the error that broke a connection.
        """
        if not self._conn.broken:
            try:
                self._conn.close_handle(self._handle)
            except (XrdError, OSError):
                pass


class ConnectionPool:
    """Owner of every client connection: one per server and thread, open until :meth:`close`.

    :meth:`open` opens a remote file over the calling thread's connection
    to its server. :meth:`connection` lends that connection, opened on
    first use, and closes a broken one and opens a fresh one in its place.
    A connection is only ever lent to one thread, so it stays single-owner.
    """

    def __init__(self):
        self._conns: dict[tuple[tuple[str, int], int], XrdConnection] = {}
        self._lock = threading.Lock()

    def connection(self, address: tuple[str, int]) -> XrdConnection:
        key = (address, threading.get_ident())
        conn = self._conns.get(key)
        if conn is None or conn.broken:
            if conn is not None:
                conn.close()
            conn = XrdConnection(address)
            with self._lock:
                self._conns[key] = conn
        return conn

    def open(self, url: str, read_ahead: int, stats: IoStats | None = None) -> RemoteByteSource:
        """Open ``xrdl://host:port/path`` as a byte source over the calling thread's connection.

        Its reads fetch at least ``read_ahead`` bytes. The source opens a
        handle of its own, and closes it with itself.
        """
        host, port, path = parse_url(url)
        conn = self.connection((host, port))
        handle, file_len = conn.open(path)
        return RemoteByteSource(conn, handle, file_len, read_ahead, stats)

    def close(self) -> None:
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()
