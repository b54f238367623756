"""Random-access byte sources shared by the tree reader and the remote client."""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .iostats import IoStats

if TYPE_CHECKING:
    from .xrdlite.client import ConnectionPool

READ_AHEAD = 64 << 10  # bytes; the default least fetch of a remote read


@runtime_checkable
class ByteSource(Protocol):
    """Read-at-offset abstraction over local files, memory, or the wire."""

    @property
    def size(self) -> int: ...

    def read_at(self, offset: int, length: int) -> bytes | memoryview: ...

    def read_ranges(self, ranges: Sequence[tuple[int, int]]) -> list[bytes | memoryview]:
        """One buffer per (offset, length) range, in order, each short only at end of file."""
        ...

    def close(self) -> None: ...


class BytesSource:
    """In-memory source, mostly for tests and small round trips."""

    def __init__(self, data: bytes):
        self._data = data

    @property
    def size(self) -> int:
        return len(self._data)

    def read_at(self, offset: int, length: int) -> bytes:
        return self._data[offset : offset + length]

    def read_ranges(self, ranges: Sequence[tuple[int, int]]) -> list[bytes]:
        return [self.read_at(offset, length) for offset, length in ranges]

    def close(self) -> None:
        pass


class FileSource:
    """Positioned reads over a local file.

    Uses ``os.pread``, so concurrent readers never race on a shared file
    offset. Optionally records every read into an :class:`IoStats`
    (local reads have amplification 1 by construction).
    """

    def __init__(self, path: str | Path, stats: IoStats | None = None):
        self._path = str(path)
        self._fd = os.open(self._path, os.O_RDONLY)
        self._size = os.fstat(self._fd).st_size
        self.stats = stats

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        data = os.pread(self._fd, length, offset)
        if self.stats is not None:
            self.stats.record_request(len(data))
            self.stats.record_fetch(len(data))
        return data

    def read_ranges(self, ranges: Sequence[tuple[int, int]]) -> list[bytes]:
        return [self.read_at(offset, length) for offset, length in ranges]

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __repr__(self) -> str:
        return f"FileSource({self._path!r})"


def open_source(
    path_or_url: str | Path,
    *,
    read_ahead: int = READ_AHEAD,
    stats: IoStats | None = None,
    connections: ConnectionPool,
) -> ByteSource:
    """Open a local path or an ``xrdl://host:port/path`` URL as a byte source.

    ``read_ahead`` is the least a remote read fetches; local reads ignore it.
    A remote source reads over the calling thread's connection from
    ``connections``, which owns and closes it; the source opens its own
    handle on the file and closes that with itself.
    """
    text = str(path_or_url)
    if text.startswith("xrdl://"):
        return connections.open(text, read_ahead, stats)
    return FileSource(text, stats=stats)
