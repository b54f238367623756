"""Byte-range remote file access: a small TCP server, client, and
read-ahead connector with LRU window caching and I/O accounting."""

from ..iostats import IoStats
from .client import (
    ConnectionPool,
    RemoteByteSource,
    XrdConnection,
    XrdError,
    XrdProtocolError,
    XrdStatusError,
    XrdUrlError,
    parse_url,
)
from .protocol import (
    MAX_FRAME,
    OP_CLOSE,
    OP_OPEN,
    OP_READV,
    OP_STAT,
    ST_BAD_HANDLE,
    ST_MALFORMED,
    ST_NOT_FOUND,
    ST_OK,
    ST_RANGE_ERROR,
    ST_SERVER_ERROR,
    STATUS_NAMES,
)
from .server import ServerConfig, ServerCounters, XrdServer, serve
from .throttle import TokenBucket

__all__ = [
    "IoStats",
    "ConnectionPool",
    "RemoteByteSource",
    "XrdConnection",
    "XrdError",
    "XrdProtocolError",
    "XrdStatusError",
    "XrdUrlError",
    "parse_url",
    "MAX_FRAME",
    "OP_OPEN",
    "OP_READV",
    "OP_STAT",
    "OP_CLOSE",
    "ST_OK",
    "ST_NOT_FOUND",
    "ST_BAD_HANDLE",
    "ST_RANGE_ERROR",
    "ST_MALFORMED",
    "ST_SERVER_ERROR",
    "STATUS_NAMES",
    "ServerConfig",
    "ServerCounters",
    "XrdServer",
    "serve",
    "TokenBucket",
]
