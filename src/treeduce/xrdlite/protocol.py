"""Wire format shared by server and client.

Every frame is ``frame_len u32 | first_byte u8 | payload`` with
``frame_len = 1 + len(payload)``, all integers big-endian. For requests
the first byte is an opcode, for responses a status code.

    OPEN  request: path (u16 length + UTF-8); response: handle u32 | file_len u64
    STAT  request: handle u32; response: file_len u64
    CLOSE request: handle u32; response: empty
    READV request: handle u32 | n u32 | n x (offset u64 | length u32);
          response: the n ranges' bytes, concatenated in request order

READV is the one read request; a single range is a READV of one. It is
all or nothing: it answers RangeError if any range is not wholly inside
the file or the lengths total more than MAX_FRAME - 1, ServerError if
the file shrank after OPEN measured it, and Malformed (then closes) if
the payload is not 8 + 12n bytes long. Opcode 2 is unassigned and, like
any unknown opcode, answered Malformed before the server closes.

Error responses carry a UTF-8 message as payload.
"""

from __future__ import annotations

import socket
import struct

OP_OPEN = 1
OP_STAT = 3
OP_CLOSE = 4
OP_READV = 5

OP_NAMES = {OP_OPEN: "OPEN", OP_STAT: "STAT", OP_CLOSE: "CLOSE", OP_READV: "READV"}

ST_OK = 0
ST_NOT_FOUND = 1
ST_BAD_HANDLE = 2
ST_RANGE_ERROR = 3
ST_MALFORMED = 4
ST_SERVER_ERROR = 5

STATUS_NAMES = {
    ST_OK: "OK",
    ST_NOT_FOUND: "NotFound",
    ST_BAD_HANDLE: "BadHandle",
    ST_RANGE_ERROR: "RangeError",
    ST_MALFORMED: "Malformed",
    ST_SERVER_ERROR: "ServerError",
}

MAX_FRAME = 1 << 20

PREFIX = struct.Struct(">IB")  # frame_len u32 | first_byte u8
OPEN_RESPONSE = struct.Struct(">IQ")
HANDLE = struct.Struct(">I")
FILE_LEN = struct.Struct(">Q")
READV_HEAD = struct.Struct(">II")
READV_RANGE = struct.Struct(">QI")
# the most ranges one READV request frame can carry
READV_MAX_RANGES = (MAX_FRAME - 1 - READV_HEAD.size) // READV_RANGE.size


class FrameError(Exception):
    """Raised on truncated streams or frames violating the format."""


def pack_frame(first_byte: int, payload: bytes = b"") -> bytes:
    return PREFIX.pack(1 + len(payload), first_byte) + payload


def pack_open_request(path: str) -> bytes:
    raw = path.encode("utf-8")
    return pack_frame(OP_OPEN, struct.pack(">H", len(raw)) + raw)


def pack_readv_request(handle: int, ranges) -> bytes:
    """READV frame for ``ranges``, a sequence of (offset, length) pairs."""
    parts = [READV_HEAD.pack(handle, len(ranges))]
    parts += [READV_RANGE.pack(offset, length) for offset, length in ranges]
    return pack_frame(OP_READV, b"".join(parts))


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly n bytes into one buffer or raise FrameError on early EOF."""
    buf = bytearray(n)
    view = memoryview(buf)
    pos = 0
    while pos < n:
        got = sock.recv_into(view[pos:])
        if not got:
            raise FrameError(f"connection closed with {n - pos} bytes outstanding")
        pos += got
    return buf


def recv_frame(sock: socket.socket) -> tuple[int, bytes | bytearray]:
    """Receive one frame, returning (first_byte, payload).

    Returns (-1, b"") on clean EOF at a frame boundary.
    """
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            if head:
                raise FrameError("connection closed mid frame header")
            return -1, b""
        head += chunk
    (frame_len,) = struct.unpack(">I", head)
    if frame_len < 1 or frame_len > MAX_FRAME:
        raise FrameError(f"frame length {frame_len} outside [1, {MAX_FRAME}]")
    # the payload gets a buffer of its own: slicing it off would copy it
    first = recv_exact(sock, 1)[0]
    return first, recv_exact(sock, frame_len - 1)
