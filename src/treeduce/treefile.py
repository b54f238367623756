"""TreeFile v1: a columnar event container with basket-level compression.

Layout (all integers big-endian):

    header     32 bytes: magic "TRF1" | version u32 | dir_offset u64
                         | dir_len u64 | file_len u64
    baskets    bare payloads, one per (branch, basket index entry)
    directory  one Record (codec u8 | raw_len u32 | stored payload)
               whose decompressed payload describes every tree/branch/basket

Flat basket payload: n_entries elements, big-endian.
Jagged basket payload: (n_entries + 1) u64 basket-local element offsets
(first is 0), then the flattened elements, big-endian.

Codec 2 (shuffle) stores a basket payload regrouped into byte planes
(plane k holds byte k of every element) and deflated at level 1. Codec 3
(planes) regroups the same way, deflates only the planes whose sampled byte
entropy says they will shrink, stores the others raw under a CRC32, and is
what writers use by default.
"""

from __future__ import annotations

import bisect
import ctypes
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .sources import ByteSource, BytesSource, FileSource

MAGIC = b"TRF1"
VERSION = 1
HEADER_LEN = 32

_HEADER = struct.Struct(">4sIQQQ")
_BASKET_ENTRY = struct.Struct(">QIQIIB")
_CRC = struct.Struct(">I")

# Compression must pay for itself; equal-size output keeps the raw bytes.
_DEFLATE_LEVEL = 6
# On the demo job's part-file baskets, shuffled level 6 stores only 1.4%
# fewer bytes than level 1 and takes 1.8x as long. Codecs 2 and 3 both use it.
_SHUFFLE_LEVEL = 1
# Codec 3 deflates a plane when the byte histogram of its first
# _PLANE_SAMPLE bytes estimates under _PLANE_MAX_ENTROPY bits per byte. On
# the part files of a seed-1 demo reduce (144 baskets, 1,296 planes of
# mostly 8 KiB, 2-core VM) the histograms take 8 ms where a level-1 zlib
# probe of each plane's first 4 KiB takes 58 ms, and they pick the same
# planes as deflating each plane in full on 1,232 of the 1,296.
_PLANE_SAMPLE = 1024
_PLANE_MAX_ENTROPY = 7.0

DEFAULT_BASKET_ENTRIES = 8192

# Deflate codes at most 258 bytes per two bits (a one-bit length code and a
# one-bit distance code), so no stream of n bytes inflates to more than
# 1032 * n bytes. A larger declared length is corrupt and never allocated.
_MAX_INFLATE_RATIO = 1032


class Dtype(IntEnum):
    I32 = 1
    I64 = 2
    F32 = 3
    F64 = 4
    BOOL = 5


class Shape(IntEnum):
    FLAT = 0
    JAGGED = 1


class Codec(IntEnum):
    NONE = 0
    DEFLATE = 1
    SHUFFLE = 2
    PLANES = 3


_DTYPE_BE = {
    Dtype.I32: np.dtype(">i4"),
    Dtype.I64: np.dtype(">i8"),
    Dtype.F32: np.dtype(">f4"),
    Dtype.F64: np.dtype(">f8"),
    Dtype.BOOL: np.dtype("u1"),
}

_DTYPE_NATIVE = {
    Dtype.I32: np.dtype(np.int32),
    Dtype.I64: np.dtype(np.int64),
    Dtype.F32: np.dtype(np.float32),
    Dtype.F64: np.dtype(np.float64),
    Dtype.BOOL: np.dtype(bool),
}

_NUMPY_TO_DTYPE = {
    np.dtype(np.int32): Dtype.I32,
    np.dtype(np.int64): Dtype.I64,
    np.dtype(np.float32): Dtype.F32,
    np.dtype(np.float64): Dtype.F64,
    np.dtype(bool): Dtype.BOOL,
}


class TreeFileError(Exception):
    """Base for everything this module raises on purpose."""


class CorruptFileError(TreeFileError):
    """Structurally invalid bytes: bad magic, truncation, range violations."""


class SchemaError(TreeFileError):
    """Caller-side misuse: unknown tree/branch, bad entry range, bad input data."""


def itemsize(dtype: Dtype) -> int:
    return _DTYPE_BE[dtype].itemsize


# ---------------------------------------------------------------------------
# inflate


def _load_libdeflate() -> ctypes.CDLL | None:
    """The host's libdeflate, or None where it is not installed.

    Loaded by its soname, so the dynamic loader finds it without the
    ``ldconfig`` subprocess that ``ctypes.util.find_library`` runs.
    """
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_zlib_decompress_ex.argtypes = [
            ctypes.c_void_p,  # decompressor
            ctypes.c_void_p, ctypes.c_size_t,  # in, in_nbytes
            ctypes.c_void_p, ctypes.c_size_t,  # out, out_nbytes_avail
            ctypes.POINTER(ctypes.c_size_t),  # actual_in_nbytes_ret
            ctypes.POINTER(ctypes.c_size_t),  # actual_out_nbytes_ret
        ]
        lib.libdeflate_zlib_decompress_ex.restype = ctypes.c_int
    except (OSError, AttributeError):  # not installed, or too old for the _ex call
        return None
    return lib


# Inflates every zlib stream when loaded; None selects the zlib module.
# ctypes releases the GIL around each call, so threads inflate at once.
_LIBDEFLATE = _load_libdeflate()


class _OutParams(threading.local):
    """The two ``size_t`` out-parameters of the inflate call, made once per thread."""

    def __init__(self):
        self.used_in, self.used_out = ctypes.c_size_t(), ctypes.c_size_t()
        self.refs = (ctypes.byref(self.used_in), ctypes.byref(self.used_out))


_OUT_PARAMS = _OutParams()


def _inflate(stored: bytes | memoryview, raw_len: int) -> np.ndarray:
    """Inflate one whole zlib stream that must yield exactly ``raw_len`` bytes.

    Both inflaters require that the stream checks out (Adler-32 included),
    that it ends exactly at the end of ``stored`` and that exactly
    ``raw_len`` bytes come out; anything else is :class:`CorruptFileError`.
    """
    n_in = len(stored)
    if raw_len > _MAX_INFLATE_RATIO * n_in:
        raise CorruptFileError(
            f"{raw_len} bytes declared for a deflate stream of {n_in} bytes, "
            f"more than {_MAX_INFLATE_RATIO}x"
        )
    lib = _LIBDEFLATE
    if lib is None:
        inflater = zlib.decompressobj()
        try:
            # one byte more than declared is enough to see a stream run long
            raw = inflater.decompress(stored, raw_len + 1)
        except zlib.error as exc:
            problem = str(exc)
        else:
            if inflater.eof and not inflater.unused_data and len(raw) == raw_len:
                return np.frombuffer(raw, dtype=np.uint8)
            problem = (
                f"{len(raw)} bytes out, stream {'ended' if inflater.eof else 'unfinished'}, "
                f"{len(inflater.unused_data)} bytes after it"
            )
    else:
        src = np.frombuffer(stored, dtype=np.uint8).ctypes.data  # stored may be read-only
        out = np.empty(raw_len, dtype=np.uint8)
        # a writable buffer's address is cheaper from ctypes than from numpy; an
        # empty one has none, and libdeflate writes nothing when nothing may come out
        dst = ctypes.addressof(ctypes.c_char.from_buffer(out)) if raw_len else None
        params = _OUT_PARAMS
        # libdeflate decompressors are not thread-safe: one per call
        decompressor = lib.libdeflate_alloc_decompressor()
        if not decompressor:
            raise MemoryError("libdeflate_alloc_decompressor failed")
        try:
            result = lib.libdeflate_zlib_decompress_ex(
                decompressor, src, n_in, dst, raw_len, *params.refs
            )
        finally:
            lib.libdeflate_free_decompressor(decompressor)
        used_in, used_out = params.used_in.value, params.used_out.value
        if result == 0 and used_in == n_in and used_out == raw_len:
            return out
        # result 1 is bad data (Adler-32 included), 3 more output than raw_len
        problem = (
            f"libdeflate result {result}, {used_out} bytes out, "
            f"{n_in - used_in} bytes after the stream"
        )
    raise CorruptFileError(
        f"deflate stream is corrupt or does not end in exactly the {raw_len} bytes declared "
        f"({problem})"
    )


# ---------------------------------------------------------------------------
# metadata


@dataclass(frozen=True)
class TreeFileHeader:
    dir_offset: int
    dir_len: int
    file_len: int

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.dir_offset, self.dir_len, self.file_len)

    @classmethod
    def unpack(cls, raw: bytes) -> "TreeFileHeader":
        if len(raw) < HEADER_LEN:
            raise CorruptFileError(f"header truncated: got {len(raw)} bytes, need {HEADER_LEN}")
        magic, version, dir_offset, dir_len, file_len = _HEADER.unpack(raw[:HEADER_LEN])
        if magic != MAGIC:
            raise CorruptFileError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptFileError(f"unsupported version {version}")
        return cls(dir_offset, dir_len, file_len)


@dataclass(frozen=True)
class BasketIndexEntry:
    first_entry: int
    n_entries: int
    offset: int
    stored_len: int
    raw_len: int
    codec: Codec

    def pack(self) -> bytes:
        return _BASKET_ENTRY.pack(
            self.first_entry, self.n_entries, self.offset,
            self.stored_len, self.raw_len, int(self.codec),
        )


@dataclass
class BranchMeta:
    name: str
    dtype: Dtype
    shape: Shape
    baskets: list[BasketIndexEntry] = field(default_factory=list)

    @property
    def is_jagged(self) -> bool:
        return self.shape is Shape.JAGGED


@dataclass
class TreeMeta:
    name: str
    n_entries: int
    branches: dict[str, BranchMeta] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# records


# Byte-plane layout of a payload for SHUFFLE and PLANES: (offset-table
# bytes, element width). The offset table is u64, so its planes are 8 wide.
# (0, 1) is a payload without structure, for which shuffling is the identity.
Planes = tuple[int, int]
_NO_PLANES: Planes = (0, 1)


def _basket_planes(dtype: Dtype, shape: Shape, n_entries: int) -> Planes:
    head = (n_entries + 1) * 8 if shape is Shape.JAGGED else 0
    return head, itemsize(dtype)


def _segments(size: int, planes: Planes) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each segment: the offset table if there is one, then the elements."""
    head, width = planes
    if head > size or (size - head) % width:
        raise CorruptFileError(
            f"shuffled payload of {size} bytes does not split into a "
            f"{head}-byte offset table and {width}-byte elements"
        )
    return [(0, head, 8), (head, size, width)] if head else [(0, size, width)]


def _shuffle(raw: bytes, planes: Planes) -> np.ndarray:
    """Plane k of each segment holds byte k of every element in it."""
    src = np.frombuffer(raw, dtype=np.uint8)
    out = np.empty_like(src)
    for lo, hi, w in _segments(len(src), planes):
        out[lo:hi].reshape(w, -1)[...] = src[lo:hi].reshape(-1, w).T
    return out


def _unshuffle(src: np.ndarray, planes: Planes) -> np.ndarray:
    out = np.empty_like(src)
    for lo, hi, w in _segments(len(src), planes):
        out[lo:hi].reshape(-1, w)[...] = src[lo:hi].reshape(w, -1).T
    return out


def _plane_shrinks(elements: np.ndarray) -> np.ndarray:
    """For each byte plane of an (n, width) u8 element array: will deflate shrink it?

    Judged from the byte histogram of the plane's first ``_PLANE_SAMPLE``
    bytes, all planes in one ``bincount``. An empty plane is stored.
    """
    sample = elements[:_PLANE_SAMPLE]
    n, width = sample.shape
    if n == 0:
        return np.zeros(width, dtype=bool)
    keys = (sample + np.arange(0, 256 * width, 256)).ravel()
    counts = np.bincount(keys, minlength=256 * width).reshape(width, 256)
    c_log_c = counts * np.log2(counts, out=np.zeros(counts.shape), where=counts > 0)
    entropy = np.log2(n) - c_log_c.sum(axis=1) / n
    return entropy < _PLANE_MAX_ENTROPY


def _deflate_planes(raw: bytes, planes: Planes) -> bytes:
    """Codec 3 payload: flags | crc32 of stored planes | deflated planes | stored planes.

    Regrouping into planes and splitting them into deflated and stored
    happen in one copy per segment, by selecting rows of the transposed
    element array.
    """
    src = np.frombuffer(raw, dtype=np.uint8)
    flags, deflated, stored = [], [], []
    for lo, hi, w in _segments(len(src), planes):
        elements = src[lo:hi].reshape(-1, w)
        shrinks = _plane_shrinks(elements)
        flags.append(shrinks)
        deflated.append(elements.T[shrinks].ravel())
        stored.append(elements.T[~shrinks].ravel())
    mask = np.concatenate(flags)
    kept = np.concatenate(stored)
    stream = zlib.compress(np.concatenate(deflated), _SHUFFLE_LEVEL) if mask.any() else b""
    return b"".join((mask.astype(np.uint8).tobytes(), _CRC.pack(zlib.crc32(kept)), stream, kept))


def _inflate_planes(stored: bytes | memoryview, raw_len: int, planes: Planes) -> np.ndarray:
    """Decode a codec-3 payload straight into the unshuffled ``raw_len`` bytes."""
    segments = _segments(raw_len, planes)
    n_flags = sum(w for _, _, w in segments)
    if len(stored) < n_flags + _CRC.size:
        raise CorruptFileError(f"planes payload of {len(stored)} bytes has no room for its flags")
    flags = np.frombuffer(stored, dtype=np.uint8, count=n_flags)
    if np.any(flags > 1):
        raise CorruptFileError("plane flags must be 0 (stored) or 1 (deflated)")
    mask = flags.astype(bool)
    seg_masks = np.split(mask, np.cumsum([w for _, _, w in segments])[:-1])
    plane_lens = [(hi - lo) // w for lo, hi, w in segments]
    deflated_len = sum(int(m.sum()) * n for m, n in zip(seg_masks, plane_lens))
    stream_len = len(stored) - n_flags - _CRC.size - (raw_len - deflated_len)
    if stream_len < 0 or (stream_len > 0) != mask.any():
        raise CorruptFileError(
            f"planes payload of {len(stored)} bytes cannot hold {raw_len - deflated_len} "
            f"stored bytes and a deflate stream for {int(mask.sum())} planes"
        )
    body = memoryview(stored)[n_flags + _CRC.size :]
    kept = body[stream_len:]
    if zlib.crc32(kept) != _CRC.unpack_from(stored, n_flags)[0]:
        raise CorruptFileError("stored planes do not match their CRC32")
    inflated_planes = np.empty(0, dtype=np.uint8)
    if stream_len:
        inflated_planes = _inflate(body[:stream_len], deflated_len)
    stored_planes = np.frombuffer(kept, dtype=np.uint8)
    out = np.empty(raw_len, dtype=np.uint8)
    d = s = 0  # bytes placed so far from the inflated and from the stored planes
    for (lo, hi, w), seg_mask, n in zip(segments, seg_masks, plane_lens):
        k = int(seg_mask.sum())
        plane_rows = out[lo:hi].reshape(-1, w).T  # row j is plane j, a view into out
        plane_rows[seg_mask] = inflated_planes[d : d + k * n].reshape(k, n)
        plane_rows[~seg_mask] = stored_planes[s : s + (w - k) * n].reshape(w - k, n)
        d, s = d + k * n, s + (w - k) * n
    return out


def compress_record(
    raw: bytes, codec: Codec, planes: Planes = _NO_PLANES
) -> tuple[Codec, bytes]:
    """Encode a payload, falling back to NONE when compression does not shrink it.

    ``planes`` gives the payload's byte-plane layout for SHUFFLE and PLANES.
    The NONE fallback always stores ``raw`` as given, never shuffled.
    """
    if codec is Codec.DEFLATE:
        packed = zlib.compress(raw, _DEFLATE_LEVEL)
    elif codec is Codec.SHUFFLE:
        packed = zlib.compress(_shuffle(raw, planes), _SHUFFLE_LEVEL)
    elif codec is Codec.PLANES:
        packed = _deflate_planes(raw, planes)
    else:
        return Codec.NONE, raw
    if len(packed) < len(raw):
        return codec, packed
    return Codec.NONE, raw


def decompress_record(
    stored: bytes | memoryview, codec: Codec, raw_len: int, planes: Planes = _NO_PLANES
) -> np.ndarray:
    """The ``raw_len`` payload bytes as a u8 array; for codec 0 a view of ``stored``."""
    if codec is Codec.NONE:
        if len(stored) != raw_len:
            raise CorruptFileError(f"payload length {len(stored)} != declared raw_len {raw_len}")
        return np.frombuffer(stored, dtype=np.uint8)
    if codec is Codec.DEFLATE:
        return _inflate(stored, raw_len)
    if codec is Codec.SHUFFLE:
        return _unshuffle(_inflate(stored, raw_len), planes)
    if codec is Codec.PLANES:
        return _inflate_planes(stored, raw_len, planes)
    raise CorruptFileError(f"unknown codec {codec}")  # pragma: no cover - callers validate codec


def _frame_record(raw: bytes, codec: Codec) -> bytes:
    used, stored = compress_record(raw, codec)
    return struct.pack(">BI", int(used), len(raw)) + stored


def _parse_record(buf: bytes) -> bytes:
    if len(buf) < 5:
        raise CorruptFileError(f"record truncated: {len(buf)} bytes")
    codec_byte, raw_len = struct.unpack_from(">BI", buf, 0)
    if codec_byte not in (Codec.NONE, Codec.DEFLATE):  # SHUFFLE and PLANES are for baskets only
        raise CorruptFileError(f"codec byte {codec_byte} not allowed in a record")
    return decompress_record(memoryview(buf)[5:], Codec(codec_byte), raw_len).tobytes()


# ---------------------------------------------------------------------------
# column chunks


@dataclass
class ColumnChunk:
    """A contiguous range of entries for one branch, decoded into numpy arrays.

    Flat branches: ``values`` has one element per entry and ``offsets`` is
    None. Jagged branches: ``values`` holds the flattened elements and
    ``offsets`` is an int64 array of length ``n_entries + 1`` starting at 0.
    """

    values: np.ndarray
    offsets: np.ndarray | None = None

    @property
    def is_jagged(self) -> bool:
        return self.offsets is not None

    @property
    def n_entries(self) -> int:
        if self.offsets is not None:
            return len(self.offsets) - 1
        return len(self.values)

    def counts(self) -> np.ndarray:
        if self.offsets is None:
            raise SchemaError("counts() only applies to jagged chunks")
        return np.diff(self.offsets)

    def slice(self, start: int, stop: int) -> "ColumnChunk":
        if self.offsets is None:
            return ColumnChunk(self.values[start:stop])
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        return ColumnChunk(self.values[lo:hi], self.offsets[start : stop + 1] - lo)

    def select(self, mask: np.ndarray) -> "ColumnChunk":
        """Keep entries where ``mask`` is True, preserving per-entry structure."""
        if self.offsets is None:
            return ColumnChunk(self.values[mask])
        counts = self.counts()
        keep_values = self.values[np.repeat(mask, counts)]
        kept_counts = counts[mask]
        offsets = np.zeros(len(kept_counts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        return ColumnChunk(keep_values, offsets)

    def to_lists(self):
        """Python-native view, for oracles and small tests."""
        if self.offsets is None:
            return self.values.tolist()
        return [
            self.values[self.offsets[i] : self.offsets[i + 1]].tolist()
            for i in range(self.n_entries)
        ]

    @classmethod
    def from_lists(cls, data, dtype: np.dtype | type, jagged: bool | None = None) -> "ColumnChunk":
        dt = np.dtype(dtype)
        if jagged is None:
            jagged = bool(data) and isinstance(data[0], (list, tuple, np.ndarray))
        if not jagged:
            return cls(np.asarray(data, dtype=dt))
        counts = np.fromiter((len(row) for row in data), dtype=np.int64, count=len(data))
        offsets = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = np.concatenate([np.asarray(row, dtype=dt) for row in data]) if len(data) else np.array([], dtype=dt)
        return cls(flat.astype(dt, copy=False), offsets)

    @classmethod
    def empty(cls, dtype: np.dtype | type, jagged: bool = False) -> "ColumnChunk":
        values = np.array([], dtype=np.dtype(dtype))
        if jagged:
            return cls(values, np.zeros(1, dtype=np.int64))
        return cls(values)

    @classmethod
    def concatenate(cls, chunks: Sequence["ColumnChunk"]) -> "ColumnChunk":
        if not chunks:
            raise SchemaError("cannot concatenate zero chunks")
        if len(chunks) == 1:
            return chunks[0]
        jagged = chunks[0].is_jagged
        if any(c.is_jagged != jagged for c in chunks):
            raise SchemaError("mixed flat/jagged chunks")
        values = np.concatenate([c.values for c in chunks])
        if not jagged:
            return cls(values)
        total = sum(c.n_entries for c in chunks)
        offsets = np.zeros(total + 1, dtype=np.int64)
        pos, base = 1, 0
        for c in chunks:
            offsets[pos : pos + c.n_entries] = c.offsets[1:] + base
            pos += c.n_entries
            base += int(c.offsets[-1])
        return cls(values, offsets)


# ---------------------------------------------------------------------------
# basket payload encode/decode


def encode_basket(chunk: ColumnChunk, dtype: Dtype, shape: Shape) -> bytes:
    be = _DTYPE_BE[dtype]
    if shape is Shape.FLAT:
        if chunk.offsets is not None:
            raise SchemaError("flat branch given jagged data")
        values = np.ascontiguousarray(chunk.values, dtype=be)
        return values.tobytes()
    if chunk.offsets is None:
        raise SchemaError("jagged branch given flat data")
    local = np.ascontiguousarray(chunk.offsets - chunk.offsets[0], dtype=">u8")
    values = np.ascontiguousarray(chunk.values, dtype=be)
    return local.tobytes() + values.tobytes()


def decode_basket(
    raw: np.ndarray | bytes, dtype: Dtype, shape: Shape, n_entries: int
) -> ColumnChunk:
    """Check a basket payload and view it as a chunk, without copying.

    The views keep the stored byte order: values are big-endian, and a
    jagged basket's offsets are its basket-local table viewed as
    big-endian i8. :meth:`TreeFileReader.read_column` converts them while
    it copies them into its column.
    """
    be = _DTYPE_BE[dtype]
    size = be.itemsize
    if shape is Shape.FLAT:
        if len(raw) != n_entries * size:
            raise CorruptFileError(
                f"flat basket payload is {len(raw)} bytes, expected {n_entries * size}"
            )
        return ColumnChunk(np.frombuffer(raw, dtype=be))
    head = (n_entries + 1) * 8
    if len(raw) < head:
        raise CorruptFileError("jagged basket payload too short for its offset table")
    # stored as u64; read as i8, a value of 2**63 or more turns negative and
    # fails the order check, since the table starts at 0
    offsets = np.frombuffer(raw, dtype=">i8", count=n_entries + 1)
    if offsets[0] != 0:
        raise CorruptFileError("jagged offsets must start at 0")
    if np.any(offsets[1:] < offsets[:-1]):
        raise CorruptFileError("jagged offsets must be non-decreasing")
    n_elements = int(offsets[-1])
    if len(raw) != head + n_elements * size:
        raise CorruptFileError(
            f"jagged basket payload is {len(raw)} bytes, expected {head + n_elements * size}"
        )
    return ColumnChunk(np.frombuffer(raw, dtype=be, offset=head), offsets)


# ---------------------------------------------------------------------------
# writer


class TreeFileWriter:
    """Streaming writer: baskets go out as entries arrive, directory at close.

    All branches of a tree advance in lockstep; every ``extend`` call must
    cover the same entry range for every branch in the schema.

    The file is written as ``<path>.tmp`` and renamed to ``path`` by
    :meth:`close`, so ``path`` never holds a partial file. Leaving a
    ``with`` block on an exception deletes the temp file instead.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        codec: Codec = Codec.PLANES,
        basket_entries: int = DEFAULT_BASKET_ENTRIES,
    ):
        if basket_entries < 1:
            raise SchemaError("basket_entries must be >= 1")
        self._path = str(path)
        self._tmp_path = self._path + ".tmp"
        self._fh: BinaryIO = open(self._tmp_path, "wb")
        self._codec = codec
        self._basket_entries = basket_entries
        self._trees: list[TreeMeta] = []
        self._current: TreeMeta | None = None
        self._pending: dict[str, list[ColumnChunk]] = {}
        self._pending_entries = 0
        self._fh.write(bytes(HEADER_LEN))  # placeholder, patched at close
        self._pos = HEADER_LEN
        self._closed = False

    def begin_tree(self, name: str, schema: dict[str, tuple[Dtype, Shape]]) -> None:
        if self._current is not None:
            raise SchemaError("previous tree not ended")
        if any(t.name == name for t in self._trees):
            raise SchemaError(f"duplicate tree name {name!r}")
        if not name:
            raise SchemaError("tree name must be non-empty")
        branches = {
            bname: BranchMeta(bname, Dtype(dt), Shape(sh))
            for bname, (dt, sh) in schema.items()
        }
        self._current = TreeMeta(name, 0, branches)
        self._pending = {bname: [] for bname in branches}
        self._pending_entries = 0

    def extend(self, columns: dict[str, ColumnChunk]) -> None:
        tree = self._current
        if tree is None:
            raise SchemaError("no tree in progress")
        if set(columns) != set(tree.branches):
            missing = set(tree.branches) - set(columns)
            extra = set(columns) - set(tree.branches)
            raise SchemaError(f"branch mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        lengths = {name: chunk.n_entries for name, chunk in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"branches advanced unevenly: {lengths}")
        n = next(iter(lengths.values())) if lengths else 0
        if n == 0:
            return
        for name, chunk in columns.items():
            meta = tree.branches[name]
            if chunk.is_jagged != (meta.shape is Shape.JAGGED):
                raise SchemaError(f"branch {name!r}: shape mismatch")
            self._pending[name].append(chunk)
        self._pending_entries += n
        tree.n_entries += n
        while self._pending_entries >= self._basket_entries:
            self._flush_basket(self._basket_entries)

    def end_tree(self) -> None:
        tree = self._current
        if tree is None:
            raise SchemaError("no tree in progress")
        if self._pending_entries:
            self._flush_basket(self._pending_entries)
        self._trees.append(tree)
        self._current = None
        self._pending = {}

    def _flush_basket(self, n: int) -> None:
        tree = self._current
        assert tree is not None
        for name, meta in tree.branches.items():
            buffered = ColumnChunk.concatenate(self._pending[name]) if self._pending[name] else None
            assert buffered is not None and buffered.n_entries >= n
            head = buffered.slice(0, n)
            rest = buffered.slice(n, buffered.n_entries)
            self._pending[name] = [rest] if rest.n_entries else []
            raw = encode_basket(head, meta.dtype, meta.shape)
            planes = _basket_planes(meta.dtype, meta.shape, n)
            codec, stored = compress_record(raw, self._codec, planes)
            first_entry = tree.n_entries - self._pending_entries
            meta.baskets.append(
                BasketIndexEntry(first_entry, n, self._pos, len(stored), len(raw), codec)
            )
            self._fh.write(stored)
            self._pos += len(stored)
        self._pending_entries -= n

    def _encode_directory(self) -> bytes:
        out = bytearray()
        out += struct.pack(">I", len(self._trees))
        for tree in self._trees:
            name = tree.name.encode("utf-8")
            out += struct.pack(">H", len(name)) + name
            out += struct.pack(">QI", tree.n_entries, len(tree.branches))
            for bname, meta in tree.branches.items():
                raw_name = bname.encode("utf-8")
                out += struct.pack(">H", len(raw_name)) + raw_name
                out += struct.pack(">BBI", int(meta.dtype), int(meta.shape), len(meta.baskets))
                for basket in meta.baskets:
                    out += basket.pack()
        return bytes(out)

    def close(self) -> None:
        if self._closed:
            return
        if self._current is not None:
            self.end_tree()
        record = _frame_record(self._encode_directory(), Codec.DEFLATE)
        dir_offset = self._pos
        self._fh.write(record)
        file_len = dir_offset + len(record)
        self._fh.seek(0)
        self._fh.write(TreeFileHeader(dir_offset, len(record), file_len).pack())
        self._fh.close()
        self._closed = True
        os.replace(self._tmp_path, self._path)

    def __enter__(self) -> "TreeFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        elif not self._closed:
            self._fh.close()
            self._closed = True
            os.unlink(self._tmp_path)


def _infer_column(data) -> tuple[ColumnChunk, Dtype, Shape]:
    if isinstance(data, ColumnChunk):
        chunk = data
    elif isinstance(data, tuple) and len(data) == 2:
        offsets, values = data
        chunk = ColumnChunk(np.asarray(values), np.asarray(offsets, dtype=np.int64))
    elif isinstance(data, np.ndarray):
        chunk = ColumnChunk(data)
    elif isinstance(data, (list,)) and data and isinstance(data[0], (list, tuple, np.ndarray)):
        sample = next((row for row in data if len(row)), None)
        dt = np.asarray(sample).dtype if sample is not None else np.dtype(np.float64)
        chunk = ColumnChunk.from_lists(data, dt, jagged=True)
    else:
        chunk = ColumnChunk(np.asarray(data))
    key = np.dtype(chunk.values.dtype)
    if key not in _NUMPY_TO_DTYPE:
        raise SchemaError(f"unsupported dtype {key}")
    dtype = _NUMPY_TO_DTYPE[key]
    shape = Shape.JAGGED if chunk.is_jagged else Shape.FLAT
    return chunk, dtype, shape


def write_tree(
    path: str | Path,
    name: str,
    branches: dict,
    *,
    codec: Codec = Codec.PLANES,
    basket_entries: int = DEFAULT_BASKET_ENTRIES,
) -> None:
    """One-shot writer for a single tree.

    Branch data may be a 1-D numpy array (flat), an ``(offsets, values)``
    pair or list-of-lists (jagged), or a prepared :class:`ColumnChunk`.
    """
    prepared: dict[str, ColumnChunk] = {}
    schema: dict[str, tuple[Dtype, Shape]] = {}
    n_entries = None
    for bname, data in branches.items():
        chunk, dtype, shape = _infer_column(data)
        prepared[bname] = chunk
        schema[bname] = (dtype, shape)
        if n_entries is None:
            n_entries = chunk.n_entries
        elif chunk.n_entries != n_entries:
            raise SchemaError(
                f"branch {bname!r} has {chunk.n_entries} entries, expected {n_entries}"
            )
    with TreeFileWriter(path, codec=codec, basket_entries=basket_entries) as writer:
        writer.begin_tree(name, schema)
        if prepared:
            writer.extend(prepared)
        writer.end_tree()


# ---------------------------------------------------------------------------
# reader


class _Cursor:
    """Bounds-checked sequential reads over the decoded directory payload."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CorruptFileError(
                f"directory truncated at byte {self.pos}: need {n} more bytes"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def name(self) -> str:
        (length,) = struct.unpack(">H", self.take(2))
        raw = self.take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"name is not valid UTF-8: {exc}") from exc


_U32 = struct.Struct(">I")
_U64_U32 = struct.Struct(">QI")
_B_B_U32 = struct.Struct(">BBI")


def _parse_directory(raw: bytes) -> dict[str, TreeMeta]:
    cur = _Cursor(raw)
    (tree_count,) = cur.unpack(_U32)
    trees: dict[str, TreeMeta] = {}
    for _ in range(tree_count):
        tname = cur.name()
        if tname in trees:
            raise CorruptFileError(f"duplicate tree name {tname!r}")
        n_entries, branch_count = cur.unpack(_U64_U32)
        tree = TreeMeta(tname, n_entries)
        for _ in range(branch_count):
            bname = cur.name()
            if bname in tree.branches:
                raise CorruptFileError(f"duplicate branch name {bname!r} in tree {tname!r}")
            dtype_b, shape_b, basket_count = cur.unpack(_B_B_U32)
            try:
                dtype = Dtype(dtype_b)
                shape = Shape(shape_b)
            except ValueError as exc:
                raise CorruptFileError(f"branch {bname!r}: {exc}") from None
            meta = BranchMeta(bname, dtype, shape)
            for _ in range(basket_count):
                fields = cur.unpack(_BASKET_ENTRY)
                codec_b = fields[-1]
                try:
                    codec = Codec(codec_b)
                except ValueError:
                    raise CorruptFileError(f"unknown codec byte {codec_b}") from None
                meta.baskets.append(BasketIndexEntry(*fields[:-1], codec))
            tree.branches[bname] = meta
        trees[tname] = tree
    if cur.pos != len(raw):
        raise CorruptFileError(f"{len(raw) - cur.pos} trailing bytes after directory")
    return trees


# A file's parsed header and directory: what opening a reader reads.
Directory = tuple[TreeFileHeader, dict[str, TreeMeta]]


def read_directory(source: ByteSource) -> Directory:
    """Read and check a file's header, then its directory: two reads."""
    header = TreeFileHeader.unpack(source.read_at(0, HEADER_LEN))
    size = source.size
    if header.file_len != size:
        raise CorruptFileError(f"header says {header.file_len} bytes but source has {size}")
    if header.dir_offset + header.dir_len > header.file_len:
        raise CorruptFileError("directory extends past end of file")
    if header.dir_offset < HEADER_LEN:
        raise CorruptFileError("directory overlaps header")
    dir_record = source.read_at(header.dir_offset, header.dir_len)
    if len(dir_record) != header.dir_len:
        raise CorruptFileError("short read on directory")
    trees = _parse_directory(_parse_record(dir_record))
    _check_index(header, trees)
    return header, trees


def _check_index(header: TreeFileHeader, trees: dict[str, TreeMeta]) -> None:
    for tree in trees.values():
        for meta in tree.branches.values():
            expect_first = 0
            for basket in meta.baskets:
                if basket.first_entry != expect_first:
                    raise CorruptFileError(
                        f"branch {meta.name!r}: basket starts at entry "
                        f"{basket.first_entry}, expected {expect_first}"
                    )
                if basket.n_entries == 0:
                    raise CorruptFileError(f"branch {meta.name!r}: empty basket")
                if basket.offset < HEADER_LEN or (
                    basket.offset + basket.stored_len > header.dir_offset
                ):
                    raise CorruptFileError(
                        f"branch {meta.name!r}: basket data outside data region"
                    )
                expect_first += basket.n_entries
            if expect_first != tree.n_entries:
                raise CorruptFileError(
                    f"branch {meta.name!r}: baskets cover {expect_first} entries, "
                    f"tree has {tree.n_entries}"
                )


def _branch(tmeta: TreeMeta, branch: str) -> BranchMeta:
    if branch not in tmeta.branches:
        raise SchemaError(f"no branch named {branch!r} in tree {tmeta.name!r}")
    return tmeta.branches[branch]


def _entry_stop(tmeta: TreeMeta, entry_start: int, entry_stop: int | None) -> int:
    stop = tmeta.n_entries if entry_stop is None else entry_stop
    if not (0 <= entry_start <= stop <= tmeta.n_entries):
        raise SchemaError(
            f"entry range [{entry_start}, {stop}) invalid for {tmeta.n_entries} entries"
        )
    return stop


def _overlapping(meta: BranchMeta, entry_start: int, entry_stop: int) -> list[BasketIndexEntry]:
    if entry_start == entry_stop:
        return []
    return [
        b for b in meta.baskets
        if b.first_entry < entry_stop and b.first_entry + b.n_entries > entry_start
    ]


class TreeFileReader:
    """Lazy reader: opening parses header + directory only, baskets on demand.

    Given ``directory``, the result of :func:`read_directory` on the same
    file, the reader reads nothing on opening; it only checks that the
    file still has the size that directory's header recorded.
    """

    def __init__(
        self,
        source: ByteSource,
        *,
        own_source: bool = True,
        directory: Directory | None = None,
    ):
        self._source = source
        self._own = own_source
        # (offset, bytes) of prefetched ranges, sorted by offset
        self._prefetched: list[tuple[int, bytes | memoryview]] = []
        try:
            if directory is None:
                directory = read_directory(source)
            elif directory[0].file_len != source.size:
                raise CorruptFileError(
                    f"file has {source.size} bytes, {directory[0].file_len} when its "
                    "directory was read: it changed since"
                )
        except BaseException:
            if own_source:  # no caller will hold a reader to close it through
                source.close()
            raise
        self.header, self.trees = directory

    def tree(self, name: str | None = None) -> TreeMeta:
        if name is None:
            if len(self.trees) != 1:
                raise SchemaError(
                    f"file has {len(self.trees)} trees, name one of {sorted(self.trees)}"
                )
            return next(iter(self.trees.values()))
        try:
            return self.trees[name]
        except KeyError:
            raise SchemaError(f"no tree named {name!r}") from None

    def read_column(
        self,
        tree: str | None,
        branch: str,
        entry_start: int = 0,
        entry_stop: int | None = None,
    ) -> ColumnChunk:
        """Decode one branch over ``[entry_start, entry_stop)``.

        Only baskets overlapping the range are fetched and decompressed. The
        column is sized from them and allocated once; each basket's part
        goes into its slice in one copy that also converts the byte order.
        """
        tmeta = self.tree(tree)
        meta = _branch(tmeta, branch)
        stop = _entry_stop(tmeta, entry_start, entry_stop)
        native = _DTYPE_NATIVE[meta.dtype]
        if entry_start == stop:
            return ColumnChunk.empty(native, jagged=meta.is_jagged)
        # (basket in stored byte order, its first and stop entry in the range)
        pieces = []
        for basket in _overlapping(meta, entry_start, stop):
            b_start = basket.first_entry
            lo = max(entry_start, b_start) - b_start
            hi = min(stop, b_start + basket.n_entries) - b_start
            pieces.append((self._read_basket(basket, meta), lo, hi))
        if not meta.is_jagged:
            values = np.empty(stop - entry_start, dtype=native)
            pos = 0
            for chunk, lo, hi in pieces:
                values[pos : pos + hi - lo] = chunk.values[lo:hi]
                pos += hi - lo
            return ColumnChunk(values)
        # each piece's elements: [first, last) of its basket's values
        spans = [(int(chunk.offsets[lo]), int(chunk.offsets[hi])) for chunk, lo, hi in pieces]
        values = np.empty(sum(last - first for first, last in spans), dtype=native)
        offsets = np.empty(stop - entry_start + 1, dtype=np.int64)
        offsets[0] = 0
        pos = base = 0  # entries and elements placed so far
        for (chunk, lo, hi), (first, last) in zip(pieces, spans):
            dst = offsets[pos + 1 : pos + 1 + hi - lo]
            np.add(chunk.offsets[lo + 1 : hi + 1], base - first, out=dst)
            values[base : base + last - first] = chunk.values[first:last]
            pos += hi - lo
            base += last - first
        return ColumnChunk(values, offsets)

    def prefetch(
        self,
        tree: str | None,
        branches: Iterable[str],
        entry_start: int = 0,
        entry_stop: int | None = None,
    ) -> None:
        """Fetch, in one ``read_ranges`` call, every basket that reading
        ``branches`` over ``[entry_start, entry_stop)`` needs.

        Baskets that touch in the file are fetched as one range; baskets
        with unused bytes between them are not. Later :meth:`read_column`
        calls take these baskets from memory.
        """
        tmeta = self.tree(tree)
        stop = _entry_stop(tmeta, entry_start, entry_stop)
        spans = sorted(
            {
                (basket.offset, basket.stored_len)
                for name in branches
                for basket in _overlapping(_branch(tmeta, name), entry_start, stop)
            }
        )
        merged: list[tuple[int, int]] = []
        for offset, length in spans:
            if merged and offset <= merged[-1][0] + merged[-1][1]:
                start, prev = merged[-1]
                merged[-1] = (start, max(prev, offset + length - start))
            else:
                merged.append((offset, length))
        data = self._source.read_ranges(merged)
        self._prefetched = [(offset, buf) for (offset, _), buf in zip(merged, data)]

    def _stored_bytes(self, basket: BasketIndexEntry) -> bytes | memoryview:
        """The basket's stored bytes: from the prefetched ranges if they hold them."""
        i = bisect.bisect_right(self._prefetched, basket.offset, key=lambda r: r[0]) - 1
        if i >= 0:
            start, buf = self._prefetched[i]
            rel = basket.offset - start
            if rel + basket.stored_len <= len(buf):
                return memoryview(buf)[rel : rel + basket.stored_len]
        return self._source.read_at(basket.offset, basket.stored_len)

    def _read_basket(self, basket: BasketIndexEntry, meta: BranchMeta) -> ColumnChunk:
        """Fetch, inflate and check one basket; the chunk views it in stored byte order."""
        stored = self._stored_bytes(basket)
        if len(stored) != basket.stored_len:
            raise CorruptFileError(
                f"short read on basket at offset {basket.offset}: "
                f"got {len(stored)} of {basket.stored_len} bytes"
            )
        planes = _basket_planes(meta.dtype, meta.shape, basket.n_entries)
        raw = decompress_record(stored, basket.codec, basket.raw_len, planes)
        return decode_basket(raw, meta.dtype, meta.shape, basket.n_entries)

    def validate(self, deep: bool = False) -> None:
        """Re-run structural checks; with ``deep`` decode every basket too."""
        _check_index(self.header, self.trees)
        if deep:
            for tree in self.trees.values():
                for meta in tree.branches.values():
                    for basket in meta.baskets:
                        self._read_basket(basket, meta)

    def close(self) -> None:
        self._prefetched = []
        if self._own:
            self._source.close()

    def __enter__(self) -> "TreeFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_file(path_or_source: str | Path | ByteSource) -> TreeFileReader:
    """Open a TreeFile from a path, URL-opened source, or raw bytes source."""
    if isinstance(path_or_source, (str, Path)):
        return TreeFileReader(FileSource(path_or_source), own_source=True)
    return TreeFileReader(path_or_source, own_source=False)


def open_bytes(data: bytes) -> TreeFileReader:
    return TreeFileReader(BytesSource(data), own_source=True)


# ---------------------------------------------------------------------------
# concatenation


def concat_files(
    inputs: Iterable[str | Path],
    output: str | Path,
    *,
    codec: Codec = Codec.PLANES,
    basket_entries: int = DEFAULT_BASKET_ENTRIES,
) -> int:
    """Merge single-tree files with identical schemas into one file.

    Entries keep input order. Returns the total entry count. On any error,
    such as a later input whose schema differs, no output file is left.
    """
    paths = list(inputs)
    if not paths:
        raise SchemaError("concat needs at least one input")
    total = 0
    schema: dict[str, tuple[Dtype, Shape]] | None = None
    with TreeFileWriter(output, codec=codec, basket_entries=basket_entries) as writer:
        for path in paths:
            with open_file(path) as reader:
                tmeta = reader.tree()
                this_schema = {
                    name: (meta.dtype, meta.shape) for name, meta in tmeta.branches.items()
                }
                if schema is None:
                    writer.begin_tree(tmeta.name, this_schema)
                    schema = this_schema
                elif this_schema != schema:
                    raise SchemaError(f"schema of {path} differs from first input")
                for start in range(0, tmeta.n_entries, basket_entries):
                    stop = min(start + basket_entries, tmeta.n_entries)
                    writer.extend(
                        {
                            name: reader.read_column(None, name, start, stop)
                            for name in tmeta.branches
                        }
                    )
                total += tmeta.n_entries
    return total
