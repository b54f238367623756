"""TreeFile v1: a columnar event container with basket-level compression.

Layout (all integers big-endian):

    header     32 bytes: magic "TRF1" | version u32 | dir_offset u64
                         | dir_len u64 | file_len u64
    baskets    bare payloads, one per (branch, basket index entry)
    directory  one Record (codec u8 | raw_len u32 | stored payload)
               whose decompressed payload describes every tree/branch/basket;
               each branch's basket entries are one array of BASKET_INDEX

Flat basket payload: n_entries elements, big-endian.
Jagged basket payload: (n_entries + 1) u64 basket-local element offsets
(first is 0), then the flattened elements, big-endian.

Basket codecs: 0 stores the payload, 1 deflates it whole, and 4 (delta
planes), what writers use by default, regroups it into byte planes (plane k
holds byte k of every element, a jagged basket's offset table first, coded
as each entry's element count). Codec 4 keeps a plane of one repeated byte
as that byte, deflates at level 1 the planes whose sampled byte entropy
says they will shrink, and stores the others raw under a CRC32. Its stream
is deflated by libdeflate where the library loads and by zlib otherwise;
every other stream by zlib. Codec bytes 2 and 3 are retired.
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
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .sources import ByteSource, FileSource

MAGIC = b"TRF1"
VERSION = 1
HEADER_LEN = 32

_HEADER = struct.Struct(">4sIQQQ")
_CRC = struct.Struct(">I")

# Compression must pay for itself; equal-size output keeps the raw bytes.
_DEFLATE_LEVEL = 6
# On the part files of a seed-1 demo reduce (48 baskets of up to 65,536
# entries, 2-core VM), codec 4 at level 6 stores only 1.7% fewer bytes than
# at level 1 and takes 3.1x as long under libdeflate (1.2% and 4.4x under
# zlib). Codec 4 uses it.
_PLANES_LEVEL = 1
# Codec 4 deflates a plane when the byte histogram of its first
# _PLANE_SAMPLE bytes estimates under _PLANE_MAX_ENTROPY bits per byte. On
# the part files of a seed-1 demo reduce (48 baskets, 448 planes of 25 to
# 79 KB, 2-core VM) the histograms take 3 ms where a level-1 zlib probe of
# each plane's first 4 KiB takes 32 ms, and they pick the same planes as
# deflating each plane in full on all 448.
_PLANE_SAMPLE = 1024
_PLANE_MAX_ENTROPY = 7.0

# A writer's baskets, part files' included. Each basket pays a fixed toll of
# plane bookkeeping besides its deflate: replaying the part files of a seed-1
# demo reduce (16 tasks of about 25,000 entries, 2-core VM), the writer took
# 102 ms per job at 8,192 entries, 88 at 16,384, 80 at 32,768 and 78 at
# 65,536, before the list-kept flags and the libdeflate CRC-32 below took
# it to 67-70 ms. At the engine's default task size a task writes one basket
# per branch. The dataset generator sets its own size (GenSpec).
DEFAULT_BASKET_ENTRIES = 65536

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
    DELTA_PLANES = 4


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
# inflate and deflate


def _load_libdeflate(prototypes: dict[str, tuple[list, object]]) -> ctypes.CDLL | None:
    """The host's libdeflate with ``prototypes`` declared, or None where it is
    not installed or lacks one of them.

    Loaded by its soname, so the dynamic loader finds it without the
    ``ldconfig`` subprocess that ``ctypes.util.find_library`` runs.
    """
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
        for name, (argtypes, restype) in prototypes.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, restype
    except (OSError, AttributeError):  # not installed, or too old for a call
        return None
    return lib


_VOID_P, _SIZE_T = ctypes.c_void_p, ctypes.c_size_t

# The host's libdeflate, or None, which selects the zlib module for all three
# of its uses: inflating every zlib stream, deflating codec 4's planes and the
# CRC-32 of codec 4's stored section (14 us against zlib's 90 us on 200 KB,
# and the same value). Codec 1 and the directory record always deflate with
# the zlib module, so the generator's bytes do not depend on the library.
# ctypes releases the GIL around each call, so threads call it at once.
_LIBDEFLATE = _load_libdeflate(
    {
        "libdeflate_alloc_decompressor": ([], _VOID_P),
        "libdeflate_free_decompressor": ([_VOID_P], None),
        # decompressor, in, in_nbytes, out, out_nbytes_avail,
        # actual_in_nbytes_ret, actual_out_nbytes_ret
        "libdeflate_zlib_decompress_ex": (
            [_VOID_P, _VOID_P, _SIZE_T, _VOID_P, _SIZE_T,
             ctypes.POINTER(_SIZE_T), ctypes.POINTER(_SIZE_T)],
            ctypes.c_int,
        ),
        "libdeflate_alloc_compressor": ([ctypes.c_int], _VOID_P),
        "libdeflate_free_compressor": ([_VOID_P], None),
        "libdeflate_zlib_compress_bound": ([_VOID_P, _SIZE_T], _SIZE_T),
        # compressor, in, in_nbytes, out, out_nbytes_avail
        "libdeflate_zlib_compress": ([_VOID_P, _VOID_P, _SIZE_T, _VOID_P, _SIZE_T], _SIZE_T),
        "libdeflate_crc32": ([ctypes.c_uint32, _VOID_P, _SIZE_T], ctypes.c_uint32),
    }
)


def _crc32(data: bytes | memoryview | np.ndarray) -> int:
    """The CRC-32 of ``data`` (a contiguous buffer), as zlib.crc32 computes it."""
    lib = _LIBDEFLATE
    if lib is None:
        return zlib.crc32(data)
    buf = np.frombuffer(data, dtype=np.uint8)  # data may be read-only
    return lib.libdeflate_crc32(0, buf.ctypes.data, len(buf))


class _PerThread:
    """One thread's libdeflate state: the inflate call's two ``size_t``
    out-parameters, and a decompressor and a compressor, each made on first
    use (libdeflate's are not thread-safe) and freed when the thread exits
    and its slot of ``_THREAD`` drops the state."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        self.used_in, self.used_out = ctypes.c_size_t(), ctypes.c_size_t()
        self.refs = (ctypes.byref(self.used_in), ctypes.byref(self.used_out))
        self._decompressor = self._compressor = None

    def decompressor(self) -> int:
        if self._decompressor is None:
            self._decompressor = _allocated(self.lib.libdeflate_alloc_decompressor())
        return self._decompressor

    def compressor(self) -> int:
        if self._compressor is None:
            self._compressor = _allocated(self.lib.libdeflate_alloc_compressor(_PLANES_LEVEL))
        return self._compressor

    def __del__(self):  # libdeflate frees nothing for a NULL handle
        self.lib.libdeflate_free_decompressor(self._decompressor)
        self.lib.libdeflate_free_compressor(self._compressor)


def _allocated(handle: int | None) -> int:
    if not handle:
        raise MemoryError("libdeflate could not allocate a (de)compressor")
    return handle


_THREAD = threading.local()


def _per_thread(lib: ctypes.CDLL) -> _PerThread:
    """The calling thread's libdeflate state, made on its first call."""
    state = getattr(_THREAD, "state", None)
    if state is None:
        state = _THREAD.state = _PerThread(lib)
    return state


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
        state = _per_thread(lib)
        result = lib.libdeflate_zlib_decompress_ex(
            state.decompressor(), src, n_in, dst, raw_len, *state.refs
        )
        used_in, used_out = state.used_in.value, state.used_out.value
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


# One basket's entry in the directory: 29 bytes, packed, in this order.
BASKET_INDEX = np.dtype([
    ("first_entry", ">u8"), ("n_entries", ">u4"), ("offset", ">u8"),
    ("stored_len", ">u4"), ("raw_len", ">u4"), ("codec", "u1"),
])
_CODEC_BYTES = frozenset(Codec)


def _basket_index(rows) -> np.recarray:
    return np.array(rows, dtype=BASKET_INDEX).view(np.recarray)


@dataclass
class BranchMeta:
    """A branch; readers take its basket index from ``rows``, converted once."""

    name: str
    dtype: Dtype
    shape: Shape
    baskets: np.recarray = field(default_factory=lambda: _basket_index([]))

    @property
    def is_jagged(self) -> bool:
        return self.shape is Shape.JAGGED

    @cached_property
    def rows(self) -> list[tuple]:
        """The index rows as tuples of Python ints, in which no check can overflow."""
        return self.baskets.tolist()


@dataclass
class TreeMeta:
    name: str
    n_entries: int
    branches: dict[str, BranchMeta] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# records


# Byte-plane layout of a payload for DELTA_PLANES: (offset-table bytes,
# element width). The offset table is u64, so its planes are 8 wide.
# (0, 1) is a payload without structure: one plane, the bytes as they are.
Planes = tuple[int, int]
_NO_PLANES: Planes = (0, 1)

# A plane's flag under DELTA_PLANES
_STORED, _DEFLATED, _CONSTANT = 0, 1, 2


def _basket_planes(dtype: Dtype, shape: Shape, n_entries: int) -> Planes:
    head = (n_entries + 1) * 8 if shape is Shape.JAGGED else 0
    return head, itemsize(dtype)


def _segments(size: int, planes: Planes) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each segment: the offset table if there is one, then the elements."""
    head, width = planes
    if head > size or (size - head) % width:
        raise CorruptFileError(
            f"planes payload of {size} bytes does not split into a "
            f"{head}-byte offset table and {width}-byte elements"
        )
    return [(0, head, 8), (head, size, width)] if head else [(0, size, width)]


# c * log2(c) for each count a plane's sample histogram can hold, 0 for 0
_C_LOG2_C = np.arange(_PLANE_SAMPLE + 1) * np.log2(np.maximum(np.arange(_PLANE_SAMPLE + 1), 1))
# the first histogram key of each byte plane of an element, up to 8 bytes wide
_PLANE_KEYS = np.arange(0, 256 * 8, 256)


def _plane_shrinks(elements: np.ndarray) -> tuple[list[bool], bool]:
    """For each byte plane of an (n, width) u8 element array: will deflate
    shrink it? And might any plane hold one repeated byte?

    Judged from the byte histogram of the planes' first ``_PLANE_SAMPLE``
    bytes, all planes in one ``bincount``; a plane is constant only if its
    sample is. An empty plane is stored.
    """
    sample = elements[:_PLANE_SAMPLE]
    n, width = sample.shape
    if n == 0:
        return [False] * width, False
    keys = (sample + _PLANE_KEYS[:width]).ravel()
    counts = np.bincount(keys, minlength=256 * width).reshape(width, 256)
    entropy = np.log2(n) - _C_LOG2_C[counts].sum(axis=1) / n
    return (entropy < _PLANE_MAX_ENTROPY).tolist(), bool((counts == n).any())


def _deflate_planes(raw: bytes | memoryview, planes: Planes) -> np.ndarray | None:
    """Codec-4 payload: flags | crc32 of the stored section | deflated
    planes | stored section.

    None when it would be no smaller than ``raw``, as it always is when every
    plane is stored.

    Each segment is judged on its own sample (see :func:`_plane_shrinks`),
    a jagged payload's offset table as its entries' counts; a non-empty
    plane of one repeated byte is flagged constant, and an empty one stored.

    Each plane is copied out of ``raw`` once: a deflated plane into the
    deflater's input, a stored plane, or a constant plane's one byte, into
    the payload behind the stream, which the deflater writes in place. An
    offset table's planes are read from its counts, which take a
    subtraction and two byte-order copies.
    """
    src = np.frombuffer(raw, dtype=np.uint8)
    # each segment's planes as rows (views), and its flags; a few planes
    # each, so the flags are kept in lists, not in small numpy arrays
    rows, flags = [], []
    for i, (lo, hi, w) in enumerate(_segments(len(src), planes)):
        segment = src[lo:hi]
        if planes[0] and i == 0:
            segment = _offsets_to_counts(segment)
        elements = segment.reshape(-1, w)
        shrinks, maybe_constant = _plane_shrinks(elements)
        seg_flags = [_DEFLATED if shrink else _STORED for shrink in shrinks]
        if maybe_constant:
            for j in np.flatnonzero(_constant_planes(segment, w)).tolist():
                seg_flags[j] = _CONSTANT
        rows.append(elements.T)
        flags.append(seg_flags)
    mask = [flag for seg_flags in flags for flag in seg_flags]
    if not any(mask):
        return None
    deflated_len = kept_len = 0
    constants = []  # each constant plane's byte: its first element's
    for plane_rows, seg_flags in zip(rows, flags):
        n = plane_rows.shape[1]
        deflated_len += n * seg_flags.count(_DEFLATED)
        kept_len += n * seg_flags.count(_STORED)
        if _CONSTANT in seg_flags:
            firsts = plane_rows[:, 0].tolist()
            constants += [firsts[j] for j, flag in enumerate(seg_flags) if flag == _CONSTANT]
    kept_len += len(constants)
    head = len(mask) + _CRC.size
    deflate_in = np.empty(deflated_len, dtype=np.uint8)
    _gather_planes(rows, flags, _DEFLATED, deflate_in)
    out, stream_len = _deflate_between(deflate_in, head, kept_len)
    end = head + stream_len + kept_len
    if end >= len(src):
        return None
    kept = out[head + stream_len : end]
    kept[: len(constants)] = constants
    _gather_planes(rows, flags, _STORED, kept[len(constants) :])
    out[: len(mask)] = mask
    _CRC.pack_into(out, len(mask), _crc32(kept))
    return out[:end]


def _deflate_between(data: np.ndarray, head: int, tail: int) -> tuple[np.ndarray, int]:
    """A buffer of ``head`` bytes, the level-1 zlib stream of ``data`` (none
    when ``data`` is empty) and ``tail`` bytes; and the stream's length.

    libdeflate writes the stream into the buffer, zlib's is copied in.
    """
    if not len(data):
        return np.empty(head + tail, dtype=np.uint8), 0
    lib = _LIBDEFLATE
    if lib is None:
        stream = zlib.compress(data, _PLANES_LEVEL)
        stream_len = len(stream)
        out = np.empty(head + stream_len + tail, dtype=np.uint8)
        out[head : head + stream_len] = np.frombuffer(stream, dtype=np.uint8)
        return out, stream_len
    compressor = _per_thread(lib).compressor()
    bound = lib.libdeflate_zlib_compress_bound(compressor, len(data))
    out = np.empty(head + bound + tail, dtype=np.uint8)
    stream_len = lib.libdeflate_zlib_compress(
        compressor, data.ctypes.data, len(data), out.ctypes.data + head, bound
    )
    if not stream_len:  # pragma: no cover - the bound always has room
        raise RuntimeError("libdeflate_zlib_compress overran its bound")
    return out, stream_len


def _offsets_to_counts(table: np.ndarray) -> np.ndarray:
    """A u64 offset table's bytes with each entry after the first replaced by
    its difference from the entry before: the entries' element counts.

    Subtracted in native byte order: on a 25,000-entry table that and two
    converting copies take half as long as subtracting big-endian views.
    """
    offsets = table.view(">u8").astype(np.uint64)
    counts = np.empty_like(offsets)
    counts[:1] = offsets[:1]
    np.subtract(offsets[1:], offsets[:-1], out=counts[1:])
    return counts.astype(">u8").view(np.uint8)


def _constant_planes(segment: np.ndarray, width: int) -> np.ndarray:
    """Which byte planes of a non-empty segment of ``width``-byte elements
    hold one repeated byte.

    All planes at once: a bit that every element has alike is set in both
    the OR and the AND of the elements, or in neither.
    """
    elements = segment.view(np.dtype(f"u{width}"))
    differ = np.bitwise_or.reduce(elements) ^ np.bitwise_and.reduce(elements)
    return np.frombuffer(differ.tobytes(), dtype=np.uint8) == 0


def _gather_planes(rows: list, flags: list, flag: int, out: np.ndarray) -> None:
    """Copy the whole planes of every segment flagged ``flag``, in order, into ``out``."""
    pos = 0
    for planes, seg_flags in zip(rows, flags):
        n = planes.shape[1]
        for j, plane_flag in enumerate(seg_flags):
            if plane_flag == flag:
                out[pos : pos + n] = planes[j]
                pos += n


def _inflate_planes(stored: bytes | memoryview, raw_len: int, planes: Planes) -> np.ndarray:
    """Decode a codec-4 payload straight into the ``raw_len`` payload bytes."""
    segments = _segments(raw_len, planes)
    widths = [w for _, _, w in segments]
    n_flags = sum(widths)
    if len(stored) < n_flags + _CRC.size:
        raise CorruptFileError(f"planes payload of {len(stored)} bytes has no room for its flags")
    flags = np.frombuffer(stored, dtype=np.uint8, count=n_flags)
    if np.any(flags > _CONSTANT):
        raise CorruptFileError("plane flags must be 0 (stored), 1 (deflated) or 2 (constant)")
    plane_lens = np.repeat([(hi - lo) // w for lo, hi, w in segments], widths)
    if np.any((flags == _CONSTANT) & (plane_lens == 0)):
        raise CorruptFileError("an empty plane cannot be constant")
    deflated = flags == _DEFLATED
    deflated_len = int(plane_lens[deflated].sum())
    n_constant = int(np.count_nonzero(flags == _CONSTANT))
    kept_len = int(plane_lens[flags == _STORED].sum()) + n_constant
    stream_len = len(stored) - n_flags - _CRC.size - kept_len
    if stream_len < 0 or (stream_len > 0) != deflated.any():
        raise CorruptFileError(
            f"planes payload of {len(stored)} bytes cannot hold {kept_len} "
            f"stored bytes and a deflate stream for {int(deflated.sum())} planes"
        )
    body = memoryview(stored)[n_flags + _CRC.size :]
    kept = body[stream_len:]
    if _crc32(kept) != _CRC.unpack_from(stored, n_flags)[0]:
        raise CorruptFileError("stored planes do not match their CRC32")
    inflated_planes = np.empty(0, dtype=np.uint8)
    if stream_len:
        inflated_planes = _inflate(body[:stream_len], deflated_len)
    constants = np.frombuffer(kept, dtype=np.uint8, count=n_constant)
    stored_planes = np.frombuffer(kept, dtype=np.uint8, offset=n_constant)
    out = np.empty(raw_len, dtype=np.uint8)
    d = s = c = 0  # bytes placed so far from the inflated planes, stored planes and constants
    for (lo, hi, w), seg_flags in zip(segments, np.split(flags, np.cumsum(widths)[:-1])):
        n = (hi - lo) // w
        plane_rows = out[lo:hi].reshape(-1, w).T  # row j is plane j, a view into out
        inflated, kept_raw, constant = (seg_flags == f for f in (_DEFLATED, _STORED, _CONSTANT))
        k_d, k_s, k_c = (int(np.count_nonzero(m)) for m in (inflated, kept_raw, constant))
        plane_rows[inflated] = inflated_planes[d : d + k_d * n].reshape(k_d, n)
        plane_rows[kept_raw] = stored_planes[s : s + k_s * n].reshape(k_s, n)
        plane_rows[constant] = constants[c : c + k_c, None]
        d, s, c = d + k_d * n, s + k_s * n, c + k_c
    if planes[0]:
        table = out[: planes[0]].view(">u8")
        table[...] = np.cumsum(table, dtype=np.uint64)
    return out


def compress_record(
    raw: bytes | memoryview, codec: Codec, planes: Planes = _NO_PLANES
) -> tuple[Codec, bytes | memoryview | np.ndarray]:
    """Encode a payload, falling back to NONE when compression does not shrink it.

    ``planes`` gives the payload's byte-plane layout for DELTA_PLANES. The
    NONE fallback always stores ``raw`` as given, never split into planes
    or delta-coded.
    """
    if codec is Codec.DEFLATE:
        packed = zlib.compress(raw, _DEFLATE_LEVEL)
    elif codec is Codec.DELTA_PLANES:
        packed = _deflate_planes(raw, planes)
    else:
        return Codec.NONE, raw
    if packed is not None and len(packed) < len(raw):
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
    if codec is Codec.DELTA_PLANES:
        return _inflate_planes(stored, raw_len, planes)
    raise CorruptFileError(f"unknown codec {codec}")  # pragma: no cover - callers validate codec


def _frame_record(raw: bytes, codec: Codec) -> bytes:
    used, stored = compress_record(raw, codec)
    return struct.pack(">BI", int(used), len(raw)) + stored


def _parse_record(buf: bytes) -> bytes:
    if len(buf) < 5:
        raise CorruptFileError(f"record truncated: {len(buf)} bytes")
    codec_byte, raw_len = struct.unpack_from(">BI", buf, 0)
    if codec_byte not in (Codec.NONE, Codec.DEFLATE):  # DELTA_PLANES is for baskets only
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

    A chunk is never changed in place (``slice`` and ``select`` return new
    chunks), so a jagged chunk may cache what it derives from its offsets.
    """

    values: np.ndarray
    offsets: np.ndarray | None = None
    _events: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def events(self) -> np.ndarray:
        """The entry of each of the first ``offsets[-1]`` elements; built once, then cached."""
        if self._events is None:
            if self.offsets is None:
                raise SchemaError("events() only applies to jagged chunks")
            # at each element, count the entries after the first that start
            # there, then take the running sum: 1.6x as fast as
            # np.repeat(np.arange(n), counts)
            offsets = self.offsets
            events = np.zeros(int(offsets[-1]) + 1, dtype=np.intp)
            np.add.at(events, offsets[1:-1], 1)
            self._events = np.cumsum(events[:-1], out=events[:-1])
        return self._events

    def with_values(self, values: np.ndarray) -> "ColumnChunk":
        """A chunk of other values in this one's entries, sharing its cached index."""
        chunk = ColumnChunk(values, self.offsets)
        chunk._events = self._events
        return chunk

    def slice(self, start: int, stop: int) -> "ColumnChunk":
        if self.offsets is None:
            return ColumnChunk(self.values[start:stop])
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        return ColumnChunk(self.values[lo:hi], self.offsets[start : stop + 1] - lo)

    def select(self, mask: np.ndarray) -> "ColumnChunk":
        """Keep entries where ``mask`` is True, preserving per-entry structure.

        ``np.compress`` keeps them: on a random mask it is about 4x as fast as
        boolean indexing.
        """
        if len(mask) != self.n_entries:
            raise SchemaError(f"mask of {len(mask)} entries for a chunk of {self.n_entries}")
        if self.offsets is None:
            return ColumnChunk(np.compress(mask, self.values))
        events = self.events()
        keep_values = np.compress(mask[events], self.values[: len(events)])
        kept_counts = np.compress(mask, self.counts())
        offsets = np.zeros(len(kept_counts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        return ColumnChunk(keep_values, offsets)

    @classmethod
    def from_lists(cls, rows, dtype: np.dtype | type) -> "ColumnChunk":
        """A jagged chunk whose entries hold ``rows``' values."""
        dt = np.dtype(dtype)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offsets[1:])
        values = [np.asarray(row, dtype=dt) for row in rows]
        return cls(np.concatenate([np.empty(0, dt), *values]), offsets)

    @classmethod
    def empty(cls, dtype: np.dtype | type, jagged: bool = False) -> "ColumnChunk":
        values = np.array([], dtype=np.dtype(dtype))
        if jagged:
            return cls(values, np.zeros(1, dtype=np.int64))
        return cls(values)

    @classmethod
    def concatenate(
        cls, chunks: Sequence["ColumnChunk"], dtype: np.dtype | None = None
    ) -> "ColumnChunk":
        """Join chunks end to end in one copy per array, casting values to ``dtype``.

        ``dtype`` defaults to numpy's promotion of the chunks' dtypes. The
        cast is unsafe, as an assignment is, so stored BOOL ``u1`` values
        become bool. Offsets come out int64 from 0, each chunk's rebased
        onto the elements before it. One chunk that needs no conversion is
        returned as it is.
        """
        if not chunks:
            raise SchemaError("cannot concatenate zero chunks")
        jagged = chunks[0].is_jagged
        if any(c.is_jagged != jagged for c in chunks):
            raise SchemaError("mixed flat/jagged chunks")
        # a jagged chunk's values past its last offset belong to no entry
        parts = [c.values[: int(c.offsets[-1])] if jagged else c.values for c in chunks]
        dtype = np.result_type(*parts) if dtype is None else dtype
        int64_offsets = not jagged or chunks[0].offsets.dtype == np.int64
        if len(chunks) == 1 and parts[0].dtype == dtype and int64_offsets:
            return chunks[0]
        # via np.empty: np.concatenate's own allocation made a rerun job fault pages in again
        values = np.empty(sum(len(v) for v in parts), dtype=dtype)
        np.concatenate(parts, out=values, casting="unsafe")
        if not jagged:
            return cls(values)
        offsets = np.zeros(sum(c.n_entries for c in chunks) + 1, dtype=np.int64)
        pos = base = 0  # entries and elements placed so far
        for c, part in zip(chunks, parts):
            np.add(c.offsets[1:], base, out=offsets[pos + 1 : pos + 1 + c.n_entries])
            pos += c.n_entries
            base += len(part)
        return cls(values, offsets)


# ---------------------------------------------------------------------------
# basket payload encode/decode


def encode_basket(chunk: ColumnChunk, dtype: Dtype, shape: Shape) -> memoryview:
    """The basket payload of ``chunk``, built in one converting copy per array."""
    be = _DTYPE_BE[dtype]
    if shape is Shape.FLAT:
        if chunk.offsets is not None:
            raise SchemaError("flat branch given jagged data")
        out = np.empty(len(chunk.values) * be.itemsize, dtype=np.uint8)
        out.view(be)[...] = chunk.values
        return memoryview(out)
    if chunk.offsets is None:
        raise SchemaError("jagged branch given flat data")
    offsets = chunk.offsets
    head = len(offsets) * 8
    out = np.empty(head + len(chunk.values) * be.itemsize, dtype=np.uint8)
    table = out[:head].view(">u8")
    if offsets[0]:
        np.subtract(offsets, offsets[0], out=table, casting="unsafe")
    else:  # as every writer's slice is
        table[...] = offsets
    out[head:].view(be)[...] = chunk.values
    return memoryview(out)


def decode_basket(
    raw: np.ndarray | bytes, dtype: Dtype, shape: Shape, n_entries: int
) -> ColumnChunk:
    """Check a basket payload and view it as a chunk, without copying.

    The views keep the stored byte order: values are big-endian, and a
    jagged basket's offsets are its basket-local table viewed as
    big-endian i8. :meth:`ColumnChunk.concatenate` converts them while it
    joins a column's baskets.
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
        codec: Codec = Codec.DELTA_PLANES,
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
        self._index: dict[str, list[tuple]] = {}  # each branch's basket index rows so far
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
        self._index = {bname: [] for bname in branches}
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
        for name, meta in tree.branches.items():
            meta.baskets = _basket_index(self._index[name])
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
            self._index[name].append((first_entry, n, self._pos, len(stored), len(raw), codec))
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
                out += meta.baskets.tobytes()
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
        chunk = ColumnChunk.from_lists(data, dt)
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
    codec: Codec = Codec.DELTA_PLANES,
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
            raw_index = cur.take(basket_count * BASKET_INDEX.itemsize)
            baskets = np.frombuffer(raw_index, dtype=BASKET_INDEX).view(np.recarray)
            unknown = [b for b in baskets.codec.tolist() if b not in _CODEC_BYTES]
            if unknown:
                raise CorruptFileError(f"unknown codec byte {unknown[0]}")
            tree.branches[bname] = BranchMeta(bname, dtype, shape, baskets)
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
            for first_entry, n_entries, offset, stored_len, _, _ in meta.rows:
                if first_entry != expect_first:
                    raise CorruptFileError(
                        f"branch {meta.name!r}: basket starts at entry "
                        f"{first_entry}, expected {expect_first}"
                    )
                if n_entries == 0:
                    raise CorruptFileError(f"branch {meta.name!r}: empty basket")
                if offset < HEADER_LEN or offset + stored_len > header.dir_offset:
                    raise CorruptFileError(
                        f"branch {meta.name!r}: basket data outside data region"
                    )
                expect_first += n_entries
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


def _overlapping(meta: BranchMeta, entry_start: int, entry_stop: int) -> list[tuple]:
    """The index rows of the baskets that hold entries in ``[entry_start, entry_stop)``:
    a checked index's baskets tile the tree in order, so bisection finds them.
    """
    if entry_start == entry_stop:
        return []
    lo = bisect.bisect_right(meta.rows, entry_start, key=lambda row: row[0]) - 1
    return meta.rows[lo : bisect.bisect_left(meta.rows, entry_stop, key=lambda row: row[0])]


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
        column is their chunks, cut to the range, joined by
        :meth:`ColumnChunk.concatenate` in one copy that converts them.
        """
        tmeta = self.tree(tree)
        meta = _branch(tmeta, branch)
        stop = _entry_stop(tmeta, entry_start, entry_stop)
        native = _DTYPE_NATIVE[meta.dtype]
        if entry_start == stop:
            return ColumnChunk.empty(native, jagged=meta.is_jagged)
        pieces = []  # each basket's chunk in stored byte order, cut to the range
        for b in _overlapping(meta, entry_start, stop):  # b[:2]: first_entry, n_entries
            chunk = self._read_basket(b, meta)
            if b[0] < entry_start or b[0] + b[1] > stop:
                chunk = chunk.slice(max(entry_start - b[0], 0), min(stop - b[0], b[1]))
            pieces.append(chunk)
        return ColumnChunk.concatenate(pieces, native)

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
                (b[2], b[3])  # offset, stored_len
                for name in branches
                for b in _overlapping(_branch(tmeta, name), entry_start, stop)
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

    def _stored_bytes(self, offset: int, stored_len: int) -> bytes | memoryview:
        """A basket's stored bytes: from the prefetched ranges if they hold them."""
        i = bisect.bisect_right(self._prefetched, offset, key=lambda r: r[0]) - 1
        if i >= 0:
            start, buf = self._prefetched[i]
            rel = offset - start
            if rel + stored_len <= len(buf):
                return memoryview(buf)[rel : rel + stored_len]
        return self._source.read_at(offset, stored_len)

    def _read_basket(self, basket: tuple, meta: BranchMeta) -> ColumnChunk:
        """Fetch, inflate and check one index row's basket, viewed in stored byte order."""
        _, n_entries, offset, stored_len, raw_len, codec = basket
        stored = self._stored_bytes(offset, stored_len)
        if len(stored) != stored_len:
            raise CorruptFileError(
                f"short read on basket at offset {offset}: got {len(stored)} of {stored_len} bytes"
            )
        planes = _basket_planes(meta.dtype, meta.shape, n_entries)
        raw = decompress_record(stored, Codec(codec), raw_len, planes)
        return decode_basket(raw, meta.dtype, meta.shape, n_entries)

    def validate(self, deep: bool = False) -> None:
        """Re-run structural checks; with ``deep`` decode every basket too."""
        _check_index(self.header, self.trees)
        if deep:
            for tree in self.trees.values():
                for meta in tree.branches.values():
                    for basket in meta.rows:
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


# ---------------------------------------------------------------------------
# concatenation


def concat_files(
    inputs: Iterable[str | Path],
    output: str | Path,
    *,
    codec: Codec = Codec.DELTA_PLANES,
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
