"""Container format tests: byte-level layout, round trips, fault tolerance."""

from __future__ import annotations

import collections
import itertools
import os
import re
import struct
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_interp import arrays_match
from treeduce import treefile
from treeduce.iostats import IoStats
from treeduce.sources import ByteSource, BytesSource, FileSource
from treeduce.treefile import (
    DEFAULT_BASKET_ENTRIES,
    HEADER_LEN,
    MAGIC,
    VERSION,
    Codec,
    ColumnChunk,
    CorruptFileError,
    Dtype,
    SchemaError,
    Shape,
    TreeFileError,
    TreeFileReader,
    TreeFileWriter,
    compress_record,
    concat_files,
    decode_basket,
    encode_basket,
    itemsize,
    open_file,
    read_directory,
    write_tree,
)


def open_bytes(data: bytes) -> TreeFileReader:
    return TreeFileReader(BytesSource(data), own_source=True)


def to_lists(chunk: ColumnChunk) -> list:
    """A chunk's entries as Python lists (jagged) or scalars (flat)."""
    if chunk.offsets is None:
        return chunk.values.tolist()
    return [
        chunk.values[chunk.offsets[i] : chunk.offsets[i + 1]].tolist()
        for i in range(chunk.n_entries)
    ]


class CountingSource:
    """Wrapper that tallies read calls and byte spans of another source.

    Used to assert access-pattern properties (laziness, selectivity)
    without touching the wrapped implementation.
    """

    def __init__(self, inner: ByteSource):
        self.inner = inner
        self.read_calls = 0
        self.bytes_read = 0
        self.reads: list[tuple[int, int]] = []
        self.range_calls: list[list[tuple[int, int]]] = []

    @property
    def size(self) -> int:
        return self.inner.size

    def read_at(self, offset: int, length: int) -> bytes:
        data = self.inner.read_at(offset, length)
        self.read_calls += 1
        self.bytes_read += len(data)
        self.reads.append((offset, len(data)))
        return data

    def read_ranges(self, ranges):
        self.range_calls.append(list(ranges))
        return [self.read_at(offset, length) for offset, length in ranges]

    def close(self) -> None:
        self.inner.close()


# --- independent decoders -----------------------------------------------


def parse_record(buf: bytes) -> bytes:
    codec = buf[0]
    raw_len = int.from_bytes(buf[1:5], "big")
    payload = buf[5:]
    if codec == 1:
        payload = zlib.decompress(payload)
    else:
        assert codec == 0
    assert len(payload) == raw_len
    return payload


class DirWalker:
    """Hand-rolled directory decoder, kept separate from the library."""

    def __init__(self, payload: bytes):
        self.buf = payload
        self.pos = 0

    def take(self, fmt: str):
        vals = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += struct.calcsize(fmt)
        return vals

    def name(self) -> str:
        (n,) = self.take(">H")
        raw = self.buf[self.pos : self.pos + n]
        self.pos += n
        return raw.decode("utf-8")

    def walk(self) -> dict:
        (tree_count,) = self.take(">I")
        trees = {}
        for _ in range(tree_count):
            tname = self.name()
            (n_entries,) = self.take(">Q")
            (branch_count,) = self.take(">I")
            branches = {}
            for _ in range(branch_count):
                bname = self.name()
                dtype, shape = self.take(">BB")
                (basket_count,) = self.take(">I")
                baskets = [self.take(">QIQIIB") for _ in range(basket_count)]
                branches[bname] = (dtype, shape, baskets)
            trees[tname] = (n_entries, branches)
        assert self.pos == len(self.buf)
        return trees


def unshuffle_by_hand(buf: bytes, head: int, width: int) -> bytes:
    """Undo the byte-plane regrouping: in each segment, plane k holds byte k of every element."""
    out = b""
    for segment, w in ((buf[:head], 8), (buf[head:], width)):
        n = len(segment) // w
        assert n * w == len(segment)
        planes = [segment[k * n : (k + 1) * n] for k in range(w)]
        out += bytes(planes[k][i] for i in range(n) for k in range(w))
    return out


def plane_lens_by_hand(raw_len: int, head: int, width: int) -> list[int]:
    """Bytes in each byte plane of a payload, in plane order.

    A jagged payload has the 8 planes of its offset table first.
    """
    return [head // 8] * (8 if head else 0) + [(raw_len - head) // width] * width


def counts_by_hand(payload: bytes, head: int) -> bytes:
    """Codec 4's table coding: each offset after the first minus the one before it."""
    offsets = struct.unpack(f">{head // 8}Q", payload[:head])
    counts = offsets[:1] + tuple((b - a) % 2**64 for a, b in zip(offsets, offsets[1:]))
    return struct.pack(f">{len(counts)}Q", *counts) + payload[head:]


def offsets_by_hand(coded: bytes, head: int) -> bytes:
    """Undo :func:`counts_by_hand` with a running sum."""
    sums = itertools.accumulate(struct.unpack(f">{head // 8}Q", coded[:head]))
    return struct.pack(f">{head // 8}Q", *(x % 2**64 for x in sums)) + coded[head:]


def split_planes_by_hand(
    payload: bytes, head: int, width: int, flags: list[int]
) -> tuple[bytes, bytes]:
    """The deflated planes of a payload, and its stored section: the one
    byte of each constant plane, then the stored planes, each in plane order."""
    segments = [(payload[:head], 8), (payload[head:], width)] if head else [(payload, width)]
    planes = [segment[k::w] for segment, w in segments for k in range(w)]
    assert len(flags) == len(planes)
    deflated = b"".join(plane for plane, flag in zip(planes, flags) if flag == 1)
    constants = bytes(plane[0] for plane, flag in zip(planes, flags) if flag == 2)
    stored = b"".join(plane for plane, flag in zip(planes, flags) if flag == 0)
    return deflated, constants + stored


def planes_payload_by_hand(payload: bytes, head: int, width: int, flags: list[int]) -> bytes:
    """A codec-4 basket: flags | crc32 of the stored section | one level-1
    zlib stream of the deflated planes | the stored section, with the offset
    table, if any, first turned into counts."""
    if head:
        payload = counts_by_hand(payload, head)
    deflated, stored = split_planes_by_hand(payload, head, width, flags)
    stream = zlib.compress(deflated, 1) if 1 in flags else b""
    return bytes(flags) + struct.pack(">I", zlib.crc32(stored)) + stream + stored


def unplanes_by_hand(stored: bytes, raw_len: int, head: int, width: int) -> bytes:
    """Decode a codec-4 basket with slicing, ``struct`` and ``zlib`` only."""
    lens = plane_lens_by_hand(raw_len, head, width)
    flags = stored[: len(lens)]
    (crc,) = struct.unpack(">I", stored[len(lens) : len(lens) + 4])
    n_constant = flags.count(2)
    kept_len = n_constant + sum(n for n, flag in zip(lens, flags) if flag == 0)
    stream = stored[len(lens) + 4 : len(stored) - kept_len]
    kept = stored[len(stored) - kept_len :]
    assert zlib.crc32(kept) == crc
    sources = {1: zlib.decompress(stream) if stream else b"", 0: kept[n_constant:]}
    constants = kept[:n_constant]
    shuffled = b""
    for n, flag in zip(lens, flags):
        if flag == 2:
            shuffled += constants[:1] * n
            constants = constants[1:]
        else:
            shuffled += sources[flag][:n]
            sources[flag] = sources[flag][n:]
    assert sources == {1: b"", 0: b""} and constants == b""
    payload = unshuffle_by_hand(shuffled, head, width)
    return offsets_by_hand(payload, head) if head else payload


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def hand_built_file(
    dtype: int, shape: int, n_entries: int, codec: int, stored: bytes, raw_len: int,
    dir_codec: int = 0, spoil_dir=None,
) -> bytes:
    """A one-tree, one-branch, one-basket file packed without the library.

    A nonzero ``dir_codec`` stores the directory record deflated under that
    codec byte. ``spoil_dir``, if given, maps the directory payload to the
    (stored, raw_len) that a codec-1 directory record carries instead.
    """
    basket = struct.pack(">QIQIIB", 0, n_entries, 32, len(stored), raw_len, codec)
    directory = (
        struct.pack(">I", 1) + pack_name("t") + struct.pack(">QI", n_entries, 1)
        + pack_name("v") + struct.pack(">BBI", dtype, shape, 1) + basket
    )
    packed = zlib.compress(directory) if dir_codec else directory
    dir_raw_len = len(directory)
    if spoil_dir is not None:
        dir_codec = 1
        packed, dir_raw_len = spoil_dir(directory)
    record = struct.pack(">BI", dir_codec, dir_raw_len) + packed
    dir_offset = 32 + len(stored)
    header = struct.pack(">4sIQQQ", b"TRF1", 1, dir_offset, len(record), dir_offset + len(record))
    return header + stored + record


def small_file_bytes(tmp_path, codec=Codec.NONE) -> bytes:
    path = tmp_path / "small.trf"
    write_tree(
        str(path),
        "t",
        {
            "jag": [[1, 2], [3], [], [4, 5, 6]],
            "flat": np.array([1.5, -2.0, 0.25, 1e300]),
        },
        codec=codec,
        basket_entries=8192,
    )
    return path.read_bytes()


# --- layout bytes -------------------------------------------------------


def test_header_constants():
    assert MAGIC == b"TRF1"
    assert VERSION == 1
    assert HEADER_LEN == 32
    assert struct.calcsize(">4sIQQQ") == 32
    assert struct.calcsize(">QIQIIB") == 29


def test_header_bytes_match_struct_pack(tmp_path):
    raw = small_file_bytes(tmp_path)
    magic, version, dir_offset, dir_len, file_len = struct.unpack(">4sIQQQ", raw[:32])
    assert magic == b"TRF1"
    assert version == 1
    assert file_len == len(raw)
    assert dir_offset + dir_len == len(raw)
    assert raw[:32] == struct.pack(">4sIQQQ", b"TRF1", 1, dir_offset, dir_len, file_len)


def test_jagged_basket_payload_exact_bytes(tmp_path):
    # one uncompressed basket: (n+1) big-endian u64 offsets, then elements
    raw = small_file_bytes(tmp_path)
    _, _, dir_offset, dir_len, _ = struct.unpack(">4sIQQQ", raw[:32])
    trees = DirWalker(parse_record(raw[dir_offset : dir_offset + dir_len])).walk()
    n_entries, branches = trees["t"]
    assert n_entries == 4

    dtype, shape, baskets = branches["jag"]
    assert (dtype, shape) == (2, 1)  # i64, jagged (list input defaults to i64)
    assert len(baskets) == 1
    first_entry, n, offset, stored_len, raw_len, codec = baskets[0]
    assert (first_entry, n, codec) == (0, 4, 0)
    expected = struct.pack(">5Q", 0, 2, 3, 3, 6) + struct.pack(">6q", 1, 2, 3, 4, 5, 6)
    assert raw_len == len(expected)
    assert raw[offset : offset + stored_len] == expected

    dtype, shape, baskets = branches["flat"]
    assert (dtype, shape) == (4, 0)  # f64, flat
    first_entry, n, offset, stored_len, raw_len, codec = baskets[0]
    expected = struct.pack(">4d", 1.5, -2.0, 0.25, 1e300)
    assert raw[offset : offset + stored_len] == expected


def test_deflate_basket_decompresses_to_plain_payload(tmp_path):
    path = tmp_path / "z.trf"
    values = np.zeros(1000, dtype=np.int64)  # compresses well
    write_tree(str(path), "t", {"v": values}, codec=Codec.DEFLATE)
    raw = path.read_bytes()
    with open_file(str(path)) as reader:
        basket = reader.tree("t").branches["v"].baskets[0]
    assert basket.codec == Codec.DEFLATE
    assert basket.stored_len < basket.raw_len
    payload = zlib.decompress(raw[basket.offset : basket.offset + basket.stored_len])
    assert payload == values.astype(">i8").tobytes()


def test_shuffle_payload_of_partial_elements_is_corrupt():
    """A codec-4 basket whose declared length does not split into its planes."""
    # the stored bytes are never looked at: the layout is checked first
    stored = bytes(8) + struct.pack(">I", zlib.crc32(b""))
    # 7 bytes cannot be regrouped into the planes of one f64
    raw = hand_built_file(4, 0, 1, 4, stored, 7)
    with pytest.raises(CorruptFileError, match="does not split"):
        open_bytes(raw).read_column("t", "v")
    # a whole 16-byte offset table, then 5 bytes that are no i64
    raw = hand_built_file(2, 1, 1, 4, stored, 21)
    with pytest.raises(CorruptFileError, match="does not split"):
        open_bytes(raw).read_column("t", "v")
    # an offset table longer than the payload
    raw = hand_built_file(2, 1, 3, 4, stored, 16)
    with pytest.raises(CorruptFileError, match="does not split"):
        open_bytes(raw).read_column("t", "v")


def test_shuffle_codec_is_refused_for_the_directory_record():
    stored = struct.pack(">2d", 1.0, 2.0)
    deflated = open_bytes(hand_built_file(4, 0, 2, 0, stored, 16, dir_codec=1))
    assert deflated.read_column("t", "v").values.tolist() == [1.0, 2.0]
    # codec 4 is for baskets only; 2 and 3 are retired
    for codec_byte in (2, 3, Codec.DELTA_PLANES):
        with pytest.raises(CorruptFileError, match="not allowed in a record"):
            open_bytes(hand_built_file(4, 0, 2, 0, stored, 16, dir_codec=codec_byte))


def test_shuffle_falls_back_to_unshuffled_raw_when_not_smaller(tmp_path):
    # 64 samples cannot show 7 bits of entropy, so every plane is deflated,
    # and the stream of 512 random bytes is larger than they are
    path = tmp_path / "noise.trf"
    values = np.random.default_rng(3).integers(-(2**62), 2**62, 64, dtype=np.int64)
    write_tree(str(path), "t", {"v": values})
    with open_file(str(path)) as reader:
        (basket,) = reader.tree("t").branches["v"].baskets
    assert basket.codec == Codec.NONE
    stored = path.read_bytes()[basket.offset : basket.offset + basket.stored_len]
    assert stored == struct.pack(">64q", *values.tolist())


def test_delta_planes_basket_payload_exact_bytes(tmp_path):
    """A jagged basket under the default codec 4: its offset table is coded
    as counts, whose 7 high planes are constant and whose low plane is
    deflated; its f64 elements, f32 values widened, have a deflated sign and
    exponent plane, stored mantissa noise and constant zero low planes.

    Under zlib the whole payload is pinned. libdeflate writes a different
    stream, so under it everything around the stream is pinned, and the
    stream must inflate to exactly the flagged planes."""
    rng = np.random.default_rng(12)
    counts = rng.integers(2, 11, 2048)
    jag = ColumnChunk(
        values=rng.normal(size=int(counts.sum())).astype(np.float32).astype(np.float64),
        offsets=np.concatenate([[0], np.cumsum(counts)]),
    )
    path = tmp_path / "delta-planes.trf"
    write_tree(str(path), "t", {"jag": jag})  # default codec
    raw = path.read_bytes()
    _, _, dir_offset, dir_len, _ = struct.unpack(">4sIQQQ", raw[:32])
    _, branches = DirWalker(parse_record(raw[dir_offset : dir_offset + dir_len])).walk()["t"]
    head = 2049 * 8
    payload = jag.offsets.astype(">u8").tobytes() + jag.values.astype(">f8").tobytes()
    ((first_entry, n, offset, stored_len, raw_len, codec),) = branches["jag"][2]
    assert (first_entry, n, codec, raw_len) == (0, 2048, 4, len(payload))
    stored = raw[offset : offset + stored_len]
    flags = list(stored[:16])
    assert flags[:8] == [2] * 7 + [1]  # counts of 2 to 10: one deflated low byte
    # sign and exponent deflated, mantissa noise stored, the 3 bytes below
    # an f32's 23-bit mantissa constant
    assert flags[8] == 1 and 0 in flags[9:13] and flags[13:] == [2] * 3
    coded = counts_by_hand(payload, head)
    planes = [coded[k:head:8] for k in range(8)] + [coded[head + k :: 8] for k in range(8)]
    assert [flag == 2 for flag in flags] == [len(set(plane)) == 1 for plane in planes]
    want = planes_payload_by_hand(payload, head, 8, flags)
    if treefile._LIBDEFLATE is None:
        assert stored == want
    else:
        flagged, kept = split_planes_by_hand(coded, head, 8, flags)
        assert stored[:20] == want[:20]  # flags and CRC32
        assert stored[len(stored) - len(kept) :] == kept
        assert zlib.decompress(stored[20 : len(stored) - len(kept)]) == flagged
    assert unplanes_by_hand(stored, raw_len, head, 8) == payload


# codec-4 baskets whose planes are only deflated or stored, as a writer
# flags them when no plane holds one repeated byte
HAND_BUILT_PLANES = {
    "flat-f64-mixed": (Dtype.F64, Shape.FLAT, [0.5 * i for i in range(16)], [1, 0, 1, 0, 0, 1, 1, 0]),
    "jagged-f32": (
        Dtype.F32, Shape.JAGGED, [[1.5], [], [2.5, -3.0]], [0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1]
    ),
    "bool": (Dtype.BOOL, Shape.FLAT, [True, False, True], [1]),
    "jagged-no-elements": (Dtype.F64, Shape.JAGGED, [[], [], []], [1] * 8 + [0] * 8),
}


@pytest.mark.parametrize(
    "dtype, shape, rows, flags", list(HAND_BUILT_PLANES.values()), ids=list(HAND_BUILT_PLANES)
)
def test_hand_built_planes_baskets_decode(dtype, shape, rows, flags):
    assert_hand_built_basket_decodes(dtype, shape, rows, flags)


# codec-4 baskets with constant planes
HAND_BUILT_DELTA_PLANES = {
    # counts 0 1 0 2 1: seven zero planes and a low one; the f32 values'
    # two low bytes are zero
    "jagged-f32": (
        Dtype.F32, Shape.JAGGED, [[1.5], [], [2.5, -3.0], [0.5]], [2] * 7 + [1] + [1, 0, 2, 2]
    ),
    "flat-f64-all-constant": (Dtype.F64, Shape.FLAT, [1.0] * 5, [2] * 8),  # no stream
    "bool-constant": (Dtype.BOOL, Shape.FLAT, [True] * 3, [2]),
    "jagged-no-elements": (Dtype.F64, Shape.JAGGED, [[], [], []], [2] * 8 + [0] * 8),
    "flat-f64-mixed": HAND_BUILT_PLANES["flat-f64-mixed"],  # no constant plane
}


@pytest.mark.parametrize(
    "dtype, shape, rows, flags",
    list(HAND_BUILT_DELTA_PLANES.values()),
    ids=list(HAND_BUILT_DELTA_PLANES),
)
def test_hand_built_delta_planes_baskets_decode(dtype, shape, rows, flags):
    assert_hand_built_basket_decodes(dtype, shape, rows, flags)


def hand_built_payload(dtype, shape, rows) -> tuple[int, bytes]:
    """(offset-table bytes, payload) of a basket holding ``rows``, packed with ``struct``."""
    fmt = {Dtype.F64: "d", Dtype.F32: "f", Dtype.BOOL: "?"}[dtype]
    if shape is Shape.FLAT:
        return 0, struct.pack(f">{len(rows)}{fmt}", *rows)
    offsets = np.concatenate([[0], np.cumsum([len(row) for row in rows])]).tolist()
    values = [x for row in rows for x in row]
    return 8 * len(offsets), struct.pack(f">{len(offsets)}Q{len(values)}{fmt}", *offsets, *values)


def assert_hand_built_basket_decodes(dtype, shape, rows, flags) -> None:
    head, payload = hand_built_payload(dtype, shape, rows)
    stored = planes_payload_by_hand(payload, head, itemsize(dtype), flags)
    reader = open_bytes(hand_built_file(dtype, shape, len(rows), 4, stored, len(payload)))
    assert to_lists(reader.read_column("t", "v")) == rows


def test_corrupt_planes_payloads_are_refused():
    values = [0.5 * i for i in range(16)]
    payload = struct.pack(">16d", *values)
    planes = [payload[k::8] for k in range(8)]
    flags = [1, 0, 1, 0, 0, 1, 1, 0]
    flagged = b"".join(plane for plane, flag in zip(planes, flags) if flag)
    kept = b"".join(plane for plane, flag in zip(planes, flags) if not flag)

    def framed(flags, stream, kept):
        return bytes(flags) + struct.pack(">I", zlib.crc32(kept)) + stream + kept

    good = framed(flags, zlib.compress(flagged, 1), kept)
    assert good == planes_payload_by_hand(payload, 0, 8, flags)
    assert to_lists(open_bytes(hand_built_file(4, 0, 16, 4, good, 128)).read_column("t", "v")) == values
    cases = [
        ("plane flags must be 0", bytes([3]) + good[1:]),
        ("cannot hold", good[:12] + kept[:40]),  # fewer bytes than the stored planes
        ("cannot hold", framed([0] * 8, zlib.compress(b""), payload)),  # a stream, nothing flagged
        ("cannot hold", framed([1] + [0] * 7, b"", b"".join(planes[1:]))),  # flagged, no stream
        ("CRC32", good[:8] + bytes(4) + good[12:]),
        ("does not end in exactly", framed(flags, zlib.compress(flagged + b"x", 1), kept)),
        ("does not end in exactly", good[:-65] + good[-64:]),  # stream cut short
    ]
    for match, stored in cases:
        with pytest.raises(CorruptFileError, match=match):
            open_bytes(hand_built_file(4, 0, 16, 4, stored, 128)).read_column("t", "v")


def test_corrupt_delta_planes_payloads_are_refused():
    dtype, shape, rows, flags = HAND_BUILT_DELTA_PLANES["jagged-f32"]
    head, payload = hand_built_payload(dtype, shape, rows)
    good = planes_payload_by_hand(payload, head, 4, flags)

    def hand_built(stored, codec=4):
        return hand_built_file(dtype, shape, len(rows), codec, stored, len(payload))

    def read(stored):
        return open_bytes(hand_built(stored)).read_column("t", "v")

    assert to_lists(read(good)) == rows
    # codec bytes 2 and 3 are retired: unknown, refused when the file opens
    for retired in (2, 3):
        with pytest.raises(CorruptFileError, match=f"unknown codec byte {retired}"):
            open_bytes(hand_built(good, codec=retired))
    n_flags, kept_len = len(flags), 9 + 4  # 9 constant bytes, one stored plane of 4 elements
    constants_only = planes_payload_by_hand(payload, head, 4, [2] * 7 + [0] * 3 + [2, 2])
    assert to_lists(read(constants_only)) == rows  # no stream
    table = struct.unpack(f">{head // 8}Q", counts_by_hand(payload, head)[:head])
    cases = [
        ("plane flags must be 0", bytes([3]) + good[1:]),
        ("CRC32", good[:-kept_len] + bytes([good[-kept_len] ^ 1]) + good[1 - kept_len :]),
        ("CRC32", good[:-1] + bytes([good[-1] ^ 1])),  # a stored plane's byte
        ("cannot hold", good[: n_flags + 4] + good[-kept_len:]),  # flagged, no stream
        (
            "cannot hold",  # nothing flagged deflated, a stream
            constants_only[: n_flags + 4] + zlib.compress(b"") + constants_only[n_flags + 4 :],
        ),
    ]
    for match, stored in cases:
        with pytest.raises(CorruptFileError, match=match):
            read(stored)
    # the summed table meets decode_basket's checks
    for match, counts in [
        ("start at 0", (1,) + table[1:]),
        ("non-decreasing", table[:2] + (2**64 - 1,) + table[3:]),
    ]:
        coded = struct.pack(f">{len(counts)}Q", *counts) + payload[head:]
        stored = planes_payload_by_hand(offsets_by_hand(coded, head), head, 4, [0] * 12)
        with pytest.raises(CorruptFileError, match=match):
            read(stored)
    # an f64 jagged basket without elements: 8 table planes and 8 empty ones
    empty_plane_constant = bytes([2] * 9 + [0] * 7) + struct.pack(">I", zlib.crc32(bytes(9))) + bytes(9)
    with pytest.raises(CorruptFileError, match="empty plane cannot be constant"):
        open_bytes(hand_built_file(4, 1, 3, 4, empty_plane_constant, 32)).read_column("t", "v")


def test_planes_keep_a_constant_plane_as_its_byte_and_store_random_ones(tmp_path):
    path = tmp_path / "rule.trf"
    values = np.random.default_rng(5).integers(0, 2**56, 4096, dtype=np.int64)  # byte 0 is always 0
    write_tree(str(path), "t", {"v": values})
    with open_file(str(path)) as reader:
        (basket,) = reader.tree("t").branches["v"].baskets
        assert reader.read_column("t", "v").values.tobytes() == values.tobytes()
    assert basket.codec == Codec.DELTA_PLANES
    # flags, the CRC32, no stream, the constant byte 0 and 7 stored planes
    assert basket.stored_len == 8 + 4 + 1 + 7 * 4096
    stored = path.read_bytes()[basket.offset : basket.offset + basket.stored_len]
    assert stored[:8] == bytes([2, 0, 0, 0, 0, 0, 0, 0]) and stored[12] == 0


def test_deflate_falls_back_to_none_when_not_smaller():
    rng = np.random.default_rng(3)
    values = rng.integers(-(2**62), 2**62, 64, dtype=np.int64)
    payload = encode_basket(ColumnChunk(values=values), Dtype.I64, Shape.FLAT)
    codec, stored = compress_record(payload, Codec.DEFLATE)
    assert codec == Codec.NONE
    assert stored == payload
    back = decode_basket(payload, Dtype.I64, Shape.FLAT, len(values))
    assert back.values.dtype == np.dtype(">i8")  # a view in the stored byte order
    assert arrays_match(back.values.astype(np.int64), values)


# --- round trips --------------------------------------------------------

ALL_DTYPES = {
    "b_i32": np.array([1, -2, 3], dtype=np.int32),
    "b_i64": np.array([2**62, -(2**62), 0], dtype=np.int64),
    "b_f32": np.array([1.5, np.nan, np.inf], dtype=np.float32),
    "b_f64": np.array([-0.0, 1e-300, np.nan], dtype=np.float64),
    "b_bool": np.array([True, False, True]),
}


@pytest.mark.parametrize("codec", list(Codec))
def test_round_trip_every_dtype(tmp_path, codec):
    path = tmp_path / "all.trf"
    write_tree(str(path), "t", ALL_DTYPES, codec=codec)
    with open_file(str(path)) as reader:
        assert reader.tree("t").n_entries == 3
        for name, original in ALL_DTYPES.items():
            got = reader.read_column("t", name)
            assert got.offsets is None
            assert got.values.dtype == original.dtype
            assert got.values.tobytes() == original.tobytes()
        reader.validate(deep=True)


def test_round_trip_jagged_offsets_and_empty_events(tmp_path):
    path = tmp_path / "jag.trf"
    lists = [[], [1.0, 2.0], [], [3.0], []]
    write_tree(str(path), "t", {"x": lists}, basket_entries=2)
    with open_file(str(path)) as reader:
        got = reader.read_column("t", "x")
    assert got.offsets.tolist() == [0, 0, 2, 2, 3, 3]
    assert got.values.tolist() == [1.0, 2.0, 3.0]
    assert to_lists(got) == lists


def test_zero_entry_tree_round_trips(tmp_path):
    path = tmp_path / "empty.trf"
    write_tree(str(path), "t", {"v": np.array([], dtype=np.float64)})
    with open_file(str(path)) as reader:
        assert reader.tree("t").n_entries == 0
        got = reader.read_column("t", "v")
    assert got.n_entries == 0
    assert got.values.size == 0


def test_multiple_trees_in_one_file(tmp_path):
    path = tmp_path / "two.trf"
    with TreeFileWriter(str(path)) as writer:
        writer.begin_tree("a", {"x": (Dtype.I64, Shape.FLAT)})
        writer.extend({"x": ColumnChunk(values=np.arange(5, dtype=np.int64))})
        writer.end_tree()
        writer.begin_tree("b", {"y": (Dtype.F64, Shape.FLAT)})
        writer.extend({"y": ColumnChunk(values=np.ones(2))})
        writer.end_tree()
    with open_file(str(path)) as reader:
        assert sorted(reader.trees) == ["a", "b"]
        assert reader.read_column("a", "x").values.tolist() == [0, 1, 2, 3, 4]
        assert reader.read_column("b", "y").values.tolist() == [1.0, 1.0]
        with pytest.raises(TreeFileError):
            reader.tree()  # ambiguous without a name


# --- column chunks --------------------------------------------------------


def _select_by_hand(rows: list, mask: list) -> list:
    return [row for row, keep in zip(rows, mask) if keep]


@pytest.mark.parametrize("indexed", [False, True], ids=["fresh", "indexed"])
def test_select_keeps_the_masked_entries(indexed):
    rng = np.random.default_rng(9)
    rows = [[], [1.5, -0.0], [], [np.nan], [2.0, 3.0, 4.0], []]
    chunks = [
        ColumnChunk.from_lists(rows, np.float32),
        ColumnChunk.from_lists([[], [], []], np.int64),
        ColumnChunk.from_lists([], np.float64),
        # values past offsets[-1] belong to no entry and are never kept
        ColumnChunk(np.array([1, 2, 3, 99, 98], dtype=np.int32), np.array([0, 2, 2, 3])),
        ColumnChunk(np.arange(6, dtype=np.int64)),
    ]
    for chunk in chunks:
        if indexed and chunk.is_jagged:
            chunk.events()
        n = chunk.n_entries
        lists = to_lists(chunk)
        for mask in (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.5):
            got = chunk.select(mask)
            assert got.is_jagged == chunk.is_jagged
            assert got.values.dtype == chunk.values.dtype
            want = _select_by_hand(lists, mask.tolist())
            assert str(to_lists(got)) == str(want)  # NaN- and sign-aware
            if got.is_jagged:
                assert got.offsets.dtype == np.int64 and got.offsets[0] == 0
                assert len(got.values) == got.offsets[-1]
                assert got.events().tolist() == [i for i, row in enumerate(want) for _ in row]
        with pytest.raises(SchemaError, match="mask of"):
            chunk.select(np.ones(n + 1, bool))


def test_values_past_the_last_offset_are_left_out_when_chunks_join(tmp_path):
    # 99 follows the first chunk's last offset, so it belongs to no entry
    first = ColumnChunk(np.array([1, 2, 3, 99], dtype=np.int64), np.array([0, 2, 3]))
    second = ColumnChunk(np.array([5], dtype=np.int64), np.array([0, 1]))
    assert to_lists(ColumnChunk.concatenate([first, second])) == [[1, 2], [3], [5]]
    path = tmp_path / "trailing.trf"
    with TreeFileWriter(str(path), basket_entries=8) as writer:
        writer.begin_tree("t", {"j": (Dtype.I64, Shape.JAGGED)})
        writer.extend({"j": first})
        writer.extend({"j": second})
        writer.end_tree()
    with open_file(str(path)) as reader:
        assert to_lists(reader.read_column("t", "j")) == [[1, 2], [3], [5]]


def test_chunk_events_index_each_element_and_are_cached():
    chunk = ColumnChunk(np.arange(7.0), np.array([0, 0, 3, 3, 4, 6, 6]))
    events = chunk.events()
    assert events.tolist() == [1, 1, 1, 3, 4, 4]
    assert chunk.events() is events
    assert chunk.with_values(np.zeros(7)).events() is events
    assert chunk.slice(1, 4).events().tolist() == [0, 0, 0, 2]
    with pytest.raises(SchemaError):
        ColumnChunk(np.arange(3)).events()


# --- streaming writer ---------------------------------------------------


def test_directory_bytes_survive_a_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    n = 1000
    counts = rng.integers(0, 4, n)
    path = tmp_path / "three.trf"
    write_tree(
        str(path), "t",
        {
            "i": np.arange(n, dtype=np.int32),
            "f": rng.normal(size=n),
            "j": ColumnChunk(
                rng.normal(size=int(counts.sum())).astype(np.float32),
                np.concatenate([[0], np.cumsum(counts)]),
            ),
        },
        basket_entries=256,
    )
    raw = path.read_bytes()
    _, _, dir_offset, dir_len, _ = struct.unpack(">4sIQQQ", raw[:32])
    _, branches = DirWalker(parse_record(raw[dir_offset : dir_offset + dir_len])).walk()["t"]
    with open_file(str(path)) as reader:
        parsed = reader.tree("t").branches
        assert list(parsed) == list(branches) == ["i", "f", "j"]
        for name, (_, _, baskets) in branches.items():
            assert len(baskets) == 4
            # the payload's entry bytes, as DirWalker read them
            entries = b"".join(struct.pack(">QIQIIB", *basket) for basket in baskets)
            assert parsed[name].baskets.tobytes() == entries
    again = tmp_path / "again.trf"
    assert concat_files([path], again, basket_entries=256) == n
    assert again.read_bytes() == raw


def test_streaming_writer_flushes_fixed_baskets(tmp_path):
    path = tmp_path / "stream.trf"
    total = np.arange(19, dtype=np.int64)
    with TreeFileWriter(str(path), basket_entries=4) as writer:
        writer.begin_tree("t", {"v": (Dtype.I64, Shape.FLAT)})
        for piece in np.split(total, [3, 5, 11, 17]):
            writer.extend({"v": ColumnChunk(values=piece)})
        writer.end_tree()
    with open_file(str(path)) as reader:
        baskets = reader.tree("t").branches["v"].baskets
        assert [(b.first_entry, b.n_entries) for b in baskets] == [
            (0, 4),
            (4, 4),
            (8, 4),
            (12, 4),
            (16, 3),
        ]
        assert reader.read_column("t", "v").values.tolist() == total.tolist()


def test_default_baskets_split_every_branch_at_the_same_entries(tmp_path):
    n = 2 * DEFAULT_BASKET_ENTRIES + 100
    rng = np.random.default_rng(45)
    counts = rng.integers(0, 4, n)
    path = tmp_path / "default-baskets.trf"
    jag = ColumnChunk(rng.normal(size=int(counts.sum())), np.concatenate([[0], np.cumsum(counts)]))
    write_tree(str(path), "t", {"f": np.arange(n, dtype=np.int32), "j": jag})
    expected = [(0, DEFAULT_BASKET_ENTRIES), (DEFAULT_BASKET_ENTRIES, DEFAULT_BASKET_ENTRIES),
                (2 * DEFAULT_BASKET_ENTRIES, 100)]
    with open_file(str(path)) as reader:
        for meta in reader.tree("t").branches.values():
            assert [(b.first_entry, b.n_entries) for b in meta.baskets] == expected
        assert reader.read_column("t", "f").values.tolist() == list(range(n))
        got = reader.read_column("t", "j")
        assert np.array_equal(got.offsets, jag.offsets) and np.array_equal(got.values, jag.values)


def test_partial_range_reads_slice_mid_basket(tmp_path):
    path = tmp_path / "range.trf"
    flat = np.arange(19, dtype=np.float64) * 0.5
    lists = [[i] * (i % 3) for i in range(19)]
    write_tree(str(path), "t", {"f": flat, "j": lists}, basket_entries=4)
    with open_file(str(path)) as reader:
        for start, stop in [(0, 19), (5, 14), (4, 8), (3, 4), (18, 19), (7, 7)]:
            got = reader.read_column("t", "f", start, stop)
            assert got.values.tobytes() == flat[start:stop].tobytes()
            got = reader.read_column("t", "j", start, stop)
            assert to_lists(got) == lists[start:stop]
        with pytest.raises(TreeFileError):
            reader.read_column("t", "f", 5, 20)
        with pytest.raises(TreeFileError):
            reader.read_column("t", "f", -1, 3)
        with pytest.raises(TreeFileError):
            reader.read_column("t", "f", 6, 5)


def test_reads_touch_only_overlapping_baskets(tmp_path):
    path = tmp_path / "lazy.trf"
    write_tree(
        str(path),
        "t",
        {
            "a": np.arange(16, dtype=np.int64),
            "b": np.arange(16, dtype=np.float64),
        },
        basket_entries=4,
        codec=Codec.NONE,
    )
    counting = CountingSource(FileSource(str(path)))
    reader = open_file(counting)
    baskets_a = reader.tree("t").branches["a"].baskets
    counting.reads.clear()
    reader.read_column("t", "a", 5, 9)  # overlaps baskets [4,8) and [8,12)
    assert counting.reads == [
        (baskets_a[1].offset, baskets_a[1].stored_len),
        (baskets_a[2].offset, baskets_a[2].stored_len),
    ]
    reader.close()


def test_overlapping_rows_are_the_baskets_a_range_touches(tmp_path):
    path = tmp_path / "many.trf"
    n = 203
    write_tree(str(path), "t", {"f": np.arange(n), "j": [[i] * (i % 3) for i in range(n)]},
               basket_entries=3, codec=Codec.NONE)
    rng = np.random.default_rng(11)
    ranges = [(0, 0), (n, n), (0, n), (n - 1, n), (3, 6), (4, 4), (2, 3)]
    ranges += [tuple(sorted(rng.integers(0, n + 1, size=2).tolist())) for _ in range(300)]
    ranges += [(int(a), n) for a in rng.integers(0, n + 1, size=20)]
    with open_file(str(path)) as reader:
        for meta in reader.tree("t").branches.values():
            rows = meta.baskets.tolist()
            assert meta.rows == rows and len(rows) == 68
            for start, stop in ranges:
                want = [r for r in rows if r[0] < stop and r[0] + r[1] > start] if start < stop else []
                assert treefile._overlapping(meta, start, stop) == want, (start, stop)


def test_prefetch_fetches_touching_baskets_as_one_range(tmp_path):
    path = tmp_path / "lazy.trf"
    a, b = np.arange(16, dtype=np.int64), np.arange(16, dtype=np.float64)
    write_tree(str(path), "t", {"a": a, "b": b}, basket_entries=4, codec=Codec.NONE)
    counting = CountingSource(FileSource(str(path)))
    directory = read_directory(counting)
    branches = directory[1]["t"].branches
    # baskets interleave: a0 b0 a1 b1 ...; [5, 9) needs index 1 and 2 of each
    a1, a2 = branches["a"].baskets[1:3]
    b1, b2 = branches["b"].baskets[1:3]
    assert a1.offset + a1.stored_len == b1.offset and b1.offset + b1.stored_len == a2.offset
    for names, expect in [
        (["a"], [(a1.offset, a1.stored_len), (a2.offset, a2.stored_len)]),
        (["a", "b", "a"], [(a1.offset, b2.offset + b2.stored_len - a1.offset)]),
        (["b"], []),  # empty entry range below
    ]:
        start, stop = (5, 5) if names == ["b"] else (5, 9)
        counting.reads.clear()
        counting.range_calls.clear()
        reader = TreeFileReader(counting, own_source=False, directory=directory)
        reader.prefetch("t", names, start, stop)
        assert counting.range_calls == [expect]
        counting.reads.clear()
        for name, values in (("a", a), ("b", b)):
            got = reader.read_column("t", name, start, stop)
            assert got.values.tobytes() == values[start:stop].tobytes()
        # only baskets outside the prefetched ranges are read again
        prefetched = {basket.offset for name in set(names) for basket in branches[name].baskets[1:3]}
        assert {offset for offset, _ in counting.reads}.isdisjoint(prefetched)
    with pytest.raises(SchemaError):
        TreeFileReader(counting, directory=directory).prefetch("t", ["ghost"], 0, 4)


def test_reader_on_a_planned_directory_rejects_a_changed_file(tmp_path):
    raw = small_file_bytes(tmp_path)
    directory = read_directory(BytesSource(raw))
    reader = TreeFileReader(BytesSource(raw), directory=directory)
    assert to_lists(reader.read_column("t", "jag")) == [[1, 2], [3], [], [4, 5, 6]]
    with pytest.raises(CorruptFileError):
        TreeFileReader(BytesSource(raw + b"appended"), directory=directory)


def test_writer_rejects_schema_violations(tmp_path):
    path = tmp_path / "bad.trf"
    with TreeFileWriter(str(path)) as writer:
        writer.begin_tree("t", {"v": (Dtype.I64, Shape.FLAT)})
        with pytest.raises(SchemaError):
            writer.extend({"w": ColumnChunk(values=np.arange(2, dtype=np.int64))})
        with pytest.raises(SchemaError):
            writer.extend({"v": ColumnChunk(values=np.arange(2, dtype=np.int64), offsets=np.array([0, 1, 2], dtype=np.int64))})
        writer.extend({"v": ColumnChunk(values=np.arange(2, dtype=np.int64))})
        writer.end_tree()


def test_writer_requires_lockstep_branches(tmp_path):
    path = tmp_path / "lockstep.trf"
    with TreeFileWriter(str(path)) as writer:
        writer.begin_tree("t", {"a": (Dtype.I64, Shape.FLAT), "b": (Dtype.I64, Shape.FLAT)})
        with pytest.raises(SchemaError):
            writer.extend(
                {
                    "a": ColumnChunk(values=np.arange(3, dtype=np.int64)),
                    "b": ColumnChunk(values=np.arange(2, dtype=np.int64)),
                }
            )
        writer.extend(
            {
                "a": ColumnChunk(values=np.arange(2, dtype=np.int64)),
                "b": ColumnChunk(values=np.arange(2, dtype=np.int64)),
            }
        )
        writer.end_tree()


# --- corruption and truncation ------------------------------------------


def delta_planes_file_bytes(tmp_path) -> bytes:
    """A small file whose every basket is stored with codec 4, with
    constant, deflated and stored planes in each basket."""
    rng = np.random.default_rng(7)
    path = tmp_path / "small-delta-planes.trf"
    counts = rng.integers(0, 4, 256)
    write_tree(
        str(path), "t",
        {
            "flat": rng.normal(size=256).astype(np.float32).astype(np.float64),
            "jag": ColumnChunk(
                rng.normal(size=int(counts.sum())).astype(np.float32),
                np.concatenate([[0], np.cumsum(counts)]),
            ),
        },
    )
    raw = path.read_bytes()
    with open_bytes(raw) as reader:
        for meta in reader.tree("t").branches.values():
            (basket,) = meta.baskets
            assert basket.codec == Codec.DELTA_PLANES
            n_flags = 8 + itemsize(meta.dtype) if meta.is_jagged else itemsize(meta.dtype)
            assert set(raw[basket.offset : basket.offset + n_flags]) == {0, 1, 2}
    return raw


def assert_every_truncation_detected(raw: bytes) -> None:
    for cut in range(len(raw)):
        with pytest.raises(TreeFileError):
            open_bytes(raw[:cut])


def assert_byte_flips_never_crash(raw: bytes) -> None:
    for pos in range(len(raw)):
        mutated = bytearray(raw)
        mutated[pos] ^= 0xFF
        try:
            reader = open_bytes(bytes(mutated))
            for tname, tmeta in reader.trees.items():
                for bname in tmeta.branches:
                    reader.read_column(tname, bname)
        except TreeFileError:
            pass  # structured failure is the contract; crashes are not


def file_with_index(n_entries: int, baskets: list[tuple], spoil=lambda d: d) -> bytes:
    """A one-tree file of 16 data bytes whose flat i32 branch ``v`` has the
    basket index rows ``baskets``, packed without the library; ``spoil``
    maps the directory payload before it is framed."""
    directory = spoil(
        struct.pack(">I", 1) + pack_name("t") + struct.pack(">QI", n_entries, 1)
        + pack_name("v") + struct.pack(">BBI", 1, 0, len(baskets))
        + b"".join(struct.pack(">QIQIIB", *basket) for basket in baskets)
    )
    record = struct.pack(">BI", 0, len(directory)) + directory
    dir_offset = 32 + 16
    header = struct.pack(">4sIQQQ", b"TRF1", 1, dir_offset, len(record), dir_offset + len(record))
    return header + bytes(16) + record


# (first_entry, n_entries, offset, stored_len, raw_len, codec) of two
# stored baskets that cover the file's 16 data bytes
GOOD_INDEX = [(0, 2, 32, 8, 8, 0), (2, 2, 40, 8, 8, 0)]


def test_a_hand_built_index_reads():
    with open_bytes(file_with_index(4, GOOD_INDEX)) as reader:
        assert reader.read_column("t", "v").values.tolist() == [0] * 4


@pytest.mark.parametrize(
    "n_entries,baskets,spoil,message",
    [
        (4, [(0, 2, 32, 8, 8, 0), (3, 1, 40, 4, 4, 0)], None,
         "branch 'v': basket starts at entry 3, expected 2"),
        (4, [(0, 0, 32, 0, 0, 0), (0, 4, 32, 16, 16, 0)], None, "branch 'v': empty basket"),
        (4, [(0, 4, 31, 16, 16, 0)], None, "branch 'v': basket data outside data region"),
        (4, [(0, 4, 32, 17, 16, 0)], None, "branch 'v': basket data outside data region"),
        # offset + stored_len is 2**64 + 8, which wraps to 8 in u64
        (4, [(0, 4, 2**64 - 8, 16, 16, 0)], None, "branch 'v': basket data outside data region"),
        (4, GOOD_INDEX[:1], None, "branch 'v': baskets cover 2 entries, tree has 4"),
        (4, [(0, 4, 32, 16, 16, 7)], None, "unknown codec byte 7"),
        (4, GOOD_INDEX, lambda d: d[:-10], "directory truncated"),
        (4, GOOD_INDEX, lambda d: d + b"\0", "1 trailing bytes after directory"),
    ],
    ids=["wrong-first-entry", "empty-basket", "offset-in-header", "past-directory",
         "past-directory-wrapping-u64", "short-coverage", "codec-7", "truncated-entry",
         "trailing-bytes"],
)
def test_each_basket_index_rule_is_refused_by_its_message(n_entries, baskets, spoil, message):
    raw = file_with_index(n_entries, baskets, *([spoil] if spoil else []))
    with pytest.raises(CorruptFileError, match=re.escape(message)):
        open_bytes(raw)


def test_every_truncation_is_detected(tmp_path):
    assert_every_truncation_detected(small_file_bytes(tmp_path, codec=Codec.DEFLATE))


def test_trailing_garbage_is_detected(tmp_path):
    raw = small_file_bytes(tmp_path)
    with pytest.raises(CorruptFileError):
        open_bytes(raw + b"junk")


def test_single_byte_flips_never_crash(tmp_path):
    assert_byte_flips_never_crash(small_file_bytes(tmp_path, codec=Codec.DEFLATE))


def flip_every_stored_byte(raw: bytes) -> int:
    """Flip each byte of each basket's stored section, constant bytes
    included, and require the CRC32 to catch it; returns the flips made."""
    with open_bytes(raw) as reader:
        branches = reader.tree("t").branches
    flipped = 0
    for name, meta in branches.items():
        (basket,) = meta.baskets
        head = (basket.n_entries + 1) * 8 if meta.is_jagged else 0
        lens = plane_lens_by_hand(basket.raw_len, head, itemsize(meta.dtype))
        flags = raw[basket.offset : basket.offset + len(lens)]
        end = basket.offset + basket.stored_len
        kept_len = flags.count(2) + sum(n for n, flag in zip(lens, flags) if flag == 0)
        for pos in range(end - kept_len, end):
            mutated = bytearray(raw)
            mutated[pos] ^= 0x01
            with pytest.raises(CorruptFileError, match="CRC32"):
                open_bytes(bytes(mutated)).read_column("t", name)
            flipped += 1
    return flipped


def test_every_flip_in_a_delta_planes_stored_section_is_detected(tmp_path):
    assert flip_every_stored_byte(delta_planes_file_bytes(tmp_path)) > 1000


def test_every_truncation_of_a_delta_planes_file_is_detected(tmp_path):
    assert_every_truncation_detected(delta_planes_file_bytes(tmp_path))


def test_single_byte_flips_in_a_delta_planes_file_never_crash(tmp_path):
    assert_byte_flips_never_crash(delta_planes_file_bytes(tmp_path))


# --- both libraries -------------------------------------------------------
# Each test here runs once per library: libdeflate, and the zlib fallback
# (the ``library`` fixture in conftest.py). Under either, one library
# inflates every stream, deflates codec 4's planes and computes the CRC-32
# of its stored planes; codec 1 and the directory record always deflate with
# zlib. The first two rerun the codec round-trip and corruption tests above.


def three_branches(seed: int, n: int) -> dict[str, ColumnChunk]:
    """A flat f64, a flat i32 and a jagged f32 branch of ``n`` entries."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, n)
    return {
        "f": ColumnChunk(rng.normal(size=n)),
        "i": ColumnChunk(rng.integers(0, 1000, n, dtype=np.int32)),
        "j": ColumnChunk(
            rng.normal(size=int(counts.sum())).astype(np.float32),
            np.concatenate([[0], np.cumsum(counts)]),
        ),
    }


def test_codecs_round_trip_under_each_inflater(library, tmp_path):
    for codec in Codec:
        test_round_trip_every_dtype(tmp_path, codec)
    test_round_trip_jagged_offsets_and_empty_events(tmp_path)
    for case in HAND_BUILT_PLANES.values():
        test_hand_built_planes_baskets_decode(*case)
    for case in HAND_BUILT_DELTA_PLANES.values():
        test_hand_built_delta_planes_baskets_decode(*case)


def test_corruption_is_detected_under_each_inflater(library, tmp_path):
    for raw in (
        small_file_bytes(tmp_path, codec=Codec.DEFLATE),
        delta_planes_file_bytes(tmp_path),
    ):
        assert_every_truncation_detected(raw)
        assert_byte_flips_never_crash(raw)
    test_shuffle_payload_of_partial_elements_is_corrupt()
    test_corrupt_planes_payloads_are_refused()
    test_corrupt_delta_planes_payloads_are_refused()
    test_every_flip_in_a_delta_planes_stored_section_is_detected(tmp_path)


def spoiled_stream(payload: bytes, fault: str) -> tuple[bytes, int]:
    """A zlib stream of ``payload`` spoiled by ``fault``, and the raw_len to declare for it."""
    stream = zlib.compress(payload, 1)
    if fault == "adler32":
        # level 0 keeps the payload in the clear after the 2-byte zlib header
        # and the 5-byte stored-block header: the flip inflates cleanly and
        # only the checksum can catch it
        flipped = bytearray(zlib.compress(payload, 0))
        flipped[7] ^= 0x01
        return bytes(flipped), len(payload)
    return {
        "truncated": (stream[:-1], len(payload)),
        "trailing-bytes": (stream + b"\0", len(payload)),
        "raw_len+1": (stream, len(payload) + 1),
        "raw_len-1": (stream, len(payload) - 1),
        "raw_len-2**32-1": (stream, 2**32 - 1),
    }[fault]


@pytest.mark.parametrize(
    "fault",
    ["adler32", "truncated", "trailing-bytes", "raw_len+1", "raw_len-1", "raw_len-2**32-1"],
)
def test_spoiled_deflate_streams_are_corrupt_under_each_inflater(library, fault):
    """Codec 1, the flagged planes of codec 4, and the directory record all refuse it."""
    payload = bytes([1, 0, 0, 1] * 32)  # 128 bools: one byte plane
    stored, raw_len = spoiled_stream(payload, fault)
    # a length no stream of these few bytes can reach is refused before any allocation
    match = "more than 1032x" if raw_len == 2**32 - 1 else "deflate stream"
    baskets = [
        (1, stored),
        (4, b"\1" + struct.pack(">I", 0) + stored),  # the one plane flagged, none stored
    ]
    for codec, basket in baskets:
        with pytest.raises(CorruptFileError, match=match):
            open_bytes(hand_built_file(5, 0, 128, codec, basket, raw_len)).read_column("t", "v")
    good = hand_built_file(5, 0, 128, 0, payload, 128)
    assert open_bytes(good).read_column("t", "v").values.tolist() == [bool(b) for b in payload]
    spoiled_dir = hand_built_file(
        5, 0, 128, 0, payload, 128, spoil_dir=lambda directory: spoiled_stream(directory, fault)
    )
    with pytest.raises(CorruptFileError, match=match):
        open_bytes(spoiled_dir)


def test_two_threads_read_one_files_columns_alike(library, tmp_path):
    n = 20_000
    branches = three_branches(41, n)
    ranges = [(0, n), (123, 19_001), (4_500, 4_501)]
    want = [branches[name].slice(start, stop) for name in branches for start, stop in ranges]

    def read_all(reader, barrier):
        barrier.wait(timeout=10)
        return [
            reader.read_column("t", name, start, stop)
            for _ in range(3)
            for name in branches
            for start, stop in ranges
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for codec in (Codec.DEFLATE, Codec.DELTA_PLANES):
            path = tmp_path / f"threads-{int(codec)}.trf"
            write_tree(str(path), "t", branches, codec=codec, basket_entries=1000)
            with open_file(str(path)) as reader:
                barrier = threading.Barrier(2)
                with ThreadPoolExecutor(2) as pool:
                    futures = [pool.submit(read_all, reader, barrier) for _ in range(2)]
                    results = [future.result(timeout=60) for future in futures]
            for got in results:
                assert len(got) == 3 * len(want)
                for a, b in zip(got, want * 3):
                    assert a.values.tobytes() == b.values.tobytes()
                    assert (a.offsets is None) == (b.offsets is None)
                    if a.offsets is not None:
                        assert np.array_equal(a.offsets, b.offsets)
    finally:
        sys.setswitchinterval(interval)


def test_codec4_round_trips_under_each_deflater(library, tmp_path):
    test_delta_planes_basket_payload_exact_bytes(tmp_path)
    test_round_trip_every_dtype(tmp_path, Codec.DELTA_PLANES)
    test_round_trip_jagged_offsets_and_empty_events(tmp_path)
    test_planes_keep_a_constant_plane_as_its_byte_and_store_random_ones(tmp_path)
    test_writer_judges_each_baskets_planes_on_its_own_sample(tmp_path)
    raw = delta_planes_file_bytes(tmp_path)
    with open_bytes(raw) as reader:
        reader.validate(deep=True)
    test_every_flip_in_a_delta_planes_stored_section_is_detected(tmp_path)


# libdeflate_crc32 and zlib.crc32 compute the same CRC-32, so the
# exact-bytes pins above hold unedited under either.


def test_crc32_matches_zlib_under_each_library(library):
    noise = np.random.default_rng(44).integers(0, 256, 200_000, dtype=np.uint8)
    read_only = memoryview(noise.tobytes())
    inputs = [b"", memoryview(b""), noise, noise[:1], noise[7:1007], read_only, read_only[3:70_003]]
    for data in inputs:
        assert treefile._crc32(data) == zlib.crc32(data)


def test_codec4_pins_hold_under_each_crc(library, tmp_path):
    test_delta_planes_basket_payload_exact_bytes(tmp_path)
    test_every_flip_in_a_delta_planes_stored_section_is_detected(tmp_path)


@pytest.mark.parametrize(
    "writer, reader", [("libdeflate", "zlib"), ("zlib", "libdeflate")],
    ids=["libdeflate-to-zlib", "zlib-to-libdeflate"],
)
def test_files_written_under_one_library_read_alike_under_the_other(
    monkeypatch, tmp_path, writer, reader
):
    """A file one host writes, a host with the other library reads to the
    same columns; a codec-1 file's bytes do not depend on the library."""
    if treefile._LIBDEFLATE is None:
        pytest.skip("libdeflate.so.0 did not load")
    libraries = {"libdeflate": treefile._LIBDEFLATE, "zlib": None}
    branches = three_branches(46, 5000)
    for codec in (Codec.DEFLATE, Codec.DELTA_PLANES):
        written = {}
        for side in (writer, reader):
            monkeypatch.setattr(treefile, "_LIBDEFLATE", libraries[side])
            path = tmp_path / f"{side}-{int(codec)}.trf"
            write_tree(str(path), "t", branches, codec=codec, basket_entries=1000)
            written[side] = path
        if codec == Codec.DEFLATE:
            assert written[writer].read_bytes() == written[reader].read_bytes()
        with open_file(str(written[writer])) as got:  # still under the reader's library
            got.validate(deep=True)
            assert {b.codec for b in got.tree("t").branches["f"].baskets} == {codec}
            for name, original in branches.items():
                column = got.read_column("t", name)
                assert column.values.tobytes() == original.values.tobytes()
                assert np.array_equal(column.offsets, original.offsets)


def test_a_threads_libdeflate_state_is_made_once_and_freed_with_it(monkeypatch, tmp_path):
    """A thread allocates one decompressor and one compressor, however many
    streams it inflates and deflates, and frees both when it exits."""
    lib = treefile._LIBDEFLATE
    if lib is None:
        pytest.skip("libdeflate.so.0 did not load")
    calls = collections.Counter()

    class Counting:
        def __getattr__(self, name):
            function = getattr(lib, name)

            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

    monkeypatch.setattr(treefile, "_LIBDEFLATE", Counting())
    branches = three_branches(47, 5000)

    def write_and_read():
        path = tmp_path / "state.trf"
        write_tree(str(path), "t", branches, basket_entries=1000)
        with open_file(str(path)) as reader:
            for name in branches:
                reader.read_column("t", name)

    with ThreadPoolExecutor(1) as pool:  # its one thread exits as the pool shuts down
        pool.submit(write_and_read).result(timeout=60)
    deadline = time.monotonic() + 5
    while calls["libdeflate_free_compressor"] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert calls["libdeflate_zlib_compress"] >= 10 and calls["libdeflate_zlib_decompress_ex"] >= 10
    made_and_freed = ("alloc_decompressor", "free_decompressor", "alloc_compressor", "free_compressor")
    assert [calls[f"libdeflate_{name}"] for name in made_and_freed] == [1, 1, 1, 1]


def test_writer_judges_each_baskets_planes_on_its_own_sample(tmp_path):
    # random 64-bit values, then values below 4: the second basket's low
    # plane is deflated and its seven high planes are constant, whatever
    # the first basket's planes were judged
    rng = np.random.default_rng(8)
    values = np.concatenate(
        [rng.integers(-(2**63), 2**63 - 1, 2048, dtype=np.int64), rng.integers(0, 4, 2048)]
    )
    path = tmp_path / "judged.trf"
    write_tree(str(path), "t", {"v": values}, basket_entries=2048)
    raw = path.read_bytes()
    with open_file(str(path)) as reader:
        first, second = reader.tree("t").branches["v"].baskets
        assert reader.read_column("t", "v").values.tobytes() == values.tobytes()
    assert first.codec == Codec.NONE  # every plane random: stored as it is
    assert second.codec == Codec.DELTA_PLANES
    assert raw[second.offset : second.offset + 8] == bytes([2] * 7 + [1])


def test_two_threads_write_files_that_decode_alike(library, tmp_path):
    branches = three_branches(43, 30_000)

    def write_some(index, barrier):
        barrier.wait(timeout=10)
        paths = []
        for k in range(3):
            path = tmp_path / f"w{index}-{k}.trf"
            write_tree(str(path), "t", branches, basket_entries=2000)
            paths.append(path)
        return paths

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(2)
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(write_some, index, barrier) for index in range(2)]
            paths = [path for future in futures for path in future.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    for path in paths:
        with open_file(str(path)) as reader:
            assert {b.codec for m in reader.tree("t").branches.values() for b in m.baskets} == {
                Codec.DELTA_PLANES
            }
            for name, want in branches.items():
                got = reader.read_column("t", name)
                assert got.values.tobytes() == want.values.tobytes()
                if want.offsets is not None:
                    assert np.array_equal(got.offsets, want.offsets)


def test_header_magic_and_version_checked():
    good = struct.pack(">4sIQQQ", b"TRF1", 1, 32, 0, 32)
    with pytest.raises(CorruptFileError):
        open_bytes(struct.pack(">4sIQQQ", b"XXXX", 1, 32, 0, 32))
    with pytest.raises(CorruptFileError):
        open_bytes(struct.pack(">4sIQQQ", b"TRF1", 2, 32, 0, 32))
    with pytest.raises(TreeFileError):
        open_bytes(good)  # empty directory record is still malformed


def test_failed_open_closes_the_file_it_opened(tmp_path):
    bad = tmp_path / "bad.trf"
    bad.write_bytes(struct.pack(">4sIQQQ", b"XXXX", 1, 32, 0, 32))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        with pytest.raises(CorruptFileError):
            open_file(bad)
    assert len(os.listdir("/proc/self/fd")) == before


# --- property-based round trip -------------------------------------------

_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)


def _values_strategy(dtype: Dtype, size: int):
    if dtype == Dtype.I32:
        elems = st.integers(-(2**31), 2**31 - 1)
        np_dtype = np.int32
    elif dtype == Dtype.I64:
        elems = st.integers(-(2**63), 2**63 - 1)
        np_dtype = np.int64
    elif dtype == Dtype.F32:
        elems = st.floats(width=32, allow_nan=True, allow_infinity=True)
        np_dtype = np.float32
    elif dtype == Dtype.F64:
        elems = st.floats(width=64, allow_nan=True, allow_infinity=True)
        np_dtype = np.float64
    else:
        elems = st.booleans()
        np_dtype = np.bool_
    return st.lists(elems, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np_dtype)
    )


@st.composite
def tree_contents(draw):
    n = draw(st.integers(0, 24))
    n_branches = draw(st.integers(1, 4))
    names = draw(
        st.lists(_NAMES, min_size=n_branches, max_size=n_branches, unique=True)
    )
    branches = {}
    for name in names:
        dtype = draw(st.sampled_from(list(Dtype)))
        jagged = draw(st.booleans())
        if jagged:
            counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
            values = draw(_values_strategy(dtype, sum(counts)))
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            branches[name] = ColumnChunk(values=values, offsets=offsets)
        else:
            branches[name] = ColumnChunk(values=draw(_values_strategy(dtype, n)))
    basket_entries = draw(st.sampled_from([1, 2, 7, DEFAULT_BASKET_ENTRIES]))
    codec = draw(st.sampled_from(list(Codec)))
    return branches, basket_entries, codec


def _assert_same_column(got: ColumnChunk, want: ColumnChunk) -> None:
    """Equal bytes, native values dtype, and int64 offsets from 0."""
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()
    if want.offsets is None:
        assert got.offsets is None
    else:
        assert got.offsets.dtype == np.int64 and got.offsets[0] == 0
        assert np.array_equal(got.offsets, want.offsets)


def _assert_round_trip(tmp_path, branches, basket_entries, codec, data):
    path = tmp_path / "prop.trf"
    write_tree(str(path), "t", branches, codec=codec, basket_entries=basket_entries)
    with open_file(str(path)) as reader:
        reader.validate(deep=True)
        for name, original in branches.items():
            got = reader.read_column("t", name)
            _assert_same_column(got, original)
            start = data.draw(st.integers(0, original.n_entries), label=f"{name} start")
            stop = data.draw(st.integers(start, original.n_entries), label=f"{name} stop")
            _assert_same_column(reader.read_column("t", name, start, stop), got.slice(start, stop))


@given(tree_contents(), st.data())
def test_round_trip_random_trees(tmp_path, contents, data):
    branches, basket_entries, codec = contents
    _assert_round_trip(tmp_path, branches, basket_entries, codec, data)


@given(tree_contents(), st.data())
def test_random_trees_round_trip_under_each_deflater(library, tmp_path, contents, data):
    _assert_round_trip(tmp_path, *contents, data)


@settings(max_examples=30)
@given(tree_contents(), st.integers(0, 10**9))
def test_truncation_of_random_files_is_detected(tmp_path, contents, cut_seed):
    branches, basket_entries, codec = contents
    path = tmp_path / "cut.trf"
    write_tree(str(path), "t", branches, codec=codec, basket_entries=basket_entries)
    raw = path.read_bytes()
    cut = cut_seed % len(raw)
    with pytest.raises(TreeFileError):
        open_bytes(raw[:cut])


# --- concatenation --------------------------------------------------------


def test_concat_files_preserves_content(tmp_path):
    parts = []
    all_flat, all_lists = [], []
    for i in range(3):
        path = tmp_path / f"part{i}.trf"
        flat = np.arange(i * 5, i * 5 + 5, dtype=np.float64)
        lists = [[float(j)] * (j % 2 + 1) for j in range(i * 5, i * 5 + 5)]
        write_tree(str(path), "t", {"f": flat, "j": lists}, basket_entries=2)
        parts.append(str(path))
        all_flat.append(flat)
        all_lists.extend(lists)
    out = tmp_path / "merged.trf"
    total = concat_files(parts, str(out), basket_entries=4)
    assert total == 15
    with open_file(str(out)) as reader:
        assert reader.tree("t").n_entries == 15
        got = reader.read_column("t", "f")
        assert got.values.tobytes() == np.concatenate(all_flat).tobytes()
        assert to_lists(reader.read_column("t", "j")) == all_lists


def test_concat_rejects_schema_mismatch(tmp_path):
    a, b = tmp_path / "a.trf", tmp_path / "b.trf"
    write_tree(str(a), "t", {"x": np.arange(3, dtype=np.int64)})
    write_tree(str(b), "t", {"x": np.arange(3, dtype=np.int32)})
    with pytest.raises(TreeFileError):
        concat_files([str(a), str(b)], str(tmp_path / "out.trf"))


def test_concat_schema_mismatch_leaves_no_output(tmp_path):
    a, b = tmp_path / "a.trf", tmp_path / "b.trf"
    write_tree(str(a), "t", {"x": np.arange(3, dtype=np.float64)})
    write_tree(str(b), "t", {"x": np.arange(3, dtype=np.int64)})
    with pytest.raises(SchemaError, match="differs from first input"):
        concat_files([str(a), str(b)], str(tmp_path / "out.trf"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.trf", "b.trf"]


def test_writer_renames_on_close_and_deletes_on_error(tmp_path):
    path = tmp_path / "w.trf"
    writer = TreeFileWriter(str(path))
    writer.begin_tree("t", {"x": (Dtype.I64, Shape.FLAT)})
    writer.extend({"x": ColumnChunk(values=np.arange(3, dtype=np.int64))})
    assert not path.exists() and (tmp_path / "w.trf.tmp").exists()
    writer.close()
    assert [p.name for p in tmp_path.iterdir()] == ["w.trf"]
    with open_file(str(path)) as reader:
        assert reader.read_column("t", "x").values.tolist() == [0, 1, 2]

    with pytest.raises(RuntimeError):
        with TreeFileWriter(str(path)) as writer:
            writer.begin_tree("t", {"x": (Dtype.I64, Shape.FLAT)})
            raise RuntimeError("stop")
    assert [p.name for p in tmp_path.iterdir()] == ["w.trf"]  # the earlier file is kept
    with open_file(str(path)) as reader:
        reader.validate(deep=True)


# --- sources ---------------------------------------------------------------


def test_bytes_source_and_file_source_agree(tmp_path):
    raw = small_file_bytes(tmp_path)
    path = tmp_path / "small.trf"
    fsrc = FileSource(str(path))
    try:
        assert fsrc.size == len(raw)
        assert fsrc.read_at(0, 16) == raw[:16]
        assert fsrc.read_at(len(raw) - 4, 100) == raw[-4:]
    finally:
        fsrc.close()
    bsrc = BytesSource(raw)
    assert bsrc.read_at(0, 16) == raw[:16]
    assert bsrc.read_at(len(raw) - 4, 100) == raw[-4:]
    ranges = [(0, 16), (16, 0), (len(raw) - 4, 100), (len(raw) + 5, 3)]
    expect = [raw[:16], b"", raw[-4:], b""]
    stats = IoStats()
    fsrc = FileSource(str(path), stats=stats)
    try:
        assert fsrc.read_ranges(ranges) == expect
    finally:
        fsrc.close()
    assert stats.bytes_fetched == stats.bytes_requested == 20
    assert bsrc.read_ranges(ranges) == expect
