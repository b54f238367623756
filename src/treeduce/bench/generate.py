"""Deterministic synthetic dataset generator.

Two schemas:

- "demo": per-event muon kinematics, the workload all scaling experiments
  run on. nMuon is Poisson(mean 2) capped at 16 via an inverse-CDF table;
  Muon_pt is 3 + 15·Exp(1), eta uniform in [-2.5, 2.5], phi uniform in
  [-pi, pi), charge ±1 from the draw's low bit; MET is 30·Exp(1).
- "flat8": eight equal flat f64 branches v0..v7 of uniform values,
  stored uncompressed. Keeping one of the eight makes read-amplification
  geometry exactly computable, which the readahead sweep relies on.

Every value is addressed as draw(file_key(seed, file), event*stride + slot),
so neither generation chunking nor the number of files written at once
changes the output bytes.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import wait
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..engine.job import DEFAULT_PARTITION_ENTRIES, JobSpec, usable_cores
from ..engine.memory import worker_pool
from ..treefile import Codec, ColumnChunk, Dtype, Shape, TreeFileWriter
from .prng import draw_array, file_key, unit_array

DEMO_TREE = "Events"
DEMO_SKIM = "nMuon >= 2 && max(Muon_pt) > 20"

DEMO_SCHEMA: dict[str, tuple[Dtype, Shape]] = {
    "nMuon": (Dtype.I32, Shape.FLAT),
    "Muon_pt": (Dtype.F32, Shape.JAGGED),
    "Muon_eta": (Dtype.F32, Shape.JAGGED),
    "Muon_phi": (Dtype.F32, Shape.JAGGED),
    "Muon_charge": (Dtype.I32, Shape.JAGGED),
    "MET": (Dtype.F64, Shape.FLAT),
}

FLAT8_SCHEMA: dict[str, tuple[Dtype, Shape]] = {
    f"v{j}": (Dtype.F64, Shape.FLAT) for j in range(8)
}

MAX_MUONS = 16
DEMO_STRIDE = 2 + 4 * MAX_MUONS  # nMuon, MET, then (pt, eta, phi, charge) per muon
FLAT8_STRIDE = 8

_GEN_CHUNK = 65536


def _poisson_cdf(mean: float, cap: int) -> np.ndarray:
    """P(X <= k) for k in 0..cap, with the tail folded into the cap bin."""
    probs = []
    p = math.exp(-mean)
    total = p
    probs.append(total)
    for k in range(1, cap):
        p = p * mean / k
        total += p
        probs.append(total)
    probs.append(1.0)
    return np.array(probs, dtype=np.float64)


POISSON_CDF = _poisson_cdf(2.0, MAX_MUONS)


@dataclass
class GenSpec:
    seed: int = 1
    schema: str = "demo"  # "demo" | "flat8"
    n_events: int = 1 << 20  # per file
    n_files: int = 8
    basket_target_entries: int = 8192
    codec: Codec = Codec.DEFLATE

    def __post_init__(self):
        if self.schema not in ("demo", "flat8"):
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.n_events < 0 or self.n_files < 0:
            raise ValueError("n_events and n_files must be >= 0")


@dataclass
class FileEntry:
    path: str  # name relative to the dataset directory
    entries: int
    bytes: int


@dataclass
class DatasetManifest:
    """A generated dataset: the spec it was made from and the files written."""

    spec: GenSpec
    files: list[FileEntry] = field(default_factory=list)

    def file_paths(self, base: str | Path) -> list[str]:
        return [str(Path(base) / f.path) for f in self.files]

    def urls(self, host: str, port: int) -> list[str]:
        return [f"xrdl://{host}:{port}/{f.path}" for f in self.files]

    def to_json(self) -> str:
        return json.dumps({**asdict(self.spec), "files": [asdict(f) for f in self.files]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        obj = json.loads(text)
        files = [FileEntry(**f) for f in obj.pop("files")]
        return cls(GenSpec(**{**obj, "codec": Codec(obj["codec"])}), files)


def _demo_chunk(key: int, e0: int, e1: int) -> dict[str, ColumnChunk]:
    idx = np.arange(e0, e1, dtype=np.uint64)
    base = idx * np.uint64(DEMO_STRIDE)

    u_n = unit_array(draw_array(key, base))
    n_muon = np.searchsorted(POISSON_CDF, u_n, side="right").astype(np.int32)
    u_met = unit_array(draw_array(key, base + np.uint64(1)))
    met = 30.0 * -np.log(1.0 - u_met)

    counts = n_muon.astype(np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    starts = offsets[:-1]

    pt = np.empty(total, dtype=np.float32)
    eta = np.empty(total, dtype=np.float32)
    phi = np.empty(total, dtype=np.float32)
    charge = np.empty(total, dtype=np.int32)
    for k in range(MAX_MUONS):
        sel = counts > k
        if not sel.any():
            break
        pos = starts[sel] + k
        slot = base[sel] + np.uint64(2 + 4 * k)
        pt[pos] = (3.0 + 15.0 * -np.log(1.0 - unit_array(draw_array(key, slot)))).astype(np.float32)
        eta[pos] = (-2.5 + 5.0 * unit_array(draw_array(key, slot + np.uint64(1)))).astype(np.float32)
        phi[pos] = (-math.pi + 2.0 * math.pi * unit_array(draw_array(key, slot + np.uint64(2)))).astype(np.float32)
        raw = draw_array(key, slot + np.uint64(3))
        charge[pos] = np.where((raw & np.uint64(1)) != 0, 1, -1).astype(np.int32)

    return {
        "nMuon": ColumnChunk(n_muon),
        "Muon_pt": ColumnChunk(pt, offsets),
        "Muon_eta": ColumnChunk(eta, offsets.copy()),
        "Muon_phi": ColumnChunk(phi, offsets.copy()),
        "Muon_charge": ColumnChunk(charge, offsets.copy()),
        "MET": ColumnChunk(met),
    }


def _flat8_chunk(key: int, e0: int, e1: int) -> dict[str, ColumnChunk]:
    idx = np.arange(e0, e1, dtype=np.uint64)
    base = idx * np.uint64(FLAT8_STRIDE)
    return {
        f"v{j}": ColumnChunk(unit_array(draw_array(key, base + np.uint64(j))))
        for j in range(FLAT8_STRIDE)
    }


def _write_file(spec: GenSpec, out: Path, i: int) -> FileEntry:
    name = f"{spec.schema}-{i:05d}.trf"
    path = out / name
    key = file_key(spec.seed, i)
    schema = DEMO_SCHEMA if spec.schema == "demo" else FLAT8_SCHEMA
    make_chunk = _demo_chunk if spec.schema == "demo" else _flat8_chunk
    with TreeFileWriter(path, codec=spec.codec, basket_entries=spec.basket_target_entries) as writer:
        writer.begin_tree(DEMO_TREE, schema)
        for e0 in range(0, spec.n_events, _GEN_CHUNK):
            e1 = min(e0 + _GEN_CHUNK, spec.n_events)
            writer.extend(make_chunk(key, e0, e1))
        writer.end_tree()
    return FileEntry(name, spec.n_events, os.path.getsize(path))


def generate(spec: GenSpec, out_dir: str | Path) -> DatasetManifest:
    """Write the dataset and its manifest (dataset.json); returns the manifest.

    Files are written concurrently on the engine's pool of one worker per
    usable core, the pool a `reduce` or `hist` run of that many workers
    uses (deflate releases the GIL). Each file depends only on its own key,
    so the bytes do not depend on how many are written at once.

    An old manifest is removed before any file is written, and the new one
    is written after every file is, so a generation that is cut short leaves
    no manifest claiming the files it overwrote. If a file fails, no file
    not yet started is begun, the files in flight finish, and the first
    error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").unlink(missing_ok=True)
    manifest = DatasetManifest(spec)
    stop = threading.Event()

    def write(i: int) -> FileEntry | None:
        if stop.is_set():
            return None  # another file failed; its error propagates
        try:
            return _write_file(spec, out, i)
        except BaseException:
            stop.set()
            raise

    pool = worker_pool(usable_cores())
    futures = [pool.submit(write, i) for i in range(spec.n_files)]
    try:
        wait(futures)  # the files in flight finish before any error propagates
    finally:
        stop.set()  # an interrupted wait begins no further file
    manifest.files = [future.result() for future in futures]
    (out / "dataset.json").write_text(manifest.to_json())
    return manifest


def _has_size(path: Path, size: int) -> bool:
    try:
        return path.stat().st_size == size
    except FileNotFoundError:
        return False


def ensure_dataset(spec: GenSpec, out_dir: str | Path) -> DatasetManifest:
    """Reuse an existing dataset when its manifest's spec equals ``spec``
    and every file it lists is there with the size it records. A manifest
    that does not load, such as one with a key GenSpec lacks, is stale."""
    try:
        manifest = DatasetManifest.from_json((Path(out_dir) / "dataset.json").read_text())
    except (FileNotFoundError, ValueError, TypeError, KeyError):
        return generate(spec, out_dir)
    if manifest.spec == spec and all(
        _has_size(Path(out_dir) / f.path, f.bytes) for f in manifest.files
    ):
        return manifest
    return generate(spec, out_dir)


def demo_job(
    inputs: list[str],
    output: str,
    *,
    partition_entries: int = DEFAULT_PARTITION_ENTRIES,
    keep: tuple[str, ...] = ("MET", "Muon_pt"),
    skim: str | None = DEMO_SKIM,
) -> JobSpec:
    """The reduction every experiment runs: skim on the demo cut, slim to a few columns."""
    return JobSpec(
        inputs=list(inputs),
        tree=DEMO_TREE,
        keep_columns=list(keep),
        skim=skim,
        output=output,
        partition_entries=partition_entries,
    )
