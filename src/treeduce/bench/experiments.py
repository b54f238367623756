"""Scaling experiments over the synthetic demo workload.

Three variants:

- size: reduce growing prefixes of a file pool locally and fit wall time
  against input bytes (linearity check).
- cores: fixed input served over the wire with a bandwidth cap; sweep
  worker counts and watch throughput saturate at the cap.
- readahead: keep 1 of 8 flat branches over a capped server; sweep the
  connector prefetch window and record read amplification.

Each point of a sweep is one job and engine setting, run ``repetitions``
times. Repetitions go round the points: every point runs once, then every
point again, so a slow stretch of the host costs each point about one
repetition, and each point reports the median of its wall times. A run
owns its output directory (``engine.runner``): before its first task it
deletes the ``manifest.jsonl``, ``metrics.jsonl``, ``part-NNNNN.trf`` and
``part-NNNNN.trf.tmp`` files an earlier repetition left there, so no
repetition times its parts renamed over the last one's. A failed run
ends the sweep with its error, and no report is written.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine import EngineConfig, JobSpec, RunResult, WorkloadMetrics, run
from ..engine.job import DEFAULT_PARTITION_ENTRIES
from ..treefile import Codec
from ..xrdlite import ServerConfig, serve
from .generate import DEMO_TREE, GenSpec, demo_job, ensure_dataset

_READAHEAD_DEFAULT_CAP = 32 << 20  # bytes/s; keeps transfer time decisive


@dataclass
class ExperimentSpec:
    variant: str  # a key of VARIANTS
    data_dir: str
    out_dir: str
    seed: int = 1
    n_events: int = 1 << 20
    n_files: int = 8
    repetitions: int = 3
    multiples: tuple[int, ...] = (1, 2, 4, 8)
    worker_grid: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (2, 4))
    read_aheads: tuple[int, ...] = (65536, 1 << 20, 32 << 20)
    bandwidth_cap: int | None = None  # None: cores calibrates, readahead uses default
    partition_entries: int = DEFAULT_PARTITION_ENTRIES
    executors: int = 1
    cores_per_executor: int = 4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown experiment variant {self.variant!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n_events < 0:
            raise ValueError("n_events must be >= 0")
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if any(m < 1 for m in self.multiples):
            raise ValueError("multiples must be >= 1")
        if any(n < 1 for pair in self.worker_grid for n in pair):
            raise ValueError("workers must be >= 1 executors x >= 1 cores")
        if any(r < 1 for r in self.read_aheads):
            raise ValueError("read_aheads must be >= 1")
        if self.bandwidth_cap is not None and self.bandwidth_cap <= 0:
            raise ValueError("bandwidth_cap must be > 0")
        if self.partition_entries < 1:
            raise ValueError("partition_entries must be >= 1")
        if self.executors < 1 or self.cores_per_executor < 1:
            raise ValueError("executors and cores must be >= 1")
        if self.variant == "size" and not self.multiples:
            raise ValueError("size experiment needs at least one multiple")
        if self.variant == "cores" and not self.worker_grid:
            raise ValueError("cores experiment needs at least one worker configuration")
        if self.variant == "readahead" and not self.read_aheads:
            raise ValueError("readahead experiment needs at least one window size")


@dataclass
class SizeRow:
    multiple: int
    bytes: int
    median_wall_s: float
    entries_out: int


@dataclass
class SizeScalingResult:
    rows: list[SizeRow] = field(default_factory=list)
    slope: float = 0.0
    intercept: float = 0.0
    r2: float = 0.0
    metrics: WorkloadMetrics | None = None


@dataclass
class CoreRow:
    executors: int
    cores: int
    workers: int
    median_wall_s: float
    throughput_bytes_per_s: float
    entries_out: int


@dataclass
class CoreScalingResult:
    cap_bytes_per_s: float = 0.0
    rows: list[CoreRow] = field(default_factory=list)
    metrics: WorkloadMetrics | None = None


@dataclass
class ReadaheadRow:
    read_ahead: int
    bytes_requested: int
    bytes_fetched: int
    amplification: float
    median_wall_s: float
    entries_out: int


@dataclass
class ReadaheadResult:
    cap_bytes_per_s: float = 0.0
    rows: list[ReadaheadRow] = field(default_factory=list)
    metrics: WorkloadMetrics | None = None


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares y = a·x + b with the coefficient of determination."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a, b = np.polyfit(x, y, 1)
    residual = y - (a * x + b)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2


def _sweep(
    points: list[tuple[JobSpec, EngineConfig]], repetitions: int
) -> list[tuple[float, RunResult]]:
    """Each point's median wall time over ``repetitions`` runs, and its last run.

    Repetitions go round the points, so a slow stretch of the host costs
    every point one repetition instead of bending one point's median.
    """
    walls: list[list[float]] = [[] for _ in points]
    lasts: list[RunResult] = []
    for _ in range(repetitions):
        lasts = [run(job, engine) for job, engine in points]
        for point_walls, last in zip(walls, lasts):
            point_walls.append(last.metrics.total_wall_s)
    return [(statistics.median(w), last) for w, last in zip(walls, lasts)]


def _demo_job(spec: ExperimentSpec, inputs: list[str], name: str) -> JobSpec:
    """The demo job over ``inputs``, written to ``<out_dir>/runs/<name>``."""
    out = str(Path(spec.out_dir) / "runs" / name)
    return demo_job(inputs, out, partition_entries=spec.partition_entries)


def _run_size(spec: ExperimentSpec) -> SizeScalingResult:
    pool = GenSpec(
        seed=spec.seed,
        n_events=spec.n_events,
        n_files=spec.n_files * max(spec.multiples),
        schema="demo",
    )
    manifest = ensure_dataset(pool, spec.data_dir)
    paths = manifest.file_paths(spec.data_dir)
    engine = EngineConfig(executors=spec.executors, cores_per_executor=spec.cores_per_executor)
    counts = [m * spec.n_files for m in spec.multiples]
    points = [
        (_demo_job(spec, paths[:n], f"size-x{m}"), engine) for m, n in zip(spec.multiples, counts)
    ]
    swept = _sweep(points, spec.repetitions)
    rows = [
        SizeRow(m, sum(f.bytes for f in manifest.files[:n]), wall, last.manifest.total_entries)
        for m, n, (wall, last) in zip(spec.multiples, counts, swept)
    ]
    result = SizeScalingResult(rows, metrics=swept[-1][1].metrics)
    if len(rows) >= 2:
        result.slope, result.intercept, result.r2 = linear_fit(
            [r.bytes for r in rows], [r.median_wall_s for r in rows]
        )
    return result


def _calibrate_cap(spec: ExperimentSpec, manifest) -> int:
    """Single worker against an uncapped server; cap = 2x its throughput."""
    with serve(ServerConfig(root_dir=spec.data_dir, port=0)) as srv:
        job = _demo_job(spec, manifest.urls(*srv.address), "calibrate")
        result = run(job, EngineConfig(1, 1))
    throughput = result.io.bytes_fetched / max(result.metrics.total_wall_s, 1e-9)
    return max(1, int(2 * throughput))


def _run_cores(spec: ExperimentSpec) -> CoreScalingResult:
    dataset = GenSpec(seed=spec.seed, n_events=spec.n_events, n_files=spec.n_files, schema="demo")
    manifest = ensure_dataset(dataset, spec.data_dir)
    cap = spec.bandwidth_cap or _calibrate_cap(spec, manifest)
    with serve(ServerConfig(root_dir=spec.data_dir, port=0, bandwidth_cap=cap)) as srv:
        inputs = manifest.urls(*srv.address)
        points = [
            (_demo_job(spec, inputs, f"cores-e{e}c{c}"), EngineConfig(e, c))
            for e, c in spec.worker_grid
        ]
        swept = _sweep(points, spec.repetitions)
    rows = [
        CoreRow(
            e, c, e * c, wall, last.io.bytes_fetched / max(wall, 1e-9), last.manifest.total_entries
        )
        for (e, c), (wall, last) in zip(spec.worker_grid, swept)
    ]
    return CoreScalingResult(float(cap), rows, swept[-1][1].metrics)


def _run_readahead(spec: ExperimentSpec) -> ReadaheadResult:
    dataset = GenSpec(
        seed=spec.seed,
        n_events=spec.n_events,
        n_files=spec.n_files,
        schema="flat8",
        codec=Codec.NONE,  # uncompressed baskets make the byte geometry exact
    )
    manifest = ensure_dataset(dataset, spec.data_dir)
    cap = spec.bandwidth_cap or _READAHEAD_DEFAULT_CAP
    with serve(ServerConfig(root_dir=spec.data_dir, port=0, bandwidth_cap=cap)) as srv:
        inputs = manifest.urls(*srv.address)
        points = [
            (
                JobSpec(
                    inputs=inputs,
                    tree=DEMO_TREE,
                    keep_columns=["v0"],
                    output=str(Path(spec.out_dir) / "runs" / f"readahead-{ra}"),
                    partition_entries=spec.partition_entries,
                ),
                EngineConfig(
                    executors=spec.executors,
                    cores_per_executor=spec.cores_per_executor,
                    read_ahead=ra,
                    planned_reads=False,  # the window under test, not planned reads
                ),
            )
            for ra in spec.read_aheads
        ]
        swept = _sweep(points, spec.repetitions)
    rows = [
        ReadaheadRow(
            ra,
            last.io.bytes_requested,
            last.io.bytes_fetched,
            last.io.amplification,
            wall,
            last.manifest.total_entries,
        )
        for ra, (wall, last) in zip(spec.read_aheads, swept)
    ]
    return ReadaheadResult(float(cap), rows, swept[-1][1].metrics)


# Each variant's sweep, by the name ``ExperimentSpec.variant`` and
# ``treeduce bench --experiment`` take.
VARIANTS = {
    "size": _run_size,
    "cores": _run_cores,
    "readahead": _run_readahead,
}


def run_experiment(spec: ExperimentSpec):
    """Run ``spec``'s sweep and return its result; a failed run raises."""
    return VARIANTS[spec.variant](spec)
