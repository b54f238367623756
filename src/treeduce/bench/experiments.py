"""Scaling experiments over the synthetic demo workload.

Three variants:

- size: reduce growing prefixes of a file pool locally and fit wall time
  against input bytes (linearity check).
- cores: fixed input served over the wire with a bandwidth cap; sweep
  worker counts and watch throughput saturate at the cap.
- readahead: keep 1 of 8 flat branches over a capped server; sweep the
  connector prefetch window and record read amplification.

Repetitions use the median. A failed job aborts the experiment but the
rows collected so far are still written out.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine import EngineConfig, JobSpec, RunResult, WorkloadMetrics, run
from ..treefile import Codec
from ..xrdlite import ServerConfig, serve
from .generate import DEMO_TREE, GenSpec, demo_job, ensure_dataset

_READAHEAD_DEFAULT_CAP = 32 << 20  # bytes/s; keeps transfer time decisive


@dataclass
class ExperimentSpec:
    variant: str  # "size" | "cores" | "readahead"
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
    partition_entries: int = 65536
    executors: int = 1
    cores_per_executor: int = 4

    def __post_init__(self):
        if self.variant not in ("size", "cores", "readahead"):
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


def _repeat(job_for_rep, engine: EngineConfig, repetitions: int) -> tuple[float, RunResult]:
    walls = []
    last: RunResult | None = None
    for rep in range(repetitions):
        last = run(job_for_rep(rep), engine)
        walls.append(last.metrics.total_wall_s)
    assert last is not None
    return statistics.median(walls), last


def run_experiment(spec: ExperimentSpec):
    runner = {
        "size": _run_size,
        "cores": _run_cores,
        "readahead": _run_readahead,
    }[spec.variant]
    result = _result_shell(spec.variant)
    try:
        runner(spec, result)
    except BaseException:
        from .report import write_report

        write_report(spec.variant, result, spec.out_dir)
        raise
    return result


def _result_shell(variant: str):
    return {
        "size": SizeScalingResult,
        "cores": CoreScalingResult,
        "readahead": ReadaheadResult,
    }[variant]()


def _run_size(spec: ExperimentSpec, result: SizeScalingResult) -> None:
    pool = GenSpec(
        seed=spec.seed,
        n_events=spec.n_events,
        n_files=spec.n_files * max(spec.multiples),
        schema="demo",
    )
    manifest = ensure_dataset(pool, spec.data_dir)
    paths = manifest.file_paths(spec.data_dir)
    engine = EngineConfig(executors=spec.executors, cores_per_executor=spec.cores_per_executor)
    points = [
        (paths[: m * spec.n_files], str(Path(spec.out_dir) / "runs" / f"size-x{m}"))
        for m in spec.multiples
    ]
    # Repetitions go round the multiples, so a slow stretch of the host
    # costs every point one repetition instead of bending one point's median.
    walls: list[list[float]] = [[] for _ in spec.multiples]
    lasts: list[RunResult | None] = [None] * len(spec.multiples)
    for _ in range(spec.repetitions):
        for i, (inputs, out) in enumerate(points):
            lasts[i] = run(demo_job(inputs, out, partition_entries=spec.partition_entries), engine)
            walls[i].append(lasts[i].metrics.total_wall_s)
    for m, point_walls, last in zip(spec.multiples, walls, lasts):
        assert last is not None
        nbytes = sum(f.bytes for f in manifest.files[: m * spec.n_files])
        result.rows.append(
            SizeRow(m, nbytes, statistics.median(point_walls), last.manifest.total_entries)
        )
        result.metrics = last.metrics
    if len(result.rows) >= 2:
        result.slope, result.intercept, result.r2 = linear_fit(
            [r.bytes for r in result.rows], [r.median_wall_s for r in result.rows]
        )


def _calibrate_cap(spec: ExperimentSpec, manifest) -> int:
    """Single worker against an uncapped server; cap = 2x its throughput."""
    with serve(ServerConfig(root_dir=spec.data_dir, port=0)) as srv:
        host, port = srv.address
        job = demo_job(
            manifest.urls(host, port),
            str(Path(spec.out_dir) / "runs" / "calibrate"),
            partition_entries=spec.partition_entries,
        )
        result = run(job, EngineConfig(1, 1))
    throughput = result.io.bytes_fetched / max(result.metrics.total_wall_s, 1e-9)
    return max(1, int(2 * throughput))


def _run_cores(spec: ExperimentSpec, result: CoreScalingResult) -> None:
    dataset = GenSpec(seed=spec.seed, n_events=spec.n_events, n_files=spec.n_files, schema="demo")
    manifest = ensure_dataset(dataset, spec.data_dir)
    cap = spec.bandwidth_cap or _calibrate_cap(spec, manifest)
    result.cap_bytes_per_s = float(cap)
    with serve(ServerConfig(root_dir=spec.data_dir, port=0, bandwidth_cap=cap)) as srv:
        host, port = srv.address
        inputs = manifest.urls(host, port)
        for executors, cores in spec.worker_grid:
            engine = EngineConfig(executors=executors, cores_per_executor=cores)

            def job_for_rep(rep: int, _e=executors, _c=cores) -> JobSpec:
                out = str(Path(spec.out_dir) / "runs" / f"cores-e{_e}c{_c}")
                return demo_job(inputs, out, partition_entries=spec.partition_entries)

            median_wall, last = _repeat(job_for_rep, engine, spec.repetitions)
            throughput = last.io.bytes_fetched / max(median_wall, 1e-9)
            result.rows.append(
                CoreRow(
                    executors,
                    cores,
                    executors * cores,
                    median_wall,
                    throughput,
                    last.manifest.total_entries,
                )
            )
            result.metrics = last.metrics


def _run_readahead(spec: ExperimentSpec, result: ReadaheadResult) -> None:
    dataset = GenSpec(
        seed=spec.seed,
        n_events=spec.n_events,
        n_files=spec.n_files,
        schema="flat8",
        codec=Codec.NONE,  # uncompressed baskets make the byte geometry exact
    )
    manifest = ensure_dataset(dataset, spec.data_dir)
    cap = spec.bandwidth_cap or _READAHEAD_DEFAULT_CAP
    result.cap_bytes_per_s = float(cap)
    with serve(ServerConfig(root_dir=spec.data_dir, port=0, bandwidth_cap=cap)) as srv:
        host, port = srv.address
        inputs = manifest.urls(host, port)
        for read_ahead in spec.read_aheads:
            engine = EngineConfig(
                executors=spec.executors,
                cores_per_executor=spec.cores_per_executor,
                read_ahead=read_ahead,
                planned_reads=False,  # the window under test, not planned reads
            )

            def job_for_rep(rep: int, _ra=read_ahead) -> JobSpec:
                out = str(Path(spec.out_dir) / "runs" / f"readahead-{_ra}")
                return JobSpec(
                    inputs=inputs,
                    tree=DEMO_TREE,
                    keep_columns=["v0"],
                    output=out,
                    partition_entries=spec.partition_entries,
                )

            median_wall, last = _repeat(job_for_rep, engine, spec.repetitions)
            result.rows.append(
                ReadaheadRow(
                    read_ahead,
                    last.io.bytes_requested,
                    last.io.bytes_fetched,
                    last.io.amplification,
                    median_wall,
                    last.manifest.total_entries,
                )
            )
            result.metrics = last.metrics
