"""Pull-queue execution of planned tasks on a thread pool.

The workload is I/O, zlib, and numpy kernels, all of which release the
GIL, so threads behave like cores here. Planning probes the inputs for
the sink's ``columns`` and lets the sink ``prepare`` against their schema.
Every task then reads those columns, applies the job's skim, and hands the
selected entries of the sink's ``selected`` columns to the sink:

* :class:`PartSink` (``run``, the ``reduce`` command) derives, encodes and
  writes ``part-NNNNN.trf``. An attempt writes to ``part-NNNNN.trf.tmp``
  and renames it into place only once the writer has closed, and a failed
  attempt deletes its temp file, so no attempt leaves a truncated part.
* :class:`FillSink` (``fill``, the ``hist`` command) fills a fresh copy of
  an aggregator's structure. The filled partials are merged with
  ``combine`` in task-id order, so the result does not depend on the
  worker count.

A sink's work is redone from scratch on every attempt, so the single
retry is safe. Errors that would recur, such as a corrupt input or an
expression error, fail the task without a retry.

By default a task reuses the directory the planner read from its input
and fetches the baskets it needs with one vectored read
(``EngineConfig.planned_reads``).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .. import exprlang, histagg
from ..iostats import IoStats
from ..sources import open_source
from ..treefile import Shape, TreeFileError, TreeFileReader, TreeFileWriter, open_file
from .job import EngineConfig, EngineError, JobSpec
from .metrics import (
    Manifest,
    ManifestEntry,
    TaskMetrics,
    WorkloadMetrics,
    merge_metrics,
    write_metrics_csv,
    write_metrics_jsonl,
)
from .planner import (
    JobExprs,
    Schema,
    Task,
    check_job,
    check_skim,
    entry_counts,
    parse_job_exprs,
    probe_inputs,
    tasks_from_counts,
)

# Errors a second attempt would meet again: bad expressions or data, a
# corrupt or changed input. Anything else, such as an OSError, is retried once.
_DETERMINISTIC = (exprlang.EvalError, TreeFileError, EngineError)


class TaskFailure(EngineError):
    def __init__(self, failures: list[tuple[int, str]]):
        ids = [task_id for task_id, _ in failures]
        super().__init__(f"{len(failures)} tasks failed: {ids}")
        self.failures = failures


@dataclass
class RunResult:
    manifest: Manifest
    metrics: WorkloadMetrics
    io: IoStats
    out_dir: str


@dataclass
class FillResult:
    aggregate: histagg.Aggregator
    metrics: WorkloadMetrics
    io: IoStats


class PartSink:
    """Derive, encode and write each task's selected entries to a part file."""

    def __init__(self, job: JobSpec, exprs: JobExprs):
        self.job = job
        self.exprs = exprs
        self.out_dir = Path(job.output)
        self.columns = exprs.columns
        needed = set(job.keep_columns)
        for _, expr in exprs.derived:
            needed |= exprlang.column_refs(expr)
        self.selected = tuple(sorted(needed))
        self.out_schema: Schema = {}

    def prepare(self, schema: Schema) -> None:
        derived_dtypes = check_job(self.job, schema, self.exprs)
        self.out_schema = {name: schema[name] for name in self.job.keep_columns}
        for name, _ in self.exprs.derived:
            self.out_schema[name] = (derived_dtypes[name], Shape.FLAT)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def consume(self, task: Task, columns: dict, n: int) -> ManifestEntry:
        out_columns = {name: columns[name] for name in self.job.keep_columns}
        for name, expr in self.exprs.derived:
            out_columns[name] = exprlang.evaluate(expr, columns, n_entries=n)

        part_path = self.out_dir / f"part-{task.task_id:05d}.trf"
        tmp_path = part_path.with_name(part_path.name + ".tmp")
        try:
            with TreeFileWriter(tmp_path) as writer:
                writer.begin_tree(task.tree, self.out_schema)
                if n:
                    writer.extend(out_columns)
                writer.end_tree()
            os.replace(tmp_path, part_path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        return ManifestEntry(task.task_id, str(part_path), n)

    def finish(self, entries: list[ManifestEntry], metrics: WorkloadMetrics) -> Manifest:
        manifest = Manifest(entries)
        manifest.write_jsonl(self.out_dir / "manifest.jsonl")
        write_metrics_csv(self.out_dir / "metrics.csv", metrics.tasks)
        write_metrics_jsonl(self.out_dir / "metrics.jsonl", metrics)
        return manifest


class FillSink:
    """Fill a fresh copy of ``agg``'s structure per task; merge in task-id order.

    Tasks read only the skim's columns and the aggregator's. The job's
    ``keep`` and derived columns are neither read nor checked, and nothing
    is written.
    """

    def __init__(self, agg: histagg.Aggregator, exprs: JobExprs):
        self.agg = agg
        self.skim = exprs.skim
        needed = agg.columns_needed()
        if exprs.skim is not None:
            needed |= exprlang.column_refs(exprs.skim)
        self.columns = tuple(sorted(needed))
        self.selected = tuple(sorted(agg.columns_needed()))

    def prepare(self, schema: Schema) -> None:
        histagg.typecheck_aggregator(self.agg, schema)
        check_skim(self.skim, schema)

    def consume(self, task: Task, columns: dict, n: int) -> histagg.Aggregator:
        partial = self.agg.copy_structure()
        partial.fill_chunk(columns, n)
        return partial

    def finish(self, partials: list, metrics: WorkloadMetrics) -> histagg.Aggregator:
        return reduce(histagg.combine, partials, self.agg)


class _Live:
    """Counters the sampler reads while workers run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.bytes_fetched = 0

    def task_started(self) -> None:
        with self._lock:
            self.active += 1

    def task_finished(self) -> None:
        with self._lock:
            self.active -= 1

    def add_bytes(self, n: int) -> None:
        with self._lock:
            self.bytes_fetched += n

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self.active, self.bytes_fetched


class _TrackingIoStats(IoStats):
    def __init__(self, live: _Live):
        super().__init__()
        self._live = live

    def record_fetch(self, nbytes: int, seconds: float) -> None:
        super().record_fetch(nbytes, seconds)
        self._live.add_bytes(nbytes)


class _Runner:
    def __init__(
        self,
        job: JobSpec,
        engine: EngineConfig,
        skim: exprlang.Expr | None,
        sink: PartSink | FillSink,
        fault_hook=None,
    ):
        self.engine = engine
        self.skim = skim
        self.sink = sink
        self.fault_hook = fault_hook
        schema, directories = probe_inputs(job, engine, sink.columns)
        sink.prepare(schema)
        self.directories = dict(zip(job.inputs, directories))
        self.tasks = tasks_from_counts(job, entry_counts(job, directories), sink.columns)
        self.live = _Live()
        self.results_lock = threading.Lock()
        self.task_metrics: list[TaskMetrics] = []
        self.outputs: dict[int, object] = {}
        self.failures: list[tuple[int, str]] = []
        self.io = IoStats()

    def execute_task(self, task: Task, attempt: int) -> tuple[TaskMetrics, object, IoStats]:
        t0 = time.perf_counter()
        if self.fault_hook is not None:
            self.fault_hook(task, attempt)
        io = _TrackingIoStats(self.live)
        source = open_source(task.input, read_ahead=self.engine.read_ahead, stats=io)
        try:
            if self.engine.planned_reads:
                reader = TreeFileReader(
                    source, own_source=False, directory=self.directories[task.input]
                )
                reader.prefetch(task.tree, task.columns, task.entry_start, task.entry_stop)
            else:
                reader = open_file(source)
            with reader:  # closing frees the prefetched baskets before the skim
                columns = {
                    name: reader.read_column(task.tree, name, task.entry_start, task.entry_stop)
                    for name in task.columns
                }
            n_in = task.n_entries
            if self.skim is None:
                selected = {name: columns[name] for name in self.sink.selected}
                n_out = n_in
            else:
                mask = exprlang.evaluate(self.skim, columns, n_entries=n_in).values
                selected = {name: columns[name].select(mask) for name in self.sink.selected}
                n_out = int(np.count_nonzero(mask))
            del columns  # the sink runs on the selection alone
            output = self.sink.consume(task, selected, n_out)
            decompress_s = reader.stats.decompress_time_s
        finally:
            source.close()
        wall = time.perf_counter() - t0
        read_s = io.read_time_s
        cpu = max(wall - read_s - decompress_s, 0.0)
        tm = TaskMetrics(
            task_id=task.task_id,
            wall_s=wall,
            cpu_s=cpu,
            read_s=read_s,
            decompress_s=decompress_s,
            entries_in=n_in,
            entries_out=n_out,
            bytes_fetched=io.bytes_fetched,
        )
        return tm, output, io

    def worker(self, task_queue: queue.Queue) -> None:
        while True:
            try:
                task = task_queue.get_nowait()
            except queue.Empty:
                return
            self.live.task_started()
            try:
                attempt = 1
                while True:
                    try:
                        tm, output, io = self.execute_task(task, attempt)
                        with self.results_lock:
                            self.task_metrics.append(tm)
                            self.outputs[task.task_id] = output
                            self.io.merge(io)
                        break
                    except Exception as exc:
                        if attempt >= 2 or isinstance(exc, _DETERMINISTIC):
                            with self.results_lock:
                                self.failures.append((task.task_id, repr(exc)))
                            break
                        attempt += 1
            finally:
                self.live.task_finished()

    def sample_loop(self, stop: threading.Event, t0: float, concurrency, throughput) -> None:
        prev_t, prev_bytes = 0.0, 0
        while True:
            stopped = stop.wait(self.engine.sample_interval)
            t = time.perf_counter() - t0
            active, total_bytes = self.live.snapshot()
            concurrency.append((t, active))
            dt = t - prev_t
            throughput.append((t, (total_bytes - prev_bytes) / dt if dt > 0 else 0.0))
            prev_t, prev_bytes = t, total_bytes
            if stopped:
                return

    def run(self):
        """Execute every task; returns (the sink's result, metrics)."""
        task_queue: queue.Queue = queue.Queue()
        for task in self.tasks:
            task_queue.put(task)

        concurrency: list[tuple[float, int]] = [(0.0, 0)]
        throughput: list[tuple[float, float]] = [(0.0, 0.0)]
        stop = threading.Event()
        t0 = time.perf_counter()
        sampler = threading.Thread(
            target=self.sample_loop, args=(stop, t0, concurrency, throughput), daemon=True
        )
        sampler.start()
        workers = [
            threading.Thread(target=self.worker, args=(task_queue,), daemon=True)
            for _ in range(self.engine.worker_count)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stop.set()
        sampler.join()
        total_wall = time.perf_counter() - t0

        if self.failures:
            raise TaskFailure(sorted(self.failures))

        metrics = merge_metrics(
            self.task_metrics, concurrency, throughput, total_wall, self.engine.worker_count
        )
        outputs = [self.outputs[task.task_id] for task in self.tasks]
        return self.sink.finish(outputs, metrics), metrics


def run(job: JobSpec, engine: EngineConfig, *, fault_hook=None) -> RunResult:
    """Plan and execute a reduction job; see module docstring for semantics.

    ``fault_hook(task, attempt)`` runs at the start of every attempt and
    may raise to simulate transient failures.
    """
    exprs = parse_job_exprs(job)
    sink = PartSink(job, exprs)
    runner = _Runner(job, engine, exprs.skim, sink, fault_hook)
    manifest, metrics = runner.run()
    return RunResult(manifest, metrics, runner.io, str(sink.out_dir))


def fill(
    job: JobSpec, engine: EngineConfig, agg: histagg.Aggregator, *, fault_hook=None
) -> FillResult:
    """Fill ``agg``'s structure from the job's skimmed inputs, task-parallel.

    Returns ``agg`` combined with every task's partial in task-id order;
    ``agg`` itself is not changed. ``fault_hook`` is as for :func:`run`.
    """
    exprs = parse_job_exprs(job)
    runner = _Runner(job, engine, exprs.skim, FillSink(agg, exprs), fault_hook)
    aggregate, metrics = runner.run()
    return FillResult(aggregate, metrics, runner.io)
