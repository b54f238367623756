"""Pull-queue execution of planned tasks on a thread pool.

The workload is I/O, zlib, and numpy kernels, all of which release the
GIL, so threads behave like cores here. Each task writes its own part
file keyed by task_id. An attempt writes to ``part-NNNNN.trf.tmp`` and
renames it into place only once the writer has closed, and a failed
attempt deletes its temp file, so no attempt leaves a truncated part and
the single retry is safe. Errors that would recur, such as a corrupt input
or an expression error, fail the task without a retry.

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
from pathlib import Path

import numpy as np

from .. import exprlang
from ..iostats import IoStats
from ..sources import open_source
from ..treefile import Dtype, Shape, TreeFileError, TreeFileReader, TreeFileWriter, open_file
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
    Task,
    check_job,
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
    def __init__(self, job: JobSpec, engine: EngineConfig, fault_hook=None):
        self.job = job
        self.engine = engine
        self.fault_hook = fault_hook
        self.out_dir = Path(job.output)
        exprs = parse_job_exprs(job)
        self.skim, self.derived = exprs.skim, exprs.derived
        self.schema, directories = probe_inputs(job, engine, exprs.columns)
        self.derived_dtypes = check_job(job, self.schema, exprs)
        self.directories = dict(zip(job.inputs, directories))
        self.tasks = tasks_from_counts(job, entry_counts(job, directories), exprs.columns)
        self.live = _Live()
        self.results_lock = threading.Lock()
        self.task_metrics: list[TaskMetrics] = []
        self.manifest_entries: list[ManifestEntry] = []
        self.failures: list[tuple[int, str]] = []
        self.io = IoStats()

    def execute_task(self, task: Task, attempt: int) -> tuple[TaskMetrics, ManifestEntry, IoStats]:
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
            if self.skim is not None:
                mask = exprlang.evaluate(self.skim, columns, n_entries=n_in).values
            else:
                mask = np.ones(n_in, dtype=bool)
            selected = {name: chunk.select(mask) for name, chunk in columns.items()}
            n_out = int(np.count_nonzero(mask))

            out_schema: dict[str, tuple[Dtype, Shape]] = {}
            out_columns = {}
            for name in self.job.keep_columns:
                out_schema[name] = self.schema[name]
                out_columns[name] = selected[name]
            for name, expr in self.derived:
                out_schema[name] = (self.derived_dtypes[name], Shape.FLAT)
                out_columns[name] = exprlang.evaluate(expr, selected, n_entries=n_out)

            part_path = self.out_dir / f"part-{task.task_id:05d}.trf"
            tmp_path = part_path.with_name(part_path.name + ".tmp")
            try:
                with TreeFileWriter(tmp_path) as writer:
                    writer.begin_tree(task.tree, out_schema)
                    if n_out:
                        writer.extend(out_columns)
                    writer.end_tree()
                os.replace(tmp_path, part_path)
            except BaseException:
                tmp_path.unlink(missing_ok=True)
                raise
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
        entry = ManifestEntry(task.task_id, str(part_path), n_out)
        return tm, entry, io

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
                        tm, entry, io = self.execute_task(task, attempt)
                        with self.results_lock:
                            self.task_metrics.append(tm)
                            self.manifest_entries.append(entry)
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

    def run(self) -> RunResult:
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
        manifest = Manifest(sorted(self.manifest_entries, key=lambda e: e.task_id))
        manifest.write_jsonl(self.out_dir / "manifest.jsonl")
        write_metrics_csv(self.out_dir / "metrics.csv", metrics.tasks)
        write_metrics_jsonl(self.out_dir / "metrics.jsonl", metrics)
        return RunResult(manifest, metrics, self.io, str(self.out_dir))


def run(job: JobSpec, engine: EngineConfig, *, fault_hook=None) -> RunResult:
    """Plan and execute a reduction job; see module docstring for semantics.

    ``fault_hook(task, attempt)`` runs at the start of every attempt and
    may raise to simulate transient failures.
    """
    return _Runner(job, engine, fault_hook).run()
