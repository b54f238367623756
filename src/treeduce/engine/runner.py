"""Execution of planned tasks on a thread pool.

The workload is I/O, libdeflate (or zlib) inflating input and deflating
part files through ctypes, and numpy kernels, all of which release the
GIL; the Python glue between those calls holds it. On a 2-core VM, 36
seed-1 demo jobs (4 x 262,144 events) in one process ran ``hist`` 1.62x and
``reduce`` 1.67-2.08x as fast on 2 workers as on 1, at -1% to +4% CPU per
job.

Planning probes the inputs for the sink's ``columns`` and lets the sink
``prepare`` against their schema. Every task then reads those columns of
the job's tree over its entry range, evaluates the job's skim once, and
hands the sink the selected entries of its ``selected`` columns and of
the values of its ``shared`` nodes:

* :class:`PartSink` (``run``, the ``reduce`` command) derives, encodes and
  writes ``part-NNNNN.trf``. The writer only renames its file into place
  once it has closed, and deletes it when an attempt raises, so no attempt
  leaves a truncated part. The run owns four kinds of name in its output
  directory: ``manifest.jsonl``, ``metrics.jsonl``, ``part-NNNNN.trf`` and
  ``part-NNNNN.trf.tmp``. Once the job's checks pass, and before its first
  task, it deletes every file of those names that an earlier run left, and
  refuses a job that reads one of them. It writes the manifest last, so a
  failed run leaves no manifest, and no part is renamed over another.
* :class:`FillSink` (``fill``, the ``hist`` command) fills a fresh copy of
  an aggregator's structure. The filled partials are merged with
  ``combine`` in task-id order, so the result does not depend on the
  worker count.

A sink's shared nodes are the largest subexpressions it shares with the
skim. Evaluating the skim records their values, which are selected like a
column and handed over keyed by their ``Expr``. The sink takes them
instead of evaluating the node, so a column it reads only inside shared
nodes is not selected. Every operator and fold works per event, so a
value evaluated over all entries and then selected equals one evaluated
over the selection, bit for bit.

A sink's work is redone from scratch on every attempt, so the single
retry is safe. Errors that would recur, such as a corrupt input or an
expression error, fail the task without a retry.

By default a task reuses the directory the planner read from its input
and fetches the baskets it needs with one vectored read
(``EngineConfig.planned_reads``).

A run reads remote inputs over one pool of xrdlite connections, one per
server and thread (``xrdlite.ConnectionPool``), which owns every one of
them: the planner opens its inputs over the calling thread's, and each
task over its worker thread's. Every task still opens its own handle on
its input and closes it when it ends, so the check of a task's input
against the planner's directory still sees a file that changed since
planning. A connection that breaks mid-request is left to the pool, which
closes it and opens a fresh one when the task's second attempt opens its
input. Every connection closes when ``run`` or ``fill`` returns or raises.
Local inputs are opened as one file per task.

Tasks run on a ``ThreadPoolExecutor`` of ``worker_count`` threads, and
each records when it started and stopped. The run's timeline is derived
once every task has returned, on a grid that cuts the run's wall time into
``TIMELINE_STEPS`` intervals: the number of tasks running at each grid
time, and the bytes whose fetch completed in each interval (from the
completion times the tasks' ``IoStats`` record).
Within a task, each stage is timed as it ends (``metrics.SPANS``), in
wall seconds and in the worker thread's on-CPU seconds, and the task
records the minor page faults its thread took.

Workers keep their memory from task to task (``memory``): the process
keeps one pool per worker count for its whole life, so a pool's threads
serve every later run of as many workers, whatever counts run in
between, and before its first run the process raises glibc's mmap and
trim thresholds, so a task's arrays reuse the pages the task before it
freed instead of faulting fresh ones in.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .. import exprlang, histagg
from ..iostats import IoStats
from ..sources import open_source
from ..treefile import Shape, TreeFileError, TreeFileReader, TreeFileWriter, open_file
from ..xrdlite import ConnectionPool
from .job import EngineConfig, EngineError, JobSpec
from .memory import keep_task_memory, thread_minor_faults, worker_pool
from .metrics import (
    Manifest,
    ManifestEntry,
    TaskMetrics,
    Timeline,
    WorkloadMetrics,
    write_metrics_jsonl,
)
from .planner import (
    JobExprs,
    Schema,
    Task,
    check_job,
    check_skim,
    parse_job_exprs,
    parse_skim,
    probe_inputs,
    sink_inputs,
    tasks_from_counts,
)

# Intervals a run's timeline cuts its wall time into; the grid has two
# points more, so every run's timeline has as many points.
TIMELINE_STEPS = 100

# Errors a second attempt would meet again: bad expressions or data, a
# corrupt or changed input. Anything else, such as an OSError, is retried once.
_DETERMINISTIC = (exprlang.EvalError, TreeFileError, EngineError)

# The names a reduce run owns in its output directory.
_OWNED = re.compile(r"manifest\.jsonl|metrics\.jsonl|part-\d{5,}\.trf(\.tmp)?")


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
        self.out_dir = Path(job.output).resolve()  # manifest rows hold absolute paths
        self.columns, self.selected, self.shared = sink_inputs(
            exprs.skim, [expr for _, expr in exprs.derived], job.keep_columns
        )
        self.out_schema: Schema = {}

    def prepare(self, schema: Schema) -> None:
        derived_dtypes = check_job(self.job, schema, self.exprs)
        self.out_schema = {name: schema[name] for name in self.job.keep_columns}
        for name, _ in self.exprs.derived:
            self.out_schema[name] = (derived_dtypes[name], Shape.FLAT)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        owned = [path for path in self.out_dir.iterdir() if _OWNED.fullmatch(path.name)]
        targets = {path.resolve() for path in owned}
        for name in map(str, self.job.inputs):
            if not name.startswith("xrdl://") and Path(name).resolve() in targets:
                raise EngineError(f"input {name} is a file the run deletes from its output")
        for path in owned:
            path.unlink()

    def consume(self, task: Task, columns: dict, n: int) -> ManifestEntry:
        out_columns = {name: columns[name] for name in self.job.keep_columns}
        for name, expr in self.exprs.derived:
            out_columns[name] = exprlang.evaluate(expr, columns, n_entries=n)

        part_path = self.out_dir / f"part-{task.task_id:05d}.trf"
        with TreeFileWriter(part_path) as writer:
            writer.begin_tree(self.job.tree, self.out_schema)
            if n:
                writer.extend(out_columns)
            writer.end_tree()
        return ManifestEntry(task.task_id, str(part_path), n)

    def finish(self, entries: list[ManifestEntry], metrics: WorkloadMetrics) -> Manifest:
        manifest = Manifest(entries)
        write_metrics_jsonl(self.out_dir / "metrics.jsonl", metrics)
        manifest.write_jsonl(self.out_dir / "manifest.jsonl")
        return manifest


class FillSink:
    """Fill a fresh copy of ``agg``'s structure per task; merge in task-id order.

    Tasks read only the skim's columns and the aggregator's. The job's
    ``keep`` and derived columns are neither parsed, read nor checked, and
    nothing is written.
    """

    def __init__(self, agg: histagg.Aggregator, skim: exprlang.Expr | None):
        self.agg = agg
        self.skim = skim
        self.columns, self.selected, self.shared = sink_inputs(skim, agg.quantities())

    def prepare(self, schema: Schema) -> None:
        histagg.typecheck_aggregator(self.agg, schema)
        check_skim(self.skim, schema)

    def consume(self, task: Task, columns: dict, n: int) -> histagg.Aggregator:
        partial = self.agg.copy_structure()
        partial.fill_chunk(columns, n)
        return partial

    def finish(self, partials: list, metrics: WorkloadMetrics) -> histagg.Aggregator:
        return reduce(histagg.combine, partials, self.agg)


class _Laps:
    """Wall and on-CPU seconds of consecutive stages, each timed as it ends."""

    def __init__(self):
        self.first = self.last = time.perf_counter()
        self.first_cpu = self.last_cpu = time.thread_time()
        self.spans: dict[str, float] = {}
        self.cpu_spans: dict[str, float] = {}

    def end(self, stage: str) -> None:
        now, cpu = time.perf_counter(), time.thread_time()
        self.spans[stage] = now - self.last
        self.cpu_spans[stage] = cpu - self.last_cpu
        self.last, self.last_cpu = now, cpu


class _Runner:
    def __init__(
        self,
        job: JobSpec,
        engine: EngineConfig,
        skim: exprlang.Expr | None,
        sink: PartSink | FillSink,
        fault_hook=None,
    ):
        self.job = job
        self.engine = engine
        self.skim = skim
        self.sink = sink
        self.fault_hook = fault_hook
        self.connections = ConnectionPool()
        self.io = IoStats()

    def execute_task(self, task: Task, attempt: int) -> tuple[TaskMetrics, object, IoStats]:
        t0, cpu0, faults0 = time.perf_counter(), time.thread_time(), thread_minor_faults()
        if self.fault_hook is not None:
            self.fault_hook(task, attempt)
        laps = _Laps()
        io = IoStats()
        tree, names = self.job.tree, self.sink.columns
        source = open_source(
            task.input, read_ahead=self.engine.read_ahead, stats=io, connections=self.connections
        )
        try:
            if self.engine.planned_reads:
                reader = TreeFileReader(
                    source, own_source=False, directory=self.directories[task.input]
                )
                reader.prefetch(tree, names, task.entry_start, task.entry_stop)
            else:
                reader = open_file(source)
            laps.end("fetch")
            # without planned reads, read_column fetches the baskets: in this span
            with reader:  # closing frees the prefetched baskets before the skim
                columns = {
                    name: reader.read_column(tree, name, task.entry_start, task.entry_stop)
                    for name in names
                }
            laps.end("decode")
            n_in = task.n_entries
            inputs = dict.fromkeys(self.sink.shared)
            if self.skim is None:
                mask, n_out = None, n_in
            else:
                mask = exprlang.evaluate(self.skim, columns, n_entries=n_in, record=inputs).values
                n_out = int(np.count_nonzero(mask))
            laps.end("skim")
            inputs.update((name, columns[name]) for name in self.sink.selected)
            del columns  # the sink runs on the selection alone
            if mask is not None:
                for key in inputs:  # replacing each input frees its full entries
                    inputs[key] = inputs[key].select(mask)
            laps.end("select")
            output = self.sink.consume(task, inputs, n_out)
            laps.end("sink")
        finally:
            source.close()
        t_end, cpu_end = time.perf_counter(), time.thread_time()
        # the time outside the laps, summed from its two pieces rather than
        # taken as wall minus the laps, so rounding cannot make it negative
        laps.spans["unaccounted"] = (laps.first - t0) + (t_end - laps.last)
        laps.cpu_spans["unaccounted"] = (laps.first_cpu - cpu0) + (cpu_end - laps.last_cpu)
        tm = TaskMetrics(
            task_id=task.task_id,
            wall_s=t_end - t0,
            spans=laps.spans,
            entries_in=n_in,
            entries_out=n_out,
            bytes_fetched=io.bytes_fetched,
            cpu_spans=laps.cpu_spans,
            minor_faults=thread_minor_faults() - faults0,
        )
        return tm, output, io

    def run_task(self, task: Task):
        """Up to two attempts; returns (start, stop, execute_task's result or None, error)."""
        start = time.perf_counter()
        for attempt in (1, 2):
            try:
                result, error = self.execute_task(task, attempt), None
            except Exception as exc:
                if attempt == 1 and not isinstance(exc, _DETERMINISTIC):
                    continue
                result, error = None, repr(exc)
            return start, time.perf_counter(), result, error

    def run(self):
        """Plan, then execute every task; returns (the sink's result, metrics).

        The run's connections are closed before it returns or raises.
        """
        try:
            job = self.job
            schema, directories = probe_inputs(job, self.engine, self.sink.columns, self.connections)
            self.sink.prepare(schema)
            self.directories = dict(zip(job.inputs, directories))
            counts = [trees[job.tree].n_entries for _, trees in directories]
            self.tasks = tasks_from_counts(job, counts)
            return self._execute()
        finally:
            self.connections.close()

    def _execute(self):
        keep_task_memory()
        pool = worker_pool(self.engine.worker_count)
        t0 = time.perf_counter()
        outcomes = list(pool.map(self.run_task, self.tasks))
        total_wall = time.perf_counter() - t0

        failures = [
            (task.task_id, error)
            for task, (_, _, _, error) in zip(self.tasks, outcomes)
            if error is not None
        ]
        if failures:
            raise TaskFailure(failures)

        task_metrics, outputs = [], []
        for _, _, (tm, output, io), _ in outcomes:
            task_metrics.append(tm)
            outputs.append(output)
            self.io.merge(io)
        concurrency, throughput = _timeline(
            [(start - t0, stop - t0) for start, stop, _, _ in outcomes],
            [(t - t0, nbytes) for t, nbytes in self.io.fetch_done],
            total_wall,
        )
        metrics = WorkloadMetrics(
            total_wall, self.engine.worker_count, task_metrics, concurrency, throughput
        )
        return self.sink.finish(outputs, metrics), metrics


def _timeline(spans, fetches, total_wall: float):
    """Active tasks and fetched bytes/s at every grid time ``k * interval``.

    ``interval`` is ``total_wall / TIMELINE_STEPS`` (a microsecond's share
    for a shorter run), and ``k`` runs from 0 to ``TIMELINE_STEPS + 1``.
    ``spans`` are (start, stop) and ``fetches`` (completion time, bytes),
    in seconds since the run started, none later than ``total_wall``. A
    task is active at ``t`` if ``start <= t < stop``. The rate at ``t``
    counts the bytes whose fetch completed in the interval that ends at
    ``t``. The grid runs one interval past ``total_wall``, so it starts and
    ends idle and every fetched byte falls in one interval.
    """
    interval = max(total_wall, 1e-6) / TIMELINE_STEPS
    grid = np.arange(TIMELINE_STEPS + 2) * interval
    starts = np.sort([start for start, _ in spans])
    stops = np.sort([stop for _, stop in spans])
    active = np.searchsorted(starts, grid, "right") - np.searchsorted(stops, grid, "right")
    fetches = sorted(fetches)
    done_at = np.array([t for t, _ in fetches])
    done = np.concatenate([[0], np.cumsum([nbytes for _, nbytes in fetches])])
    bytes_by_grid = done[np.searchsorted(done_at, grid, "right")]
    rates = np.diff(bytes_by_grid, prepend=0) / interval
    return Timeline(interval, active), Timeline(interval, rates)


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
    skim = parse_skim(job)
    runner = _Runner(job, engine, skim, FillSink(agg, skim), fault_hook)
    aggregate, metrics = runner.run()
    return FillResult(aggregate, metrics, runner.io)
