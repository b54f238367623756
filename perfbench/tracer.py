"""Spans around treeduce's public functions and methods, installed from outside.

A span is one call into a layer: name, start, end, parent span, job id and
thread. Spans stay in memory and are written out when the run ends. A
layer's self time is its span minus the child spans inside it.

Methods are wrapped on their class. Module functions are rebound in every
``treeduce`` module that holds them, so a name imported by value (such as
``histagg``'s ``evaluate``) is traced too. A recursive call to the same
name folds into the outer span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from treeduce import exprlang, histagg, treefile
from treeduce.histagg import Bin
from treeduce.treefile import ColumnChunk, TreeFileReader, TreeFileWriter
from treeduce.xrdlite import RemoteByteSource, XrdConnection


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span of its thread
    name: str
    job: int
    thread: int
    t0: float
    t1: float
    # compress: (raw bytes, stored bytes); writer close: (file bytes,);
    # read_at: (bytes requested, fetches made, bytes fetched)
    data: tuple = ()


class RetryCounter:
    """An engine ``fault_hook`` that counts attempts after the first.

    It never raises itself; ``inner``, if given, is called afterwards and
    may raise to inject a fault.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.retries = 0
        self._lock = threading.Lock()

    def __call__(self, task, attempt: int) -> None:
        if attempt > 1:
            with self._lock:
                self.retries += 1
        if self.inner is not None:
            self.inner(task, attempt)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._writer_paths: dict[int, str] = {}

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args)`` runs ahead of the call; ``after(args, ctx, result)`` gives span data."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            ctx = before(args) if before else None
            stack.append((span_id, name))
            t0 = time.perf_counter()
            t1 = None
            data = ()
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if after is not None:
                    data = after(args, ctx, result)
                return result
            finally:
                stack.pop()
                if t1 is None:
                    t1 = time.perf_counter()
                tracer.spans.append(
                    Span(span_id, parent, name, tracer.job, threading.get_ident(), t0, t1, data)
                )

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name: str, after=None) -> None:
        wrapped = self.wrap(name, fn, after=after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "treeduce" or mod_name.startswith("treeduce."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        paths = self._writer_paths

        def writer_opened(args, ctx, result):
            paths[id(args[0])] = str(args[1])
            return ()

        def writer_closed(args, ctx, result):
            path = paths.pop(id(args[0]), None)
            return (os.path.getsize(path),) if path else ()

        def fetch_before(args):
            stats = args[0].stats
            return stats.fetch_calls, stats.bytes_fetched

        def fetch_after(args, ctx, result):
            stats = args[0].stats
            return max(args[2], 0), stats.fetch_calls - ctx[0], stats.bytes_fetched - ctx[1]

        methods = [
            (TreeFileReader, "__init__", "treefile.open", None, None),
            (TreeFileReader, "read_column", "treefile.read_column", None, None),
            (ColumnChunk, "select", "treefile.select", None, None),
            (TreeFileWriter, "__init__", "treefile.write", None, writer_opened),
            (TreeFileWriter, "begin_tree", "treefile.write", None, None),
            (TreeFileWriter, "extend", "treefile.write", None, None),
            (TreeFileWriter, "end_tree", "treefile.write", None, None),
            (TreeFileWriter, "close", "treefile.write", None, writer_closed),
            (XrdConnection, "__init__", "xrdlite.connect", None, None),
            (XrdConnection, "open", "xrdlite.rpc", None, None),
            (XrdConnection, "read", "xrdlite.rpc", None, None),
            (XrdConnection, "stat", "xrdlite.rpc", None, None),
            (XrdConnection, "close_handle", "xrdlite.rpc", None, None),
            (RemoteByteSource, "read_at", "xrdlite.read_at", fetch_before, fetch_after),
            (Bin, "fill_chunk", "histagg.fill", None, None),
            (Bin, "combine", "histagg.combine", None, None),
        ]
        for cls, attr, name, before, after in methods:
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], before, after))
        functions = [
            (treefile.compress_record, "treefile.compress", lambda a, c, r: (len(a[0]), len(r[1]))),
            (treefile.decompress_record, "treefile.decompress", None),
            (treefile.encode_basket, "treefile.encode", None),
            (treefile.decode_basket, "treefile.decode", None),
            (exprlang.parse, "exprlang.parse", None),
            (exprlang.typecheck, "exprlang.typecheck", None),
            (exprlang.evaluate, "exprlang.eval", None),
            (histagg.render, "histagg.render", None),
        ]
        for fn, name, after in functions:
            self._patch_function(fn, name, after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._writer_paths.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one job


@dataclass
class JobContext:
    """What the benchmark knows about one traced job besides its spans."""

    wall_s: float
    caller_thread: int
    server_cpu_s: float
    retries: int
    result: object = None  # engine RunResult; None when the job bypasses the engine


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_layer_metrics(spans: list[Span], ctx: JobContext) -> dict[str, float]:
    """Per-layer metrics of one job.

    Every ``*_s`` is self time except ``treefile.open_s`` and
    ``xrdlite.rpc_wait_s``, which include their children.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.t1 - s.t0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        incl_s[s.name] += s.t1 - s.t0
        self_s[s.name] += s.t1 - s.t0 - child_s[s.id]

    compress = [s.data for s in spans if s.name == "treefile.compress" and s.data]
    written = [s.data[0] for s in spans if s.name == "treefile.write" and s.data]
    reads = [s for s in spans if s.name == "xrdlite.read_at" and s.data]
    task_reads = [s.data for s in reads if s.thread != ctx.caller_thread and s.data[0] > 0]
    requested = sum(d[0] for d in task_reads)
    fetched = sum(d[2] for d in task_reads)

    m = {
        "treefile.opens": calls["treefile.open"],
        "treefile.open_s": incl_s["treefile.open"],
        "treefile.baskets_read": calls["treefile.decode"],
        "treefile.decompress_s": self_s["treefile.decompress"],
        "treefile.decode_s": self_s["treefile.decode"],
        "treefile.read_column_s": self_s["treefile.read_column"],
        "treefile.select_s": self_s["treefile.select"],
        "treefile.encode_s": self_s["treefile.encode"],
        "treefile.compress_s": self_s["treefile.compress"],
        "treefile.write_s": self_s["treefile.write"],
        "treefile.bytes_written": sum(written),
        "treefile.out_compress_ratio": _ratio(sum(d[0] for d in compress), sum(d[1] for d in compress)),
        "exprlang.parse_calls": calls["exprlang.parse"],
        "exprlang.typecheck_calls": calls["exprlang.typecheck"],
        "exprlang.eval_calls": calls["exprlang.eval"],
        "exprlang.eval_s": self_s["exprlang.eval"],
        "xrdlite.connects": calls["xrdlite.connect"],
        "xrdlite.rpcs": calls["xrdlite.rpc"],
        "xrdlite.rpc_wait_s": incl_s["xrdlite.rpc"],
        "xrdlite.fetch_calls": sum(d[1] for d in task_reads),
        "xrdlite.plan_fetch_calls": sum(s.data[1] for s in reads if s.thread == ctx.caller_thread),
        "xrdlite.bytes_requested": requested,
        "xrdlite.bytes_fetched": fetched,
        "xrdlite.amplification": _ratio(fetched, requested),
        "xrdlite.cache_hit_ratio": _ratio(sum(1 for d in task_reads if d[1] == 0), len(task_reads)),
        "xrdlite.server_cpu_s": ctx.server_cpu_s,
        "histagg.fill_calls": calls["histagg.fill"],
        "histagg.fill_s": self_s["histagg.fill"],
        "histagg.combine_calls": calls["histagg.combine"],
        "histagg.render_s": self_s["histagg.render"],
        "engine.retries": ctx.retries,
    }
    m.update(_engine_metrics(spans, ctx))
    return m


def _engine_metrics(spans: list[Span], ctx: JobContext) -> dict[str, float]:
    """Engine breakdown plus the task time that no traced span covers.

    Engine tasks run on worker threads, so their root spans are the ones
    off the calling thread. A job that bypasses the engine is one unit of
    work on the calling thread.
    """
    result = ctx.result
    if result is None:
        covered = sum(s.t1 - s.t0 for s in spans if s.parent < 0 and s.thread == ctx.caller_thread)
        zero = dict.fromkeys(
            ["engine.plan_s", "engine.tasks", "engine.task_s_p50", "engine.task_s_max",
             "engine.full_concurrency_ratio", "engine.idle_ratio", "engine.reported_cpu_s",
             "engine.reported_read_s", "engine.reported_decompress_s"], 0.0)
        return {**zero, "engine.unaccounted_s": ctx.wall_s - covered}
    metrics = result.metrics
    task_walls = [t.wall_s for t in metrics.tasks]
    covered = sum(s.t1 - s.t0 for s in spans if s.parent < 0 and s.thread != ctx.caller_thread)
    samples = [active for _, active in metrics.concurrency[1:]]
    return {
        "engine.plan_s": ctx.wall_s - metrics.total_wall_s,
        "engine.tasks": len(task_walls),
        "engine.task_s_p50": statistics.median(task_walls),
        "engine.task_s_max": max(task_walls),
        "engine.full_concurrency_ratio": _ratio(
            sum(1 for a in samples if a >= metrics.worker_count), len(samples)
        ),
        "engine.idle_ratio": 1.0 - _ratio(
            sum(task_walls), metrics.total_wall_s * metrics.worker_count
        ),
        "engine.reported_cpu_s": metrics.sum_cpu_s,
        "engine.reported_read_s": metrics.sum_read_s,
        "engine.reported_decompress_s": metrics.sum_decompress_s,
        "engine.unaccounted_s": sum(task_walls) - covered,
    }
