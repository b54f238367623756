"""The benchmark's workloads, their set-up, and the end-to-end and traced runs.

Every workload is a closed loop: one process runs one job at a time, and
the next job starts when the previous one returns. All three run the
README quick-start job on one generated demo dataset:

* ``reduce-local``  -- ``engine.run`` over local files; read, decompress,
  evaluate, encode, compress and write, with no network. The control for
  any ``xrdlite`` change.
* ``reduce-remote`` -- the same job over ``xrdl://`` inputs served by a
  ``treeduce serve`` child process, uncapped, 64 KiB read-ahead. Exercises
  connects, fetches and read-ahead geometry.
* ``hist-local``    -- ``treeduce hist`` over the local files; read and fill
  only, no encode, compress or write. The control for any write-path change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import treeduce
from treeduce import cli, engine, treefile

from . import oracle
from .tracer import JobContext, RetryCounter, Tracer, job_layer_metrics

WORKLOADS = ("reduce-local", "reduce-remote", "hist-local")
N_FILES = 4
EVENTS_PER_FILE = 262144
PARTITION_ENTRIES = 65536
READ_AHEAD = 65536
EXECUTORS, CORES_PER_EXECUTOR = 1, 2
# set-up is dominated by dataset generation (about 7 s), so an untraced run
# sets up this many times and reports the median; a traced run sets up once
SETUP_REPEATS = 3

# (name, unit, better, bound): what a user of the system sees, from untraced runs.
# Timings get the widest bound: on a shared 2-core VM the run-to-run spread
# of their medians reached 16% over ten seeds as other guests came and went.
END_TO_END = [
    ("events_per_s", "events/s", "higher", 0.25),
    ("cpu_s_per_mevent", "s/Mevent", "lower", 0.25),
    ("fetched_bytes_per_event", "B/event", "lower", 0.05),
    ("output_bytes_per_event", "B/event", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better): single layers, from traced runs only
PER_LAYER = [
    ("treefile.opens", "count", "lower"),
    ("treefile.open_s", "s", "lower"),
    ("treefile.baskets_read", "count", "lower"),
    ("treefile.decompress_s", "s", "lower"),
    ("treefile.decode_s", "s", "lower"),
    ("treefile.read_column_s", "s", "lower"),
    ("treefile.select_s", "s", "lower"),
    ("treefile.encode_s", "s", "lower"),
    ("treefile.compress_s", "s", "lower"),
    ("treefile.write_s", "s", "lower"),
    ("treefile.bytes_written", "B", "lower"),
    ("treefile.out_compress_ratio", "ratio", "higher"),
    ("exprlang.parse_calls", "count", "lower"),
    ("exprlang.typecheck_calls", "count", "lower"),
    ("exprlang.eval_calls", "count", "lower"),
    ("exprlang.eval_s", "s", "lower"),
    ("xrdlite.connects", "count", "lower"),
    ("xrdlite.rpcs", "count", "lower"),
    ("xrdlite.rpc_wait_s", "s", "lower"),
    ("xrdlite.fetch_calls", "count", "lower"),
    ("xrdlite.plan_fetch_calls", "count", "lower"),
    ("xrdlite.bytes_requested", "B", "lower"),
    ("xrdlite.bytes_fetched", "B", "lower"),
    ("xrdlite.amplification", "ratio", "lower"),
    ("xrdlite.cache_hit_ratio", "ratio", "higher"),
    ("xrdlite.server_cpu_s", "s", "lower"),
    ("engine.plan_s", "s", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.task_s_p50", "s", "lower"),
    ("engine.task_s_max", "s", "lower"),
    ("engine.full_concurrency_ratio", "ratio", "higher"),
    ("engine.idle_ratio", "ratio", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.reported_cpu_s", "s", "lower"),
    ("engine.reported_read_s", "s", "lower"),
    ("engine.reported_decompress_s", "s", "lower"),
    ("engine.unaccounted_s", "s", "lower"),
    ("histagg.fill_calls", "count", "lower"),
    ("histagg.fill_s", "s", "lower"),
    ("histagg.combine_calls", "count", "lower"),
    ("histagg.render_s", "s", "lower"),
    ("bench.generate_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def generate_dataset(root: Path, seed: int, data_dir: Path) -> float:
    """Write the demo dataset with ``treeduce generate`` in a child process; returns seconds."""
    shutil.rmtree(data_dir, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "treeduce.cli", "generate", "--seed", str(seed),
         "--events", str(EVENTS_PER_FILE), "--files", str(N_FILES), "--out", str(data_dir)],
        env=child_env(root), stdout=subprocess.DEVNULL, check=True, timeout=150,
    )
    return time.perf_counter() - t0


class Server:
    """A ``treeduce serve`` child process on a free local port."""

    def __init__(self, root: Path, data_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "treeduce.cli", "serve", "--root", str(data_dir),
             "--host", "127.0.0.1", "--port", "0"],
            env=child_env(root), stdout=subprocess.PIPE, text=True,
        )
        match = re.search(r" on ([\d.]+):(\d+)", self.proc.stdout.readline())
        if match is None:
            self.stop()
            raise RuntimeError("treeduce serve did not report its address")
        self.host, self.port = match.group(1), int(match.group(2))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def job_file_text(inputs: list[str], output: str, partition_entries: int = PARTITION_ENTRIES) -> str:
    lines = [f"input = {path}" for path in inputs]
    lines += [f"tree = {oracle.TREE}", f"keep = {', '.join(oracle.KEEP)}", f'skim = "{oracle.SKIM}"']
    lines += [f'derive.{name} = "{expr}"' for name, expr in oracle.DERIVED]
    lines += [f"output = {output}", f"partition_entries = {partition_entries}"]
    return "\n".join(lines) + "\n"


def _rchar() -> int:
    """Bytes this process has read through read(2)/pread(2) so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


@dataclass
class JobRecord:
    index: int
    warmup: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0  # this process, all threads
    server_cpu_s: float = 0.0
    fetched_bytes: int = 0
    output_bytes: int = 0
    out: str = ""
    result: object = None  # engine RunResult for reduce jobs
    filled: int | None = None  # events ``treeduce hist`` reports filling
    error: str | None = None


class Bench:
    """One workload's dataset, optional server, job file and job runner."""

    def __init__(self, workload: str, seed: int, root: Path, work_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.reduce = workload.startswith("reduce")
        self.remote = workload == "reduce-remote"
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.data_dir = work_dir / "data"
        self.job_cfg = work_dir / "job.cfg"
        self.server: Server | None = None
        self.records: list[JobRecord] = []

    @property
    def data_paths(self) -> list[str]:
        return [str(self.data_dir / f"demo-{i:05d}.trf") for i in range(N_FILES)]

    @property
    def n_events(self) -> int:
        return N_FILES * EVENTS_PER_FILE

    def setup(self) -> tuple[float, float]:
        """Generate, serve (remote only), write the job file, run one warm-up job.

        Returns (set-up seconds, generation seconds).
        """
        self.teardown()
        t0 = time.perf_counter()
        generate_s = generate_dataset(self.root, self.seed, self.data_dir)
        inputs = self.data_paths
        if self.remote:
            self.server = Server(self.root, self.data_dir)
            inputs = [
                f"xrdl://{self.server.host}:{self.server.port}/{Path(p).name}" for p in inputs
            ]
        self.job_cfg.write_text(job_file_text(inputs, str(self.work_dir / "out")))
        self.run_job(warmup=True)
        return time.perf_counter() - t0, generate_s

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_job(self, *, warmup: bool = False, fault_hook=None) -> JobRecord:
        rec = JobRecord(len(self.records), warmup)
        self.records.append(rec)
        server_cpu0 = self.server.cpu_s() if self.server else 0.0
        cpu0 = time.process_time()
        try:
            if self.reduce:
                self._reduce(rec, fault_hook)
            else:
                self._hist(rec)
        except Exception:  # a failed job is counted, not fatal to the run
            rec.error = traceback.format_exc(limit=3)
        rec.cpu_s = time.process_time() - cpu0
        rec.server_cpu_s = (self.server.cpu_s() - server_cpu0) if self.server else 0.0
        return rec

    def _reduce(self, rec: JobRecord, fault_hook) -> None:
        job = engine.load_job_file(self.job_cfg)
        rec.out = job.output = str(self.work_dir / f"job-{rec.index:04d}")
        config = engine.EngineConfig(
            executors=EXECUTORS, cores_per_executor=CORES_PER_EXECUTOR, read_ahead=READ_AHEAD
        )
        t0 = time.perf_counter()
        try:
            rec.result = engine.run(job, config, fault_hook=fault_hook)
        finally:
            rec.wall_s = time.perf_counter() - t0
        rec.fetched_bytes = rec.result.io.bytes_fetched
        rec.output_bytes = sum(os.path.getsize(p) for p in rec.result.manifest.paths())

    def _hist(self, rec: JobRecord) -> None:
        rec.out = str(self.work_dir / f"job-{rec.index:04d}.csv")
        argv = ["hist", "--job", str(self.job_cfg), "--spec", oracle.HIST_SPEC, "--out", rec.out]
        stdout = io.StringIO()
        rchar0 = _rchar()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                status = cli.main(argv)
        finally:
            rec.wall_s = time.perf_counter() - t0
        rec.fetched_bytes = _rchar() - rchar0
        if status != 0:
            raise RuntimeError(f"treeduce hist exited with {status}")
        match = re.search(r"filled (\d+) events", stdout.getvalue())
        rec.filled = int(match.group(1)) if match else None
        rec.output_bytes = os.path.getsize(rec.out)

    def verify(self, rec: JobRecord, exp: oracle.Expected) -> str | None:
        """None when the job's output matches the oracle, else the reason it does not."""
        if rec.error is not None:
            return rec.error
        try:
            if self.reduce:
                oracle.verify_parts(rec.result.manifest.paths(), exp)
            else:
                if rec.filled != exp.kept:
                    raise oracle.VerifyError(f"hist filled {rec.filled} events, expected {exp.kept}")
                oracle.verify_hist_csv(Path(rec.out).read_text(), exp)
        except (oracle.VerifyError, treefile.TreeFileError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def closed_loop(seconds: float, job) -> list[JobRecord]:
    """Run ``job()`` back to back until ``seconds`` have passed; at least once."""
    deadline = time.perf_counter() + seconds
    records = [job()]
    while time.perf_counter() < deadline:
        records.append(job())
    return records


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunOutput:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    provenance: dict
    failures: list[str] = field(default_factory=list)
    jobs: list[dict] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> RunOutput:
    out_dir = root / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, seed, root, work_dir)
    try:
        if trace:
            metrics, timed, setups = _traced(bench, seconds, out_dir)
        else:
            metrics, timed, setups = _untraced(bench, seconds)
        return _finish(bench, metrics, timed, setups, seconds, trace)
    finally:
        bench.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)


def _untraced(bench: Bench, seconds: float):
    """Set up SETUP_REPEATS times, each followed by an equal slice of the timed loop.

    The host's speed drifts over tens of seconds, so spreading the timed
    jobs over the whole run, rather than one stretch of it, steadies the
    run-to-run figures at no extra cost.
    """
    setups, timed = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(bench.setup())
        timed += closed_loop(seconds / SETUP_REPEATS, bench.run_job)
    n = bench.n_events
    metrics = {
        "events_per_s": statistics.median(n / r.wall_s for r in timed),
        "cpu_s_per_mevent": sum(r.cpu_s + r.server_cpu_s for r in timed) / (len(timed) * n / 1e6),
        "fetched_bytes_per_event": statistics.median(r.fetched_bytes / n for r in timed),
        "output_bytes_per_event": statistics.median(r.output_bytes / n for r in timed),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    return metrics, timed, setups


def _traced(bench: Bench, seconds: float, out_dir: Path):
    """Alternate untraced and traced jobs; per-layer metrics are medians over traced jobs."""
    setups = [bench.setup()]
    tracer = Tracer()
    caller_thread = threading.get_ident()
    plain: list[JobRecord] = []
    per_job: list[dict[str, float]] = []

    def pair() -> JobRecord:
        plain.append(bench.run_job())
        hook = RetryCounter() if bench.reduce else None
        tracer.job = len(bench.records)
        tracer.install()
        try:
            rec = bench.run_job(fault_hook=hook)
        finally:
            tracer.uninstall()
        ctx = JobContext(
            wall_s=rec.wall_s,
            caller_thread=caller_thread,
            server_cpu_s=rec.server_cpu_s,
            retries=hook.retries if hook else 0,
            result=rec.result,
        )
        spans = [s for s in tracer.spans if s.job == rec.index]
        per_job.append(job_layer_metrics(spans, ctx))
        return rec

    traced = closed_loop(seconds, pair)
    tracer.write_jsonl(str(out_dir / f"trace-{bench.workload}-seed{bench.seed}.jsonl"))
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    metrics["bench.generate_s"] = statistics.median(g for _, g in setups)
    metrics["trace.overhead_ratio"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    )
    return metrics, plain + traced, setups


def _finish(bench, metrics, timed, setups, seconds, trace) -> RunOutput:
    try:
        exp = oracle.expected_outputs(bench.data_paths, PARTITION_ENTRIES)
        oracle.check_seed(bench.seed, exp)
        reasons = {r.index: bench.verify(r, exp) for r in bench.records}
    except (oracle.VerifyError, treefile.TreeFileError) as exc:
        reasons = {r.index: f"oracle: {exc}" for r in bench.records}
    failures = [f"job {i}: {why}" for i, why in reasons.items() if why is not None]
    timed_failed = sum(1 for r in timed if reasons[r.index] is not None)
    specs = PER_LAYER if trace else END_TO_END
    units = {spec[0]: spec[1] for spec in specs}
    provenance = {
        "workload": bench.workload,
        "seed": bench.seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "jobs_per_run": len(timed),
        "setup_repeats": len(setups),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "treeduce": treeduce.__version__,
        "git_commit": git_commit(bench.root),
        "dataset_events": bench.n_events,
        "dataset_bytes": sum(os.path.getsize(p) for p in bench.data_paths),
        "failed_ratio": timed_failed / len(timed),
    }
    jobs = [
        {"index": r.index, "warmup": r.warmup, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
         "server_cpu_s": r.server_cpu_s, "fetched_bytes": r.fetched_bytes,
         "output_bytes": r.output_bytes, "ok": reasons[r.index] is None}
        for r in bench.records
    ]
    return RunOutput(
        correct=not failures,
        attempted=len(timed),
        failed=timed_failed,
        metrics={name: (float(metrics[name]), units[name]) for name in units},
        provenance=provenance,
        failures=failures,
        jobs=jobs,
    )


def write_result(root: Path, out: RunOutput) -> Path:
    p = out.provenance
    path = root / ".perfbench" / f"result-{p['workload']}-seed{p['seed']}-trace{p['trace']}.json"
    record = {
        "provenance": p,
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        "failures": out.failures,
        "jobs": out.jobs,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path
