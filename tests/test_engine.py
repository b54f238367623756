"""Reduction engine tests: planning, oracle equality, retries, metrics."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import open_connections, read_parts
from reference_interp import (
    arrays_match,
    chunks_match,
    events_from_columns,
    float_columns,
    reduce_events,
)
import treeduce
from treeduce import exprlang, histagg
from treeduce.bench.generate import DEMO_SKIM, DEMO_TREE, GenSpec, generate
from treeduce.engine import (
    EngineConfig,
    EngineError,
    JobSpec,
    Manifest,
    TaskFailure,
    fill,
    load_job_file,
    run,
)
from treeduce.engine import memory, runner
from treeduce.engine.metrics import SPANS
from treeduce.engine.planner import parse_job_exprs, tasks_from_counts
from treeduce.exprlang import parse
from treeduce.treefile import (
    DEFAULT_BASKET_ENTRIES,
    Codec,
    ColumnChunk,
    ColumnChunk as Chunk,
    TreeFileWriter,
    concat_files,
    open_file,
    write_tree,
)
from treeduce.xrdlite import ConnectionPool
from treeduce.xrdlite import protocol as P
from treeduce.xrdlite.server import _Handler

KEEP = ["MET", "Muon_pt"]
DERIVED = [("leading_pt", "max(Muon_pt)"), ("ht", "sum(Muon_pt)")]


def demo_reduction(data_dir, manifest, out, **overrides) -> JobSpec:
    options = {
        "inputs": manifest.file_paths(str(data_dir)),
        "tree": DEMO_TREE,
        "keep_columns": list(KEEP),
        "skim": DEMO_SKIM,
        "derived": list(DERIVED),
        "output": str(out),
        "partition_entries": 1500,
    }
    options.update(overrides)
    return JobSpec(**options)


@pytest.fixture(scope="module")
def demo_expected(demo_dataset):
    """Per-event reference reduction over the whole dataset."""
    data_dir, _, manifest = demo_dataset
    skim = parse(DEMO_SKIM)
    derived = [(name, parse(text)) for name, text in DERIVED]
    needed = ["MET", "Muon_pt", "nMuon"]
    rows = []
    for path in manifest.file_paths(str(data_dir)):
        with open_file(path) as reader:
            columns = {name: reader.read_column(DEMO_TREE, name) for name in needed}
        rows.extend(
            reduce_events(
                events_from_columns(columns), KEEP, skim, derived, float_columns(columns)
            )
        )
    met = np.array([r["MET"] for r in rows], dtype=np.float64)
    pt_lists = [r["Muon_pt"] for r in rows]
    pt = Chunk(
        values=np.array([x for v in pt_lists for x in v], dtype=np.float32),
        offsets=np.concatenate([[0], np.cumsum([len(v) for v in pt_lists])]).astype(np.int64),
    )
    leading = np.array([r["leading_pt"] for r in rows], dtype=np.float64)
    ht = np.array([r["ht"] for r in rows], dtype=np.float64)
    return {"MET": met, "Muon_pt": pt, "leading_pt": leading, "ht": ht, "n": len(rows)}


def assert_outputs_match_reference(result, expected):
    got = read_parts(result.manifest)
    assert result.manifest.total_entries == expected["n"]
    assert sorted(got) == ["MET", "Muon_pt", "ht", "leading_pt"]
    assert arrays_match(got["MET"].values, expected["MET"])
    assert np.array_equal(got["Muon_pt"].offsets, expected["Muon_pt"].offsets)
    assert arrays_match(got["Muon_pt"].values, expected["Muon_pt"].values)
    assert arrays_match(got["leading_pt"].values, expected["leading_pt"])
    assert arrays_match(got["ht"].values, expected["ht"])


# --- job specification ----------------------------------------------------------


def test_job_file_round_trip(tmp_path):
    text = """\
# nightly skim
input = data/a.trf
input = data/b.trf
tree = Events
keep = MET, Muon_pt
skim = "nMuon >= 2 && max(Muon_pt) > 20"
derive.leading_pt = 'max(Muon_pt)'
output = out/nightly
partition_entries = 4096
"""
    path = tmp_path / "job.txt"
    path.write_text(text)
    job = load_job_file(path)
    assert job.inputs == ["data/a.trf", "data/b.trf"]
    assert job.tree == "Events"
    assert job.keep_columns == ["MET", "Muon_pt"]
    assert job.skim == "nMuon >= 2 && max(Muon_pt) > 20"
    assert job.derived == [("leading_pt", "max(Muon_pt)")]
    assert job.output == "out/nightly"
    assert job.partition_entries == 4096


@pytest.mark.parametrize(
    "text",
    [
        "input = a.trf\nkeep = x\n",  # missing tree
        "input = a.trf\ntree = t\nkeep = x\ntree = u\n",  # duplicate key
        "input = a.trf\ntree = t\nkeep = x\ncolor = red\n",  # unknown key
        "input = a.trf\ntree = t\nkeep = x\nbroken line\n",
        "input = a.trf\ntree = t\nkeep = x\npartition_entries = many\n",
        "tree = t\nkeep = x\n",  # no inputs
        "input = a.trf\ntree = t\n",  # keeps nothing
    ],
)
def test_job_file_rejections(tmp_path, text):
    path = tmp_path / "job.txt"
    path.write_text(text)
    with pytest.raises(EngineError):
        load_job_file(path)


def test_job_spec_validation():
    with pytest.raises(EngineError):
        JobSpec(inputs=["a"], tree="t", keep_columns=["x"], derived=[("x", "1")])
    with pytest.raises(EngineError):
        JobSpec(inputs=["a"], tree="t", keep_columns=["x", "x"])
    with pytest.raises(EngineError):
        JobSpec(inputs=["a"], tree="t", keep_columns=["x"], partition_entries=0)
    with pytest.raises(EngineError):
        EngineConfig(executors=0)
    with pytest.raises(EngineError):
        EngineConfig(read_ahead=0)
    assert EngineConfig(executors=2, cores_per_executor=4).worker_count == 8


# --- planning --------------------------------------------------------------------


def test_tasks_split_each_input_by_ceil_division():
    job = JobSpec(inputs=["a", "b"], tree="t", keep_columns=["x"], partition_entries=4)
    tasks = tasks_from_counts(job, [10, 8])
    spans = [(t.input, t.entry_start, t.entry_stop) for t in tasks]
    assert spans == [
        ("a", 0, 4),
        ("a", 4, 8),
        ("a", 8, 10),
        ("b", 0, 4),
        ("b", 4, 8),
    ]
    assert [t.task_id for t in tasks] == list(range(5))
    assert runner.PartSink(job, parse_job_exprs(job)).columns == ("x",)
    assert tasks[2].n_entries == 2


def test_required_columns_includes_expression_refs():
    job = JobSpec(
        inputs=["a"],
        tree="t",
        keep_columns=["MET"],
        skim="nMuon >= 2",
        derived=[("lead", "max(Muon_pt)")],
    )
    assert runner.PartSink(job, parse_job_exprs(job)).columns == ("MET", "Muon_pt", "nMuon")
    # a column the sink reads only inside a node it shares with the skim is
    # not selected for it, but every task still reads it for the skim
    job.keep_columns, job.skim, job.derived = [], "max(Muon_pt) > 20", [("lead", "max(Muon_pt)")]
    sink = runner.PartSink(job, parse_job_exprs(job))
    assert (sink.columns, sink.selected) == (("Muon_pt",), ())


def test_plan_probes_entry_counts(demo_dataset, tmp_path):
    data_dir, spec, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=1000)
    tasks = []
    run(job, EngineConfig(), fault_hook=lambda task, attempt: tasks.append(task))
    assert len(tasks) == spec.n_files * -(-spec.n_events // 1000)
    assert sum(t.n_entries for t in tasks) == spec.n_files * spec.n_events
    assert runner.PartSink(job, parse_job_exprs(job)).columns == ("MET", "Muon_pt", "nMuon")


def test_plan_rejects_bad_jobs(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    inputs = manifest.file_paths(str(data_dir))
    engine = EngineConfig()
    cases = [
        {"tree": "NoSuchTree"},
        {"keep_columns": ["NoSuchBranch"]},
        {"skim": "MET"},  # not a bool
        {"skim": "Muon_pt > 20"},  # jagged skim
        {"skim": "nMuon >"},  # parse failure
        {"derived": [("pts", "Muon_pt * 2")]},  # jagged derived column
        {"derived": [("x", "ghost + 1")]},
    ]
    for i, overrides in enumerate(cases):
        out = tmp_path / f"o{i}"
        job = demo_reduction(data_dir, manifest, out, **overrides)
        with pytest.raises(EngineError):
            run(job, engine)
        assert not out.exists()  # refused while planning, before the output is made


def test_plan_rejects_schema_drift_between_inputs(tmp_path):
    write_tree(str(tmp_path / "a.trf"), "t", {"x": np.arange(4, dtype=np.int64)})
    write_tree(str(tmp_path / "b.trf"), "t", {"x": np.arange(4, dtype=np.int32)})
    job = JobSpec(
        inputs=[str(tmp_path / "a.trf"), str(tmp_path / "b.trf")],
        tree="t",
        keep_columns=["x"],
        output=str(tmp_path / "out"),
    )
    with pytest.raises(EngineError):
        run(job, EngineConfig())
    assert not (tmp_path / "out").exists()


# --- reduction correctness ----------------------------------------------------------


@pytest.mark.parametrize("workers", [(1, 1), (1, 2), (2, 4)])
def test_reduction_matches_reference(demo_dataset, demo_expected, tmp_path, workers):
    data_dir, _, manifest = demo_dataset
    executors, cores = workers
    job = demo_reduction(data_dir, manifest, tmp_path / "out")
    result = run(job, EngineConfig(executors=executors, cores_per_executor=cores))
    assert_outputs_match_reference(result, demo_expected)


def test_identity_reduction_is_bit_exact(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    inputs = manifest.file_paths(str(data_dir))
    keep = ["MET", "Muon_pt", "Muon_eta", "Muon_phi", "Muon_charge", "nMuon"]
    job = JobSpec(
        inputs=inputs,
        tree=DEMO_TREE,
        keep_columns=keep,
        skim=None,
        output=str(tmp_path / "out"),
        partition_entries=1700,
    )
    result = run(job, EngineConfig(executors=1, cores_per_executor=4))
    got = read_parts(result.manifest)
    per_branch = defaultdict(list)
    for path in inputs:
        with open_file(path) as reader:
            for name in keep:
                per_branch[name].append(reader.read_column(DEMO_TREE, name))
    for name in keep:
        original = ColumnChunk.concatenate(per_branch[name])
        assert got[name].values.dtype == original.values.dtype
        assert got[name].values.tobytes() == original.values.tobytes()
        if original.offsets is not None:
            assert np.array_equal(got[name].offsets, original.offsets)


def test_skim_false_writes_empty_parts(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out", skim="false")
    result = run(job, EngineConfig())
    assert result.manifest.total_entries == 0
    for entry in result.manifest.entries:
        with open_file(entry.path) as reader:
            tree = reader.tree(DEMO_TREE)
            assert tree.n_entries == 0
            assert sorted(tree.branches) == ["MET", "Muon_pt", "ht", "leading_pt"]


def test_derived_only_output(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(
        data_dir,
        manifest,
        tmp_path / "out",
        keep_columns=[],
        derived=[("nmu", "count(Muon_pt)")],
        skim=None,
    )
    result = run(job, EngineConfig(cores_per_executor=2))
    got = read_parts(result.manifest)
    assert list(got) == ["nmu"]
    assert got["nmu"].values.dtype == np.int64
    per_file = []
    for path in manifest.file_paths(str(data_dir)):
        with open_file(path) as reader:
            chunk = reader.read_column(DEMO_TREE, "Muon_pt")
            per_file.append(np.diff(chunk.offsets))
    assert np.array_equal(got["nmu"].values, np.concatenate(per_file))


def test_reduction_over_remote_inputs(demo_dataset, demo_expected, tmp_path, serve_dir):
    data_dir, _, manifest = demo_dataset
    server = serve_dir(data_dir)
    host, port = server.address
    job = demo_reduction(data_dir, manifest, tmp_path / "out", inputs=manifest.urls(host, port))
    result = run(job, EngineConfig(executors=1, cores_per_executor=4, read_ahead=65536))
    assert_outputs_match_reference(result, demo_expected)
    assert result.io.fetch_calls > 0
    assert result.io.bytes_fetched >= result.io.bytes_requested


def test_planned_remote_reads_fetch_exactly_the_baskets(demo_dataset, tmp_path, serve_dir):
    data_dir, _, manifest = demo_dataset
    server = serve_dir(data_dir)
    urls = manifest.urls(*server.address)
    runs = {
        "local": (manifest.file_paths(str(data_dir)), EngineConfig(cores_per_executor=2)),
        "planned": (urls, EngineConfig(cores_per_executor=2)),
        "windowed": (urls, EngineConfig(cores_per_executor=2, planned_reads=False)),
    }
    parts, results = {}, {}
    for name, (inputs, config) in runs.items():
        job = demo_reduction(data_dir, manifest, tmp_path / name, inputs=inputs)
        results[name] = result = run(job, config)
        parts[name] = [Path(p).read_bytes() for p in result.manifest.paths()]
    assert parts["planned"] == parts["local"] == parts["windowed"]
    planned, windowed = results["planned"].io, results["windowed"].io
    n_tasks = len(results["planned"].metrics.tasks)
    assert planned.amplification == 1.0
    assert planned.fetch_calls <= 2 * n_tasks
    # tasks no longer re-read the header and directory
    assert planned.bytes_fetched < windowed.bytes_requested < windowed.bytes_fetched


# --- connections ----------------------------------------------------------------------


@pytest.fixture
def pools(monkeypatch):
    """Every connection pool the engine makes, kept alive: only its own close closes it."""
    made = []

    class Kept(ConnectionPool):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(runner, "ConnectionPool", Kept)
    return made


def test_remote_runs_hold_one_connection_per_thread(demo_dataset, tmp_path, serve_dir, pools):
    data_dir, _, manifest = demo_dataset
    server = serve_dir(data_dir)
    urls = manifest.urls(*server.address)
    config = EngineConfig(cores_per_executor=4)
    local = run(demo_reduction(data_dir, manifest, tmp_path / "local"), config)
    local_csv = histagg.render(
        fill(demo_reduction(data_dir, manifest, tmp_path / "unused"), config,
             histagg.parse_hist_spec(HIST_SPEC)).aggregate
    )

    def remote(label, job_run):
        before = server.counters()
        out = job_run(demo_reduction(data_dir, manifest, tmp_path / label, inputs=urls))
        assert open_connections(server) == 0, label
        after = server.counters()
        n_tasks = len(out.metrics.tasks)
        # the planner's connection, and one per worker thread that ran a task
        assert after.connections_accepted - before.connections_accepted <= config.worker_count + 1
        for opcode in (P.OP_OPEN, P.OP_CLOSE):
            done = after.requests[opcode] - before.requests.get(opcode, 0)
            assert done == n_tasks + len(urls), (label, opcode)
        return out

    result = remote("reduce", lambda job: run(job, config))
    assert [Path(p).read_bytes() for p in result.manifest.paths()] == [
        Path(p).read_bytes() for p in local.manifest.paths()
    ]
    filled = remote("hist", lambda job: fill(job, config, histagg.parse_hist_spec(HIST_SPEC)))
    assert histagg.render(filled.aggregate) == local_csv
    assert len(pools) == 4


class _HangUpAfterFirstReadv(_Handler):
    """Answers a connection's first READV, then hangs up."""

    def _serve(self, sock, opcode, payload):
        return super()._serve(sock, opcode, payload) and opcode != P.OP_READV


class _HangUpOnSecondReadv(_Handler):
    """Hangs up on a connection's second READV instead of answering it."""

    def _serve(self, sock, opcode, payload):
        if opcode == P.OP_READV:
            self.readvs = getattr(self, "readvs", 0) + 1
            if self.readvs == 2:
                return False
        return super()._serve(sock, opcode, payload)


@pytest.mark.parametrize("handler", [_HangUpAfterFirstReadv, _HangUpOnSecondReadv])
def test_a_run_survives_a_server_that_drops_connections(
    demo_dataset, tmp_path, serve_dir, pools, handler
):
    data_dir, _, manifest = demo_dataset
    path = manifest.file_paths(str(data_dir))[0]
    server = serve_dir(data_dir)
    server._server.RequestHandlerClass = handler
    # one input, read by the planner in one READV: only the tasks meet the faults
    config = EngineConfig(cores_per_executor=2, read_ahead=os.path.getsize(path))
    local = run(demo_reduction(data_dir, manifest, tmp_path / "local", inputs=[path]), config)
    attempts = []
    lock = threading.Lock()

    def count_attempts(task, attempt):
        with lock:
            attempts.append(attempt)

    url = f"xrdl://{server.address[0]}:{server.address[1]}/{Path(path).name}"
    job = demo_reduction(data_dir, manifest, tmp_path / "remote", inputs=[url])
    result = run(job, config, fault_hook=count_attempts)
    assert [Path(p).read_bytes() for p in result.manifest.paths()] == [
        Path(p).read_bytes() for p in local.manifest.paths()
    ]
    n_tasks = len(result.metrics.tasks)
    retries = attempts.count(2)
    if handler is _HangUpAfterFirstReadv:
        # each task's CLOSE finds its connection gone, so the next task opens a fresh one
        assert retries == 0
    else:
        # a thread's later tasks meet a connection that had its READV; their retries open fresh ones
        assert n_tasks - config.worker_count <= retries < n_tasks
    # the planner's connection, and one per task that read
    assert server.counters().connections_accepted == 1 + n_tasks
    assert open_connections(server) == 0


def test_a_run_closes_its_connections_when_it_raises(demo_dataset, tmp_path, serve_dir, pools):
    data_dir, _, manifest = demo_dataset
    server = serve_dir(data_dir)
    urls = manifest.urls(*server.address)
    config = EngineConfig(cores_per_executor=4)

    def fail_task_1(task, attempt):
        if task.task_id == 1:
            raise EngineError("deterministic failure")

    job = demo_reduction(data_dir, manifest, tmp_path / "out", inputs=urls)
    with pytest.raises(TaskFailure):
        run(job, config, fault_hook=fail_task_1)
    assert open_connections(server) == 0
    with pytest.raises(TaskFailure):
        fill(job, config, histagg.parse_hist_spec(HIST_SPEC), fault_hook=fail_task_1)
    assert open_connections(server) == 0
    bad = demo_reduction(data_dir, manifest, tmp_path / "bad", inputs=urls, keep_columns=["Nope"])
    with pytest.raises(EngineError, match="required column 'Nope' missing"):
        run(bad, config)
    assert open_connections(server) == 0
    assert server.counters().requests[P.OP_OPEN] == server.counters().requests[P.OP_CLOSE]
    assert len(pools) == 3


def test_remote_input_changed_since_planning_fails_without_retry(demo_dataset, tmp_path, serve_dir):
    data_dir, _, manifest = demo_dataset
    (tmp_path / "input.trf").write_bytes(Path(manifest.file_paths(str(data_dir))[0]).read_bytes())
    server = serve_dir(tmp_path)
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            if not attempts:
                with open(tmp_path / "input.trf", "ab") as fh:
                    fh.write(b"appended after planning")
            attempts.append(attempt)

    url = f"xrdl://{server.address[0]}:{server.address[1]}/input.trf"
    job = demo_reduction(data_dir, manifest, tmp_path / "out", inputs=[url])
    with pytest.raises(TaskFailure) as exc:
        run(job, EngineConfig(cores_per_executor=2), fault_hook=fault_hook)
    # every task opened its own handle, so every task saw the new length
    assert len(exc.value.failures) == len(attempts)
    assert all("CorruptFileError" in reason for _, reason in exc.value.failures)
    assert attempts == [1] * len(attempts)


def test_expressions_are_parsed_and_typechecked_once_per_run(
    demo_dataset, tmp_path, monkeypatch
):
    data_dir, _, manifest = demo_dataset
    calls = {"parse": 0, "typecheck": 0}
    depth = [0]
    parse, typecheck = exprlang.parse, exprlang.typecheck

    def counting_parse(text):
        calls["parse"] += 1
        return parse(text)

    def counting_typecheck(expr, schema):
        # typecheck recurses through the module name; count outermost calls
        calls["typecheck"] += depth[0] == 0
        depth[0] += 1
        try:
            return typecheck(expr, schema)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exprlang, "parse", counting_parse)
    monkeypatch.setattr(exprlang, "typecheck", counting_typecheck)
    job = demo_reduction(data_dir, manifest, tmp_path / "out")
    run(job, EngineConfig(cores_per_executor=2))
    n_exprs = 1 + len(DERIVED)
    assert calls == {"parse": n_exprs, "typecheck": n_exprs}


# --- faults ---------------------------------------------------------------------------


def test_transient_fault_is_retried_once(demo_dataset, demo_expected, tmp_path):
    data_dir, _, manifest = demo_dataset
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            attempts.append((task.task_id, attempt))
        if task.task_id == 2 and attempt == 1:
            raise OSError("simulated transient read failure")

    job = demo_reduction(data_dir, manifest, tmp_path / "out")
    result = run(job, EngineConfig(cores_per_executor=4), fault_hook=fault_hook)
    assert_outputs_match_reference(result, demo_expected)
    assert (2, 1) in attempts and (2, 2) in attempts
    # the failed attempt must not double-count metrics
    planned = tasks_from_counts(job, [f.entries for f in manifest.files])
    assert sorted(m.task_id for m in result.metrics.tasks) == [t.task_id for t in planned]


def test_persistent_faults_raise_task_failure(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset

    def fault_hook(task, attempt):
        if task.task_id in (1, 3):
            raise OSError("simulated permanent failure")

    job = demo_reduction(data_dir, manifest, tmp_path / "out")
    with pytest.raises(TaskFailure) as exc:
        run(job, EngineConfig(cores_per_executor=2), fault_hook=fault_hook)
    assert [task_id for task_id, _ in exc.value.failures] == [1, 3]


def test_deterministic_error_is_not_retried(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            attempts.append(attempt)

    out = tmp_path / "out"
    job = demo_reduction(
        data_dir, manifest, out, skim=None, derived=[("bad", "nMuon / 0")], partition_entries=4096
    )
    with pytest.raises(TaskFailure) as exc:
        run(job, EngineConfig(cores_per_executor=2), fault_hook=fault_hook)
    n_tasks = len(tasks_from_counts(job, [f.entries for f in manifest.files]))
    assert sorted(task_id for task_id, _ in exc.value.failures) == list(range(n_tasks))
    assert all("integer division by zero" in reason for _, reason in exc.value.failures)
    assert attempts == [1] * n_tasks
    assert not list(out.glob("part-*"))


def test_input_changed_since_planning_fails_without_retry(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    path = tmp_path / "input.trf"
    path.write_bytes(Path(manifest.file_paths(str(data_dir))[0]).read_bytes())
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            if not attempts:
                with open(path, "ab") as fh:
                    fh.write(b"appended after planning")
            attempts.append(attempt)

    out = tmp_path / "out"
    job = demo_reduction(data_dir, manifest, out, inputs=[str(path)])
    with pytest.raises(TaskFailure) as exc:
        run(job, EngineConfig(cores_per_executor=2), fault_hook=fault_hook)
    assert len(exc.value.failures) == len(attempts)
    assert all("CorruptFileError" in reason for _, reason in exc.value.failures)
    assert attempts == [1] * len(attempts)
    assert not list(out.glob("part-*"))


def _crashing_writer(crash):
    """A writer that raises after its baskets, before its directory, when ``crash(file_name)``."""

    class CrashingWriter(TreeFileWriter):
        def __init__(self, path, **kwargs):
            super().__init__(path, **kwargs)
            self.name = Path(path).name

        def end_tree(self):
            super().end_tree()
            if crash(self.name):
                raise OSError(f"simulated crash while writing {self.name}")

    return CrashingWriter


def test_failed_attempt_leaves_no_partial_part(demo_dataset, demo_expected, tmp_path, monkeypatch):
    data_dir, _, manifest = demo_dataset
    crashed = set()

    def crash_first_attempt(name):
        first = name not in crashed  # each name is written by one thread at a time
        crashed.add(name)
        return first

    monkeypatch.setattr(runner, "TreeFileWriter", _crashing_writer(crash_first_attempt))
    out = tmp_path / "out"
    result = run(demo_reduction(data_dir, manifest, out), EngineConfig(cores_per_executor=2))
    assert_outputs_match_reference(result, demo_expected)
    assert crashed == {f"part-{e.task_id:05d}.trf" for e in result.manifest.entries}
    assert not list(out.glob("*.tmp"))
    for entry in result.manifest.entries:
        with open_file(entry.path) as reader:
            reader.validate(deep=True)


def test_task_failing_twice_leaves_no_part(demo_dataset, tmp_path, monkeypatch):
    data_dir, _, manifest = demo_dataset
    crash_task_1 = _crashing_writer(lambda name: name.startswith("part-00001."))
    monkeypatch.setattr(runner, "TreeFileWriter", crash_task_1)
    out = tmp_path / "out"
    with pytest.raises(TaskFailure) as exc:
        run(demo_reduction(data_dir, manifest, out), EngineConfig(cores_per_executor=2))
    assert [task_id for task_id, _ in exc.value.failures] == [1]
    assert not (out / "part-00001.trf").exists()
    assert not list(out.glob("*.tmp"))
    assert (out / "part-00000.trf").exists()


# --- the output directory ----------------------------------------------------------------


def test_a_failed_rerun_leaves_no_manifest(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    out = tmp_path / "out"
    first = run(demo_reduction(data_dir, manifest, out, skim="MET > 10"), EngineConfig(1, 2))
    assert len(first.manifest.entries) == 10

    def fault_hook(task, attempt):
        if task.task_id == 8:
            raise EngineError("simulated corrupt input")

    with pytest.raises(TaskFailure):
        run(demo_reduction(data_dir, manifest, out, skim="MET > 1e6"), EngineConfig(1, 2),
            fault_hook=fault_hook)
    assert not (out / "manifest.jsonl").exists()
    assert not (out / "metrics.jsonl").exists()
    # every part left is the second run's: empty, and none for the failed task
    parts = sorted(p.name for p in out.iterdir())
    assert parts == [f"part-{i:05d}.trf" for i in range(10) if i != 8]
    for name in parts:
        with open_file(out / name) as reader:
            assert reader.tree(DEMO_TREE).n_entries == 0


def test_a_rerun_with_fewer_tasks_leaves_only_its_own_files(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    out = tmp_path / "out"
    run(demo_reduction(data_dir, manifest, out), EngineConfig(1, 2))
    kept = ["notes.txt", "part-00001.trf.bak", "part-1.trf", "xpart-00001.trf"]
    for name in kept + ["part-00099.trf.tmp"]:  # the last as a killed run would leave it
        (out / name).write_text("not the run's")
    result = run(demo_reduction(data_dir, manifest, out, partition_entries=6144), EngineConfig(1, 2))
    assert [e.task_id for e in result.manifest.entries] == [0, 1]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        kept + ["manifest.jsonl", "metrics.jsonl", "part-00000.trf", "part-00001.trf"]
    )
    assert all((out / name).read_text() == "not the run's" for name in kept)


def test_a_job_reading_its_own_output_is_refused(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    out = tmp_path / "out"
    first = run(demo_reduction(data_dir, manifest, out), EngineConfig(1, 2))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    job = JobSpec(
        inputs=[str(out / "part-00003.trf")],
        tree=DEMO_TREE,
        keep_columns=["MET"],
        output=str(out),
    )
    with pytest.raises(EngineError, match="part-00003.trf is a file the run deletes"):
        run(job, EngineConfig(1, 2))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert read_parts(first.manifest)["MET"].n_entries == first.manifest.total_entries


# --- output size -------------------------------------------------------------------------


def test_part_files_use_shuffle_and_beat_deflate(tmp_path):
    data_dir = tmp_path / "data"
    manifest = generate(GenSpec(seed=5, n_events=32768, n_files=1), data_dir)
    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=16384)
    result = run(job, EngineConfig(cores_per_executor=2))
    part_bytes = deflate_bytes = 0
    for entry in result.manifest.entries:
        with open_file(entry.path) as reader:
            for branch in reader.tree(DEMO_TREE).branches.values():
                assert {b.codec for b in branch.baskets} <= {Codec.DELTA_PLANES, Codec.NONE}
        rewritten = tmp_path / f"deflate-{entry.task_id}.trf"
        concat_files([entry.path], rewritten, codec=Codec.DEFLATE)
        part_bytes += Path(entry.path).stat().st_size
        deflate_bytes += rewritten.stat().st_size
    assert part_bytes <= 0.9 * deflate_bytes


@pytest.fixture(scope="module")
def unskimmed_parts(tmp_path_factory):
    """Part files of an unskimmed reduction whose first task keeps exactly
    ``DEFAULT_BASKET_ENTRIES`` entries and whose second keeps 100."""
    base = tmp_path_factory.mktemp("one-basket")
    manifest = generate(GenSpec(seed=5, n_events=DEFAULT_BASKET_ENTRIES + 100, n_files=1), base / "data")
    job = demo_reduction(
        base / "data", manifest, base / "out", skim=None, partition_entries=DEFAULT_BASKET_ENTRIES
    )
    result = run(job, EngineConfig(cores_per_executor=2))
    assert [e.entries for e in result.manifest.entries] == [DEFAULT_BASKET_ENTRIES, 100]
    return base, result.manifest


def test_a_task_writes_one_basket_per_branch(unskimmed_parts):
    _, manifest = unskimmed_parts
    for entry in manifest.entries:
        with open_file(entry.path) as reader:
            branches = reader.tree(DEMO_TREE).branches
            assert set(branches) == set(KEEP) | {name for name, _ in DERIVED}
            for branch in branches.values():
                assert [(b.first_entry, b.n_entries) for b in branch.baskets] == [(0, entry.entries)]


def test_part_files_rewritten_in_smaller_baskets_decode_alike(unskimmed_parts):
    base, manifest = unskimmed_parts
    for entry in manifest.entries:
        rewritten = base / f"small-baskets-{entry.task_id}.trf"
        concat_files([entry.path], rewritten, basket_entries=8192)
        with open_file(entry.path) as part, open_file(rewritten) as small:
            for name, branch in small.tree(DEMO_TREE).branches.items():
                starts = range(0, entry.entries, 8192)
                assert [b.first_entry for b in branch.baskets] == list(starts)
                got, want = small.read_column(DEMO_TREE, name), part.read_column(DEMO_TREE, name)
                assert got.values.tobytes() == want.values.tobytes()
                assert (got.offsets is None) == (want.offsets is None)
                if want.offsets is not None:
                    assert np.array_equal(got.offsets, want.offsets)


# --- histogram filling ----------------------------------------------------------------

HIST_SPEC = "bin(20, 0, 100, 'max(Muon_pt)')"


def test_fill_retries_a_transient_fault_without_double_counting(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out")
    clean = fill(job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(HIST_SPEC))
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            attempts.append((task.task_id, attempt))
        if task.task_id == 2 and attempt == 1:
            raise OSError("simulated transient read failure")

    faulty = fill(
        job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(HIST_SPEC),
        fault_hook=fault_hook,
    )
    assert (2, 1) in attempts and (2, 2) in attempts
    assert histagg.render(faulty.aggregate) == histagg.render(clean.aggregate)
    assert faulty.aggregate.entries == clean.metrics.entries_out > 0
    assert sorted(m.task_id for m in faulty.metrics.tasks) == list(range(len(clean.metrics.tasks)))
    assert not (tmp_path / "out").exists()


def test_fill_merges_every_partial_under_thread_contention(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=256)
    serial = fill(job, EngineConfig(), histagg.parse_hist_spec(HIST_SPEC))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        contended = fill(
            job, EngineConfig(executors=2, cores_per_executor=4), histagg.parse_hist_spec(HIST_SPEC)
        )
    finally:
        sys.setswitchinterval(interval)
    assert len(contended.metrics.tasks) == len(serial.metrics.tasks) == 48
    assert contended.aggregate.entries == serial.metrics.entries_out
    assert histagg.render(contended.aggregate) == histagg.render(serial.aggregate)


def test_fill_fetches_exactly_the_skim_and_aggregator_baskets(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    inputs = manifest.file_paths(str(data_dir))
    # baskets hold 1024 entries, so 2048-entry tasks read each basket once
    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=2048)
    result = fill(job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(HIST_SPEC))
    needed = exprlang.column_refs(parse(DEMO_SKIM)) | {"Muon_pt"}
    assert needed == {"nMuon", "Muon_pt"}  # not the job's kept MET
    stored = 0
    for path in inputs:
        with open_file(path) as reader:
            for name in needed:
                stored += sum(b.stored_len for b in reader.tree(DEMO_TREE).branches[name].baskets)
    assert len(result.metrics.tasks) == 6
    assert result.io.bytes_fetched == stored


# --- values the skim and the sink share ------------------------------------------------

# name: (skim, expression the sink evaluates)
SHARING_CASES = {
    "flat fold": (DEMO_SKIM, "max(Muon_pt)"),
    "jagged inner node": ("max(Muon_pt * 2) > 40", "min(Muon_pt * 2)"),
    "different spacing": ("nMuon>=2&&max( Muon_pt )>20", "max(Muon_pt)"),
    "column inside and outside": (DEMO_SKIM, "max(Muon_pt) + sum(Muon_pt)"),
    "no skim": (None, "max(Muon_pt)"),
    "keeps no entry": ("max(Muon_pt) > 1e9", "max(Muon_pt) * 2"),
}
# name: (skim, histogram spec)
HIST_SHARING_CASES = {
    name: (skim, f"bin(10, 0, 100, '{text}')") for name, (skim, text) in SHARING_CASES.items()
}
HIST_SHARING_CASES["nested child only"] = (DEMO_SKIM, "bin(4, 0, 8, 'nMuon', sum('max(Muon_pt)'))")
HIST_SHARING_CASES["nested bin child"] = (
    "max(Muon_pt * 2) > 40", "bin(3, 0, 6, 'nMuon', bin(5, 0, 100, 'min(Muon_pt * 2)'))"
)


def without_sharing(monkeypatch):
    """From here on, sinks evaluate their expressions whole, on selected columns."""
    monkeypatch.setattr(exprlang, "shared_nodes", lambda skim, exprs: frozenset())


@pytest.mark.parametrize("case", sorted(SHARING_CASES))
def test_reduce_with_shared_values_is_bit_identical(demo_dataset, tmp_path, monkeypatch, case):
    data_dir, _, manifest = demo_dataset
    skim, text = SHARING_CASES[case]
    job = demo_reduction(data_dir, manifest, tmp_path / "shared", skim=skim, derived=[("q", text)])
    assert bool(runner.PartSink(job, parse_job_exprs(job)).shared) == (skim is not None)
    got = read_parts(run(job, EngineConfig(cores_per_executor=2)).manifest)
    without_sharing(monkeypatch)
    job.output = str(tmp_path / "plain")
    want = read_parts(run(job, EngineConfig(cores_per_executor=2)).manifest)
    assert sorted(got) == sorted(want) == ["MET", "Muon_pt", "q"]
    for name in want:
        assert chunks_match(got[name], want[name])


@pytest.mark.parametrize("case", sorted(HIST_SHARING_CASES))
def test_fill_with_shared_values_is_bit_identical(demo_dataset, tmp_path, monkeypatch, case):
    data_dir, _, manifest = demo_dataset
    skim, spec = HIST_SHARING_CASES[case]
    job = demo_reduction(data_dir, manifest, tmp_path / "out", skim=skim)
    sink = runner.FillSink(histagg.parse_hist_spec(spec), parse_job_exprs(job).skim)
    assert bool(sink.shared) == (skim is not None)
    got = fill(job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(spec))
    without_sharing(monkeypatch)
    want = fill(job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(spec))
    assert got.aggregate == want.aggregate
    assert histagg.render(got.aggregate) == histagg.render(want.aggregate)


def test_demo_fill_selects_no_column(demo_dataset, tmp_path, monkeypatch):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=768)
    exprs = parse_job_exprs(job)
    sink = runner.FillSink(histagg.parse_hist_spec(HIST_SPEC), exprs.skim)
    assert sink.selected == ()
    assert sink.shared == {parse("max(Muon_pt)")}
    assert runner.PartSink(job, exprs).selected == ("MET", "Muon_pt")  # kept, so still selected
    selected_jagged = []
    real_select = ColumnChunk.select

    def counting_select(chunk, mask):
        selected_jagged.append(chunk.is_jagged)
        return real_select(chunk, mask)

    monkeypatch.setattr(ColumnChunk, "select", counting_select)
    result = fill(job, EngineConfig(cores_per_executor=2), histagg.parse_hist_spec(HIST_SPEC))
    assert len(result.metrics.tasks) == 16
    # each task selects the skim's flat max(Muon_pt) values and no column
    assert selected_jagged == [False] * 16


def test_reduce_folds_a_shared_max_once_per_task(demo_dataset, tmp_path, monkeypatch):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(
        data_dir, manifest, tmp_path / "out", derived=[("leading_pt", "max(Muon_pt)")],
        partition_entries=768,
    )
    folds = []
    real_fold = exprlang._fold_extremum

    def counting_fold(val, op):
        folds.append(op)
        return real_fold(val, op)

    monkeypatch.setattr(exprlang, "_fold_extremum", counting_fold)
    result = run(job, EngineConfig(cores_per_executor=2))
    assert len(result.metrics.tasks) == 16
    assert len(folds) == 16


def test_error_in_a_shared_node_fails_the_task_without_retry(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    attempts = []
    lock = threading.Lock()

    def fault_hook(task, attempt):
        with lock:
            attempts.append(attempt)

    job = demo_reduction(
        data_dir, manifest, tmp_path / "out", skim="nMuon / 0 > 1", partition_entries=4096
    )
    agg = histagg.parse_hist_spec("bin(10, 0, 10, 'nMuon / 0')")
    assert runner.FillSink(agg, parse_job_exprs(job).skim).shared == {parse("nMuon / 0")}
    with pytest.raises(TaskFailure) as exc:
        fill(job, EngineConfig(cores_per_executor=2), agg, fault_hook=fault_hook)
    assert sorted(task_id for task_id, _ in exc.value.failures) == [0, 1, 2, 3]
    assert all("integer division by zero" in reason for _, reason in exc.value.failures)
    assert attempts == [1] * 4


# --- metrics ---------------------------------------------------------------------------


def test_metrics_files_and_accounting(demo_dataset, tmp_path):
    data_dir, spec, manifest = demo_dataset
    out = tmp_path / "out"
    job = demo_reduction(data_dir, manifest, out)
    result = run(job, EngineConfig(executors=2, cores_per_executor=2))
    metrics = result.metrics

    assert metrics.worker_count == 4
    assert metrics.entries_in == spec.n_files * spec.n_events
    assert metrics.entries_out == result.manifest.total_entries
    assert span_law_violations(metrics) == []
    assert metrics.sum_wall_s <= metrics.total_wall_s * metrics.worker_count * 1.5

    assert sorted(path.name for path in out.iterdir() if not path.name.startswith("part-")) == [
        "manifest.jsonl",
        "metrics.jsonl",
    ]

    manifest_path = out / "manifest.jsonl"
    restored = Manifest.read_jsonl(manifest_path)
    assert restored.paths() == result.manifest.paths()
    assert restored.total_entries == result.manifest.total_entries

    jsonl = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    kinds = {line["type"] for line in jsonl}
    assert {"task", "concurrency", "throughput", "summary"} <= kinds
    task_records = [line for line in jsonl if line["type"] == "task"]
    fields = {"type", "task_id", "wall_s", "spans", "entries_in", "entries_out", "bytes_fetched",
              "cpu_spans", "minor_faults"}
    assert [set(r) for r in task_records] == [fields] * len(metrics.tasks)
    assert [r["task_id"] for r in task_records] == list(range(len(metrics.tasks)))
    assert [r["spans"] for r in task_records] == [task.spans for task in metrics.tasks]
    assert [r["cpu_spans"] for r in task_records] == [task.cpu_spans for task in metrics.tasks]
    assert [r["minor_faults"] for r in task_records] == [t.minor_faults for t in metrics.tasks]
    (summary,) = [line for line in jsonl if line["type"] == "summary"]
    assert list(summary["span_s"]) == list(SPANS)
    assert list(summary["cpu_span_s"]) == list(SPANS)
    assert summary["minor_faults"] == metrics.minor_faults
    assert sum(r["entries_out"] for r in task_records) == metrics.entries_out

    # concurrency samples start and end idle
    series = metrics.concurrency
    assert series[0][1] == 0
    assert series[-1][1] == 0
    assert all(0 <= active <= metrics.worker_count for _, active in series)
    table = metrics.summary_table().splitlines()
    assert [line.split()[0] for line in table[2 : 2 + len(SPANS)]] == list(SPANS)
    assert table[-1].endswith(f", {metrics.minor_faults} minor page faults")


def span_law_violations(metrics) -> list[int]:
    """Ids of tasks whose spans are not exactly SPANS, >= 0 and summing to wall_s."""
    return [
        task.task_id
        for task in metrics.tasks
        if tuple(task.spans) != SPANS
        or min(task.spans.values()) < 0.0
        or not math.isclose(sum(task.spans.values()), task.wall_s, rel_tol=1e-9)
    ]


@pytest.mark.parametrize("planned_reads", [True, False])
def test_fault_hook_time_is_unaccounted_not_fetch(demo_dataset, tmp_path, planned_reads):
    data_dir, _, manifest = demo_dataset

    def slow_start(task, attempt):
        time.sleep(0.02)

    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=3072)
    config = EngineConfig(cores_per_executor=2, planned_reads=planned_reads)
    metrics = run(job, config, fault_hook=slow_start).metrics
    assert len(metrics.tasks) == 4
    assert span_law_violations(metrics) == []
    for task in metrics.tasks:
        assert task.spans["unaccounted"] >= 0.02
        assert task.spans["fetch"] < 0.02


def test_timeline_sits_on_the_sample_grid(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset

    def slow_start(task, attempt):
        time.sleep(0.01)  # long enough for several grid points per task

    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=512)
    config = EngineConfig(cores_per_executor=2)
    result = run(job, config, fault_hook=slow_start)
    metrics = result.metrics
    assert len(metrics.tasks) >= 4 * metrics.worker_count

    interval = metrics.total_wall_s / runner.TIMELINE_STEPS
    grid = [k * interval for k in range(runner.TIMELINE_STEPS + 2)]
    for series in (metrics.concurrency, metrics.throughput):
        assert [t for t, _ in series] == grid
    active = [a for _, a in metrics.concurrency]
    assert active[0] == 0 and active[-1] == 0
    assert max(active) == metrics.worker_count
    assert min(active) >= 0

    rates = [rate for _, rate in metrics.throughput]
    assert rates[0] == 0.0 and min(rates) >= 0.0
    assert sum(rates[1:]) * interval == pytest.approx(result.io.bytes_fetched, rel=1e-9)
    assert result.io.bytes_fetched == metrics.bytes_fetched > 0

    # a run a fraction as long has a timeline of as many points
    short = run(demo_reduction(data_dir, manifest, tmp_path / "short"), config).metrics
    assert short.total_wall_s < metrics.total_wall_s / 2
    assert len(short.concurrency) == len(short.throughput) == len(grid)


def test_timeline_counts_task_spans_and_fetch_completions():
    step = 2.0**-7  # the interval of a run TIMELINE_STEPS of them long, exact in binary
    spans = [(10 * step, 50 * step), (20.5 * step, 30 * step), (90 * step, 100 * step)]
    fetches = [(25 * step, 100), (40 * step, 50), (95.5 * step, 7)]
    concurrency, throughput = runner._timeline(spans, fetches, runner.TIMELINE_STEPS * step)
    assert [t for t, _ in concurrency] == [k * step for k in range(runner.TIMELINE_STEPS + 2)]
    active = [a for _, a in concurrency]
    # a span starting on a grid time counts there; one stopping there does not
    assert [active[k] for k in (9, 10, 20, 21, 29, 30, 50, 90, 100, 101)] == [
        0, 1, 1, 2, 2, 1, 0, 1, 0, 0
    ]
    rates = {k: rate for k, (_, rate) in enumerate(throughput) if rate}
    # a fetch counts in the interval it completed in, one ending on a grid time there
    assert rates == {25: 100 / step, 40: 50 / step, 96: 7 / step}
    # a zero-length run keeps a finite grid
    concurrency, throughput = runner._timeline([], [], 0.0)
    assert len(concurrency) == runner.TIMELINE_STEPS + 2
    assert all(math.isfinite(t) and rate == 0.0 for t, rate in throughput)


def test_cpu_spans_count_on_cpu_time_only(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset

    def slow_start(task, attempt):
        time.sleep(0.02)  # wall time in the unaccounted span, but no CPU

    job = demo_reduction(data_dir, manifest, tmp_path / "out", partition_entries=3072)
    metrics = run(job, EngineConfig(cores_per_executor=2), fault_hook=slow_start).metrics
    assert len(metrics.tasks) == 4
    for task in metrics.tasks:
        assert tuple(task.cpu_spans) == SPANS
        assert min(task.cpu_spans.values()) >= 0.0
        # one thread cannot be on a CPU longer than the wall time that passed
        for name in SPANS:
            assert task.cpu_spans[name] <= task.spans[name] + 1e-4, (task.task_id, name)
        assert task.cpu_spans["unaccounted"] < 0.01 <= task.spans["unaccounted"]
        assert task.cpu_spans["decode"] > 0.0 and task.cpu_spans["sink"] > 0.0
        assert task.minor_faults >= 0
    assert list(metrics.cpu_span_s) == list(SPANS)
    assert metrics.minor_faults == sum(task.minor_faults for task in metrics.tasks)


def test_runs_of_one_worker_count_share_their_threads(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    threads = [set(), set()]
    for i, seen in enumerate(threads):
        job = demo_reduction(data_dir, manifest, tmp_path / f"out{i}", partition_entries=512)
        run(job, EngineConfig(cores_per_executor=2), fault_hook=lambda *_: seen.add(threading.get_ident()))
    assert 1 <= len(threads[1]) and threads[1] <= threads[0] and len(threads[0]) <= 2
    assert threading.get_ident() not in threads[0]


# Runs of 1, 2, 4 and 8 workers, twice round, in one fresh process: whether
# each run found its count's pool of the first round, and how many worker
# threads are alive at the end. Each task sleeps, so that no worker is idle
# before its run has handed out every task and the pool has made all its
# threads.
_COUNTS_TWICE = """
import json, sys, threading, time
from dataclasses import replace
from treeduce.engine import EngineConfig, JobSpec, memory, run
job = JobSpec(**json.loads(sys.argv[1]))
first, same = {}, []
for rnd in range(2):
    for count in (1, 2, 4, 8):
        run(replace(job, output=f"{job.output}{rnd}-{count}"), EngineConfig(cores_per_executor=count),
            fault_hook=lambda task, attempt: time.sleep(0.01))
        pool = memory.worker_pool(count)
        same.append(first.setdefault(count, pool) is pool)
threads = [t for t in threading.enumerate() if t.name.startswith("treeduce-worker")]
print(json.dumps({"same": same, "threads": len(threads)}))
"""


def test_every_worker_count_keeps_its_pool(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    job = demo_reduction(data_dir, manifest, tmp_path / "out-", partition_entries=1024)
    assert len(job.inputs) * -(-manifest.files[0].entries // 1024) >= 8  # a task per thread
    env = dict(os.environ, PYTHONPATH=str(Path(treeduce.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTS_TWICE, json.dumps(asdict(job))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"same": [True] * 8, "threads": 1 + 2 + 4 + 8}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_jobs_on_threads_of_its_own(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    config = EngineConfig(cores_per_executor=2)
    run(demo_reduction(data_dir, manifest, tmp_path / "parent"), config)  # the pool has threads
    pid = os.fork()
    if pid == 0:  # the child: no pytest code may run here
        status = 1
        try:
            result = run(demo_reduction(data_dir, manifest, tmp_path / "child"), config)
            status = 0 if result.manifest.total_entries > 0 else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if waited[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's run hung: its pool has no threads")
    assert os.waitstatus_to_exitcode(waited[1]) == 0


@pytest.fixture(scope="module")
def quarter_million(tmp_path_factory):
    """One demo file of 4 x 65,536 entries: four full-size tasks of the benchmark's job."""
    out = tmp_path_factory.mktemp("quarter-million")
    manifest = generate(GenSpec(seed=5, n_events=4 * 65536, n_files=1), out)
    return out, manifest


# The job below twice in one fresh process, on one worker, printing the
# process's minor page faults during each run.
_TWO_RUNS = """
import json, resource, sys
from dataclasses import replace
from treeduce.engine import EngineConfig, JobSpec, memory, run
job = JobSpec(**json.loads(sys.argv[1]))
faults = []
for name in ("first", "second"):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = run(replace(job, output=job.output + name), EngineConfig(cores_per_executor=1))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"applied": memory.keep_task_memory(), "faults": faults,
                  "task_faults": result.metrics.minor_faults}))
"""

# Minor page faults of the second run at the commit before the allocator
# policy: 1,534, 1,816, 2,912 and 2,913 in four processes (Linux, glibc 2.36,
# numpy 2.4). The least of them is the base.
HEAD_SECOND_RUN_FAULTS = 1534


def test_a_second_run_keeps_its_task_memory_resident(quarter_million, tmp_path):
    """One worker, so both runs allocate alike: with two, which worker gets
    which task changes from run to run, and a worker's heap can still grow
    in the second run when it first meets a larger task."""
    if not memory.keep_task_memory():
        pytest.skip("the allocator policy needs glibc's mallopt")
    data_dir, manifest = quarter_million
    job = demo_reduction(data_dir, manifest, tmp_path / "out-", partition_entries=65536)
    env = dict(os.environ, PYTHONPATH=str(Path(treeduce.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_RUNS, json.dumps(asdict(job))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    first, second = got["faults"]
    assert got["applied"]
    assert got["task_faults"] <= second < HEAD_SECOND_RUN_FAULTS / 100 < first


@pytest.mark.parametrize("lookup", ["no-library", "no-mallopt"])
def test_outputs_do_not_depend_on_the_allocator_policy(demo_dataset, tmp_path, monkeypatch, lookup):
    data_dir, _, manifest = demo_dataset
    tuned = run(demo_reduction(data_dir, manifest, tmp_path / "tuned"), EngineConfig())

    def cdll(name):
        if lookup == "no-library":
            raise OSError("no C library")
        return object()  # a C library without mallopt

    monkeypatch.setattr(memory.ctypes, "CDLL", cdll)
    memory.keep_task_memory.cache_clear()
    try:
        assert memory.keep_task_memory() is False
        plain = run(demo_reduction(data_dir, manifest, tmp_path / "plain"), EngineConfig())
    finally:
        memory.keep_task_memory.cache_clear()  # the next run applies the policy again
    assert len(plain.manifest.paths()) == len(tuned.manifest.paths()) > 1
    for tuned_path, plain_path in zip(tuned.manifest.paths(), plain.manifest.paths()):
        assert Path(plain_path).read_bytes() == Path(tuned_path).read_bytes()


def test_worker_count_does_not_change_outputs(demo_dataset, tmp_path):
    data_dir, _, manifest = demo_dataset
    digests = []
    for i, cores in enumerate([1, 3]):
        job = demo_reduction(data_dir, manifest, tmp_path / f"out{i}")
        result = run(job, EngineConfig(cores_per_executor=cores))
        got = read_parts(result.manifest)
        digests.append({name: chunk.values.tobytes() for name, chunk in got.items()})
    assert digests[0] == digests[1]
