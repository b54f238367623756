"""Tests of the benchmark itself: the oracle's verifiers, the retry counter and the tracer."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from treeduce import bench, engine, treefile
from treeduce.treefile import ColumnChunk

from perfbench import oracle, run, workloads
from perfbench.tracer import JobContext, RetryCounter, Tracer, job_layer_metrics

EVENTS, FILES, PARTITION = 4096, 2, 2048


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> list[str]:
    out = tmp_path_factory.mktemp("perfbench-data")
    manifest = bench.generate(bench.GenSpec(seed=3, n_events=EVENTS, n_files=FILES), out)
    return manifest.file_paths(out)


@pytest.fixture(scope="module")
def expected(dataset) -> oracle.Expected:
    return oracle.expected_outputs(dataset, PARTITION)


def _reduce(dataset, out: Path, fault_hook=None) -> engine.RunResult:
    job = engine.JobSpec(
        inputs=dataset,
        tree=oracle.TREE,
        keep_columns=list(oracle.KEEP),
        skim=oracle.SKIM,
        derived=list(oracle.DERIVED),
        output=str(out),
        partition_entries=PARTITION,
    )
    return engine.run(job, engine.EngineConfig(executors=1, cores_per_executor=2), fault_hook=fault_hook)


def _hist(dataset, tmp_path: Path) -> str:
    from treeduce import cli

    cfg = tmp_path / "job.cfg"
    cfg.write_text(workloads.job_file_text(dataset, str(tmp_path / "out"), PARTITION))
    csv = tmp_path / "h.csv"
    assert cli.main(["hist", "--job", str(cfg), "--spec", oracle.HIST_SPEC, "--out", str(csv)]) == 0
    return csv.read_text()


def test_oracle_matches_engine_and_hist(dataset, expected, tmp_path):
    assert expected.n_events == EVENTS * FILES
    assert 0 < expected.kept < expected.n_events
    assert len(expected.kept_per_task) == FILES * EVENTS // PARTITION
    result = _reduce(dataset, tmp_path / "out")
    oracle.verify_parts(result.manifest.paths(), expected)
    oracle.verify_hist_csv(_hist(dataset, tmp_path), expected)


def test_verifier_rejects_one_changed_value(dataset, expected, tmp_path):
    result = _reduce(dataset, tmp_path / "out")
    victim = next(e.path for e in result.manifest.entries if e.entries > 0)
    with treefile.open_file(victim) as reader:
        columns = {name: reader.read_column(oracle.TREE, name) for name in reader.tree().branches}
    met = columns["MET"].values.copy()
    met[0] = np.nextafter(met[0], np.inf)
    columns["MET"] = ColumnChunk(met)
    treefile.write_tree(victim, oracle.TREE, columns)
    with pytest.raises(oracle.VerifyError, match="MET"):
        oracle.verify_parts(result.manifest.paths(), expected)


def test_verifier_rejects_one_wrong_bin_count(dataset, expected, tmp_path):
    lines = _hist(dataset, tmp_path).splitlines()
    k = 1 + int(np.argmax(expected.hist_entries[: oracle.HIST_NUM]))
    low, high, entries = lines[k].split(",")
    lines[k] = f"{low},{high},{float(entries) + 1}"
    with pytest.raises(oracle.VerifyError, match=f"row {k - 1}"):
        oracle.verify_hist_csv("\n".join(lines) + "\n", expected)


def test_retry_counter_counts_attempts_after_the_first(dataset, expected, tmp_path):
    clean = RetryCounter()
    _reduce(dataset, tmp_path / "clean", clean)
    assert clean.retries == 0

    def fail_once(task, attempt):
        if task.task_id == 0 and attempt == 1:
            raise OSError("injected")

    faulty = RetryCounter(fail_once)
    result = _reduce(dataset, tmp_path / "faulty", faulty)
    assert faulty.retries == 1
    oracle.verify_parts(result.manifest.paths(), expected)


def test_tracer_counts_layers_and_restores_program(dataset, tmp_path):
    originals = (treefile.TreeFileReader.__init__, treefile.decompress_record,
                 engine.runner.open_file, treefile.TreeFileWriter.close)
    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        result = _reduce(dataset, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert originals == (treefile.TreeFileReader.__init__, treefile.decompress_record,
                         engine.runner.open_file, treefile.TreeFileWriter.close)

    ctx = JobContext(wall_s=result.metrics.total_wall_s, caller_thread=threading.get_ident(),
                     server_cpu_s=0.0, retries=0, result=result)
    m = job_layer_metrics(tracer.spans, ctx)
    n_tasks = FILES * EVENTS // PARTITION
    assert m["treefile.opens"] == FILES + n_tasks
    assert m["engine.tasks"] == n_tasks
    assert m["treefile.bytes_written"] == sum(
        Path(p).stat().st_size for p in result.manifest.paths())
    assert m["xrdlite.fetch_calls"] == m["xrdlite.connects"] == 0
    assert m["treefile.baskets_read"] > 0 and m["exprlang.eval_calls"] == 2 * n_tasks


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in workloads.PER_LAYER]
