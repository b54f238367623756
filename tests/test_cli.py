"""Command-line round trips on small datasets."""

from __future__ import annotations

import math
import signal
import time
from dataclasses import fields

import numpy as np
import pytest

from conftest import read_parts, serve_process
from reference_interp import (
    arrays_match,
    events_from_columns,
    float_columns,
    reduce_events,
    route_value,
)
from treeduce import cli
from treeduce.bench.experiments import ExperimentSpec
from treeduce.bench.generate import DEMO_TREE, DatasetManifest, GenSpec, generate
from treeduce.cli import build_parser, main, parse_bytes
from treeduce.engine import EngineConfig, EngineError, Manifest, fill, load_job_file, usable_cores
from treeduce.exprlang import parse
from treeduce.histagg import HistError, parse_hist_spec
from treeduce.treefile import Codec, ColumnChunk, open_file, write_tree
from treeduce.xrdlite import XrdConnection


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0),
        ("1024", 1024),
        ("2k", 2000),
        ("3m", 3_000_000),
        ("1g", 1_000_000_000),
        ("64Ki", 65536),
        ("32Mi", 32 << 20),
        ("1Gi", 1 << 30),
        ("64KI", 65536),
        (" 8ki ", 8192),
    ],
)
def test_parse_bytes(text, value):
    assert parse_bytes(text) == value


@pytest.mark.parametrize("text", ["", "abc", "12q", "Ki", "1.5Mi"])
def test_parse_bytes_rejects(text):
    with pytest.raises(ValueError):
        parse_bytes(text)


def test_parser_defaults():
    args = build_parser().parse_args(["generate", "--out", "d"])
    spec = GenSpec()
    assert (args.seed, args.events, args.files) == (spec.seed, spec.n_events, spec.n_files)
    assert (args.schema, args.basket_entries) == (spec.schema, spec.basket_target_entries)
    assert Codec[args.codec.upper()] is spec.codec
    args = build_parser().parse_args(["serve", "--root", "x"])
    assert args.host == "127.0.0.1" and args.port == 1094 and args.bandwidth_cap is None
    args = build_parser().parse_args(["reduce", "--job", "j"])
    assert args.executors == 1 and args.cores == usable_cores()
    args = build_parser().parse_args(["hist", "--job", "j", "--spec", "count", "--out", "h.csv"])
    assert args.executors == 1
    assert args.cores == usable_cores()
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reduce", "--job", "j", "--read-ahead", "4Ki"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["generate", "--out", "d", "--schema", "csv"])
    args = build_parser().parse_args(["serve", "--root", "x", "--bandwidth-cap", "32Mi"])
    assert args.bandwidth_cap == 32 << 20


def test_an_unparsable_bandwidth_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--root", "x", "--bandwidth-cap", "1.5Mi"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "argument --bandwidth-cap: invalid parse_bytes value: '1.5Mi'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_serve_prints_its_counters_when_stopped(tmp_path, signum):
    (tmp_path / "f.bin").write_bytes(b"x" * 100)
    with serve_process(tmp_path) as (proc, address):
        conn = XrdConnection(address)
        try:
            handle, _ = conn.open("f.bin")
            assert conn.read(handle, 0, 100) == b"x" * 100
            conn.close_handle(handle)
        finally:
            conn.close()
        t0 = time.perf_counter()
        proc.send_signal(signum)
        rest, _ = proc.communicate(timeout=10)
        stopped_s = time.perf_counter() - t0
    assert proc.returncode == 0
    assert stopped_s < 2.0  # the server's accept loop notices a shutdown within 0.5 s
    assert rest.startswith("stopped: connections: 1 accepted, ")
    assert "requests: OPEN 1, CLOSE 1, READV 1; payload bytes sent: 112; " in rest
    assert len(rest.splitlines()) == 1


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    rc = main(
        [
            "generate",
            "--seed",
            "21",
            "--events",
            "200",
            "--files",
            "2",
            "--basket-entries",
            "64",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    manifest = DatasetManifest.from_json((out / "dataset.json").read_text())
    return out, manifest


def test_generate_writes_a_matching_manifest(cli_dataset, capsys):
    out, manifest = cli_dataset
    assert manifest.matches(GenSpec(seed=21, n_events=200, n_files=2, basket_target_entries=64))
    for path in manifest.file_paths(str(out)):
        with open_file(path) as reader:
            assert reader.tree(DEMO_TREE).n_entries == 200


def test_generate_accepts_byte_suffixed_event_counts(tmp_path, capsys):
    rc = main(["generate", "--events", "1k", "--files", "1", "--out", str(tmp_path / "d")])
    assert rc == 0
    assert "wrote 1 files, 1000 events each" in capsys.readouterr().out


def _job_text(inputs, output, *, skim=None, derive=None, keep="MET, Muon_pt") -> str:
    lines = [f"input = {p}" for p in inputs]
    lines += [f"tree = {DEMO_TREE}", f"keep = {keep}", f"output = {output}"]
    if skim is not None:
        lines.append(f'skim = "{skim}"')
    if derive is not None:
        lines.append(f"derive.{derive[0]} = '{derive[1]}'")
    lines.append("partition_entries = 128")
    return "\n".join(lines) + "\n"


def test_reduce_round_trip(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    out = tmp_path / "out"
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(inputs, out, skim="nMuon >= 2", derive=("ht", "sum(Muon_pt)")))
    rc = main(["reduce", "--job", str(job_path), "--cores", "2"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "unaccounted" in stdout

    skim = parse("nMuon >= 2")
    rows = []
    for path in inputs:
        with open_file(path) as reader:
            columns = {
                name: reader.read_column(DEMO_TREE, name)
                for name in ("MET", "Muon_pt", "nMuon")
            }
        rows.extend(
            reduce_events(
                events_from_columns(columns),
                ["MET", "Muon_pt"],
                skim,
                [("ht", parse("sum(Muon_pt)"))],
                float_columns(columns),
            )
        )
    got = read_parts(Manifest.read_jsonl(out / "manifest.jsonl"))
    assert sorted(got) == ["MET", "Muon_pt", "ht"]
    assert arrays_match(got["MET"].values, np.array([r["MET"] for r in rows], dtype=np.float64))
    assert arrays_match(got["ht"].values, np.array([r["ht"] for r in rows], dtype=np.float64))
    counts = [len(r["Muon_pt"]) for r in rows]
    assert np.array_equal(np.diff(got["Muon_pt"].offsets), np.array(counts, dtype=np.int64))


def test_reduce_out_flag_overrides_job_output(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))[:1]
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(inputs, tmp_path / "ignored"))
    override = tmp_path / "elsewhere"
    assert main(["reduce", "--job", str(job_path), "--out", str(override)]) == 0
    capsys.readouterr()
    assert (override / "manifest.jsonl").exists()
    assert not (tmp_path / "ignored").exists()


def _expected_hist(values, num, low, high):
    counts = {"under": 0.0, "over": 0.0, "nan": 0.0}
    bins = [0.0] * num
    for q in values:
        slot = route_value(float(q), num, low, high)
        if math.isnan(float(q)):
            counts["nan"] += 1
        elif slot == -1:
            counts["under"] += 1
        elif slot == num:
            counts["over"] += 1
        else:
            bins[slot] += 1
    return bins, counts


def test_hist_counts_match_reference_routing(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(inputs, tmp_path / "unused", keep="MET"))
    out_csv = tmp_path / "met.csv"
    rc = main(["hist", "--job", str(job_path), "--spec", "bin(6, 0, 90, 'MET')", "--out", str(out_csv)])
    assert rc == 0
    assert "filled 400 events" in capsys.readouterr().out

    met = np.concatenate(
        [open_file(p).read_column(DEMO_TREE, "MET").values for p in inputs]
    )
    bins, flows = _expected_hist(met, 6, 0.0, 90.0)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "bin_low,bin_high,entries"
    assert len(lines) == 1 + 6 + 3
    got_bins = [float(line.split(",")[2]) for line in lines[1:7]]
    assert got_bins == bins
    assert float(lines[7].split(",")[2]) == flows["under"]
    assert float(lines[8].split(",")[2]) == flows["over"]
    assert float(lines[9].split(",")[2]) == flows["nan"]


def test_hist_applies_the_job_skim(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(inputs, tmp_path / "unused", keep="MET", skim="MET > 20"))
    out_csv = tmp_path / "met.csv"
    assert main(["hist", "--job", str(job_path), "--spec", "bin(4, 20, 100, 'MET')", "--out", str(out_csv)]) == 0
    capsys.readouterr()

    met = np.concatenate(
        [open_file(p).read_column(DEMO_TREE, "MET").values for p in inputs]
    )
    kept = met[met > 20.0]
    bins, flows = _expected_hist(kept, 4, 20.0, 100.0)
    lines = out_csv.read_text().splitlines()
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == float(len(kept))
    assert [float(line.split(",")[2]) for line in lines[1:5]] == bins


def test_hist_csv_is_identical_across_cores_and_remote_reads(cli_dataset, tmp_path, capsys, serve_dir):
    data_dir, manifest = cli_dataset
    server = serve_dir(data_dir)
    spec = "bin(8, 0, 100, 'max(Muon_pt)')"
    # keep and derive name columns that do not exist: hist never reads or checks them
    extra = "derive.ghost = 'sum(Ghost_pt)'\n"
    runs = {
        "cores1": (manifest.file_paths(str(data_dir)), ["--cores", "1"]),
        "cores3": (manifest.file_paths(str(data_dir)), ["--cores", "3"]),
        "remote": (manifest.urls(*server.address), ["--cores", "2"]),
    }
    csvs, reports = {}, {}
    for name, (inputs, flags) in runs.items():
        job_path = tmp_path / f"{name}.cfg"
        job_path.write_text(
            _job_text(inputs, tmp_path / "unused", keep="Ghost", skim="nMuon >= 1") + extra
        )
        out_csv = tmp_path / f"{name}.csv"
        assert main(["hist", "--job", str(job_path), "--spec", spec, "--out", str(out_csv), *flags]) == 0
        reports[name] = capsys.readouterr().out
        csvs[name] = out_csv.read_bytes()
    assert csvs["cores1"] == csvs["cores3"] == csvs["remote"]
    kept = 0
    for path in manifest.file_paths(str(data_dir)):
        with open_file(path) as reader:
            kept += int(np.count_nonzero(reader.read_column(DEMO_TREE, "nMuon").values >= 1))
    assert reports["cores1"] == f"filled {kept} events into {tmp_path / 'cores1.csv'}\n"
    assert not (tmp_path / "unused").exists()


def test_hist_rejects_schema_drift_between_inputs(tmp_path, capsys):
    write_tree(str(tmp_path / "a.trf"), DEMO_TREE, {"MET": np.arange(4, dtype=np.float64)})
    write_tree(str(tmp_path / "b.trf"), DEMO_TREE, {"MET": np.arange(4, dtype=np.float32)})
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text([tmp_path / "a.trf", tmp_path / "b.trf"], tmp_path / "o", keep="MET"))
    out_csv = tmp_path / "met.csv"
    assert main(["hist", "--job", str(job_path), "--spec", "bin(4, 0, 4, 'MET')", "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert "schema differs" in err and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "skim,spec,error",
    [
        ("MET", "bin(4, 0, 4, 'MET')", EngineError),  # skim is not a bool
        ("MET > 1", "bin(4, 0, 4, 'Muon_pt')", HistError),  # quantity is jagged
    ],
)
def test_hist_typechecks_skim_and_quantity(cli_dataset, tmp_path, capsys, skim, spec, error):
    data_dir, manifest = cli_dataset
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(manifest.file_paths(str(data_dir)), tmp_path / "o", skim=skim))
    with pytest.raises(error) as raised:
        fill(load_job_file(job_path), EngineConfig(), parse_hist_spec(spec))
    assert main(["hist", "--job", str(job_path), "--spec", spec, "--out", str(tmp_path / "h.csv")]) == 1
    assert capsys.readouterr().err == f"hist: {raised.value}\n"
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reduce", "--job", "{missing_column}"], "required column 'Nope' missing"),
        (["reduce", "--job", "{tmp}/absent.cfg"], "No such file or directory"),
        (["reduce", "--job", "{corrupt_input}"], "bad magic"),
        (["hist", "--job", "{corrupt_input}", "--spec", "count", "--out", "{tmp}/h.csv"], "bad magic"),
        (["hist", "--job", "{good}", "--spec", "bin(4, 0", "--out", "{tmp}/h.csv"], "bad histogram spec"),
        (["concat", "--out", "{tmp}/m.trf", "--manifest", "{tmp}/missing.jsonl"], "missing.jsonl"),
        (["hist", "--job", "{good}", "--spec", "bin(4, 0, 1e999, 'MET')", "--out", "{tmp}/h.csv"],
         "finite low < high"),
        (["hist", "--job", "{good}", "--spec", "bin(4, -1e999, 0, 'MET')", "--out", "{tmp}/h.csv"],
         "finite low < high"),
        (["serve", "--root", "{tmp}", "--port", "0", "--bandwidth-cap", "0"], "must be positive"),
        (["serve", "--root", "{tmp}", "--port", "0", "--bandwidth-cap", "-1"], "must be positive"),
        (["reduce", "--job", "{port_out_of_range}"], "Port out of range"),
        (["hist", "--job", "{no_host}", "--spec", "count", "--out", "{tmp}/h.csv"], "missing host"),
        (["serve", "--root", "{tmp}", "--port", "70000"], "port must be 0-65535, got 70000"),
        (["serve", "--root", "{tmp}", "--port", "-1"], "port must be 0-65535, got -1"),
        (["hist", "--job", "{good}", "--spec", "bin(1e999, 0, 1, 'MET')", "--out", "{tmp}/h.csv"],
         "bin count must be a whole number"),
        (["reduce", "--job", "{port_zero}"], "port 0"),
        (["hist", "--job", "{good}", "--spec", "bin(1e9, 0, 1, 'MET')", "--out", "{tmp}/h.csv"],
         "cells, more than"),
    ],
    ids=["missing-column", "missing-job-file", "corrupt-input", "hist-corrupt-input", "bad-spec",
         "missing-manifest", "infinite-high-edge", "infinite-low-edge", "zero-cap", "negative-cap",
         "url-port-out-of-range", "url-without-host", "port-too-high", "negative-port",
         "infinite-bin-count", "url-port-zero", "oversized-histogram"],
)
def test_user_errors_print_a_message_and_return_1(cli_dataset, tmp_path, capsys, argv, message):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    corrupt = tmp_path / "corrupt.trf"
    corrupt.write_bytes(b"XXXX" + bytes(60))
    jobs = {
        "missing_column": _job_text(inputs, tmp_path / "o", keep="MET, Nope"),
        "corrupt_input": _job_text([corrupt], tmp_path / "o"),
        "port_out_of_range": _job_text(["xrdl://127.0.0.1:99999/a.trf"], tmp_path / "o"),
        "no_host": _job_text(["xrdl:///a.trf"], tmp_path / "o"),
        "port_zero": _job_text(["xrdl://127.0.0.1:0/a.trf"], tmp_path / "o"),
        "good": _job_text(inputs, tmp_path / "o"),
    }
    for name, text in jobs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    paths = {name: tmp_path / f"{name}.cfg" for name in jobs}
    assert main([arg.format(tmp=tmp_path, **paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and message in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_hist_task_failure_returns_1(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(manifest.file_paths(str(data_dir)), tmp_path / "o", skim="nMuon / 0 > 1"))
    out_csv = tmp_path / "met.csv"
    assert main(["hist", "--job", str(job_path), "--spec", "bin(4, 0, 4, 'MET')", "--out", str(out_csv)]) == 1
    assert "4 tasks failed" in capsys.readouterr().err
    assert not out_csv.exists()


def test_concat_positional_inputs(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    merged = tmp_path / "merged.trf"
    assert main(["concat", "--out", str(merged), *inputs]) == 0
    assert "400 entries from 2 files" in capsys.readouterr().out
    with open_file(str(merged)) as reader:
        assert reader.tree(DEMO_TREE).n_entries == 400
        got = reader.read_column(DEMO_TREE, "MET")
    want = ColumnChunk.concatenate(
        [open_file(p).read_column(DEMO_TREE, "MET") for p in inputs]
    )
    assert arrays_match(got.values, want.values)


def test_concat_reads_a_reduction_manifest(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    inputs = manifest.file_paths(str(data_dir))
    out = tmp_path / "out"
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(inputs, out, skim="nMuon >= 1"))
    assert main(["reduce", "--job", str(job_path)]) == 0
    merged = tmp_path / "merged.trf"
    assert main(["concat", "--out", str(merged), "--manifest", str(out / "manifest.jsonl")]) == 0
    capsys.readouterr()
    expected = read_parts(Manifest.read_jsonl(out / "manifest.jsonl"))
    with open_file(str(merged)) as reader:
        tree = reader.tree(DEMO_TREE)
        assert tree.n_entries == len(expected["MET"].values)
        assert arrays_match(
            reader.read_column(DEMO_TREE, "MET").values, expected["MET"].values
        )


def test_concat_refuses_a_manifest_whose_part_was_swapped(cli_dataset, tmp_path, capsys):
    data_dir, manifest = cli_dataset
    out = tmp_path / "out"
    job_path = tmp_path / "job.cfg"
    job_path.write_text(_job_text(manifest.file_paths(str(data_dir)), out, skim="nMuon >= 1"))
    assert main(["reduce", "--job", str(job_path)]) == 0
    rows = Manifest.read_jsonl(out / "manifest.jsonl").entries
    assert rows[0].entries != rows[1].entries
    part0, part1 = out / "part-00000.trf", out / "part-00001.trf"
    part0.rename(tmp_path / "swap.trf")
    part1.rename(part0)
    (tmp_path / "swap.trf").rename(part1)
    capsys.readouterr()
    merged = tmp_path / "merged.trf"
    assert main(["concat", "--out", str(merged), "--manifest", str(out / "manifest.jsonl")]) == 1
    assert capsys.readouterr().err == (
        f"concat: {part0}: {rows[1].entries} entries, manifest says {rows[0].entries}\n"
    )
    assert not merged.exists()


def test_concat_schema_mismatch_fails_without_output(tmp_path, capsys):
    a, b = tmp_path / "a.trf", tmp_path / "b.trf"
    write_tree(str(a), "t", {"x": np.arange(3, dtype=np.float64)})
    write_tree(str(b), "t", {"x": np.arange(3, dtype=np.int64)})
    merged = tmp_path / "merged.trf"
    assert main(["concat", "--out", str(merged), str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert "differs from first input" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.trf", "b.trf"]


def test_concat_without_inputs_fails(tmp_path, capsys):
    assert main(["concat", "--out", str(tmp_path / "x.trf")]) == 1
    assert "no inputs" in capsys.readouterr().err


def test_bench_size_smoke(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "\n".join(
            [
                "# tiny smoke configuration",
                "events = 192",
                "files = 1",
                "repetitions = 1",
                "multiples = 1,2",
                "partition_entries = 128",
                "cores = 2",
                f"data_dir = {tmp_path / 'data'}",
            ]
        )
        + "\n"
    )
    out = tmp_path / "report"
    rc = main(["bench", "--experiment", "size", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert "report:" in capsys.readouterr().out
    csv_lines = (out / "size_scaling.csv").read_text().splitlines()
    assert csv_lines[0] == "multiple,bytes,median_wall_s,r2"
    assert len(csv_lines) == 3
    assert (out / "size_scaling.md").exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("multiples = -1", "multiples must be >= 1"),
        ("repetitions = 0", "repetitions must be >= 1"),
        ("files = -2", "n_files must be >= 1"),
        ("files = x", "invalid literal for int() with base 10: 'x'"),
        ("events = -5", "n_events must be >= 0"),
        ("repetition = 5", "unknown key 'repetition'"),
        ("files = 2\nfiles = 3", "duplicate key 'files'"),
        ("read_aheads = 64Ki,0", "read_aheads must be >= 1"),
        ("bandwidth_cap = 0", "bandwidth_cap must be > 0"),
        ("workers = 1x1,0x2", "workers must be >= 1 executors x >= 1 cores"),
        ("partition_entries = 0", "partition_entries must be >= 1"),
        ("executors = 0", "executors and cores must be >= 1"),
        ("cores = 0", "executors and cores must be >= 1"),
    ],
)
def test_bench_rejects_a_bad_config_value_in_one_line(tmp_path, capsys, line, message):
    config = tmp_path / "bench.cfg"
    config.write_text(f"{line}\ndata_dir = {tmp_path / 'data'}\n")
    argv = ["bench", "--experiment", "size", "--config", str(config), "--out", str(tmp_path / "r")]
    assert main(argv) == 1
    last_line = line.count("\n") + 1  # the line the error names
    assert capsys.readouterr().err == f"bench: {config}:{last_line}: {message}\n"
    assert not (tmp_path / "data").exists()


def test_bench_config_keys_set_each_experiment_field_once(tmp_path):
    set_by_keys = [name for name, _ in cli._BENCH_KEYS.values()]
    assert len(set_by_keys) == len(set(set_by_keys))
    settable = {f.name for f in fields(ExperimentSpec)} - {"variant", "data_dir", "out_dir"}
    assert set(set_by_keys) - {"data_dir"} == settable
    config = tmp_path / "bench.cfg"
    config.write_text("# only a comment\n\n")
    out = str(tmp_path / "r")
    args = build_parser().parse_args(["bench", "--experiment", "cores", "--config", str(config), "--out", out])
    assert cli._bench_spec(args) == ExperimentSpec("cores", str(tmp_path / "r" / "data"), out)


def test_generate_rejects_a_negative_event_count_in_one_line(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["generate", "--events", "-5", "--files", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "generate: n_events and n_files must be >= 0\n"
    assert not out.exists()


def test_bench_config_syntax_error(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text("# events\nevents 192\n")
    out = tmp_path / "r"
    assert main(["bench", "--experiment", "size", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bench: {config}:2: expected 'key = value'\n"
    assert not out.exists()
