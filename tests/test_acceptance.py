"""Acceptance gate: nine checks on scaling behavior and bit-level correctness.

Each test emits one PASS/FAIL verdict line; conftest echoes the lines after
the run summary so they survive output capture. Dataset sizes are scaled to
finish quickly on one core; every assertion is about shape or exactness
(fit quality, plateau margins, byte geometry, bit equality), not raw speed,
so the verdicts do not depend on the scale.
"""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import ACCEPTANCE_BLOCKS, ACCEPTANCE_LINES, read_parts
from reference_interp import (
    arrays_match,
    events_from_columns,
    float_columns,
    reduce_events,
    simulate_cache,
    task_requests,
)
from test_engine import span_law_violations
from test_treefile import _assert_round_trip, tree_contents
from treeduce.bench.experiments import ExperimentSpec, run_experiment
from treeduce.bench.generate import (
    DEMO_SKIM,
    DEMO_TREE,
    DatasetManifest,
    GenSpec,
    demo_job,
    generate,
)
from treeduce.engine import EngineConfig, JobSpec, run
from treeduce.exprlang import parse
from treeduce.histagg import Bin, Sum, combine
from treeduce.iostats import IoStats
from treeduce.sources import BytesSource, open_source
from treeduce.treefile import Codec, ColumnChunk, TreeFileError, open_file, write_tree
from treeduce.xrdlite import ConnectionPool, ServerConfig, serve
from treeduce.xrdlite.throttle import TokenBucket

# every engine run the gate performs, for the accounting check in criterion 5
RUNS: list[tuple[str, object]] = []


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. wall time grows linearly with input bytes


# The 1x point must last long enough that a competing process cannot bend
# the fit: each file's event count is sized from a measured per-event cost,
# then checked at the size picked.
SIZE_MIN_WALL_S = 0.1
SIZE_PROBE_EVENTS, SIZE_MAX_EVENTS = 16384, 1 << 19
SIZE_STEP_EVENTS = 8192  # sizes are whole multiples of this


def _one_x_wall(base, n_events: int, n_files: int, engine: EngineConfig) -> float:
    """Median wall of three runs of the size sweep's job over ``n_files`` files of ``n_events``."""
    data = base / f"probe-{n_events}"
    probe = generate(GenSpec(seed=101, n_events=n_events, n_files=n_files), data)
    job = demo_job(probe.file_paths(data), str(base / "probe-out"), partition_entries=4096)
    return statistics.median(run(job, engine).metrics.total_wall_s for _ in range(3))


def _size_events_per_file(base, n_files: int, engine: EngineConfig) -> int:
    """Events per file for a 1x wall of at least ``SIZE_MIN_WALL_S``, up to ``SIZE_MAX_EVENTS``.

    Starting from a probe at ``SIZE_PROBE_EVENTS``, the size is scaled by
    the per-event cost measured at the last size, rounded up to a multiple
    of ``SIZE_STEP_EVENTS``, and the 1x wall is measured again there, until
    it reaches ``SIZE_MIN_WALL_S``. Fixed costs weigh more at a smaller
    size, so an estimate tends to fall short, and a near miss then costs
    one more step of a few percent, not a doubling of the size.
    """
    n_events = SIZE_PROBE_EVENTS
    wall = _one_x_wall(base, n_events, n_files, engine)
    while wall < SIZE_MIN_WALL_S and n_events < SIZE_MAX_EVENTS:
        steps = math.ceil(SIZE_MIN_WALL_S / wall * n_events / SIZE_STEP_EVENTS)
        n_events = min(SIZE_MAX_EVENTS, steps * SIZE_STEP_EVENTS)
        wall = _one_x_wall(base, n_events, n_files, engine)
    return n_events


@pytest.fixture(scope="module")
def size_result(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-size")
    engine = EngineConfig(1, 4)
    spec = ExperimentSpec(
        variant="size",
        data_dir=str(base / "data"),
        out_dir=str(base / "report"),
        seed=101,
        n_events=_size_events_per_file(base, 2, engine),
        n_files=2,
        # a median of five: one slow repetition on a loaded host moves no point
        repetitions=5,
        multiples=(1, 2, 4, 8),
        partition_entries=4096,
        executors=engine.executors,
        cores_per_executor=engine.cores_per_executor,
    )
    result = run_experiment(spec)
    RUNS.append(("size sweep, last run", result.metrics))
    return result


def test_criterion_1_size_scaling_linearity(size_result):
    rows = size_result.rows
    assert [r.multiple for r in rows] == [1, 2, 4, 8]
    ok = size_result.r2 >= 0.95 and size_result.slope > 0
    walls = ", ".join(f"x{r.multiple}={r.median_wall_s:.3f}s" for r in rows)
    detail = f"r2={size_result.r2:.4f}, x1 reads {rows[0].bytes / 1e6:.1f} MB, {walls}"
    _verdict(1, "size-scaling linearity", ok, detail)


# ---------------------------------------------------------------------------
# 2. with the server capped at twice one worker's throughput, adding
#    workers past the knee buys almost nothing and the cap is saturated


# The token bucket starts full and holds two ticks' worth of bytes at the
# cap, so a run that moves few such bursts finishes faster than the cap
# allows. Each file's event count is sized from an uncapped probe so that
# a run at the cap moves at least CORES_MIN_BURSTS of them.
CORES_MIN_BURSTS = 20
CORES_PROBE_EVENTS, CORES_FILES = 16384, 4


@pytest.fixture(scope="module")
def cores_result(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-cores")

    def single_worker_run(data_dir, manifest, cap):
        with serve(ServerConfig(root_dir=str(data_dir), port=0, bandwidth_cap=cap)) as srv:
            host, port = srv.address
            job = demo_job(
                manifest.urls(host, port),
                str(base / f"probe-{manifest.n_events}-{cap or 0}"),
                partition_entries=4096,
            )
            result = run(job, EngineConfig(1, 1))
        RUNS.append((f"single-worker probe cap={cap}", result.metrics))
        return result, result.io.bytes_fetched / max(result.metrics.total_wall_s, 1e-9)

    # One core serves both the workers and the server, so an uncapped run is
    # compute-bound and no thread count could double it. Throttle well below
    # that ceiling first; the capped single-worker rate is the baseline the
    # plateau is measured against. The data grows, with a margin, until a
    # run at the cap moves CORES_MIN_BURSTS full buckets.
    n_events = CORES_PROBE_EVENTS
    while True:
        data_dir = base / f"data-{n_events}"
        manifest = generate(GenSpec(seed=102, n_events=n_events, n_files=CORES_FILES), data_dir)
        uncapped, ceiling = single_worker_run(data_dir, manifest, None)
        _, single = single_worker_run(data_dir, manifest, max(1, int(ceiling / 4)))
        cap = max(1, int(2 * single))
        bucket_events = TokenBucket(cap).capacity / uncapped.io.bytes_fetched * n_events
        if n_events >= CORES_MIN_BURSTS * bucket_events:
            break
        n_events = math.ceil(CORES_MIN_BURSTS * bucket_events)
    spec = ExperimentSpec(
        variant="cores",
        data_dir=str(data_dir),
        out_dir=str(base / "report"),
        seed=102,
        n_events=n_events,
        n_files=CORES_FILES,
        repetitions=3,
        worker_grid=((1, 1), (1, 2), (2, 2), (2, 4)),
        bandwidth_cap=cap,
        partition_entries=4096,
    )
    result = run_experiment(spec)
    RUNS.append(("cores grid, last run", result.metrics))
    return result


def test_criterion_2_core_scaling_plateau(cores_result):
    rows = {r.workers: r for r in cores_result.rows}
    assert sorted(rows) == [1, 2, 4, 8]
    cap = cores_result.cap_bytes_per_s
    improvement = 1.0 - rows[8].median_wall_s / rows[4].median_wall_s
    off4 = abs(rows[4].throughput_bytes_per_s - cap) / cap
    off8 = abs(rows[8].throughput_bytes_per_s - cap) / cap
    ok = improvement < 0.15 and off4 <= 0.10 and off8 <= 0.10
    run_bytes = rows[4].throughput_bytes_per_s * rows[4].median_wall_s
    _verdict(
        2,
        "core-scaling plateau",
        ok,
        f"cap={cap:.0f}B/s, a run moves {run_bytes / TokenBucket(cap).capacity:.0f} full buckets, "
        f"4->8 workers gain={improvement:+.1%}, throughput off cap: {off4:.1%} @4, {off8:.1%} @8",
    )


# ---------------------------------------------------------------------------
# 3. a huge read-ahead window refetches whole files task after task; the
#    expected traffic is precomputed from the basket layout and must match
#    the engine's counters byte for byte


READAHEADS = (65536, 32 << 20)


@pytest.fixture(scope="module")
def readahead_result(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-readahead")
    spec = ExperimentSpec(
        variant="readahead",
        data_dir=str(base / "data"),
        out_dir=str(base / "report"),
        seed=103,
        n_events=32768,
        n_files=2,
        repetitions=2,
        read_aheads=READAHEADS,
        partition_entries=8192,
        executors=1,
        cores_per_executor=2,
    )
    result = run_experiment(spec)
    RUNS.append(("read-ahead sweep, last run", result.metrics))
    return spec, result


def _simulated_traffic(data_dir: str, partition: int, read_ahead: int) -> tuple[int, int]:
    manifest = DatasetManifest.from_json((Path(data_dir) / "dataset.json").read_text())
    requested = fetched = 0
    for path in manifest.file_paths(data_dir):
        file_len = os.path.getsize(path)
        with open_file(path) as reader:
            n = reader.tree(DEMO_TREE).n_entries
            for start in range(0, n, partition):
                stop = min(start + partition, n)
                reqs = task_requests(reader, DEMO_TREE, ("v0",), start, stop)
                sim = simulate_cache(reqs, file_len, read_ahead, 4)
                requested += sim["bytes_requested"]
                fetched += sim["bytes_fetched"]
    return requested, fetched


def test_criterion_3_read_ahead_traffic(readahead_result):
    spec, result = readahead_result
    rows = {r.read_ahead: r for r in result.rows}
    assert sorted(rows) == sorted(READAHEADS)
    exact = True
    for read_ahead in READAHEADS:
        requested, fetched = _simulated_traffic(
            spec.data_dir, spec.partition_entries, read_ahead
        )
        row = rows[read_ahead]
        exact = exact and row.bytes_requested == requested and row.bytes_fetched == fetched
    small, large = rows[READAHEADS[0]], rows[READAHEADS[1]]
    ratio = large.bytes_fetched / small.bytes_fetched
    ok = exact and ratio >= 10.0 and small.median_wall_s < large.median_wall_s
    _verdict(
        3,
        "read-ahead traffic",
        ok,
        f"geometry {'exact' if exact else 'MISMATCH'}, 32MiB/64KiB fetched ratio={ratio:.1f}, "
        f"wall {small.median_wall_s:.3f}s vs {large.median_wall_s:.3f}s",
    )


# ---------------------------------------------------------------------------
# 4. with a deep task queue the worker pool stays fully busy


@pytest.fixture(scope="module")
def saturation_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-sat")
    manifest = generate(GenSpec(seed=104, n_events=65536, n_files=2), base / "data")
    job = demo_job(
        manifest.file_paths(str(base / "data")), str(base / "out"), partition_entries=4096
    )
    result = run(job, EngineConfig(1, 2))
    RUNS.append(("saturation run", result.metrics))
    return result


def test_criterion_4_scheduler_saturation(saturation_run):
    metrics = saturation_run.metrics
    workers = metrics.worker_count
    tasks = len(metrics.tasks)
    assert tasks >= 8 * workers
    samples = [active for _, active in metrics.concurrency]
    assert len(samples) >= 20, "run too short to measure concurrency"
    full = sum(1 for active in samples if active == workers)
    fraction = full / len(samples)
    _verdict(
        4,
        "scheduler saturation",
        fraction >= 0.7,
        f"{tasks} tasks on {workers} workers, {fraction:.1%} of {len(samples)} samples at full concurrency",
    )


# ---------------------------------------------------------------------------
# 5. per-task clocks add up: cpu + read never exceed wall by more than 5%,
#    and every task's spans are non-negative and sum to its wall time


def test_criterion_5_time_accounting(
    size_result, cores_result, readahead_result, saturation_run, reduction_suite
):
    bad = []
    for label, metrics in RUNS:
        if metrics.sum_cpu_s + metrics.sum_read_s > 1.05 * metrics.sum_wall_s + 1e-9:
            bad.append(label)
        if span_law_violations(metrics):
            bad.append(f"{label} (spans)")
    breakdown = max((m for _, m in RUNS), key=lambda m: m.entries_in)
    ACCEPTANCE_BLOCKS.append("workload breakdown (largest run):\n" + breakdown.summary_table())
    print(breakdown.summary_table())
    _verdict(
        5,
        "time accounting",
        not bad,
        f"cpu+read <= 1.05*wall and spans sum to wall on {len(RUNS)} runs"
        + (f", violated by {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 6. the threaded engine reproduces a naive single-threaded per-event
#    reduction bit for bit, with and without an injected transient fault


@pytest.fixture(scope="module")
def reduction_suite(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc-reduce")
    manifest = generate(GenSpec(seed=106, n_events=25600, n_files=4), base / "data")
    inputs = manifest.file_paths(str(base / "data"))

    skim = parse(DEMO_SKIM)
    derived = [("leading_pt", parse("max(Muon_pt)")), ("ht", parse("sum(Muon_pt)"))]
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
                derived,
                float_columns(columns),
            )
        )
    expected = {
        "n": len(rows),
        "MET": np.array([r["MET"] for r in rows], dtype=np.float64),
        "pt_values": np.array([x for r in rows for x in r["Muon_pt"]], dtype=np.float32),
        "pt_counts": np.array([len(r["Muon_pt"]) for r in rows], dtype=np.int64),
        "leading_pt": np.array([r["leading_pt"] for r in rows], dtype=np.float64),
        "ht": np.array([r["ht"] for r in rows], dtype=np.float64),
    }

    def fault_hook(task, attempt):
        if task.task_id == 3 and attempt == 1:
            raise RuntimeError("injected transient fault")

    runs = []
    for executors, cores in ((1, 1), (1, 2), (2, 4)):
        for fault in (False, True):
            out = base / f"out-e{executors}c{cores}-{'fault' if fault else 'clean'}"
            job = JobSpec(
                inputs=inputs,
                tree=DEMO_TREE,
                keep_columns=["MET", "Muon_pt"],
                skim=DEMO_SKIM,
                derived=[("leading_pt", "max(Muon_pt)"), ("ht", "sum(Muon_pt)")],
                output=str(out),
                partition_entries=2048,
            )
            result = run(
                job,
                EngineConfig(executors, cores),
                fault_hook=fault_hook if fault else None,
            )
            label = f"workers={executors * cores}{'+fault' if fault else ''}"
            RUNS.append((f"reduction {label}", result.metrics))
            runs.append((label, result))
    return expected, runs


def test_criterion_6_reduction_matches_oracle(reduction_suite):
    expected, runs = reduction_suite
    labels = []
    ok = True
    for label, result in runs:
        got = read_parts(result.manifest)
        match = (
            result.manifest.total_entries == expected["n"]
            and sorted(got) == ["MET", "Muon_pt", "ht", "leading_pt"]
            and arrays_match(got["MET"].values, expected["MET"])
            and arrays_match(got["Muon_pt"].values, expected["pt_values"])
            and np.array_equal(np.diff(got["Muon_pt"].offsets), expected["pt_counts"])
            and arrays_match(got["leading_pt"].values, expected["leading_pt"])
            and arrays_match(got["ht"].values, expected["ht"])
        )
        ok = ok and match
        labels.append(f"{label}:{'=' if match else 'DIFF'}")
    _verdict(
        6,
        "reduction matches per-event oracle",
        ok,
        f"{expected['n']} of 102400 entries kept; " + " ".join(labels),
    )


# ---------------------------------------------------------------------------
# 7. randomized write/read identity and exhaustive truncation, zero crashes


def _fuzz_read(buf: bytes) -> None:
    """Any outcome but a clean read or a TreeFileError is a crash."""
    try:
        reader = open_file(BytesSource(buf))
        for tree_name, meta in reader.trees.items():
            reader.validate(deep=True)
            for branch in meta.branches:
                reader.read_column(tree_name, branch)
    except TreeFileError:
        pass


def test_criterion_7_round_trip_and_truncation_fuzz(tmp_path):
    counter = {"examples": 0}

    @settings(max_examples=500)
    @given(tree_contents())
    def round_trip(contents):
        counter["examples"] += 1
        branches, basket_entries, codec = contents
        _assert_round_trip(tmp_path, branches, basket_entries, codec)

    round_trip()

    rng = np.random.default_rng(107)
    counts = rng.integers(0, 5, 160)
    branches = {
        "a": ColumnChunk(values=np.arange(160, dtype=np.int64)),
        "b": ColumnChunk(
            values=rng.normal(size=int(counts.sum())).astype(np.float32),
            offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        ),
    }
    path = tmp_path / "fuzz.trf"
    write_tree(str(path), "t", branches, codec=Codec.DEFLATE, basket_entries=32)
    raw = path.read_bytes()

    crashes = 0
    cases = 0
    for cut in range(len(raw)):
        cases += 1
        try:
            _fuzz_read(raw[:cut])
        except Exception:
            crashes += 1
    for _ in range(500):
        buf = bytearray(raw)
        for pos in rng.integers(0, len(raw), rng.integers(1, 4)):
            buf[pos] ^= int(rng.integers(1, 256))
        cases += 1
        try:
            _fuzz_read(bytes(buf))
        except Exception:
            crashes += 1

    ok = counter["examples"] >= 500 and crashes == 0
    _verdict(
        7,
        "round-trip and truncation fuzz",
        ok,
        f"{counter['examples']} round-trip examples, {cases} fuzz cases, {crashes} crashes",
    )


# ---------------------------------------------------------------------------
# 8. the caching connector is invisible: same bytes as direct reads, and a
#    one-byte window never fetches more than was asked


def test_criterion_8_connector_equivalence(tmp_path, serve_dir):
    manifest = generate(
        GenSpec(seed=108, n_events=8192, n_files=1, schema="flat8"), tmp_path
    )
    path = manifest.file_paths(str(tmp_path))[0]
    raw = Path(path).read_bytes()
    server = serve_dir(tmp_path)
    host, port = server.address
    url = f"xrdl://{host}:{port}/{manifest.files[0].path}"

    rng = np.random.default_rng(8)
    mismatches = 0
    stats = IoStats()
    pool = ConnectionPool()
    try:
        for read_ahead in (1, 4096, 65536, 1 << 20):
            source = open_source(url, read_ahead=read_ahead, connections=pool)
            try:
                for _ in range(120):
                    offset = int(rng.integers(0, len(raw) + 1000))
                    length = int(rng.integers(0, 200_000))
                    if source.read_at(offset, length) != raw[offset : offset + length]:
                        mismatches += 1
            finally:
                source.close()

        source = open_source(url, read_ahead=1, stats=stats, connections=pool)
        try:
            for offset in range(0, len(raw) - 512, 512):
                source.read_at(offset, 512)
        finally:
            source.close()
    finally:
        pool.close()
    ok = mismatches == 0 and stats.amplification == 1.0
    _verdict(
        8,
        "connector equivalence",
        ok,
        f"480 random reads, {mismatches} mismatches; "
        f"amplification at read_ahead=1: {stats.amplification}",
    )


# ---------------------------------------------------------------------------
# 9. histograms merge like a monoid and bins never lose entries


def _flat(agg) -> bytes:
    data = agg.entries.tobytes()
    if isinstance(agg, Sum):
        data += agg.sum.tobytes()
    if isinstance(agg, Bin):
        data += _flat(agg.value)
    return data


def _total(agg: Bin) -> float:
    return float(np.sum(agg.value.entries))


def test_criterion_9_histogram_merge_algebra():
    quantity = parse("met")

    def make() -> Bin:
        return Bin.create(14, 0.0, 70.0, quantity, value=Sum(quantity=parse("w")))

    n = 7 * 311
    rng = np.random.default_rng(9)
    met = rng.normal(25.0, 22.0, n)
    met[rng.integers(0, n, 9)] = np.nan
    met[0], met[1] = np.inf, -np.inf
    w = rng.integers(0, 6, n).astype(np.float64)

    def fill(lo: int, hi: int) -> Bin:
        agg = make()
        agg.fill_chunk(
            {"met": ColumnChunk(values=met[lo:hi]), "w": ColumnChunk(values=w[lo:hi])},
            hi - lo,
            weights=w[lo:hi],
        )
        assert _total(agg) == float(w[lo:hi].sum())
        return agg

    whole = fill(0, n)
    bounds = np.linspace(0, n, 8).astype(int)
    parts = [fill(int(bounds[i]), int(bounds[i + 1])) for i in range(7)]

    conserved = True
    merged = make()
    for part in parts:
        before = _total(merged) + _total(part)
        merged = combine(merged, part)
        conserved = conserved and _total(merged) == before
    backwards = make()
    for part in reversed(parts):
        backwards = combine(part, backwards)

    pairwise = parts
    while len(pairwise) > 1:
        pairwise = [
            combine(pairwise[i], pairwise[i + 1]) if i + 1 < len(pairwise) else pairwise[i]
            for i in range(0, len(pairwise), 2)
        ]

    reference = _flat(whole)
    identity = combine(whole.copy_structure(), whole)
    commuted_ab = _flat(combine(parts[0], parts[1]))
    commuted_ba = _flat(combine(parts[1], parts[0]))
    assoc_left = _flat(combine(combine(parts[0], parts[1]), parts[2]))
    assoc_right = _flat(combine(parts[0], combine(parts[1], parts[2])))
    for candidate in (merged, backwards, pairwise[0], identity):
        candidate.validate()

    ok = (
        conserved
        and _flat(merged) == reference
        and _flat(backwards) == reference
        and _flat(pairwise[0]) == reference
        and _flat(identity) == reference
        and commuted_ab == commuted_ba
        and assoc_left == assoc_right
        and _total(merged) == float(w.sum())
    )
    _verdict(
        9,
        "histogram merge algebra",
        ok,
        f"k=7 partitions, {n} fills, total weight {w.sum():.0f}, merges bitwise equal",
    )
