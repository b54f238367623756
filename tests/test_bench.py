"""Synthetic dataset generator, counter-mode PRNG, and experiment plumbing.

The PRNG oracle is a from-scratch SplitMix64 written against the published
algorithm; branch contents are recomputed per event with scalar arithmetic
so any vectorization or counter-layout slip shows up as a bit mismatch.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import threading
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from treeduce.bench import experiments
from treeduce.bench.experiments import (
    CoreRow,
    CoreScalingResult,
    ExperimentSpec,
    ReadaheadResult,
    ReadaheadRow,
    SizeRow,
    SizeScalingResult,
    linear_fit,
    run_experiment,
)
from treeduce.bench.generate import (
    DEMO_SKIM,
    DEMO_TREE,
    DatasetManifest,
    GenSpec,
    demo_job,
    ensure_dataset,
    generate,
)
from treeduce.bench.prng import (
    GOLDEN,
    MASK64,
    draw,
    draw_array,
    file_key,
    mix64,
    mix64_array,
    unit,
    unit_array,
)
from treeduce.engine import Manifest, ManifestEntry, RunResult, WorkloadMetrics
from treeduce.iostats import IoStats
from treeduce.treefile import Codec, open_file

# the package re-exports the function ``generate`` under the module's name
generate_module = importlib.import_module("treeduce.bench.generate")


# ---------------------------------------------------------------------------
# independent SplitMix64 (Steele, Lea & Flood; same algorithm as java.util)


def _sm64_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def _sm64_stream(seed: int, count: int) -> list[int]:
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        out.append(_sm64_mix(state))
    return out


# first outputs of SplitMix64 seeded with 0, from the reference implementation
SEED0_STREAM = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestPrng:
    def test_seed_zero_stream_matches_reference_vectors(self):
        assert _sm64_stream(0, 3) == SEED0_STREAM
        # file keys are successive outputs of the stream seeded with `seed`
        assert [file_key(0, i) for i in range(3)] == SEED0_STREAM

    def test_draw_is_a_stream_seeded_with_the_key(self):
        for key in (0, 1, 0xDEADBEEF, MASK64):
            assert [draw(key, c) for c in range(5)] == _sm64_stream(key, 5)

    def test_mix64_matches_reference_mix(self):
        for x in (0, 1, 2, GOLDEN, 0x123456789ABCDEF0, MASK64):
            assert mix64(x) == _sm64_mix(x & MASK64)

    def test_unit_uses_the_top_53_bits(self):
        assert unit(0) == 0.0
        assert unit(1 << 11) == 2.0**-53
        assert unit(MASK64) == (2**53 - 1) * 2.0**-53
        assert unit(MASK64) < 1.0
        for r in _sm64_stream(99, 50):
            u = unit(r)
            assert 0.0 <= u < 1.0
            assert float(u * 2**53).is_integer()

    def test_vectorized_helpers_match_scalars(self):
        rng = np.random.RandomState(5)
        xs = rng.randint(0, 1 << 62, size=200, dtype=np.uint64)
        xs = np.concatenate([xs, np.array([0, 1, MASK64], dtype=np.uint64)])
        assert mix64_array(xs).tolist() == [mix64(int(x)) for x in xs]
        key = file_key(3, 0)
        drawn = draw_array(key, xs)
        assert drawn.tolist() == [draw(key, int(x)) for x in xs]
        units = unit_array(drawn)
        assert units.dtype == np.float64
        assert units.tolist() == [unit(int(r)) for r in drawn]


# ---------------------------------------------------------------------------
# generation determinism

SMALL = dict(n_events=300, n_files=2, basket_target_entries=128)


def _file_bytes(out_dir, manifest) -> list[bytes]:
    return [Path(p).read_bytes() for p in manifest.file_paths(str(out_dir))]


class TestDeterminism:
    def test_same_spec_reproduces_identical_bytes(self, tmp_path):
        spec = GenSpec(seed=3, **SMALL)
        m1 = generate(spec, tmp_path / "a")
        m2 = generate(spec, tmp_path / "b")
        assert m1.to_json() == m2.to_json()
        assert _file_bytes(tmp_path / "a", m1) == _file_bytes(tmp_path / "b", m2)

    def test_different_seed_changes_every_file(self, tmp_path):
        m1 = generate(GenSpec(seed=3, **SMALL), tmp_path / "a")
        m2 = generate(GenSpec(seed=4, **SMALL), tmp_path / "b")
        for b1, b2 in zip(_file_bytes(tmp_path / "a", m1), _file_bytes(tmp_path / "b", m2)):
            assert b1 != b2

    def test_ensure_dataset_reuses_matching_output(self, tmp_path):
        spec = GenSpec(seed=3, **SMALL)
        first = ensure_dataset(spec, tmp_path)
        stamps = [p.stat().st_mtime_ns for p in map(__import__("pathlib").Path, first.file_paths(str(tmp_path)))]
        again = ensure_dataset(spec, tmp_path)
        assert again.to_json() == first.to_json()
        assert [p.stat().st_mtime_ns for p in map(__import__("pathlib").Path, again.file_paths(str(tmp_path)))] == stamps

    def test_ensure_dataset_regenerates_on_spec_change(self, tmp_path):
        ensure_dataset(GenSpec(seed=3, **SMALL), tmp_path)
        bigger = GenSpec(seed=3, n_events=400, n_files=2, basket_target_entries=128)
        manifest = ensure_dataset(bigger, tmp_path)
        assert manifest.spec == bigger
        with open_file(manifest.file_paths(str(tmp_path))[0]) as reader:
            assert reader.tree(DEMO_TREE).n_entries == 400

    def test_ensure_dataset_regenerates_when_a_file_is_missing(self, tmp_path):
        spec = GenSpec(seed=3, **SMALL)
        first = ensure_dataset(spec, tmp_path)
        victim = first.file_paths(str(tmp_path))[1]
        __import__("os").remove(victim)
        again = ensure_dataset(spec, tmp_path)
        assert again.spec == spec
        assert __import__("os").path.exists(victim)

    def test_ensure_dataset_regenerates_after_an_interrupted_generate(self, tmp_path, monkeypatch):
        a, b = GenSpec(seed=3, **SMALL), GenSpec(seed=4, **SMALL)
        first = ensure_dataset(a, tmp_path)
        original = _file_bytes(tmp_path, first)

        class Interrupted(Exception):
            pass

        real_writer = generate_module.TreeFileWriter

        def writer(path, **kwargs):
            if str(path).endswith("-00001.trf"):
                raise Interrupted
            return real_writer(path, **kwargs)

        monkeypatch.setattr(generate_module, "TreeFileWriter", writer)
        with pytest.raises(Interrupted):
            ensure_dataset(b, tmp_path)  # file 0 now holds b's data
        monkeypatch.undo()
        again = ensure_dataset(a, tmp_path)
        assert _file_bytes(tmp_path, again) == original

    def test_ensure_dataset_regenerates_when_a_file_changed_size(self, tmp_path):
        spec = GenSpec(seed=3, **SMALL)
        first = ensure_dataset(spec, tmp_path)
        original = _file_bytes(tmp_path, first)
        with open(first.file_paths(str(tmp_path))[0], "ab") as fh:
            fh.write(b"\0")
        again = ensure_dataset(spec, tmp_path)
        assert _file_bytes(tmp_path, again) == original

    def test_zero_event_files_are_valid(self, tmp_path):
        manifest = generate(GenSpec(seed=1, n_events=0, n_files=1), tmp_path)
        with open_file(manifest.file_paths(str(tmp_path))[0]) as reader:
            tree = reader.tree(DEMO_TREE)
            assert tree.n_entries == 0
            assert sorted(tree.branches) == [
                "MET",
                "Muon_charge",
                "Muon_eta",
                "Muon_phi",
                "Muon_pt",
                "nMuon",
            ]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(schema="parquet")
        with pytest.raises(ValueError):
            GenSpec(n_events=-1)
        with pytest.raises(ValueError):
            GenSpec(n_files=-1)


def _dir_digest(out_dir) -> str:
    """SHA-256 over the name and bytes of every file in the directory, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


PINNED_DEMO = GenSpec(seed=5, n_events=700, n_files=4, basket_target_entries=128)


class TestPinnedBytes:
    """The digests were computed with the serial generator, before files were
    written concurrently, so they pin the bytes across that change. Deflate
    output (baskets, and every file's directory record) depends on the zlib
    build, so another zlib implementation may need new digests."""

    @pytest.mark.parametrize(
        "spec,digest",
        [
            (PINNED_DEMO, "3e359e90ea3b7f03b9a7e4a61ec6ee79b7adec2219afe6f44aaf0fd8ef498662"),
            (
                GenSpec(seed=9, n_events=300, n_files=1, schema="flat8",
                        basket_target_entries=100, codec=Codec.NONE),
                "cb68c8ab9e09968e4d823c3b1808b91183e2e0bfcee7144e7d55fabb93759cfa",
            ),
        ],
        ids=["demo-4-files", "flat8-uncompressed"],
    )
    def test_generated_bytes_match_the_pinned_digest(self, tmp_path, spec, digest):
        generate(spec, tmp_path)
        assert _dir_digest(tmp_path) == digest

    def test_worker_count_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(generate_module, "usable_cores", lambda: 1)
        generate(PINNED_DEMO, tmp_path / "serial")
        monkeypatch.setattr(generate_module, "usable_cores", lambda: PINNED_DEMO.n_files)
        generate(PINNED_DEMO, tmp_path / "parallel")
        assert _dir_digest(tmp_path / "serial") == _dir_digest(tmp_path / "parallel")

    def test_a_failing_file_stops_generation_without_a_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(generate_module, "usable_cores", lambda: 2)
        real_writer = generate_module.TreeFileWriter
        started, overlapped = [], []
        failed = threading.Event()

        class Broken(Exception):
            pass

        def writer(path, **kwargs):
            started.append(Path(path).name)
            if str(path).endswith("-00001.trf"):
                failed.set()
                raise Broken
            overlapped.append(failed.wait(10))  # file 0 stays in flight until file 1 fails
            return real_writer(path, **kwargs)

        monkeypatch.setattr(generate_module, "TreeFileWriter", writer)
        with pytest.raises(Broken):
            generate(GenSpec(seed=3, n_events=300, n_files=6, basket_target_entries=128), tmp_path)
        assert overlapped == [True]
        assert sorted(started) == ["demo-00000.trf", "demo-00001.trf"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo-00000.trf"]


# ---------------------------------------------------------------------------
# branch contents, recomputed per event from the counter layout

DEMO_STRIDE = 66  # nMuon, MET, then 4 draws for each of up to 16 muons
MAX_MUONS = 16


def _poisson_cdf_table(mean: float, cap: int) -> list[float]:
    term = math.exp(-mean)
    cdf = [term]
    for k in range(1, cap):
        term = term * mean / k
        cdf.append(cdf[-1] + term)
    cdf.append(1.0)
    return cdf


_CDF = _poisson_cdf_table(2.0, MAX_MUONS)


def _expected_event(key: int, e: int) -> dict:
    base = e * DEMO_STRIDE
    n_muon = bisect_right(_CDF, unit(draw(key, base)))
    met = 30.0 * -np.log(1.0 - np.float64(unit(draw(key, base + 1))))
    muons = []
    for k in range(n_muon):
        slot = base + 2 + 4 * k
        pt = np.float32(3.0 + 15.0 * -np.log(1.0 - np.float64(unit(draw(key, slot)))))
        eta = np.float32(-2.5 + 5.0 * unit(draw(key, slot + 1)))
        phi = np.float32(-math.pi + 2.0 * math.pi * unit(draw(key, slot + 2)))
        charge = 1 if draw(key, slot + 3) & 1 else -1
        muons.append((pt, eta, phi, charge))
    return {"nMuon": n_muon, "MET": met, "muons": muons}


def _read_all(path: str, names: list[str]) -> dict:
    with open_file(path) as reader:
        return {name: reader.read_column(DEMO_TREE, name) for name in names}


class TestDemoContent:
    NAMES = ["nMuon", "MET", "Muon_pt", "Muon_eta", "Muon_phi", "Muon_charge"]

    def test_first_events_match_scalar_reconstruction(self, demo_dataset):
        data_dir, spec, manifest = demo_dataset
        for file_index in range(spec.n_files):
            key = file_key(spec.seed, file_index)
            cols = _read_all(manifest.file_paths(str(data_dir))[file_index], self.NAMES)
            offsets = cols["Muon_pt"].offsets
            for e in range(100):
                want = _expected_event(key, e)
                assert int(cols["nMuon"].values[e]) == want["nMuon"]
                assert cols["MET"].values[e].tobytes() == np.float64(want["MET"]).tobytes()
                lo, hi = int(offsets[e]), int(offsets[e + 1])
                assert hi - lo == want["nMuon"]
                for j, (pt, eta, phi, charge) in enumerate(want["muons"]):
                    assert cols["Muon_pt"].values[lo + j].tobytes() == pt.tobytes()
                    assert cols["Muon_eta"].values[lo + j].tobytes() == eta.tobytes()
                    assert cols["Muon_phi"].values[lo + j].tobytes() == phi.tobytes()
                    assert int(cols["Muon_charge"].values[lo + j]) == charge

    def test_branch_ranges_and_shared_offsets(self, demo_dataset):
        data_dir, spec, manifest = demo_dataset
        cols = _read_all(manifest.file_paths(str(data_dir))[0], self.NAMES)
        n_muon = cols["nMuon"].values
        assert n_muon.dtype == np.int32
        assert n_muon.min() >= 0 and n_muon.max() <= MAX_MUONS
        assert 1.7 <= float(n_muon.mean()) <= 2.3
        met = cols["MET"].values
        assert met.dtype == np.float64
        assert (met >= 0).all() and np.isfinite(met).all()
        pt, eta, phi = (cols[n] for n in ("Muon_pt", "Muon_eta", "Muon_phi"))
        assert (pt.values > 3.0).all() and np.isfinite(pt.values).all()
        assert (np.abs(eta.values) <= 2.5).all()
        assert ((phi.values >= -math.pi) & (phi.values < math.pi)).all()
        assert set(np.unique(cols["Muon_charge"].values)) <= {-1, 1}
        for name in ("Muon_eta", "Muon_phi", "Muon_charge"):
            assert np.array_equal(cols[name].offsets, pt.offsets)
        assert np.array_equal(np.diff(pt.offsets), n_muon.astype(np.int64))

    def test_flat8_values_are_unit_draws(self, flat8_dataset):
        data_dir, spec, manifest = flat8_dataset
        key = file_key(spec.seed, 0)
        with open_file(manifest.file_paths(str(data_dir))[0]) as reader:
            tree = reader.tree()
            assert tree.n_entries == spec.n_events
            assert sorted(tree.branches) == [f"v{j}" for j in range(8)]
            for j in range(8):
                values = reader.read_column(DEMO_TREE, f"v{j}").values
                assert values.dtype == np.float64
                assert ((values >= 0.0) & (values < 1.0)).all()
                for e in range(60):
                    want = unit(draw(key, e * 8 + j))
                    assert values[e].tobytes() == np.float64(want).tobytes()

    def test_uncompressed_spec_stores_baskets_verbatim(self, tmp_path):
        import struct

        from test_treefile import DirWalker, parse_record

        spec = GenSpec(seed=9, n_events=256, n_files=1, schema="flat8",
                       basket_target_entries=100, codec=Codec.NONE)
        manifest = generate(spec, tmp_path)
        raw = Path(manifest.file_paths(str(tmp_path))[0]).read_bytes()
        _, _, dir_offset, dir_len, _ = struct.unpack(">4sIQQQ", raw[:32])
        trees = DirWalker(parse_record(raw[dir_offset : dir_offset + dir_len])).walk()
        _, branches = trees[DEMO_TREE]
        assert len(branches) == 8
        for _, _, baskets in branches.values():
            assert len(baskets) == 3  # 100 + 100 + 56 entries
            for _, _, _, stored_len, raw_len, codec in baskets:
                assert codec == 0
                assert stored_len == raw_len


# ---------------------------------------------------------------------------
# manifest and canned job


# dataset.json of GenSpec(seed=3, **SMALL), byte for byte as every version so far wrote it
SMALL_MANIFEST = """{
  "seed": 3,
  "schema": "demo",
  "n_events": 300,
  "n_files": 2,
  "basket_target_entries": 128,
  "codec": 1,
  "files": [
    {
      "path": "demo-00000.trf",
      "entries": 300,
      "bytes": 12019
    },
    {
      "path": "demo-00001.trf",
      "entries": 300,
      "bytes": 12933
    }
  ]
}"""


def _count_generates(monkeypatch) -> list:
    """Record the arguments of each call ensure_dataset makes to generate."""
    calls, real = [], generate_module.generate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generate_module, "generate", counting)
    return calls


class TestManifest:
    def test_written_manifest_is_reused_unchanged(self, tmp_path, monkeypatch):
        spec = GenSpec(seed=3, **SMALL)
        assert generate(spec, tmp_path).to_json() == SMALL_MANIFEST
        (tmp_path / "dataset.json").write_text(SMALL_MANIFEST)
        files = DatasetManifest.from_json(SMALL_MANIFEST).file_paths(tmp_path)
        paths = [tmp_path / "dataset.json", *map(Path, files)]
        stamps = [p.stat().st_mtime_ns for p in paths]
        calls = _count_generates(monkeypatch)
        assert ensure_dataset(spec, tmp_path).to_json() == SMALL_MANIFEST
        assert calls == []
        assert [p.stat().st_mtime_ns for p in paths] == stamps

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"schema": "demo"', '"schema": "parquet"'),  # GenSpec rejects it
            ('"codec": 1,', '"codec": 1,\n  "level": 6,'),  # a key GenSpec has not
            ('  "codec": 1,\n', ""),  # a key it has is missing
        ],
        ids=["unknown-schema", "extra-key", "missing-key"],
    )
    def test_manifest_that_does_not_load_is_regenerated(self, tmp_path, monkeypatch, old, new):
        spec = GenSpec(seed=3, **SMALL)
        generate(spec, tmp_path)
        (tmp_path / "dataset.json").write_text(SMALL_MANIFEST.replace(old, new))
        calls = _count_generates(monkeypatch)
        assert ensure_dataset(spec, tmp_path).to_json() == SMALL_MANIFEST
        assert calls == [(spec, tmp_path)]
        assert (tmp_path / "dataset.json").read_text() == SMALL_MANIFEST

    def test_round_trip_and_matching(self, tmp_path):
        spec = GenSpec(seed=3, **SMALL)
        manifest = generate(spec, tmp_path)
        again = DatasetManifest.from_json(manifest.to_json())
        assert again.to_json() == manifest.to_json()
        assert again.spec == spec
        assert again.spec != GenSpec(seed=4, **SMALL)
        assert json.loads(manifest.to_json())["schema"] == "demo"

    def test_paths_and_urls(self, tmp_path):
        manifest = generate(GenSpec(seed=3, **SMALL), tmp_path)
        paths = manifest.file_paths(str(tmp_path))
        assert len(paths) == 2
        assert all(p.startswith(str(tmp_path)) for p in paths)
        urls = manifest.urls("127.0.0.1", 2094)
        assert len(urls) == 2
        assert all(u.startswith("xrdl://127.0.0.1:2094/") for u in urls)
        assert [u.rsplit("/", 1)[1] for u in urls] == [f.path for f in manifest.files]

    def test_demo_job_defaults(self):
        job = demo_job(["x.trf"], "out")
        assert job.tree == DEMO_TREE
        assert job.keep_columns == ["MET", "Muon_pt"]
        assert job.skim == DEMO_SKIM
        assert job.partition_entries == 65536
        slim = demo_job(["x.trf"], "out", keep=("MET",), skim=None, partition_entries=64)
        assert slim.keep_columns == ["MET"]
        assert slim.skim is None
        assert slim.partition_entries == 64


# ---------------------------------------------------------------------------
# experiment plumbing that does not need a live cluster


class TestExperimentPieces:
    def test_linear_fit_recovers_an_exact_line(self):
        x = [1.0, 2.0, 4.0, 8.0, 16.0]
        slope, intercept, r2 = linear_fit(x, [3.0 * v + 5.0 for v in x])
        assert slope == pytest.approx(3.0, rel=1e-9)
        assert intercept == pytest.approx(5.0, rel=1e-9)
        assert r2 > 0.999999

    def test_linear_fit_flags_curvature(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        _, _, r2 = linear_fit(x, [v**3 for v in x])
        assert r2 < 0.95

    def test_linear_fit_constant_series(self):
        slope, _, r2 = linear_fit([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(variant="latency", data_dir=str(tmp_path), out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            ExperimentSpec(variant="size", data_dir=".", out_dir=".", repetitions=0)
        with pytest.raises(ValueError):
            ExperimentSpec(variant="size", data_dir=".", out_dir=".", multiples=())
        with pytest.raises(ValueError):
            ExperimentSpec(variant="cores", data_dir=".", out_dir=".", worker_grid=())
        with pytest.raises(ValueError):
            ExperimentSpec(variant="readahead", data_dir=".", out_dir=".", read_aheads=())
        with pytest.raises(ValueError, match="n_events"):
            ExperimentSpec(variant="size", data_dir=".", out_dir=".", n_events=-1)
        with pytest.raises(ValueError, match="n_files"):
            ExperimentSpec(variant="cores", data_dir=".", out_dir=".", n_files=0)
        with pytest.raises(ValueError, match="multiples"):
            ExperimentSpec(variant="size", data_dir=".", out_dir=".", multiples=(1, 0))


SWEEP_POINTS = {
    "size": dict(multiples=(1, 2, 4)),
    "cores": dict(worker_grid=((1, 1), (1, 2), (2, 1)), bandwidth_cap=1 << 30),
    "readahead": dict(read_aheads=(1024, 2048, 4096)),
}


@pytest.mark.parametrize("variant", sorted(SWEEP_POINTS))
def test_sweep_repetitions_go_round_the_points(tmp_path, monkeypatch, variant):
    """With runs faked, each call's point and its row: point i's k-th run
    takes 10 * (i + 1) + k seconds, so a row's median names its walls."""
    calls = []
    point_of = {}  # output directory -> point index, in order of first run

    def fake_run(job, engine):
        point = point_of.setdefault(job.output, len(point_of))
        wall = 10.0 * (point + 1) + sum(1 for p, _ in calls if p == point)
        result = RunResult(
            Manifest([ManifestEntry(0, "part", point)]),
            WorkloadMetrics(wall, engine.worker_count),
            IoStats(bytes_requested=100, bytes_fetched=200),
            job.output,
        )
        calls.append((point, result))
        return result

    monkeypatch.setattr(experiments, "run", fake_run)
    spec = ExperimentSpec(
        variant, str(tmp_path / "data"), str(tmp_path / "report"), n_events=64, n_files=1,
        repetitions=2, **SWEEP_POINTS[variant],
    )
    result = run_experiment(spec)
    assert [point for point, _ in calls] == [0, 1, 2, 0, 1, 2]
    assert [row.median_wall_s for row in result.rows] == [10.5, 20.5, 30.5]
    assert [row.entries_out for row in result.rows] == [0, 1, 2]
    assert result.metrics is calls[-1][1].metrics


class _StubMetrics:
    def summary_table(self) -> str:
        return "stub breakdown"


class TestReport:
    def test_size_report_csv_and_markdown(self, tmp_path):
        from treeduce.bench.report import write_report

        result = SizeScalingResult(
            rows=[
                SizeRow(multiple=1, bytes=1000, median_wall_s=0.5, entries_out=10),
                SizeRow(multiple=2, bytes=2000, median_wall_s=1.0, entries_out=20),
            ],
            slope=0.0005,
            intercept=0.0,
            r2=0.9991,
            metrics=_StubMetrics(),
        )
        paths = write_report("size", result, tmp_path)
        csv_text = Path(paths["csv"]).read_text()
        assert csv_text.splitlines()[0] == "multiple,bytes,median_wall_s,r2"
        assert csv_text.splitlines()[1] == "1,1000,0.500000,0.999100"
        md = Path(paths["markdown"]).read_text()
        assert md.startswith("# size scaling")
        assert "| 2 | 2000 | 1.000000 | 0.999100 |" in md
        assert "R^2 = 0.9991" in md
        assert "## workload breakdown" in md and "stub breakdown" in md

    def test_cores_report(self, tmp_path):
        from treeduce.bench.report import write_report

        result = CoreScalingResult(
            cap_bytes_per_s=1048576.0,
            rows=[CoreRow(executors=2, cores=4, workers=8, median_wall_s=0.25,
                          throughput_bytes_per_s=999.5, entries_out=5)],
        )
        paths = write_report("cores", result, tmp_path)
        csv_text = Path(paths["csv"]).read_text()
        assert csv_text.splitlines()[0] == (
            "executors,cores,workers,median_wall_s,throughput_bytes_per_s,cap_bytes_per_s"
        )
        assert csv_text.splitlines()[1] == "2,4,8,0.250000,999.5,1048576.0"
        md = Path(paths["markdown"]).read_text()
        assert "server bandwidth cap: 1048576 bytes/s" in md
        assert "## workload breakdown" not in md

    def test_readahead_report(self, tmp_path):
        from treeduce.bench.report import write_report

        result = ReadaheadResult(
            cap_bytes_per_s=0.0,
            rows=[ReadaheadRow(read_ahead=65536, bytes_requested=100, bytes_fetched=400,
                               amplification=4.0, median_wall_s=2.0, entries_out=1)],
        )
        paths = write_report("readahead", result, tmp_path)
        csv_text = Path(paths["csv"]).read_text()
        assert csv_text.splitlines()[0] == (
            "read_ahead,bytes_requested,bytes_fetched,amplification,median_wall_s"
        )
        assert csv_text.splitlines()[1] == "65536,100,400,4.0000,2.000000"

    def test_unknown_variant_rejected(self, tmp_path):
        from treeduce.bench.report import write_report

        with pytest.raises(KeyError):
            write_report("latency", SizeScalingResult(), tmp_path)
