"""Expected outputs of the benchmark job, computed with plain numpy.

The oracle reads whole input columns through ``treefile`` and derives the
skim mask, the kept columns, ``leading_pt`` and the histogram without
``engine``, ``exprlang`` or ``histagg``, so a defect in those layers cannot
hide itself. Every comparison is exact: the job's arithmetic (a float32
maximum widened to float64, one comparison, one bin index per event) has a
single correct answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from treeduce import treefile

TREE = "Events"
SKIM = "nMuon >= 2 && max(Muon_pt) > 20"
KEEP = ("MET", "Muon_pt")
DERIVED = (("leading_pt", "max(Muon_pt)"),)
HIST_NUM, HIST_LOW, HIST_HIGH = 40, 0.0, 200.0
HIST_SPEC = f"bin({HIST_NUM}, {HIST_LOW:g}, {HIST_HIGH:g}, 'max(Muon_pt)')"

# kept-event counts pinned by hand for seeds whose dataset was inspected
KNOWN_KEPT = {1: 406146}


class VerifyError(Exception):
    """A job's output differs from the oracle."""


@dataclass
class Expected:
    n_events: int
    kept_per_task: list[int]
    met: np.ndarray
    muon_counts: np.ndarray
    muon_pt: np.ndarray
    leading_pt: np.ndarray
    hist_entries: np.ndarray  # HIST_NUM bins, then underflow, overflow, nanflow

    @property
    def kept(self) -> int:
        return len(self.met)


def _leading(counts: np.ndarray, offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    lead = np.full(len(counts), np.nan)
    filled = counts > 0
    if filled.any():
        lead[filled] = np.maximum.reduceat(values.astype(np.float64), offsets[:-1][filled])
    return lead


def expected_outputs(paths: list[str], partition_entries: int) -> Expected:
    """Oracle for the benchmark job over ``paths`` split into ``partition_entries`` tasks."""
    masks, mets, counts, pts, leads, kept_per_task = [], [], [], [], [], []
    for path in paths:
        with treefile.open_file(path) as reader:
            n_muon = reader.read_column(TREE, "nMuon").values
            met = reader.read_column(TREE, "MET").values
            pt = reader.read_column(TREE, "Muon_pt")
        cnt = np.diff(pt.offsets)
        lead = _leading(cnt, pt.offsets, pt.values)
        with np.errstate(invalid="ignore"):
            mask = (n_muon >= 2) & (lead > 20)
        for start in range(0, len(mask), partition_entries):
            kept_per_task.append(int(np.count_nonzero(mask[start : start + partition_entries])))
        masks.append(mask)
        mets.append(met[mask])
        counts.append(cnt[mask])
        pts.append(pt.values[np.repeat(mask, cnt)])
        leads.append(lead[mask])
    leading_pt = np.concatenate(leads)
    return Expected(
        n_events=sum(len(m) for m in masks),
        kept_per_task=kept_per_task,
        met=np.concatenate(mets),
        muon_counts=np.concatenate(counts),
        muon_pt=np.concatenate(pts),
        leading_pt=leading_pt,
        hist_entries=_bin_counts(leading_pt),
    )


def _bin_counts(q: np.ndarray) -> np.ndarray:
    """Half-open regular bins: idx = floor((q - low) / (high - low) * num), clamped."""
    nan = np.isnan(q)
    under = q < HIST_LOW
    over = q >= HIST_HIGH
    inside = ~(nan | under | over)
    idx = np.floor((q[inside] - HIST_LOW) / (HIST_HIGH - HIST_LOW) * HIST_NUM).astype(np.int64)
    bins = np.bincount(np.minimum(idx, HIST_NUM - 1), minlength=HIST_NUM)
    flows = [np.count_nonzero(under), np.count_nonzero(over), np.count_nonzero(nan)]
    return np.concatenate([bins, flows]).astype(np.int64)


def check_seed(seed: int, exp: Expected) -> None:
    want = KNOWN_KEPT.get(seed)
    if want is not None and exp.kept != want:
        raise VerifyError(f"seed {seed}: oracle keeps {exp.kept} events, expected {want}")


def _same(name: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.dtype != want.dtype or not np.array_equal(got, want):
        bad = "dtype" if got.dtype != want.dtype else "values"
        raise VerifyError(f"{name}: {bad} differ from the oracle")


def verify_parts(part_paths: list[str], exp: Expected) -> None:
    """Check one reduce job's part files, in task order, against the oracle."""
    if len(part_paths) != len(exp.kept_per_task):
        raise VerifyError(f"{len(part_paths)} part files for {len(exp.kept_per_task)} tasks")
    met, counts, pt, lead = [], [], [], []
    for task_id, (path, want) in enumerate(zip(part_paths, exp.kept_per_task)):
        with treefile.open_file(path) as reader:
            tree = reader.tree(TREE)
            names = set(KEEP) | {name for name, _ in DERIVED}
            if set(tree.branches) != names:
                raise VerifyError(f"task {task_id}: branches {sorted(tree.branches)}")
            if tree.n_entries != want:
                raise VerifyError(f"task {task_id}: {tree.n_entries} entries, expected {want}")
            met.append(reader.read_column(TREE, "MET").values)
            chunk = reader.read_column(TREE, "Muon_pt")
            counts.append(np.diff(chunk.offsets))
            pt.append(chunk.values)
            lead.append(reader.read_column(TREE, "leading_pt").values)
    _same("MET", np.concatenate(met), exp.met)
    _same("Muon_pt counts", np.concatenate(counts), exp.muon_counts)
    _same("Muon_pt", np.concatenate(pt), exp.muon_pt)
    _same("leading_pt", np.concatenate(lead), exp.leading_pt)


def verify_hist_csv(text: str, exp: Expected) -> None:
    """Check a ``treeduce hist`` CSV: bin edges and every count, flows included."""
    lines = text.splitlines()
    if not lines or lines[0] != "bin_low,bin_high,entries":
        raise VerifyError("hist CSV header differs")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != HIST_NUM + 3 or any(len(r) != 3 for r in rows):
        raise VerifyError(f"hist CSV has {len(rows)} rows, expected {HIST_NUM + 3}")
    width = HIST_HIGH - HIST_LOW
    edges = [HIST_LOW + width * k / HIST_NUM for k in range(HIST_NUM)] + [-np.inf, HIST_HIGH]
    for k, (row, want) in enumerate(zip(rows, exp.hist_entries)):
        if float(row[2]) != float(want):
            raise VerifyError(f"hist row {k}: {row[2]} entries, expected {want}")
        if k < len(edges) and float(row[0]) != edges[k]:
            raise VerifyError(f"hist row {k}: low edge {row[0]}, expected {edges[k]}")

