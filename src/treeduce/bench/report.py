"""Render experiment results as CSV plus a markdown summary.

CSV column sets, one file per variant:

    size_scaling.csv       multiple,bytes,median_wall_s,r2
    core_scaling.csv       executors,cores,workers,median_wall_s,throughput_bytes_per_s,cap_bytes_per_s
    readahead_sweep.csv    read_ahead,bytes_requested,bytes_fetched,amplification,median_wall_s

The markdown echoes the rows and appends the workload time breakdown of
the last recorded run: total task time, then the summed seconds and share
of each task span (fetch, decode, skim, select, sink, unaccounted).
"""

from __future__ import annotations

from pathlib import Path

from .experiments import VARIANTS, CoreScalingResult, ReadaheadResult, SizeScalingResult


def _size_csv(result: SizeScalingResult) -> str:
    lines = ["multiple,bytes,median_wall_s,r2"]
    for row in result.rows:
        lines.append(f"{row.multiple},{row.bytes},{row.median_wall_s:.6f},{result.r2:.6f}")
    return "\n".join(lines) + "\n"


def _cores_csv(result: CoreScalingResult) -> str:
    lines = ["executors,cores,workers,median_wall_s,throughput_bytes_per_s,cap_bytes_per_s"]
    for row in result.rows:
        lines.append(
            f"{row.executors},{row.cores},{row.workers},{row.median_wall_s:.6f},"
            f"{row.throughput_bytes_per_s:.1f},{result.cap_bytes_per_s:.1f}"
        )
    return "\n".join(lines) + "\n"


def _readahead_csv(result: ReadaheadResult) -> str:
    lines = ["read_ahead,bytes_requested,bytes_fetched,amplification,median_wall_s"]
    for row in result.rows:
        lines.append(
            f"{row.read_ahead},{row.bytes_requested},{row.bytes_fetched},"
            f"{row.amplification:.4f},{row.median_wall_s:.6f}"
        )
    return "\n".join(lines) + "\n"


# each result type's file stem and CSV rendering
_FORMATS = {
    SizeScalingResult: ("size_scaling", _size_csv),
    CoreScalingResult: ("core_scaling", _cores_csv),
    ReadaheadResult: ("readahead_sweep", _readahead_csv),
}


def _markdown(stem: str, result, csv_text: str) -> str:
    lines = [f"# {stem.replace('_', ' ')}", ""]
    rows = csv_text.strip().splitlines()
    header = rows[0].split(",")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for row in rows[1:]:
        lines.append("| " + " | ".join(row.split(",")) + " |")
    if isinstance(result, SizeScalingResult):
        if result.rows:
            fit = f"wall_s = {result.slope:.3e} * bytes + {result.intercept:.3f}"
            lines += ["", f"fit: {fit}, R^2 = {result.r2:.4f}"]
    elif result.cap_bytes_per_s:
        lines += ["", f"server bandwidth cap: {result.cap_bytes_per_s:.0f} bytes/s"]
    if result.metrics is not None:
        lines += ["", "## workload breakdown (last run)", "", "```", result.metrics.summary_table(), "```"]
    return "\n".join(lines) + "\n"


def write_report(variant: str, result, out_dir: str | Path) -> dict[str, str]:
    """Write <stem>.csv and <stem>.md; returns the paths written."""
    if variant not in VARIANTS:
        raise KeyError(f"unknown experiment variant {variant!r}")
    stem, to_csv = _FORMATS[type(result)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_text = to_csv(result)
    csv_path = out / f"{stem}.csv"
    md_path = out / f"{stem}.md"
    csv_path.write_text(csv_text)
    md_path.write_text(_markdown(stem, result, csv_text))
    return {"csv": str(csv_path), "markdown": str(md_path)}
