"""Per-task and whole-job metrics, with JSON-lines and table output."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


# A task's stages in the order they run, each timed as it ends, then the
# rest of the task's wall time: the fault hook and closing the source.
SPANS = ("fetch", "decode", "skim", "select", "sink", "unaccounted")


@dataclass
class TaskMetrics:
    task_id: int
    wall_s: float
    spans: dict[str, float]  # wall seconds per name in SPANS; they sum to wall_s
    entries_in: int
    entries_out: int
    bytes_fetched: int
    cpu_spans: dict[str, float]  # the worker thread's on-CPU seconds per name in SPANS
    minor_faults: int  # page faults the worker thread took in the task; 0 off Linux


@dataclass
class WorkloadMetrics:
    total_wall_s: float
    worker_count: int
    tasks: list[TaskMetrics] = field(default_factory=list)
    concurrency: list[tuple[float, int]] = field(default_factory=list)  # (t, active)
    throughput: list[tuple[float, float]] = field(default_factory=list)  # (t, bytes/s)

    @property
    def sum_wall_s(self) -> float:
        return sum(t.wall_s for t in self.tasks)

    @property
    def span_s(self) -> dict[str, float]:
        """Each span's seconds summed over all tasks, in SPANS order."""
        return {name: sum(t.spans[name] for t in self.tasks) for name in SPANS}

    @property
    def cpu_span_s(self) -> dict[str, float]:
        """Each span's on-CPU seconds summed over all tasks, in SPANS order."""
        return {name: sum(t.cpu_spans[name] for t in self.tasks) for name in SPANS}

    @property
    def minor_faults(self) -> int:
        return sum(t.minor_faults for t in self.tasks)

    @property
    def sum_read_s(self) -> float:
        return sum(t.spans["fetch"] for t in self.tasks)

    @property
    def sum_decompress_s(self) -> float:
        return sum(t.spans["decode"] for t in self.tasks)

    @property
    def sum_cpu_s(self) -> float:
        return sum(t.spans["skim"] + t.spans["select"] + t.spans["sink"] for t in self.tasks)

    @property
    def entries_in(self) -> int:
        return sum(t.entries_in for t in self.tasks)

    @property
    def entries_out(self) -> int:
        return sum(t.entries_out for t in self.tasks)

    @property
    def bytes_fetched(self) -> int:
        return sum(t.bytes_fetched for t in self.tasks)

    def summary_table(self) -> str:
        """Where task time went: each span's summed wall and on-CPU seconds, and
        its share of task wall time."""
        total = self.sum_wall_s
        cpu = self.cpu_span_s
        rows = [("Total task time", total, sum(cpu.values()), "")] + [
            (name, seconds, cpu[name], f"{seconds / total if total > 0 else 0.0:6.1%}")
            for name, seconds in self.span_s.items()
        ]
        width = max(len(r[0]) for r in rows)
        lines = [f"{'metric':<{width}}  {'seconds':>12}  {'cpu seconds':>12}  fraction"]
        for name, seconds, cpu_seconds, frac in rows:
            lines.append(f"{name:<{width}}  {seconds:12.3f}  {cpu_seconds:12.3f}  {frac}")
        lines.append("")
        lines.append(
            f"job wall time {self.total_wall_s:.3f} s, {len(self.tasks)} tasks on "
            f"{self.worker_count} workers, {self.entries_in} -> {self.entries_out} entries, "
            f"{self.bytes_fetched} bytes fetched, {self.minor_faults} minor page faults"
        )
        return "\n".join(lines)


def write_metrics_jsonl(path: str | Path, metrics: WorkloadMetrics) -> None:
    with open(path, "w") as fh:
        for task in metrics.tasks:
            fh.write(json.dumps({"type": "task", **asdict(task)}) + "\n")
        for t, active in metrics.concurrency:
            fh.write(json.dumps({"type": "concurrency", "t": t, "active": active}) + "\n")
        for t, rate in metrics.throughput:
            fh.write(json.dumps({"type": "throughput", "t": t, "bytes_per_s": rate}) + "\n")
        fh.write(
            json.dumps(
                {
                    "type": "summary",
                    "total_wall_s": metrics.total_wall_s,
                    "worker_count": metrics.worker_count,
                    "sum_wall_s": metrics.sum_wall_s,
                    "span_s": metrics.span_s,
                    "cpu_span_s": metrics.cpu_span_s,
                    "minor_faults": metrics.minor_faults,
                    "entries_in": metrics.entries_in,
                    "entries_out": metrics.entries_out,
                    "bytes_fetched": metrics.bytes_fetched,
                }
            )
            + "\n"
        )


@dataclass
class ManifestEntry:
    task_id: int
    path: str
    entries: int


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    @property
    def total_entries(self) -> int:
        return sum(e.entries for e in self.entries)

    def paths(self) -> list[str]:
        return [e.path for e in self.entries]

    def table(self) -> str:
        lines = [f"{'task':>6}  {'entries':>10}  path"]
        for e in self.entries:
            lines.append(f"{e.task_id:>6}  {e.entries:>10}  {e.path}")
        lines.append(f"{'total':>6}  {self.total_entries:>10}")
        return "\n".join(lines)

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for e in self.entries:
                fh.write(json.dumps(asdict(e)) + "\n")

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "Manifest":
        entries = []
        for line in Path(path).read_text().splitlines():
            if line.strip():
                obj = json.loads(line)
                entries.append(ManifestEntry(obj["task_id"], obj["path"], obj["entries"]))
        return cls(sorted(entries, key=lambda e: e.task_id))
