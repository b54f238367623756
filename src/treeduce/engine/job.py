"""Job and engine configuration, including the plain-text job-file format.

A job file is `key = value` lines; `#` starts a comment. `input` may repeat,
`keep` is comma-separated, expressions may be single- or double-quoted, and
derived columns use `derive.NAME = "expr"`:

    input = data/events-00000.trf
    input = data/events-00001.trf
    tree = Events
    keep = MET, Muon_pt
    skim = "nMuon >= 2 && max(Muon_pt) > 20"
    derive.leading_pt = "max(Muon_pt)"
    output = out
    partition_entries = 65536
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class EngineError(Exception):
    pass


@dataclass
class JobSpec:
    inputs: list[str]
    tree: str
    keep_columns: list[str]
    skim: str | None = None
    derived: list[tuple[str, str]] = field(default_factory=list)
    output: str = "out"
    partition_entries: int = 65536

    def __post_init__(self):
        if not self.inputs:
            raise EngineError("job has no input files")
        if not self.keep_columns and not self.derived:
            raise EngineError("job keeps no columns and derives none")
        derived_names = [name for name, _ in self.derived]
        if len(set(derived_names)) != len(derived_names):
            raise EngineError("duplicate derived column names")
        clash = set(derived_names) & set(self.keep_columns)
        if clash:
            raise EngineError(f"derived names shadow kept branches: {sorted(clash)}")
        if self.partition_entries < 1:
            raise EngineError("partition_entries must be >= 1")
        if len(set(self.keep_columns)) != len(self.keep_columns):
            raise EngineError("duplicate names in keep_columns")


@dataclass
class EngineConfig:
    """Worker pool shape and read strategy.

    With ``planned_reads`` (the default) each task fetches exactly the
    baskets it needs, with one vectored read per task, and reuses the
    directory the planner read. ``read_ahead`` then sizes only the
    planner's window. ``planned_reads=False`` makes each task reopen its
    input and read basket by basket through the ``read_ahead`` window;
    the read-ahead experiment uses it to measure that window. Those basket
    fetches then fall in the task's ``decode`` span, not in ``fetch``.
    ``sample_interval`` is the step, in seconds, of the run's concurrency
    and throughput timeline.
    """

    executors: int = 1
    cores_per_executor: int = 1
    read_ahead: int = 65536
    sample_interval: float = 0.05
    planned_reads: bool = True

    def __post_init__(self):
        if self.executors < 1 or self.cores_per_executor < 1:
            raise EngineError("executors and cores_per_executor must be >= 1")

    @property
    def worker_count(self) -> int:
        return self.executors * self.cores_per_executor


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def load_job_file(path: str | Path) -> JobSpec:
    inputs: list[str] = []
    derived: list[tuple[str, str]] = []
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EngineError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = _unquote(value.strip())
        if key == "input":
            inputs.append(value)
        elif key.startswith("derive."):
            derived.append((key[len("derive."):], value))
        elif key in ("tree", "keep", "skim", "output", "partition_entries"):
            if key in fields:
                raise EngineError(f"{path}:{lineno}: duplicate key {key!r}")
            fields[key] = value
        else:
            raise EngineError(f"{path}:{lineno}: unknown key {key!r}")
    if "tree" not in fields:
        raise EngineError(f"{path}: missing required key 'tree'")
    keep = [c.strip() for c in fields.get("keep", "").split(",") if c.strip()]
    return JobSpec(
        inputs=inputs,
        tree=fields["tree"],
        keep_columns=keep,
        skim=fields.get("skim"),
        derived=derived,
        output=fields.get("output", "out"),
        partition_entries=int(fields.get("partition_entries", "65536")),
    )
