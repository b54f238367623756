"""Job and engine configuration, including the plain-text job-file format.

A job file is `key = value` lines; `#` starts a comment. `input` may repeat,
`keep` is comma-separated, expressions may be single- or double-quoted, and
derived columns use `derive.NAME = "expr"`, where NAME is a column name an
expression can read (``exprlang.is_column_name``):

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

import os
from collections.abc import Callable, Container, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .. import exprlang
from ..sources import READ_AHEAD


# Entries per task when a job names none
DEFAULT_PARTITION_ENTRIES = 65536


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
    partition_entries: int = DEFAULT_PARTITION_ENTRIES

    def __post_init__(self):
        if not self.inputs:
            raise EngineError("job has no input files")
        if not self.keep_columns and not self.derived:
            raise EngineError("job keeps no columns and derives none")
        derived_names = [name for name, _ in self.derived]
        if len(set(derived_names)) != len(derived_names):
            raise EngineError("duplicate derived column names")
        unreadable = [name for name in derived_names if not exprlang.is_column_name(name)]
        if unreadable:
            raise EngineError(f"derived names that no expression can read: {unreadable}")
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
    """

    executors: int = 1
    cores_per_executor: int = 1
    read_ahead: int = READ_AHEAD
    planned_reads: bool = True

    def __post_init__(self):
        if self.executors < 1 or self.cores_per_executor < 1:
            raise EngineError("executors and cores_per_executor must be >= 1")
        if self.read_ahead < 1:
            raise EngineError("read_ahead must be >= 1")

    @property
    def worker_count(self) -> int:
        return self.executors * self.cores_per_executor


def usable_cores() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def read_settings(
    path: str | Path, once: Container[str], repeats: Callable[[str], bool] = lambda key: False
) -> Iterator[tuple[str, str, str]]:
    """Yield ``(place, key, value)`` for each ``key = value`` line at ``path``.

    Blank lines and lines starting with ``#`` are skipped, and a value's
    matching outer quotes are removed. ``place`` is ``path:line``, the
    prefix of every error about that line. A key in ``once`` may appear
    once; a key ``repeats`` accepts, any number of times; any other key is
    an error.
    """
    seen = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        place = f"{path}:{lineno}"
        if "=" not in line:
            raise EngineError(f"{place}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in once:
            if key in seen:
                raise EngineError(f"{place}: duplicate key {key!r}")
            seen.add(key)
        elif not repeats(key):
            raise EngineError(f"{place}: unknown key {key!r}")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        yield place, key, value


def load_job_file(path: str | Path) -> JobSpec:
    inputs: list[str] = []
    derived: list[tuple[str, str]] = []
    fields: dict = {}  # JobSpec keyword arguments
    for place, key, value in read_settings(
        path,
        ("tree", "keep", "skim", "output", "partition_entries"),
        lambda key: key == "input" or key.startswith("derive."),
    ):
        if key == "input":
            inputs.append(value)
        elif key.startswith("derive."):
            derived.append((key[len("derive."):], value))
        elif key == "partition_entries":
            try:
                fields[key] = int(value)
            except ValueError as exc:
                raise EngineError(f"{place}: {exc}") from None
        else:
            fields[key] = value
    if "tree" not in fields:
        raise EngineError(f"{path}: missing required key 'tree'")
    keep = [c.strip() for c in fields.pop("keep", "").split(",") if c.strip()]
    return JobSpec(inputs=inputs, keep_columns=keep, derived=derived, **fields)
