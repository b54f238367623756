"""Split a job into entry-range tasks and validate schemas up front."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .. import exprlang
from ..sources import open_source
from ..treefile import Directory, Dtype, Shape, open_file
from ..xrdlite import ConnectionPool
from .job import EngineConfig, EngineError, JobSpec

Schema = dict[str, tuple[Dtype, Shape]]

_KIND_DTYPE = {
    exprlang.Kind.I64: Dtype.I64,
    exprlang.Kind.F64: Dtype.F64,
    exprlang.Kind.BOOL: Dtype.BOOL,
}


@dataclass(frozen=True)
class Task:
    task_id: int
    input: str
    entry_start: int
    entry_stop: int

    @property
    def n_entries(self) -> int:
        return self.entry_stop - self.entry_start


class JobExprs(NamedTuple):
    """A job's parsed skim and derived expressions."""

    skim: exprlang.Expr | None
    derived: list[tuple[str, exprlang.Expr]]


def _parse(text: str) -> exprlang.Expr:
    try:
        return exprlang.parse(text)
    except exprlang.ParseError as exc:
        raise EngineError(f"bad expression in job: {exc}") from exc


def parse_skim(job: JobSpec) -> exprlang.Expr | None:
    """Parse the job's skim, if any; a fill parses none of the job's other expressions."""
    return _parse(job.skim) if job.skim else None


def parse_job_exprs(job: JobSpec) -> JobExprs:
    """Parse skim and derived expression texts once, for planner and runner."""
    return JobExprs(parse_skim(job), [(name, _parse(text)) for name, text in job.derived])


def sink_inputs(
    skim: exprlang.Expr | None, exprs: list[exprlang.Expr], keep=()
) -> tuple[tuple[str, ...], tuple[str, ...], frozenset[exprlang.Expr]]:
    """The columns a task reads and its sink is handed, and the nodes shared with the skim.

    The skim's values of a shared node, selected like a column, stand in
    for the node, so a column the sink reads only inside shared nodes is
    not selected for it. The selected columns are those ``exprs`` read
    outside shared nodes, plus ``keep``. A task reads them and the skim's
    columns: every column the job refers to, as shared nodes lie in the skim.
    """
    shared = exprlang.shared_nodes(skim, exprs)
    selected = set(keep)
    for expr in exprs:
        selected |= exprlang.column_refs(expr, shared)
    read = selected if skim is None else selected | exprlang.column_refs(skim)
    return tuple(sorted(read)), tuple(sorted(selected)), shared


def check_skim(skim: exprlang.Expr | None, schema: Schema) -> None:
    """A skim, if any, must typecheck to a scalar bool."""
    if skim is None:
        return
    try:
        result = exprlang.typecheck(skim, schema)
    except exprlang.ExprTypeError as exc:
        raise EngineError(f"job does not typecheck: {exc}") from exc
    if result.jagged or result.kind is not exprlang.Kind.BOOL:
        raise EngineError(f"skim must be a scalar bool, got {result}")


def check_job(job: JobSpec, schema: Schema, exprs: JobExprs) -> dict[str, Dtype]:
    """Typecheck the job's expressions; skim must be a scalar bool, derived scalars.

    Returns the dtype of each derived column.
    """
    check_skim(exprs.skim, schema)
    derived_dtypes = {}
    try:
        for name, expr in exprs.derived:
            result = exprlang.typecheck(expr, schema)
            if result.jagged:
                raise EngineError(f"derived column {name!r} is per-event jagged, not scalar")
            derived_dtypes[name] = _KIND_DTYPE[result.kind]
    except exprlang.ExprTypeError as exc:
        raise EngineError(f"job does not typecheck: {exc}") from exc
    for name in job.keep_columns:
        if name not in schema:
            raise EngineError(f"kept column {name!r} not in tree schema")
    return derived_dtypes


def probe_inputs(
    job: JobSpec,
    engine: EngineConfig,
    columns: tuple[str, ...],
    connections: ConnectionPool,
) -> tuple[Schema, list[Directory]]:
    """Read each input's directory; reject schema drift on ``columns``.

    Returns the schema of ``columns`` in the first input and each input's
    parsed directory, which tasks reuse instead of reading it again.
    Remote inputs are read over the calling thread's connections from
    ``connections``.
    """
    schema: Schema | None = None
    directories: list[Directory] = []
    for path in job.inputs:
        source = open_source(path, read_ahead=engine.read_ahead, connections=connections)
        try:
            reader = open_file(source)  # borrows the source, so owns nothing to close
            if job.tree not in reader.trees:
                raise EngineError(f"{path}: no tree named {job.tree!r}")
            tree = reader.tree(job.tree)
            this = {}
            for name in columns:
                if name not in tree.branches:
                    raise EngineError(f"{path}: required column {name!r} missing")
                meta = tree.branches[name]
                this[name] = (meta.dtype, meta.shape)
            if schema is None:
                schema = this
            elif this != schema:
                raise EngineError(f"{path}: schema differs from first input on required columns")
            directories.append((reader.header, reader.trees))
        finally:
            source.close()
    if schema is None:
        schema = {}
    return schema, directories


def tasks_from_counts(job: JobSpec, entry_counts: list[int]) -> list[Task]:
    """Per input, ceil(entries / partition_entries) tasks in file-then-entry order."""
    tasks: list[Task] = []
    task_id = 0
    for path, n_entries in zip(job.inputs, entry_counts):
        for start in range(0, n_entries, job.partition_entries):
            stop = min(start + job.partition_entries, n_entries)
            tasks.append(Task(task_id, path, start, stop))
            task_id += 1
    return tasks
