"""Expression language for skim predicates and derived columns.

Precedence, loosest first: ``||``, ``&&``, comparisons, ``+ -``, ``* /``,
unary ``- !``, then calls and atoms. Comparisons do not chain. The builtin
calls are count, sum, max, min (jagged input, scalar output) plus abs and
sqrt (elementwise).

Evaluation is columnar over entry ranges, with a semantics chosen so that
the result is bitwise identical to a per-event interpreter:

- integers are 64-bit and wrap on overflow; integer division floors and
  raises on a zero divisor
- float arithmetic is IEEE double; division by zero yields inf/NaN
- sum folds each event's elements left to right from zero
- max/min return f64, propagate NaN, and yield NaN on an empty event
- ``&&`` and ``||`` do not short-circuit
"""

from __future__ import annotations

import re
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .treefile import ColumnChunk, Dtype, Shape


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprTypeError(ExprError):
    pass


class EvalError(ExprError):
    pass


class Kind(Enum):
    BOOL = "bool"
    I64 = "i64"
    F64 = "f64"

    @property
    def numpy(self) -> np.dtype:
        return _KIND_NUMPY[self]


_KIND_NUMPY = {
    Kind.BOOL: np.dtype(bool),
    Kind.I64: np.dtype(np.int64),
    Kind.F64: np.dtype(np.float64),
}

# Column dtypes widen losslessly on load; the expression engine only
# distinguishes bool, 64-bit int, and double.
_DTYPE_KIND = {
    Dtype.I32: Kind.I64,
    Dtype.I64: Kind.I64,
    Dtype.F32: Kind.F64,
    Dtype.F64: Kind.F64,
    Dtype.BOOL: Kind.BOOL,
}


@dataclass(frozen=True)
class ExprType:
    kind: Kind
    jagged: bool

    def __str__(self) -> str:
        return f"{'jagged ' if self.jagged else ''}{self.kind.value}"


# ---------------------------------------------------------------------------
# AST
#
# `offset` is excluded from equality so that structurally identical
# expressions compare equal regardless of where they sat in the source.


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Literal(Expr):
    value: object
    kind: Kind
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr
    offset: int = field(default=0, compare=False)


FUNCTIONS = ("count", "sum", "max", "min", "abs", "sqrt")
_AGGREGATES = ("count", "sum", "max", "min")

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def reads(expr: Expr, provided: Container) -> set[str | Expr]:
    """What evaluating ``expr`` reads when the nodes in ``provided`` come ready.

    That is each node of ``provided`` it reaches, plus the name of every
    column it references outside those nodes.
    """
    out: set[str | Expr] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            out.add(node.name)
        elif node in provided:
            out.add(node)
        else:
            stack.extend(_children(node))
    return out


def column_refs(expr: Expr, shared: Container = ()) -> set[str]:
    """Names of every column the expression reads outside the ``shared`` nodes."""
    return {key for key in reads(expr, shared) if isinstance(key, str)}


def shared_nodes(skim: Expr | None, exprs: Iterable[Expr]) -> frozenset[Expr]:
    """The largest subexpressions of ``exprs`` that also occur in ``skim``.

    Column references and literals are never shared: there is nothing to
    save by not reading them again.
    """
    if skim is None:
        return frozenset()
    in_skim: set[Expr] = set()
    stack = [skim]
    while stack:
        node = stack.pop()
        if not isinstance(node, (ColumnRef, Literal)):
            in_skim.add(node)
            stack.extend(_children(node))
    shared: set[Expr] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if node in in_skim:
            shared.add(node)
        else:
            stack.extend(_children(node))
    return frozenset(shared)


# ---------------------------------------------------------------------------
# tokenizer / parser


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<op>\|\||&&|==|!=|<=|>=|[+\-*/<>!()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.or_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.offset)
        return expr

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.peek().kind == "op" and self.peek().text == "||":
            tok = self.advance()
            left = Binary("||", left, self.and_expr(), offset=tok.offset)
        return left

    def and_expr(self) -> Expr:
        left = self.cmp_expr()
        while self.peek().kind == "op" and self.peek().text == "&&":
            tok = self.advance()
            left = Binary("&&", left, self.cmp_expr(), offset=tok.offset)
        return left

    def cmp_expr(self) -> Expr:
        left = self.add_expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _COMPARISONS:
            self.advance()
            # no chaining: a < b < c is a syntax error at the second '<'
            return Binary(tok.text, left, self.add_expr(), offset=tok.offset)
        return left

    def add_expr(self) -> Expr:
        left = self.mul_expr()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            tok = self.advance()
            left = Binary(tok.text, left, self.mul_expr(), offset=tok.offset)
        return left

    def mul_expr(self) -> Expr:
        left = self.unary_expr()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            tok = self.advance()
            left = Binary(tok.text, left, self.unary_expr(), offset=tok.offset)
        return left

    def unary_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "!"):
            self.advance()
            return Unary(tok.text, self.unary_expr(), offset=tok.offset)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if any(c in tok.text for c in ".eE"):
                return Literal(float(tok.text), Kind.F64, offset=tok.offset)
            value = int(tok.text)
            if value > 2**63 - 1:
                raise ParseError("integer literal out of range", tok.offset)
            return Literal(value, Kind.I64, offset=tok.offset)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return Literal(True, Kind.BOOL, offset=tok.offset)
            if tok.text == "false":
                return Literal(False, Kind.BOOL, offset=tok.offset)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                arg = self.or_expr()
                self.expect_op(")")
                return Call(tok.text, arg, offset=tok.offset)
            return ColumnRef(tok.text, offset=tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.or_expr()
            self.expect_op(")")
            return expr
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected {tok.text!r}", tok.offset)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# typecheck


def _numeric(t: ExprType) -> bool:
    return t.kind in (Kind.I64, Kind.F64)


def _promote(a: Kind, b: Kind) -> Kind:
    return Kind.F64 if Kind.F64 in (a, b) else Kind.I64


def typecheck(expr: Expr, schema: dict[str, tuple[Dtype, Shape]]) -> ExprType:
    """Resolve the expression's result type against a tree schema.

    Raises :class:`ExprTypeError` on unknown columns, non-numeric
    arithmetic, aggregates applied to flat columns, or mixed-shape misuse.
    """
    if isinstance(expr, Literal):
        return ExprType(expr.kind, jagged=False)
    if isinstance(expr, ColumnRef):
        if expr.name not in schema:
            raise ExprTypeError(f"unknown column {expr.name!r}")
        dtype, shape = schema[expr.name]
        return ExprType(_DTYPE_KIND[Dtype(dtype)], jagged=Shape(shape) is Shape.JAGGED)
    if isinstance(expr, Unary):
        inner = typecheck(expr.operand, schema)
        if expr.op == "-":
            if not _numeric(inner):
                raise ExprTypeError(f"unary '-' needs a numeric operand, got {inner}")
            return inner
        if not (inner.kind is Kind.BOOL):
            raise ExprTypeError(f"'!' needs a bool operand, got {inner}")
        return inner
    if isinstance(expr, Binary):
        left = typecheck(expr.left, schema)
        right = typecheck(expr.right, schema)
        jagged = left.jagged or right.jagged
        if expr.op in ("&&", "||"):
            if left.kind is not Kind.BOOL or right.kind is not Kind.BOOL:
                raise ExprTypeError(f"{expr.op!r} needs bool operands, got {left} and {right}")
            return ExprType(Kind.BOOL, jagged)
        if expr.op in _COMPARISONS:
            if _numeric(left) and _numeric(right):
                return ExprType(Kind.BOOL, jagged)
            if left.kind is Kind.BOOL and right.kind is Kind.BOOL and expr.op in ("==", "!="):
                return ExprType(Kind.BOOL, jagged)
            raise ExprTypeError(f"cannot compare {left} with {right} using {expr.op!r}")
        if not (_numeric(left) and _numeric(right)):
            raise ExprTypeError(f"{expr.op!r} needs numeric operands, got {left} and {right}")
        return ExprType(_promote(left.kind, right.kind), jagged)
    if isinstance(expr, Call):
        inner = typecheck(expr.arg, schema)
        if expr.func in _AGGREGATES:
            if not inner.jagged:
                raise ExprTypeError(f"{expr.func} needs a jagged argument, got scalar {inner}")
            if expr.func == "count":
                return ExprType(Kind.I64, jagged=False)
            if not _numeric(inner):
                raise ExprTypeError(f"{expr.func} needs numeric elements, got {inner}")
            if expr.func == "sum":
                return ExprType(inner.kind, jagged=False)
            return ExprType(Kind.F64, jagged=False)  # max/min: NaN must be representable
        if not _numeric(inner):
            raise ExprTypeError(f"{expr.func} needs a numeric argument, got {inner}")
        if expr.func == "sqrt":
            return ExprType(Kind.F64, inner.jagged)
        return inner  # abs
    raise ExprTypeError(f"unhandled node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# evaluation


def _load(chunk: ColumnChunk) -> ColumnChunk:
    """The chunk with its values widened to the language's int64 or f64."""
    if chunk.values.dtype == np.int32:
        return chunk.with_values(chunk.values.astype(np.int64))
    if chunk.values.dtype == np.float32:
        return chunk.with_values(chunk.values.astype(np.float64))
    return chunk


def _flatten_pair(
    a: ColumnChunk, b: ColumnChunk, offset: int
) -> tuple[np.ndarray, np.ndarray, ColumnChunk]:
    """Align two operands elementwise, broadcasting scalars over jagged peers.

    The third item is the operand whose entries the result has.
    """
    if a.is_jagged and b.is_jagged:
        if len(a.offsets) != len(b.offsets) or not np.array_equal(a.offsets, b.offsets):
            raise EvalError(
                f"jagged operands have different per-event lengths (operator at offset {offset})"
            )
        return a.values, b.values, a
    if a.is_jagged:
        return a.values, b.values[a.events()], a
    if b.is_jagged:
        return a.values[b.events()], b.values, b
    return a.values, b.values, a


def _fold_sum(val: ColumnChunk) -> np.ndarray:
    """Per-event left-to-right sum, matching a scalar accumulator loop bitwise.

    ``np.add.at`` adds element by element in index order, over the chunk's
    element-to-event index, into accumulators that start at 0.
    """
    events = val.events()
    out = np.zeros(val.n_entries, dtype=val.values.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE f64, as + does
        np.add.at(out, events, val.values[: len(events)])
    return out


def _fold_extremum(val: ColumnChunk, op) -> np.ndarray:
    """Per-event max/min in f64; NaN elements poison the event, empty gives NaN.

    Folds in the values' own dtype, then widens: widening to f64 is
    monotonic, so it commutes with max/min. Each event's accumulator starts
    at ``op``'s identity for that dtype, and ``op.at`` applies ``op`` over
    the chunk's element-to-event index in index order, so each event folds
    left to right: mixed signed zeros resolve as in a scalar loop, and
    np.maximum/minimum propagate NaN. Empty events are set to NaN after.
    """
    events = val.events()
    values = val.values[: len(events)]
    if values.dtype.kind == "f":
        identity = -np.inf if op is np.maximum else np.inf
    else:
        info = np.iinfo(values.dtype)
        identity = info.min if op is np.maximum else info.max
    acc = np.full(val.n_entries, identity, dtype=values.dtype)
    with np.errstate(invalid="ignore"):  # a NaN poisons its event, as intended
        op.at(acc, events, values)
    out = acc.astype(np.float64, copy=False)
    out[val.offsets[1:] == val.offsets[:-1]] = np.nan
    return out


def evaluate(
    expr: Expr,
    columns: dict[str | Expr, ColumnChunk],
    n_entries: int | None = None,
    record: dict[Expr, ColumnChunk | None] | None = None,
) -> ColumnChunk:
    """Evaluate over an entry range; every input must cover the same entries.

    ``columns`` maps column names to chunks. It may also map an ``Expr``
    node to that node's values over the same entries, as ``record`` gave
    them. Evaluation then takes those values and does not descend into the
    node, so the columns beneath it need not be provided.

    ``record``, if given, is a dict keyed by ``Expr`` nodes; every key that
    occurs in ``expr`` is set to that node's values, as a chunk.

    The expression should already typecheck against the schema the columns
    came from. Returns a flat chunk for scalar results or a jagged chunk
    for per-event arrays.
    """
    keys = reads(expr, columns)
    for key in keys:
        if key not in columns:
            raise EvalError(f"column {key!r} not provided")
    lengths = {columns[key].n_entries for key in keys}
    if len(lengths) > 1:
        raise EvalError(f"columns cover different entry counts: {sorted(lengths)}")
    if n_entries is None:
        if not lengths:
            raise EvalError("expression reads no columns; pass n_entries explicitly")
        n_entries = lengths.pop()
    elif lengths and lengths != {n_entries}:
        raise EvalError(f"columns cover {lengths.pop()} entries, expected {n_entries}")

    return _eval(expr, columns, n_entries, {} if record is None else record)


def _eval(
    expr: Expr, columns: dict[str | Expr, ColumnChunk], n: int, record: dict
) -> ColumnChunk:
    if expr in columns:
        return _load(columns[expr])
    val = _eval_node(expr, columns, n, record)
    if expr in record:
        record[expr] = val
    return val


def _eval_node(
    expr: Expr, columns: dict[str | Expr, ColumnChunk], n: int, record: dict
) -> ColumnChunk:
    if isinstance(expr, Literal):
        return ColumnChunk(np.full(n, expr.value, dtype=expr.kind.numpy))
    if isinstance(expr, ColumnRef):
        return _load(columns[expr.name])
    if isinstance(expr, Unary):
        inner = _eval(expr.operand, columns, n, record)
        if expr.op == "-":
            return inner.with_values(np.negative(inner.values))
        return inner.with_values(~inner.values)
    if isinstance(expr, Binary):
        left = _eval(expr.left, columns, n, record)
        right = _eval(expr.right, columns, n, record)
        a, b, entries = _flatten_pair(left, right, expr.offset)
        return entries.with_values(_apply_binary(expr.op, a, b, expr.offset))
    if isinstance(expr, Call):
        if expr.func in ("count", "max", "min") and isinstance(expr.arg, ColumnRef):
            # these folds need no widened copy of the stored values
            inner = columns[expr.arg.name]
        else:
            inner = _eval(expr.arg, columns, n, record)
        if expr.func in _AGGREGATES:
            if not inner.is_jagged:
                raise EvalError(f"{expr.func} applied to a scalar value")
            if expr.func == "count":
                return ColumnChunk(np.diff(inner.offsets).astype(np.int64))
            if expr.func == "sum":
                return ColumnChunk(_fold_sum(inner))
            op = np.maximum if expr.func == "max" else np.minimum
            return ColumnChunk(_fold_extremum(inner, op))
        if expr.func == "abs":
            return inner.with_values(np.abs(inner.values))
        with np.errstate(invalid="ignore"):
            return inner.with_values(np.sqrt(inner.values.astype(np.float64, copy=False)))
    raise EvalError(f"unhandled node {type(expr).__name__}")


def _apply_binary(op: str, a: np.ndarray, b: np.ndarray, offset: int) -> np.ndarray:
    if op in ("&&", "||"):
        return (a & b) if op == "&&" else (a | b)
    if op in _COMPARISONS:
        if (a.dtype == bool or b.dtype == bool) and op not in ("==", "!="):
            raise EvalError(f"bool values only support == and != (operator at offset {offset})")
        with np.errstate(invalid="ignore"):
            return {
                "==": np.equal, "!=": np.not_equal,
                "<": np.less, "<=": np.less_equal,
                ">": np.greater, ">=": np.greater_equal,
            }[op](a, b)
    if op == "/":
        if a.dtype == b.dtype == np.int64:
            if np.any(b == 0):
                raise EvalError(f"integer division by zero (operator at offset {offset})")
            with np.errstate(over="ignore"):  # INT64_MIN / -1 wraps, as + - * do
                return a // b
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # IEEE f64
            return a / b
    func = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    with np.errstate(over="ignore", invalid="ignore"):  # i64 wraps; inf - inf is NaN
        return func(a, b)
