"""Mergeable histogram aggregators: Count, Sum, and Bin.

Aggregators are filled independently (one per worker, typically) and
merged afterward with :func:`combine`, which is associative and
commutative up to floating-point reassociation. Entries are stored as
f64; with integer weights every bookkeeping quantity stays exact, so
partition-then-merge reproduces sequential filling bitwise.

Bin uses half-open intervals [low, high): q == high lands in overflow,
NaN lands in nanflow, and the in-range index is
floor((q - low) / (high - low) * num), clamped to num - 1 to absorb
round-up at the top edge.

A Sum adds weight x quantity to its ``sum`` only where the weight is not
0: an entry of weight 0 adds nothing, even if its quantity is inf or NaN.

Each aggregator keeps its state in f64 arrays with one slot per *cell*
of the Bins above it; a top-level aggregator has one cell. ``Count``
keeps ``entries``, ``Sum`` keeps ``entries`` and ``sum``, and a Bin
keeps ``entries`` and one child aggregator, ``value``, with
``num + 3`` cells for each of its own: cell ``c * (num + 3) + k`` of
the child holds what the Bin's cell ``c`` routed to bin ``k``, where
``k = num, num + 1, num + 2`` are underflow, overflow and nanflow. A
Bin fills its child once per chunk, handing it each entry's cell. The
cells of all levels together may number at most ``MAX_CELLS``; a
larger histogram is a ``HistError`` when it is created.

Quantities are evaluated once over the whole chunk, at every level.
Besides columns, the ``columns`` a filling reads may hold the values of
subexpressions of its quantities, keyed by ``Expr`` (see
``exprlang.evaluate``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .exprlang import (
    Expr,
    ExprTypeError,
    Kind,
    ParseError,
    Tokens,
    evaluate,
    parse,
    scalar_kind,
)
from .treefile import ColumnChunk, Dtype, Shape

MAX_CELLS = 1 << 20


class HistError(Exception):
    pass


def _as_weights(n: int, weights) -> np.ndarray:
    if weights is None:
        return np.ones(n, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise HistError(f"weights shape {w.shape} does not match {n} entries")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise HistError("weights must be finite and >= 0")
    return w


def _scalar_quantity(quantity: Expr, columns: dict[str, ColumnChunk], n: int) -> np.ndarray:
    result = evaluate(quantity, columns, n_entries=n)
    if result.is_jagged:
        raise HistError("quantity evaluated to a per-event array, expected a scalar")
    return result.values.astype(np.float64, copy=False)


def _zeros() -> np.ndarray:
    return np.zeros(1)


def _per_cell(w: np.ndarray, cell: np.ndarray | None, cells: int):
    """Σ ``w`` per cell; ``cell`` None puts every entry in the one cell of a top level."""
    if cell is None:
        return np.sum(w)
    return np.bincount(cell, weights=w, minlength=cells)


def _cells(agg, cells: int) -> int:
    """The cells of every level of ``agg``'s structure put under ``cells`` cells."""
    if isinstance(agg, Bin):
        return cells + _cells(agg.value, cells * (agg.num + 3))
    return cells


class _Cells:
    """What every aggregator does the same way with its ``entries`` per cell."""

    def fill_chunk(self, columns: dict[str, ColumnChunk], n: int, weights=None) -> None:
        self._add(columns, n, _as_weights(n, weights), None)

    def copy_structure(self):
        return self._sized(len(self.entries))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values())
        )

    def validate(self) -> None:
        if not np.all(self.entries >= 0):
            raise HistError(f"{type(self).__name__} entries {np.min(self.entries)} < 0")


@dataclass(eq=False)
class Count(_Cells):
    """Weighted event counter; the leaf of most histograms."""

    entries: np.ndarray = field(default_factory=_zeros)

    def _add(self, columns, n: int, w: np.ndarray, cell: np.ndarray | None) -> None:
        self.entries += _per_cell(w, cell, len(self.entries))

    def combine(self, other: "Count") -> "Count":
        if not isinstance(other, Count):
            raise HistError(f"cannot combine Count with {type(other).__name__}")
        return Count(self.entries + other.entries)

    def _sized(self, cells: int) -> "Count":
        return Count(np.zeros(cells))

    def quantities(self) -> list[Expr]:
        return []


@dataclass(eq=False)
class Sum(_Cells):
    """Accumulates Σ weight and Σ weight × quantity."""

    quantity: Expr
    entries: np.ndarray = field(default_factory=_zeros)
    sum: np.ndarray = field(default_factory=_zeros)

    def _add(self, columns, n: int, w: np.ndarray, cell: np.ndarray | None) -> None:
        q = _scalar_quantity(self.quantity, columns, n)
        self.entries += _per_cell(w, cell, len(self.entries))
        wq = np.multiply(w, q, out=np.zeros(n), where=w != 0)  # 0 x inf would be NaN
        self.sum += _per_cell(wq, cell, len(self.sum))

    def combine(self, other: "Sum") -> "Sum":
        if not isinstance(other, Sum) or other.quantity != self.quantity:
            raise HistError("cannot combine structurally different Sum aggregators")
        return Sum(self.quantity, self.entries + other.entries, self.sum + other.sum)

    def _sized(self, cells: int) -> "Sum":
        return Sum(self.quantity, np.zeros(cells), np.zeros(cells))

    def quantities(self) -> list[Expr]:
        return [self.quantity]


@dataclass(eq=False)
class Bin(_Cells):
    """Regular binning of a scalar quantity with under/over/nanflow."""

    num: int
    low: float
    high: float
    quantity: Expr
    value: Count | Sum | Bin
    entries: np.ndarray

    @classmethod
    def create(cls, num: int, low: float, high: float, quantity: Expr, value=None) -> "Bin":
        low, high = float(low), float(high)
        if num < 1:
            raise HistError(f"Bin needs num >= 1, got {num}")
        if not (low < high and math.isfinite(high - low)):
            raise HistError(f"Bin needs finite low < high, got [{low}, {high})")
        template = value if value is not None else Count()
        cells = 1 + _cells(template, num + 3)
        if cells > MAX_CELLS:
            raise HistError(f"histogram has {cells} cells, more than {MAX_CELLS}")
        return cls(num, low, high, quantity, template._sized(num + 3), _zeros())

    def _route(self, q: np.ndarray) -> np.ndarray:
        """Each value's bin; ``num``, ``num + 1`` and ``num + 2`` for under-, over- and nanflow.

        The index is computed over the whole chunk and the few values
        outside overwritten after: a kept event's quantity is nearly
        always inside, and boolean indexing on so dense a mask costs
        more than the arithmetic it saves.
        """
        # values outside may overflow or be NaN or inf; each is overwritten below
        with np.errstate(over="ignore", invalid="ignore"):
            slot = q - self.low
            slot /= self.high - self.low
            slot *= self.num
            np.floor(slot, out=slot)
        np.minimum(slot, self.num - 1, out=slot)
        slot[q < self.low] = self.num
        slot[q >= self.high] = self.num + 1
        slot[np.isnan(q)] = self.num + 2
        return slot.astype(np.int64)

    # Bin's own, so that wrapping Bin.fill_chunk (as perfbench's tracer does) wraps no other class's
    def fill_chunk(self, columns: dict[str, ColumnChunk], n: int, weights=None) -> None:
        self._add(columns, n, _as_weights(n, weights), None)

    def _add(self, columns, n: int, w: np.ndarray, cell: np.ndarray | None) -> None:
        slot = self._route(_scalar_quantity(self.quantity, columns, n))
        self.entries += _per_cell(w, cell, len(self.entries))
        if cell is not None:
            slot += cell * (self.num + 3)
        self.value._add(columns, n, w, slot)

    def combine(self, other: "Bin") -> "Bin":
        if (
            not isinstance(other, Bin)
            or other.num != self.num
            or other.low != self.low
            or other.high != self.high
            or other.quantity != self.quantity
        ):
            raise HistError("cannot combine structurally different Bin aggregators")
        return Bin(
            self.num, self.low, self.high, self.quantity,
            self.value.combine(other.value), self.entries + other.entries,
        )

    def _sized(self, cells: int) -> "Bin":
        value = self.value._sized(cells * (self.num + 3))
        return Bin(self.num, self.low, self.high, self.quantity, value, np.zeros(cells))

    def validate(self) -> None:
        super().validate()
        self.value.validate()
        total = self.value.entries.reshape(-1, self.num + 3).sum(axis=1)
        # exact for integer weights; tolerance absorbs float-weight rounding
        off = np.abs(total - self.entries) > 1e-9 * np.maximum(1.0, self.entries)
        if np.any(off):
            k = int(np.argmax(off))
            raise HistError(f"Bin entries {self.entries[k]} != children total {total[k]}")

    def quantities(self) -> list[Expr]:
        """Every quantity this filling evaluates, the children's included."""
        return [self.quantity, *self.value.quantities()]


Aggregator = Count | Sum | Bin


def combine(a, b):
    return a.combine(b)


def typecheck_aggregator(agg, schema: dict[str, tuple[Dtype, Shape]]) -> None:
    """Verify every quantity resolves to a numeric scalar against the schema."""
    for quantity in agg.quantities():
        try:
            kind = scalar_kind(quantity, schema)
        except ExprTypeError as exc:
            raise HistError(f"quantity does not typecheck: {exc}") from exc
        if kind is Kind.BOOL:
            raise HistError("quantity must be numeric, got bool")


# ---------------------------------------------------------------------------
# rendering


def render(agg: Bin) -> str:
    """CSV table for a top-level Bin: one row per bin plus three flow rows."""
    if not isinstance(agg, Bin):
        raise HistError(f"render expects a Bin at top level, got {type(agg).__name__}")
    value = agg.value
    with_sum = isinstance(value, Sum)
    width = agg.high - agg.low
    lows = [agg.low + width * k / agg.num for k in range(agg.num)]
    flows = [(float("-inf"), agg.low), (agg.high, float("inf")), (float("nan"), float("nan"))]
    edges = [*zip(lows, [*lows[1:], agg.high]), *flows]
    lines = ["bin_low,bin_high,entries" + (",sum" if with_sum else "")]
    for k, (lo, hi) in enumerate(edges):
        cells = [repr(float(lo)), repr(float(hi)), repr(float(value.entries[k]))]
        if with_sum:
            cells.append(repr(float(value.sum[k])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spec mini-grammar:  count | sum('EXPR') | bin(INT, NUM, NUM, 'EXPR'[, spec])


_SPEC_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<punct>[(),])
    """,
    re.VERBOSE,
)


class _SpecParser:
    def __init__(self, text: str):
        self.tokens = Tokens(_SPEC_TOKEN, text)

    def parse(self):
        agg = self.spec()
        if self.tokens.peek().kind != "eof":
            raise self.tokens.unexpected()
        return agg

    def spec(self):
        tok = self.tokens.expect("ident", what="an aggregator")
        if tok.text == "count":
            return Count()
        if tok.text == "sum":
            self.tokens.expect("punct", "(")
            expr = self.quoted_expr()
            self.tokens.expect("punct", ")")
            return Sum(expr)
        if tok.text == "bin":
            self.tokens.expect("punct", "(")
            num_tok = self.tokens.peek()
            num = self.number()
            if not num.is_integer():  # nor are inf and nan
                raise ParseError(f"bin count must be a whole number, got {num}", num_tok.offset)
            self.tokens.expect("punct", ",")
            low = self.number()
            self.tokens.expect("punct", ",")
            high = self.number()
            self.tokens.expect("punct", ",")
            expr = self.quoted_expr()
            value = self.spec() if self.tokens.accept("punct", ",") else None
            self.tokens.expect("punct", ")")
            return Bin.create(int(num), low, high, expr, value)
        raise ParseError(f"unknown aggregator {tok.text!r}", tok.offset)

    def number(self) -> float:
        return float(self.tokens.expect("number", what="a number").text)

    def quoted_expr(self) -> Expr:
        tok = self.tokens.expect("string", what="a quoted expression")
        try:
            return parse(tok.text[1:-1])
        except ParseError as exc:  # offsets count from the start of the spec
            raise ParseError(exc.message, tok.offset + 1 + exc.offset) from exc


def parse_hist_spec(text: str):
    """Build an aggregator from the CLI mini-grammar."""
    try:
        return _SpecParser(text).parse()
    except ParseError as exc:
        raise HistError(f"bad histogram spec: {exc}") from exc
