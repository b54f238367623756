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

Besides columns, the ``columns`` a filling reads may hold the values of
subexpressions of its quantities, keyed by ``Expr`` (see
``exprlang.evaluate``). A nested aggregator gets the entries of its bin
from every one of them its quantities read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .exprlang import (
    Expr,
    ExprType,
    ExprTypeError,
    Kind,
    ParseError,
    evaluate,
    parse,
    reads,
    typecheck,
)
from .treefile import ColumnChunk, Dtype, Shape


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


@dataclass
class Count:
    """Weighted event counter; the leaf of most histograms."""

    entries: float = 0.0

    def fill_chunk(self, columns: dict[str, ColumnChunk], n: int, weights=None) -> None:
        w = _as_weights(n, weights)
        self.entries += float(np.sum(w))

    def combine(self, other: "Count") -> "Count":
        if not isinstance(other, Count):
            raise HistError(f"cannot combine Count with {type(other).__name__}")
        return Count(self.entries + other.entries)

    def copy_structure(self) -> "Count":
        return Count()

    def validate(self) -> None:
        if not self.entries >= 0:
            raise HistError(f"Count entries {self.entries} < 0")

    def quantities(self) -> list[Expr]:
        return []


@dataclass
class Sum:
    """Accumulates Σ weight and Σ weight × quantity."""

    quantity: Expr
    entries: float = 0.0
    sum: float = 0.0

    def fill_chunk(self, columns: dict[str, ColumnChunk], n: int, weights=None) -> None:
        w = _as_weights(n, weights)
        q = _scalar_quantity(self.quantity, columns, n)
        self.entries += float(np.sum(w))
        self.sum += float(np.sum(w * q))

    def combine(self, other: "Sum") -> "Sum":
        if not isinstance(other, Sum) or other.quantity != self.quantity:
            raise HistError("cannot combine structurally different Sum aggregators")
        return Sum(self.quantity, self.entries + other.entries, self.sum + other.sum)

    def copy_structure(self) -> "Sum":
        return Sum(self.quantity)

    def validate(self) -> None:
        if not self.entries >= 0:
            raise HistError(f"Sum entries {self.entries} < 0")

    def quantities(self) -> list[Expr]:
        return [self.quantity]


@dataclass
class Bin:
    """Regular binning of a scalar quantity with under/over/nanflow."""

    num: int
    low: float
    high: float
    quantity: Expr
    values: list = field(default_factory=list)
    underflow: object = None
    overflow: object = None
    nanflow: object = None
    entries: float = 0.0

    def __post_init__(self):
        if self.num < 1:
            raise HistError(f"Bin needs num >= 1, got {self.num}")
        if not (self.low < self.high and math.isfinite(self.high - self.low)):
            raise HistError(f"Bin needs finite low < high, got [{self.low}, {self.high})")
        if not self.values:
            self.values = [Count() for _ in range(self.num)]
        if len(self.values) != self.num:
            raise HistError(f"Bin has {len(self.values)} sub-aggregators, expected {self.num}")
        if self.underflow is None:
            self.underflow = self.values[0].copy_structure()
        if self.overflow is None:
            self.overflow = self.values[0].copy_structure()
        if self.nanflow is None:
            self.nanflow = self.values[0].copy_structure()

    @classmethod
    def create(cls, num: int, low: float, high: float, quantity: Expr, value=None) -> "Bin":
        template = value if value is not None else Count()
        return cls(
            num, float(low), float(high), quantity,
            values=[template.copy_structure() for _ in range(num)],
        )

    def _route(self, q: np.ndarray):
        """Each value's bin, or ``num`` for a value outside ``[low, high)`` or NaN.

        The bins are computed over the whole chunk and the few values
        outside masked after: a kept event's quantity is nearly always
        inside, and boolean indexing on so dense a mask costs more than
        the arithmetic it saves.
        """
        nan = np.isnan(q)
        under = q < self.low
        over = q >= self.high
        inside = ~(nan | under | over)
        # values outside may overflow or be NaN or inf, which cast to no int; masked below
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (q - self.low) / (self.high - self.low) * self.num
            idx = np.minimum(np.floor(scaled).astype(np.int64), self.num - 1)
        return np.where(inside, idx, self.num), under, over, nan

    def fill_chunk(self, columns: dict[str, ColumnChunk], n: int, weights=None) -> None:
        w = _as_weights(n, weights)
        q = _scalar_quantity(self.quantity, columns, n)
        idx, under, over, nan = self._route(q)
        self.entries += float(np.sum(w))

        children_plain = all(isinstance(v, Count) for v in self.values)
        if children_plain:
            per_bin = np.bincount(idx, weights=w, minlength=self.num + 1)
            for k in range(self.num):
                self.values[k].entries += float(per_bin[k])
        else:
            for k in range(self.num):
                mask = idx == k
                if mask.any():
                    self._fill_child(self.values[k], columns, mask, w)
        for agg, mask in ((self.underflow, under), (self.overflow, over), (self.nanflow, nan)):
            if isinstance(agg, Count):
                agg.entries += float(np.sum(w[mask]))
            elif mask.any():
                self._fill_child(agg, columns, mask, w)

    @staticmethod
    def _fill_child(
        child, columns: dict[str | Expr, ColumnChunk], mask: np.ndarray, w: np.ndarray
    ) -> None:
        needed = set().union(*(reads(q, columns) for q in child.quantities()))
        sub = {key: chunk.select(mask) for key, chunk in columns.items() if key in needed}
        child.fill_chunk(sub, int(np.sum(mask)), w[mask])

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
            values=[a.combine(b) for a, b in zip(self.values, other.values)],
            underflow=self.underflow.combine(other.underflow),
            overflow=self.overflow.combine(other.overflow),
            nanflow=self.nanflow.combine(other.nanflow),
            entries=self.entries + other.entries,
        )

    def copy_structure(self) -> "Bin":
        return Bin.create(self.num, self.low, self.high, self.quantity, self.values[0])

    def validate(self) -> None:
        if not self.entries >= 0:
            raise HistError(f"Bin entries {self.entries} < 0")
        children = [*self.values, self.underflow, self.overflow, self.nanflow]
        total = 0.0
        for child in children:
            child.validate()
            total += child.entries
        # exact for integer weights; tolerance absorbs float-weight rounding
        if total != self.entries and abs(total - self.entries) > 1e-9 * max(1.0, self.entries):
            raise HistError(f"Bin entries {self.entries} != children total {total}")

    def quantities(self) -> list[Expr]:
        """Every quantity this filling evaluates, the children's included."""
        out = [self.quantity]
        for child in (*self.values, self.underflow, self.overflow, self.nanflow):
            out += child.quantities()
        return out


Aggregator = Count | Sum | Bin


def fill(agg, event: dict[str, ColumnChunk], weight: float = 1.0) -> None:
    """Fill from a single-event column view (every chunk has one entry)."""
    for name, chunk in event.items():
        if chunk.n_entries != 1:
            raise HistError(f"column {name!r} has {chunk.n_entries} entries, expected 1")
    agg.fill_chunk(event, 1, np.array([weight], dtype=np.float64))


def combine(a, b):
    return a.combine(b)


def typecheck_aggregator(agg, schema: dict[str, tuple[Dtype, Shape]]) -> None:
    """Verify every quantity resolves to a numeric scalar against the schema."""
    for quantity in agg.quantities():
        _check_scalar_numeric(quantity, schema)


def _check_scalar_numeric(quantity: Expr, schema) -> None:
    try:
        result: ExprType = typecheck(quantity, schema)
    except ExprTypeError as exc:
        raise HistError(f"quantity does not typecheck: {exc}") from exc
    if result.jagged:
        raise HistError(f"quantity is per-event jagged, expected a scalar: {result}")
    if result.kind is Kind.BOOL:
        raise HistError("quantity must be numeric, got bool")


# ---------------------------------------------------------------------------
# rendering


def render(agg: Bin) -> str:
    """CSV table for a top-level Bin: one row per bin plus three flow rows."""
    if not isinstance(agg, Bin):
        raise HistError(f"render expects a Bin at top level, got {type(agg).__name__}")
    with_sum = all(isinstance(v, Sum) for v in agg.values)
    header = "bin_low,bin_high,entries" + (",sum" if with_sum else "")
    lines = [header]
    width = agg.high - agg.low

    def row(lo: float, hi: float, child) -> str:
        cells = [repr(float(lo)), repr(float(hi)), repr(float(child.entries))]
        if with_sum:
            cells.append(repr(float(child.sum)))
        return ",".join(cells)

    for k in range(agg.num):
        lo = agg.low + width * k / agg.num
        hi = agg.high if k + 1 == agg.num else agg.low + width * (k + 1) / agg.num
        lines.append(row(lo, hi, agg.values[k]))
    lines.append(row(float("-inf"), agg.low, agg.underflow))
    lines.append(row(agg.high, float("inf"), agg.overflow))
    lines.append(row(float("nan"), float("nan"), agg.nanflow))
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
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _SPEC_TOKEN.match(text, pos)
            if match is None:
                raise HistError(f"bad histogram spec: unexpected character {text[pos]!r} at offset {pos}")
            if match.lastgroup != "ws":
                self.tokens.append((match.lastgroup, match.group(), pos))
            pos = match.end()
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None):
        tok = self.advance()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise HistError(f"bad histogram spec: expected {want!r} at offset {tok[2]}")
        return tok

    def parse(self):
        agg = self.spec()
        tok = self.peek()
        if tok[0] != "eof":
            raise HistError(f"bad histogram spec: unexpected {tok[1]!r} at offset {tok[2]}")
        return agg

    def spec(self):
        kind, text, offset = self.expect("ident")
        if text == "count":
            return Count()
        if text == "sum":
            self.expect("punct", "(")
            expr = self.quoted_expr()
            self.expect("punct", ")")
            return Sum(expr)
        if text == "bin":
            self.expect("punct", "(")
            num = self.number()
            if not num.is_integer():  # nor are inf and nan
                raise HistError(f"bad histogram spec: bin count must be a whole number, got {num}")
            self.expect("punct", ",")
            low = self.number()
            self.expect("punct", ",")
            high = self.number()
            self.expect("punct", ",")
            expr = self.quoted_expr()
            value = None
            if self.peek()[:2] == ("punct", ","):
                self.advance()
                value = self.spec()
            self.expect("punct", ")")
            return Bin.create(int(num), low, high, expr, value)
        raise HistError(f"bad histogram spec: unknown aggregator {text!r} at offset {offset}")

    def number(self) -> float:
        kind, text, offset = self.advance()
        if kind != "number":
            raise HistError(f"bad histogram spec: expected a number at offset {offset}")
        return float(text)

    def quoted_expr(self) -> Expr:
        kind, text, offset = self.advance()
        if kind != "string":
            raise HistError(f"bad histogram spec: expected a quoted expression at offset {offset}")
        try:
            return parse(text[1:-1])
        except ParseError as exc:
            raise HistError(f"bad histogram spec: {exc}") from exc


def parse_hist_spec(text: str):
    """Build an aggregator from the CLI mini-grammar."""
    return _SpecParser(text).parse()
