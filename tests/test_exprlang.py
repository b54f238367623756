"""Expression language tests: grammar, types, vectorized-vs-naive equivalence."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_interp import (
    RefError,
    arrays_match,
    eval_events,
    events_from_columns,
    float_columns,
)
from treeduce.exprlang import (
    MAX_NESTING,
    Binary,
    Call,
    ColumnRef,
    EvalError,
    ExprTypeError,
    Kind,
    Literal,
    ParseError,
    Unary,
    column_refs,
    evaluate,
    parse,
    shared_nodes,
    typecheck,
)
from treeduce.treefile import ColumnChunk, Dtype, Shape

SCHEMA = {
    "a": (Dtype.I32, Shape.FLAT),
    "b": (Dtype.I64, Shape.FLAT),
    "c": (Dtype.F32, Shape.FLAT),
    "d": (Dtype.F64, Shape.FLAT),
    "p": (Dtype.BOOL, Shape.FLAT),
    "ja": (Dtype.I32, Shape.JAGGED),
    "jb": (Dtype.I64, Shape.JAGGED),
    "jc": (Dtype.F32, Shape.JAGGED),
    "jd": (Dtype.F64, Shape.JAGGED),
    "jp": (Dtype.BOOL, Shape.JAGGED),
}


# --- parsing ---------------------------------------------------------------


def test_precedence_shapes():
    assert parse("1 + 2 * 3") == Binary(
        "+", Literal(1, Kind.I64), Binary("*", Literal(2, Kind.I64), Literal(3, Kind.I64))
    )
    assert parse("(1 + 2) * 3") == Binary(
        "*", Binary("+", Literal(1, Kind.I64), Literal(2, Kind.I64)), Literal(3, Kind.I64)
    )
    assert parse("-2 * 3") == Binary("*", Unary("-", Literal(2, Kind.I64)), Literal(3, Kind.I64))
    assert parse("a < b && c < d || p") == Binary(
        "||",
        Binary("&&", Binary("<", ColumnRef("a"), ColumnRef("b")), Binary("<", ColumnRef("c"), ColumnRef("d"))),
        ColumnRef("p"),
    )
    assert parse("!p && p") == Binary("&&", Unary("!", ColumnRef("p")), ColumnRef("p"))
    assert parse("a - b - c") == Binary("-", Binary("-", ColumnRef("a"), ColumnRef("b")), ColumnRef("c"))
    assert parse("max(jc) > 20") == Binary(">", Call("max", ColumnRef("jc")), Literal(20, Kind.I64))


def test_offsets_do_not_affect_equality():
    assert parse("1+2") == parse("1 + 2")
    assert parse("1") != parse("1.0")  # kinds differ


def test_literal_forms():
    assert parse("true") == Literal(True, Kind.BOOL)
    assert parse("false") == Literal(False, Kind.BOOL)
    assert parse("42") == Literal(42, Kind.I64)
    assert parse("2e5") == Literal(200000.0, Kind.F64)
    assert parse("9223372036854775807") == Literal(2**63 - 1, Kind.I64)


@pytest.mark.parametrize(
    ("text", "offset"),
    [
        ("1 + ", 4),  # dangling operator
        ("", 0),
        ("a < b < c", 6),  # comparisons do not chain
        ("a $ b", 2),
        ("foo(a)", 0),  # unknown function
        ("count(a, b)", 7),  # single-argument calls only
        ("(1 + 2", 6),
        ("9223372036854775808", 0),  # beyond i64
        ("1 2", 2),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_nesting_up_to_the_bound_parses_typechecks_and_evaluates():
    for text in [
        "(" * MAX_NESTING + "d" + ")" * MAX_NESTING,
        " + ".join(["d"] * (MAX_NESTING + 1)),  # one level per operator
        "-" * MAX_NESTING + "d",
        "abs(" * MAX_NESTING + "d" + ")" * MAX_NESTING,
    ]:
        expr = parse(text)
        assert parse(text) == expr and hash(parse(text)) == hash(expr)
        assert typecheck(expr, SCHEMA).kind is Kind.F64
        assert len(evaluate(expr, {"d": ColumnChunk(np.ones(3))}).values) == 3


@pytest.mark.parametrize(
    ("text", "offset"),
    [
        ("(" * 2000 + "d" + ")" * 2000, MAX_NESTING),  # the first '(' past the bound
        (" + ".join(["d"] * 3000), 4 * MAX_NESTING + 2),  # the first '+' past it
        ("d * " * 3000 + "d", 4 * MAX_NESTING + 2),
        ("-" * (MAX_NESTING + 1) + "d", 0),  # the outermost '-'
        ("abs(" * 2000 + "d" + ")" * 2000, 4 * MAX_NESTING + 3),
        ("!(" * 2000 + "p" + ")" * 2000, 2 * MAX_NESTING + 1),
    ],
)
def test_nesting_past_the_bound_is_a_parse_error(text, offset):
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels deep") as exc:
        parse(text)
    assert exc.value.offset == offset


def test_column_refs_walk():
    expr = parse("nMuon >= 2 && max(Muon_pt) > 20")
    assert column_refs(expr) == {"nMuon", "Muon_pt"}
    assert column_refs(parse("1 + 2")) == set()


# --- typecheck ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("text", "kind", "jagged"),
    [
        ("d", Kind.F64, False),
        ("a", Kind.I64, False),  # i32 loads widen
        ("c", Kind.F64, False),  # f32 loads widen
        ("a + 1", Kind.I64, False),
        ("a + 1.0", Kind.F64, False),
        ("jc * 2", Kind.F64, True),
        ("ja + jb", Kind.I64, True),
        ("count(jp)", Kind.I64, False),
        ("sum(ja)", Kind.I64, False),
        ("sum(jd)", Kind.F64, False),
        ("max(ja)", Kind.F64, False),  # extrema always f64, NaN for empty
        ("min(jc)", Kind.F64, False),
        ("abs(ja)", Kind.I64, True),
        ("abs(d)", Kind.F64, False),
        ("sqrt(a)", Kind.F64, False),
        ("sqrt(jc)", Kind.F64, True),
        ("jc > 20", Kind.BOOL, True),
        ("p == true", Kind.BOOL, False),
        ("jp != jp", Kind.BOOL, True),
        ("a < d && p", Kind.BOOL, False),
        ("-jb", Kind.I64, True),
        ("!jp", Kind.BOOL, True),
    ],
)
def test_typecheck_results(text, kind, jagged):
    t = typecheck(parse(text), SCHEMA)
    assert (t.kind, t.jagged) == (kind, jagged)


@pytest.mark.parametrize(
    "text",
    [
        "nope",  # unknown column
        "count(a)",  # aggregate needs jagged input
        "sum(d)",
        "max(p)",  # extrema need numbers
        "max(jp)",
        "p + 1",  # bool arithmetic
        "p < true",  # ordered comparison on bool
        "jp <= jp",
        "a && p",  # logic needs bools
        "!a",
        "-p",
        "sqrt(p)",
        "abs(jp)",
        "a == p",  # mixed bool/number comparison
    ],
)
def test_typecheck_rejections(text):
    with pytest.raises(ExprTypeError):
        typecheck(parse(text), SCHEMA)


# --- evaluation: pinned scalars ----------------------------------------------


def _scalar(text, columns=None, n=1):
    out = evaluate(parse(text), columns or {}, n_entries=n)
    assert out.offsets is None
    return out.values


def test_integer_arithmetic_wraps():
    assert _scalar("9223372036854775807 + 1")[0] == -(2**63)
    assert _scalar("0 - 9223372036854775807 - 2")[0] == 2**63 - 1
    assert _scalar("4611686018427387904 * 4")[0] == 0  # 2^62 * 4


def test_integer_division_floors():
    assert _scalar("7 / 2")[0] == 3
    assert _scalar("(0 - 7) / 2")[0] == -4
    assert _scalar("7 / (0 - 2)")[0] == -4


def test_integer_division_of_the_most_negative_by_minus_one_wraps():
    text = "(0 - 9223372036854775807 - 1) / (0 - 1)"
    cols = {"b": ColumnChunk(np.array([-(2**63), 7], dtype=np.int64))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scalar(text)[0] == -(2**63)
        assert evaluate(parse("b / (0 - 1)"), cols).values.tolist() == [-(2**63), -7]
    assert eval_events(parse(text), [{}]) == [-(2**63)]
    assert eval_events(parse("b / (0 - 1)"), events_from_columns(cols)) == [-(2**63), -7]


def test_integer_division_by_zero_raises():
    with pytest.raises(EvalError):
        _scalar("7 / 0")


def test_float_division_follows_ieee():
    assert _scalar("7.0 / 0.0")[0] == np.inf
    assert _scalar("(0.0 - 7.0) / 0.0")[0] == -np.inf
    assert np.isnan(_scalar("0.0 / 0.0")[0])


def test_float_quotient_beyond_the_f64_range_is_inf_without_a_warning():
    cols = {"x": ColumnChunk(np.array([1e308, -1e308])), "y": ColumnChunk(np.array([1e-308, 1e-308]))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scalar("1e308 / 1e-308")[0] == np.inf
        assert evaluate(parse("x / y"), cols).values.tolist() == [np.inf, -np.inf]
    assert eval_events(parse("x / y"), events_from_columns(cols)) == [np.inf, -np.inf]


def test_sqrt_of_negative_is_nan():
    assert np.isnan(_scalar("sqrt(0.0 - 1.0)")[0])
    assert _scalar("sqrt(9)")[0] == 3.0


def test_mixed_arithmetic_promotes_to_float():
    out = _scalar("1 / 2 + 0.5")
    assert out.dtype == np.float64
    assert out[0] == 0.5  # integer division first, then float add


# int64 values that f64 cannot hold exactly, and the ends of the int64 range
EDGE_I64 = [2**53 + 1, 2**62 + 1, -(2**63), 2**63 - 1, 7]
EDGE_F64 = [2.0**53, 2.0**53 + 2, 2.0**62, -(2.0**63), 2.0**63, 0.0, -0.5]


@pytest.mark.parametrize("op", ["<", "<=", "==", "!=", ">", ">=", "+", "-", "*", "/"])
def test_mixed_operands_take_the_int_cast_to_f64(op):
    pairs = [(i, f) for i in EDGE_I64 for f in EDGE_F64]
    cols = {
        "b": ColumnChunk(np.array([i for i, _ in pairs], dtype=np.int64)),
        "d": ColumnChunk(np.array([f for _, f in pairs], dtype=np.float64)),
    }
    for text in (f"b {op} d", f"d {op} b"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(parse(text), cols).values
        want = eval_events(parse(text), events_from_columns(cols))  # casts, then operates
        assert got.dtype == (np.float64 if op in "+-*/" else bool)
        assert arrays_match(got, want)


def test_an_int_past_2_53_compares_as_the_f64_it_casts_to():
    # 2^53 + 1 rounds to 2^53 in f64, so the two compare equal once cast
    assert _scalar("9007199254740993 == 9007199254740992.0")[0]
    assert not _scalar("9007199254740993 > 9007199254740992.0")[0]


JAGGED_PT = ColumnChunk(
    values=np.array([10.0, 30.0, np.nan, 5.0, 2.0, 3.0], dtype=np.float64),
    offsets=np.array([0, 2, 3, 3, 6], dtype=np.int64),
)


def test_aggregates_over_jagged_column():
    cols = {"jd": JAGGED_PT}
    assert _scalar("count(jd)", cols, 4).tolist() == [2, 1, 0, 3]
    got = _scalar("sum(jd)", cols, 4)
    assert got[0] == 40.0 and np.isnan(got[1]) and got[2] == 0.0 and got[3] == 10.0
    got = _scalar("max(jd)", cols, 4)
    assert got[0] == 30.0 and np.isnan(got[1]) and np.isnan(got[2]) and got[3] == 5.0
    got = _scalar("min(jd)", cols, 4)
    assert got[0] == 10.0 and np.isnan(got[1]) and np.isnan(got[2]) and got[3] == 2.0


def _loop_extremum(values: np.ndarray, offsets: np.ndarray, op) -> np.ndarray:
    """The per-slot loop that max/min folds used to run: the reference for the vectorized fold."""
    counts = np.diff(offsets)
    starts = offsets[:-1]
    values = values.astype(np.float64, copy=False)
    out = np.full(len(counts), np.nan, dtype=np.float64)
    limit = int(counts.max()) if len(counts) else 0
    for j in range(limit):
        sel = counts > j
        picked = values[starts[sel] + j]
        if j == 0:
            out[sel] = picked
        else:
            out[sel] = op(out[sel], picked)
    return out


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25]


def _random_jagged(rng: np.random.Generator, dtype: np.dtype, all_empty: bool) -> ColumnChunk:
    n = int(rng.integers(0, 40))
    counts = np.zeros(n, dtype=np.int64) if all_empty else rng.choice([0, 0, 1, 2, 3, 5, 8], n)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    size = int(offsets[-1])
    if dtype.kind == "f":
        values = rng.normal(0.0, 50.0, size)
        special = rng.random(size) < 0.4
        values[special] = rng.choice(_SPECIAL_FLOATS, int(special.sum()))
        # some events hold only signed zeros, mixed in one event
        for i in np.flatnonzero(counts >= 2)[::3]:
            values[offsets[i] : offsets[i + 1]] = rng.choice([0.0, -0.0], counts[i])
    else:
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
        if dtype == np.int64:  # near 2**53, where widening to f64 rounds
            near = rng.random(size) < 0.3
            values[near] = (1 << 53) + rng.integers(-3, 4, int(near.sum()))
    return ColumnChunk(values.astype(dtype), offsets)


def _jagged(events: list[list], dtype: np.dtype, trailing: list = ()) -> ColumnChunk:
    """A jagged chunk of ``events``, its values followed by ``trailing`` elements no event holds."""
    counts = [len(event) for event in events]
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)
    flat = [value for event in events for value in event] + list(trailing)
    return ColumnChunk(np.array(flat, dtype=dtype), offsets)


def _nan(dtype: np.dtype, bits: int):
    """The NaN of ``dtype`` with these raw bits, as a scalar that keeps them."""
    return np.array([bits], dtype=np.uint32 if dtype.itemsize == 4 else np.uint64).view(dtype)[0]


def _edge_jagged(dtype: np.dtype) -> list[ColumnChunk]:
    """Hand-built inputs at the edges of the fold, for one dtype."""
    if dtype.kind == "f":
        low, high = -np.inf, np.inf
    else:
        info = np.iinfo(dtype)
        low, high = int(info.min), int(info.max)
    chunks = [
        # elements equal to either fold's identity, alone and among others
        _jagged([[low], [high], [low, high], [high, low], [low, low, 3], [3, high, high], []], dtype),
        _jagged([[5], [-7], [0], [low], [high]], dtype),  # single-element events only
        _jagged([[], [], []], dtype),  # every event empty
        _jagged([], dtype),  # no events at all
        # values run past offsets[-1]: the trailing elements belong to no event
        _jagged([[1], [], [2, -4]], dtype, trailing=[high, low, 9]),
        _jagged([[], []], dtype, trailing=[high, low]),
    ]
    if dtype.kind == "f":
        if dtype.itemsize == 4:
            a, b, c = (_nan(dtype, bits) for bits in (0x7FC00001, 0x7FC00002, 0xFFC00003))
        else:
            a, b, c = (
                _nan(dtype, bits)
                for bits in (0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000003)
            )
        # NaNs of different payloads and signs in one event, in every order
        chunks.append(
            _jagged([[a, b], [b, a], [c, a, b], [1.0, a, -0.0, b], [-0.0, c], [a]], dtype)
        )
    return chunks


@pytest.mark.parametrize("func", ["max", "min"])
def test_vectorized_extremum_matches_the_loop_bitwise(func):
    """Each chunk is folded once fresh and once with its element-to-event index built."""
    from treeduce.exprlang import _fold_extremum

    op = np.maximum if func == "max" else np.minimum
    dtypes = [np.dtype(t) for t in (np.int32, np.int64, np.float32, np.float64)]
    rng = np.random.default_rng(20)
    cases = [
        (dtypes[case % 4], _random_jagged(rng, dtypes[case % 4], all_empty=case % 16 < 4))
        for case in range(320)
    ]
    cases += [(dtype, chunk) for dtype in dtypes for chunk in _edge_jagged(dtype)]
    cases += [(dtype, ColumnChunk(chunk.values, chunk.offsets)) for dtype, chunk in cases]
    for case, (dtype, chunk) in enumerate(cases):
        assert chunk.values.dtype == dtype
        if case >= len(cases) // 2:
            chunk.events()
        want = _loop_extremum(chunk.values, chunk.offsets, op).view(np.uint64)
        got = evaluate(parse(f"{func}(x)"), {"x": chunk}, n_entries=chunk.n_entries)
        assert got.values.dtype == np.float64
        assert np.array_equal(got.values.view(np.uint64), want), (case, dtype)
        widened = chunk.values.astype(np.float64 if dtype.kind == "f" else np.int64)
        folded = _fold_extremum(chunk.with_values(widened), op)
        assert np.array_equal(folded.view(np.uint64), want), (case, dtype)


def _loop_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each event's elements added left to right onto 0 in Python scalars, i64 wrapping."""
    out = []
    for i in range(len(offsets) - 1):
        acc = values.dtype.type(0).item()
        for v in values[offsets[i] : offsets[i + 1]].tolist():
            acc = acc + v if values.dtype.kind == "f" else (acc + v + 2**63) % 2**64 - 2**63
        out.append(acc)
    return np.array(out, dtype=values.dtype)


@pytest.mark.parametrize("indexed", [False, True], ids=["fresh", "indexed"])
def test_vectorized_sum_matches_the_loop_bitwise(indexed):
    from treeduce.exprlang import _fold_sum

    dtypes = [np.dtype(t) for t in (np.int32, np.int64, np.float32, np.float64)]
    rng = np.random.default_rng(21)
    cases = [
        (dtypes[case % 4], _random_jagged(rng, dtypes[case % 4], all_empty=case % 16 < 4))
        for case in range(160)
    ]
    cases += [(dtype, chunk) for dtype in dtypes for chunk in _edge_jagged(dtype)]
    cases += [
        (np.dtype(np.float64), _jagged([[-0.0], [-0.0, -0.0], [0.0, -0.0], [1e308, 1e308, -np.inf]], np.float64)),
        (np.dtype(np.int64), _jagged([[2**63 - 1, 1], [-(2**63), -1, 1]], np.int64, trailing=[5])),
    ]
    for case, (dtype, chunk) in enumerate(cases):
        if indexed:
            chunk.events()
        widened = chunk.values.astype(np.float64 if dtype.kind == "f" else np.int64)
        want = _loop_sum(widened, chunk.offsets).view(np.uint64)
        got = evaluate(parse("sum(x)"), {"x": chunk}, n_entries=chunk.n_entries)
        assert got.values.dtype == widened.dtype
        assert np.array_equal(got.values.view(np.uint64), want), (case, dtype)
        folded = _fold_sum(chunk.with_values(widened))
        assert np.array_equal(folded.view(np.uint64), want), (case, dtype)


def test_jagged_scalar_broadcast():
    cols = {"jd": JAGGED_PT, "d": ColumnChunk(values=np.array([20.0, 0.0, 100.0, 2.5]))}
    out = evaluate(parse("jd > d"), cols)
    assert out.offsets.tolist() == [0, 2, 3, 3, 6]
    assert out.values.tolist() == [False, True, False, True, False, True]


def test_jagged_jagged_requires_matching_offsets():
    cols = {
        "jd": JAGGED_PT,
        "jc": ColumnChunk(
            values=np.ones(6, dtype=np.float32),
            offsets=np.array([0, 1, 2, 3, 6], dtype=np.int64),
        ),
    }
    with pytest.raises(EvalError):
        evaluate(parse("jd + jc"), cols)
    cols["jc"] = ColumnChunk(values=np.ones(6, dtype=np.float32), offsets=JAGGED_PT.offsets)
    out = evaluate(parse("jd + jc"), cols)
    assert out.values[0] == 11.0


def test_logic_is_elementwise_not_short_circuit():
    cols = {"p": ColumnChunk(values=np.array([True, False, True, False]))}
    out = evaluate(parse("p || true"), cols)
    assert out.values.tolist() == [True, True, True, True]
    out = evaluate(parse("p && false"), cols)
    assert out.values.tolist() == [False, False, False, False]


def test_missing_column_raises():
    with pytest.raises(EvalError):
        evaluate(parse("ghost + 1"), {})


# --- random expressions vs the per-event reference ----------------------------

_COLS_BY_TYPE = {
    (Kind.I64, False): ("a", "b"),
    (Kind.F64, False): ("c", "d"),
    (Kind.BOOL, False): ("p",),
    (Kind.I64, True): ("ja", "jb"),
    (Kind.F64, True): ("jc", "jd"),
    (Kind.BOOL, True): ("jp",),
}

_NUM_PAIRS = [(Kind.I64, Kind.I64), (Kind.I64, Kind.F64), (Kind.F64, Kind.I64), (Kind.F64, Kind.F64)]
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/")


def _literal_strategy(kind):
    if kind is Kind.BOOL:
        return st.booleans().map(lambda v: Literal(v, Kind.BOOL))
    if kind is Kind.I64:
        values = st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2, 3, 7])
        return values.map(lambda v: Literal(v, Kind.I64))
    values = st.floats(0, 1e12, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0, 20.0])
    return values.map(lambda v: Literal(v, Kind.F64))


def _split_jagged(draw, jagged):
    if not jagged:
        return False, False
    return draw(st.sampled_from([(True, True), (True, False), (False, True)]))


@st.composite
def exprs(draw, kind=None, jagged=None, depth=3):
    if kind is None:
        kind = draw(st.sampled_from([Kind.BOOL, Kind.I64, Kind.F64]))
    if jagged is None:
        jagged = draw(st.booleans())
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if not jagged and draw(st.booleans()):
            return draw(_literal_strategy(kind))
        return ColumnRef(draw(st.sampled_from(_COLS_BY_TYPE[(kind, jagged)])))
    d = depth - 1
    if kind is Kind.BOOL:
        prod = draw(st.sampled_from(["cmp", "logic", "not", "booleq"]))
        if prod == "cmp":
            lk, rk = draw(st.sampled_from(_NUM_PAIRS))
            lj, rj = _split_jagged(draw, jagged)
            return Binary(
                draw(st.sampled_from(_CMP_OPS)),
                draw(exprs(kind=lk, jagged=lj, depth=d)),
                draw(exprs(kind=rk, jagged=rj, depth=d)),
            )
        if prod == "logic":
            lj, rj = _split_jagged(draw, jagged)
            return Binary(
                draw(st.sampled_from(["&&", "||"])),
                draw(exprs(kind=Kind.BOOL, jagged=lj, depth=d)),
                draw(exprs(kind=Kind.BOOL, jagged=rj, depth=d)),
            )
        if prod == "not":
            return Unary("!", draw(exprs(kind=Kind.BOOL, jagged=jagged, depth=d)))
        lj, rj = _split_jagged(draw, jagged)
        return Binary(
            draw(st.sampled_from(["==", "!="])),
            draw(exprs(kind=Kind.BOOL, jagged=lj, depth=d)),
            draw(exprs(kind=Kind.BOOL, jagged=rj, depth=d)),
        )
    if kind is Kind.I64:
        prods = ["arith", "neg", "abs"] + ([] if jagged else ["count", "sum"])
        prod = draw(st.sampled_from(prods))
        if prod == "arith":
            lj, rj = _split_jagged(draw, jagged)
            return Binary(
                draw(st.sampled_from(_ARITH_OPS)),
                draw(exprs(kind=Kind.I64, jagged=lj, depth=d)),
                draw(exprs(kind=Kind.I64, jagged=rj, depth=d)),
            )
        if prod == "neg":
            return Unary("-", draw(exprs(kind=Kind.I64, jagged=jagged, depth=d)))
        if prod == "abs":
            return Call("abs", draw(exprs(kind=Kind.I64, jagged=jagged, depth=d)))
        if prod == "count":
            any_kind = draw(st.sampled_from([Kind.BOOL, Kind.I64, Kind.F64]))
            return Call("count", draw(exprs(kind=any_kind, jagged=True, depth=d)))
        return Call("sum", draw(exprs(kind=Kind.I64, jagged=True, depth=d)))
    prods = ["arith", "neg", "abs", "sqrt"] + ([] if jagged else ["sum", "max", "min"])
    prod = draw(st.sampled_from(prods))
    if prod == "arith":
        lk, rk = draw(st.sampled_from([p for p in _NUM_PAIRS if Kind.F64 in p]))
        lj, rj = _split_jagged(draw, jagged)
        return Binary(
            draw(st.sampled_from(_ARITH_OPS)),
            draw(exprs(kind=lk, jagged=lj, depth=d)),
            draw(exprs(kind=rk, jagged=rj, depth=d)),
        )
    if prod == "neg":
        return Unary("-", draw(exprs(kind=Kind.F64, jagged=jagged, depth=d)))
    if prod == "abs":
        return Call("abs", draw(exprs(kind=Kind.F64, jagged=jagged, depth=d)))
    if prod == "sqrt":
        arg_kind = draw(st.sampled_from([Kind.I64, Kind.F64]))
        return Call("sqrt", draw(exprs(kind=arg_kind, jagged=jagged, depth=d)))
    if prod == "sum":
        return Call("sum", draw(exprs(kind=Kind.F64, jagged=True, depth=d)))
    func = "max" if prod == "max" else "min"
    arg_kind = draw(st.sampled_from([Kind.I64, Kind.F64]))
    return Call(func, draw(exprs(kind=arg_kind, jagged=True, depth=d)))


def _np_values(dtype: Dtype, size: int):
    if dtype == Dtype.I32:
        elems = st.integers(-(2**31), 2**31 - 1) | st.sampled_from([0, 1, -1])
        np_dtype = np.int32
    elif dtype == Dtype.I64:
        elems = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 1, -1, -(2**63)])
        np_dtype = np.int64
    elif dtype == Dtype.F32:
        elems = st.floats(width=32, allow_nan=True, allow_infinity=True)
        np_dtype = np.float32
    elif dtype == Dtype.F64:
        elems = st.floats(width=64, allow_nan=True, allow_infinity=True)
        np_dtype = np.float64
    else:
        elems = st.booleans()
        np_dtype = np.bool_
    return st.lists(elems, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np_dtype)
    )


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 6))
    cols = {}
    for name, (dtype, shape) in SCHEMA.items():
        if shape is Shape.JAGGED:
            counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            values = draw(_np_values(dtype, int(offsets[-1])))
            cols[name] = ColumnChunk(values=values, offsets=offsets)
        else:
            cols[name] = ColumnChunk(values=draw(_np_values(dtype, n)))
    return n, cols


def _chunk_from_python(per_event, kind: Kind, jagged: bool) -> ColumnChunk:
    np_dtype = kind.numpy
    if not jagged:
        return ColumnChunk(values=np.array(per_event, dtype=np_dtype))
    counts = [len(v) for v in per_event]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    flat = [x for v in per_event for x in v]
    return ColumnChunk(values=np.array(flat, dtype=np_dtype), offsets=offsets)


@settings(max_examples=250)
@given(datasets(), exprs())
def test_evaluator_matches_per_event_reference(data, expr):
    n, cols = data
    t = typecheck(expr, SCHEMA)  # generator only emits well-typed expressions

    pkg_err = ref_err = False
    got = expected = None
    try:
        got = evaluate(expr, cols, n_entries=n)
    except EvalError:
        pkg_err = True
    try:
        per_event = eval_events(expr, events_from_columns(cols, n), float_columns(cols))
        expected = _chunk_from_python(per_event, t.kind, t.jagged)
    except RefError:
        ref_err = True

    assert pkg_err == ref_err
    if pkg_err:
        return
    assert (got.offsets is None) == (not t.jagged)
    if t.jagged:
        assert np.array_equal(got.offsets, expected.offsets)
    assert arrays_match(got.values, expected.values)


# --- values shared between a skim and a sink ----------------------------------


def test_shared_nodes_are_the_largest_common_subexpressions():
    skim = parse("nMuon>=2 && max( Muon_pt*2 )>20 && count(Muon_pt) > 1")
    sinks = [parse("max(Muon_pt * 2) + MET"), parse("min(Muon_pt * 2)"), parse("nMuon + 2")]
    # spacing does not matter; max(..) swallows its own argument, the column
    # ref nMuon and the literal 2 are never shared
    assert shared_nodes(skim, sinks) == {parse("max(Muon_pt * 2)"), parse("Muon_pt * 2")}
    assert shared_nodes(None, sinks) == frozenset()
    assert shared_nodes(skim, []) == frozenset()
    assert column_refs(sinks[0], shared_nodes(skim, sinks)) == {"MET"}


def test_evaluate_takes_a_provided_node_instead_of_its_columns():
    pt = JAGGED_PT
    node = parse("max(jd)")
    recorded = dict.fromkeys([node])
    evaluate(parse("max(jd) > 3"), {"jd": pt}, record=recorded)
    assert arrays_match(recorded[node].values, evaluate(node, {"jd": pt}).values)
    provided = {node: ColumnChunk(np.array([1.0, 2.0, 3.0, 4.0])), "d": ColumnChunk(np.ones(4))}
    out = evaluate(parse("max(jd) + d"), provided)  # no "jd": the node stands in for it
    assert out.values.tolist() == [2.0, 3.0, 4.0, 5.0]


def test_evaluate_still_checks_the_columns_outside_provided_nodes():
    node = parse("max(jd)")
    with pytest.raises(EvalError, match="column 'd' not provided"):
        evaluate(parse("max(jd) + d"), {node: ColumnChunk(np.ones(4))})
    uneven = {node: ColumnChunk(np.ones(4)), "d": ColumnChunk(np.ones(3))}
    with pytest.raises(EvalError, match="different entry counts"):
        evaluate(parse("max(jd) + d"), uneven)
    with pytest.raises(EvalError, match="expected 5"):
        evaluate(parse("max(jd)"), {node: ColumnChunk(np.ones(4))}, n_entries=5)


def _test_of(expr, jagged: bool):
    """A scalar bool that reads ``expr``, so a skim built on it evaluates it."""
    if jagged:
        return Binary(">", Call("count", expr), Literal(1, Kind.I64))
    if typecheck(expr, SCHEMA).kind is Kind.BOOL:
        return expr
    return Binary(">", expr, Literal(0, Kind.I64))


@settings(max_examples=250)
@given(datasets(), exprs(kind=Kind.BOOL, jagged=False, depth=2), exprs())
def test_shared_values_selected_match_the_sink_evaluated_on_the_selection(data, cut, node):
    n, cols = data
    jagged = typecheck(node, SCHEMA).jagged
    skim = Binary("||", cut, _test_of(node, jagged))
    sinks = [node, Call("count", node)] if jagged else [node]
    shared = shared_nodes(skim, sinks)
    recorded = dict.fromkeys(shared)
    try:
        mask = evaluate(skim, cols, n_entries=n, record=recorded).values
    except EvalError:
        return  # a task whose skim raises fails before its sink runs
    n_out = int(np.count_nonzero(mask))
    for sink in sinks:
        plain = evaluate(sink, {k: c.select(mask) for k, c in cols.items()}, n_entries=n_out)
        given_cols = {key: chunk.select(mask) for key, chunk in recorded.items()}
        given_cols.update((name, cols[name].select(mask)) for name in column_refs(sink, shared))
        got = evaluate(sink, given_cols, n_entries=n_out)
        assert (got.offsets is None) == (plain.offsets is None)
        if got.offsets is not None:
            assert np.array_equal(got.offsets, plain.offsets)
        assert got.values.dtype == plain.values.dtype
        assert got.values.tobytes() == plain.values.tobytes()


# --- printer round trip --------------------------------------------------------


def to_text(e) -> str:
    if isinstance(e, Literal):
        if e.kind is Kind.BOOL:
            return "true" if e.value else "false"
        return repr(e.value)
    if isinstance(e, ColumnRef):
        return e.name
    if isinstance(e, Unary):
        return f"({e.op}{to_text(e.operand)})"
    if isinstance(e, Binary):
        return f"({to_text(e.left)} {e.op} {to_text(e.right)})"
    return f"{e.func}({to_text(e.arg)})"


@settings(max_examples=150)
@given(exprs())
def test_printed_expression_parses_back_identically(expr):
    assert parse(to_text(expr)) == expr
