"""Histogram aggregation tests: routing, merge laws, partition equivalence."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_interp import arrays_match, fill_histogram, route_value
from treeduce.exprlang import MAX_NESTING, parse
from treeduce.histagg import (
    MAX_CELLS,
    Bin,
    Count,
    HistError,
    Sum,
    combine,
    parse_hist_spec,
    render,
    typecheck_aggregator,
)
from treeduce.treefile import ColumnChunk, Dtype, Shape

X = parse("x")
SCHEMA = {"x": (Dtype.F64, Shape.FLAT), "w": (Dtype.F64, Shape.FLAT), "j": (Dtype.F64, Shape.JAGGED)}


def cols(values) -> dict[str, ColumnChunk]:
    return {"x": ColumnChunk(values=np.asarray(values, dtype=np.float64))}


def filled_bin(values, num=4, low=0.0, high=8.0, weights=None) -> Bin:
    agg = Bin.create(num, low, high, X)
    arr = np.asarray(values, dtype=np.float64)
    agg.fill_chunk(cols(arr), len(arr), weights)
    return agg


# --- routing -----------------------------------------------------------------


def test_edge_routing():
    agg = filled_bin([0.0, 7.999, 8.0, -0.001, float("nan"), float("inf"), float("-inf")])
    # low edge in, top edge out; then underflow, overflow, nanflow
    assert agg.value.entries.tolist() == [1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 1.0]
    assert agg.entries == 7.0
    agg.validate()


def test_half_open_bins():
    # each boundary lands in the bin to its right
    agg = filled_bin([0.0, 2.0, 4.0, 6.0])
    assert agg.value.entries[:4].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_rounding_near_top_edge_clamps_inside():
    # value just below high whose scaled index rounds up to num
    num, low, high = 43, -37.95162488820887, -13.659342781978246
    q = np.nextafter(high, low)
    assert q < high
    assert np.floor((q - low) / (high - low) * num) == num  # raw formula overshoots
    agg = Bin.create(num, low, high, X)
    agg.fill_chunk(cols([q]), 1)
    assert agg.value.entries[num - 1] == 1.0
    assert agg.value.entries[num + 1] == 0.0  # overflow


@settings(max_examples=120)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=50),
    st.integers(1, 12),
    st.floats(-100, 100, allow_nan=False),
    st.floats(0.001, 200, allow_nan=False),
)
def test_routing_matches_reference(values, num, low, width):
    high = low + width
    agg = Bin.create(num, low, high, X)
    arr = np.array(values, dtype=np.float64)
    agg.fill_chunk(cols(arr), len(arr))
    expected = fill_histogram(arr, np.ones(len(arr)), num, low, high)
    flows = [expected["underflow"], expected["overflow"], expected["nanflow"]]
    assert agg.value.entries.tolist() == expected["values"] + flows
    assert agg.entries == expected["entries"]
    agg.validate()


def test_ten_thousand_uniform_values_match_reference():
    rng = np.random.default_rng(42)
    arr = rng.uniform(-1.0, 11.0, 10_000)
    agg = Bin.create(10, 0.0, 10.0, X)
    agg.fill_chunk(cols(arr), len(arr))
    expected = fill_histogram(arr, np.ones(len(arr)), 10, 0.0, 10.0)
    assert agg.value.entries[:10].tolist() == expected["values"]
    assert agg.value.entries[10] == expected["underflow"]
    assert agg.value.entries[11] == expected["overflow"]
    for q in arr[:100]:
        slot = route_value(float(q), 10, 0.0, 10.0)
        assert -1 <= slot <= 11


# --- weights -------------------------------------------------------------------


def test_weighted_fill_and_negative_weight_rejection():
    agg = filled_bin([1.0, 1.0, 9.0], weights=np.array([2.0, 0.5, 3.0]))
    assert agg.value.entries[0] == 2.5
    assert agg.value.entries[4 + 1] == 3.0  # overflow
    assert agg.entries == 5.5
    with pytest.raises(HistError):
        filled_bin([1.0], weights=np.array([-1.0]))
    with pytest.raises(HistError):
        filled_bin([1.0, 2.0], weights=np.array([1.0]))  # length mismatch


@pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
def test_weights_must_be_finite_and_not_negative(weight):
    for agg in (Count(), Sum(quantity=X), Bin.create(4, 0.0, 8.0, X)):
        with pytest.raises(HistError, match="finite and >= 0"):
            agg.fill_chunk(cols([1.0, 2.0]), 2, np.array([1.0, weight]))
        with pytest.raises(HistError, match="finite and >= 0"):
            agg.fill_chunk(cols([1.0]), 1, np.array([weight]))
        assert agg.entries == 0


@pytest.mark.parametrize(
    "low, high",
    [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan),
     (-1e308, 1e308), (1.0, 1.0), (2.0, 1.0)],
)
def test_bin_edges_must_be_finite_and_increasing(low, high):
    with pytest.raises(HistError, match="finite low < high"):
        Bin.create(4, low, high, X)


def test_sum_accumulates_weighted_quantity():
    agg = Sum(quantity=X)
    arr = np.array([1.5, 2.5, 4.0])
    agg.fill_chunk(cols(arr), 3, np.array([1.0, 2.0, 1.0]))
    assert agg.entries == 4.0
    assert agg.sum == 1.5 + 5.0 + 4.0


def test_fill_single_event():
    agg = Bin.create(2, 0.0, 2.0, X)
    agg.fill_chunk(cols([0.5]), 1, np.array([3.0]))
    agg.fill_chunk(cols([1.5]), 1, np.array([1.0]))
    assert agg.value.entries[:2].tolist() == [3.0, 1.0]


# --- nested aggregators ---------------------------------------------------------


def test_bin_of_sums_profiles_second_quantity():
    agg = Bin.create(2, 0.0, 4.0, X, value=Sum(quantity=parse("w")))
    columns = {
        "x": ColumnChunk(values=np.array([0.5, 1.0, 3.0, 3.5])),
        "w": ColumnChunk(values=np.array([10.0, 20.0, 5.0, 2.0])),
    }
    agg.fill_chunk(columns, 4)
    assert agg.value.sum[:2].tolist() == [30.0, 7.0]
    assert agg.quantities() == [X, parse("w")]


def test_two_level_binning():
    inner = Bin.create(2, 0.0, 1.0, parse("w"))
    agg = Bin.create(2, 0.0, 2.0, X, value=inner)
    columns = {
        "x": ColumnChunk(values=np.array([0.5, 0.5, 1.5])),
        "w": ColumnChunk(values=np.array([0.25, 0.75, 0.25])),
    }
    agg.fill_chunk(columns, 3)
    cells = agg.value.value.entries.reshape(2 + 3, 2 + 3)  # outer slot x inner slot
    assert cells[0, :2].tolist() == [1.0, 1.0]
    assert cells[1, :2].tolist() == [1.0, 0.0]
    assert cells.sum() == 3.0
    agg.validate()


def _slot(q: float, num: int, low: float, high: float) -> int:
    """``route_value``'s answer as a cell slot: the bins, then underflow, overflow, nanflow."""
    k = route_value(q, num, low, high)
    return num if k == -1 else k + (k >= num)


_X_VALUES = st.floats(-3.0, 4.0) | st.sampled_from([-2.0, 3.0, np.nan, np.inf, -np.inf])
_W_VALUES = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, np.nan, np.inf])


@settings(max_examples=120)
@given(
    st.lists(st.tuples(_X_VALUES, _W_VALUES, st.integers(0, 3)), max_size=60),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
)
def test_nested_fill_matches_per_event_loop(events, num, inner_num, inner_bin):
    w_quantity = parse("w")
    inner = Bin.create(inner_num, 0.0, 1.0, w_quantity) if inner_bin else Sum(quantity=w_quantity)
    agg = Bin.create(num, -2.0, 3.0, X, value=inner)
    x, w, weights = np.array(events, dtype=np.float64).reshape(-1, 3).T.copy()
    slots = num + 3
    entries, cells, sums = np.zeros(slots), np.zeros(slots * (inner_num + 3)), np.zeros(slots)
    agg.fill_chunk({"x": ColumnChunk(values=x), "w": ColumnChunk(values=w)}, len(x), weights)
    for xi, wi, weight in zip(x, w, weights):
        cell = _slot(float(xi), num, -2.0, 3.0)
        entries[cell] += weight
        cells[cell * (inner_num + 3) + _slot(float(wi), inner_num, 0.0, 1.0)] += weight
        if weight != 0:  # a weight-0 entry adds nothing to a Sum
            sums[cell] += weight * wi
    assert agg.entries.tolist() == [float(np.sum(weights))]
    assert agg.value.entries.tolist() == entries.tolist()
    if inner_bin:
        assert agg.value.value.entries.tolist() == cells.tolist()
    else:
        assert arrays_match(agg.value.sum, sums)  # both add in entry order
    agg.validate()


def test_weight_zero_entry_adds_nothing_to_a_sum():
    agg = parse_hist_spec("bin(1, 0, 1, 'x', sum('w'))")
    columns = {"x": ColumnChunk(values=np.array([0.5])), "w": ColumnChunk(values=np.array([np.inf]))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on 0 x inf
        agg.fill_chunk(columns, 1, np.array([0.0]))
    assert agg.value.sum.tolist() == [0.0] * 4


def test_cells_are_bounded_over_all_levels():
    assert len(parse_hist_spec(f"bin({MAX_CELLS - 4}, 0, 1, 'x')").value.entries) == MAX_CELLS - 1
    big = parse_hist_spec("bin(1e6, 0, 1, 'x')")
    assert combine(big, big.copy_structure()) == big
    with pytest.raises(HistError, match=f"{MAX_CELLS + 1} cells, more than {MAX_CELLS}"):
        parse_hist_spec(f"bin({MAX_CELLS - 3}, 0, 1, 'x')")
    with pytest.raises(HistError, match="cells, more than"):  # each level alone is small enough
        parse_hist_spec("bin(1100, 0, 1, 'x', bin(1100, 0, 1, 'x'))")
    with pytest.raises(HistError, match="cells, more than"):
        parse_hist_spec("bin(1e9, 0, 1, 'x')")


# --- merge laws ------------------------------------------------------------------


def _random_filled(seed: int, template_sum: bool = False) -> Bin:
    rng = np.random.default_rng(seed)
    value = Sum(quantity=parse("w")) if template_sum else None
    agg = Bin.create(5, 0.0, 10.0, X, value=value)
    n = int(rng.integers(0, 40))
    columns = {
        "x": ColumnChunk(values=rng.uniform(-2, 12, n)),
        "w": ColumnChunk(values=rng.integers(0, 5, n).astype(np.float64)),
    }
    agg.fill_chunk(columns, n, rng.integers(1, 4, n).astype(np.float64))
    return agg


def _flatten(agg) -> list[float]:
    out = agg.entries.tolist()
    if isinstance(agg, Sum):
        out += agg.sum.tolist()
    if isinstance(agg, Bin):
        out += _flatten(agg.value)
    return out


@pytest.mark.parametrize("template_sum", [False, True])
def test_combine_is_associative_and_commutative(template_sum):
    a, b, c = (_random_filled(s, template_sum) for s in (1, 2, 3))
    left = combine(combine(a, b), c)
    right = combine(a, combine(b, c))
    swapped = combine(combine(b, a), c)
    # integer-valued weights keep float sums exact in any order
    assert _flatten(left) == _flatten(right) == _flatten(swapped)


def test_combine_identity_is_fresh_structure():
    a = _random_filled(9)
    zero = a.copy_structure()
    assert _flatten(combine(a, zero)) == _flatten(a)
    assert _flatten(zero) == _flatten(Bin.create(5, 0.0, 10.0, X))


def test_combine_does_not_mutate_inputs():
    a, b = _random_filled(4), _random_filled(5)
    before_a, before_b = _flatten(a), _flatten(b)
    combine(a, b)
    assert _flatten(a) == before_a
    assert _flatten(b) == before_b


def test_combine_rejects_structural_mismatch():
    base = Bin.create(4, 0.0, 8.0, X)
    with pytest.raises(HistError):
        combine(base, Bin.create(5, 0.0, 8.0, X))
    with pytest.raises(HistError):
        combine(base, Bin.create(4, 0.0, 9.0, X))
    with pytest.raises(HistError):
        combine(base, Bin.create(4, 0.0, 8.0, parse("w")))
    with pytest.raises(HistError):
        combine(base, Count())
    with pytest.raises(HistError):
        combine(Sum(quantity=X), Sum(quantity=parse("w")))


def test_quantity_text_differences_do_not_matter():
    # same AST from different spellings merges fine
    a = Bin.create(2, 0.0, 1.0, parse("x*2"))
    b = Bin.create(2, 0.0, 1.0, parse("x * 2"))
    combine(a, b)


def test_partitioned_fill_equals_single_fill():
    rng = np.random.default_rng(123)
    n = 7 * 311
    x = rng.uniform(-5, 15, n)
    w = rng.integers(0, 6, n).astype(np.float64)
    whole = Bin.create(8, 0.0, 10.0, X, value=Sum(quantity=parse("w")))
    columns = {"x": ColumnChunk(values=x), "w": ColumnChunk(values=w)}
    whole.fill_chunk(columns, n)

    merged = whole.copy_structure()
    for part in range(7):
        sl = slice(part * 311, (part + 1) * 311)
        piece = whole.copy_structure()
        piece.fill_chunk({"x": ColumnChunk(values=x[sl]), "w": ColumnChunk(values=w[sl])}, 311)
        merged = combine(merged, piece)
    assert _flatten(merged) == _flatten(whole)  # exact: integer-valued addends
    merged.validate()


def test_partitioned_fill_with_fractional_weights_is_close():
    rng = np.random.default_rng(321)
    n = 7 * 100
    x = rng.uniform(-5, 15, n)
    w = rng.uniform(0, 1, n)
    whole = Bin.create(8, 0.0, 10.0, X)
    whole.fill_chunk(cols(x), n, w)
    merged = whole.copy_structure()
    for part in range(7):
        sl = slice(part * 100, (part + 1) * 100)
        piece = whole.copy_structure()
        piece.fill_chunk(cols(x[sl]), 100, w[sl])
        merged = combine(merged, piece)
    np.testing.assert_allclose(_flatten(merged), _flatten(whole), rtol=1e-9)


# --- validation -------------------------------------------------------------------


def test_validate_detects_lost_entries():
    agg = filled_bin([1.0, 5.0])
    agg.value.entries[0] = 0.0  # tamper
    with pytest.raises(HistError):
        agg.validate()


def test_typecheck_aggregator():
    typecheck_aggregator(Bin.create(2, 0, 1, X, value=Sum(quantity=parse("w"))), SCHEMA)
    with pytest.raises(HistError):
        typecheck_aggregator(Bin.create(2, 0, 1, parse("j")), SCHEMA)  # jagged quantity
    with pytest.raises(HistError):
        typecheck_aggregator(Bin.create(2, 0, 1, parse("x > 0")), SCHEMA)  # bool quantity
    with pytest.raises(HistError):
        typecheck_aggregator(Bin.create(2, 0, 1, parse("ghost")), SCHEMA)


def test_fill_rejects_jagged_quantity_at_runtime():
    agg = Bin.create(2, 0.0, 1.0, parse("j"))
    jag = ColumnChunk(values=np.ones(3), offsets=np.array([0, 2, 3], dtype=np.int64))
    with pytest.raises(HistError):
        agg.fill_chunk({"j": jag}, 2)


# --- rendering ----------------------------------------------------------------------


def test_render_csv_layout():
    agg = filled_bin([0.5, 2.5, 2.6, 9.0, -1.0, float("nan")], num=4, low=0.0, high=8.0)
    got = render(agg)
    assert got == (
        "bin_low,bin_high,entries\n"
        "0.0,2.0,1.0\n"
        "2.0,4.0,2.0\n"
        "4.0,6.0,0.0\n"
        "6.0,8.0,0.0\n"
        "-inf,0.0,1.0\n"
        "8.0,inf,1.0\n"
        "nan,nan,1.0\n"
    )


def test_render_adds_sum_column_for_profile():
    agg = Bin.create(2, 0.0, 2.0, X, value=Sum(quantity=parse("w")))
    columns = {
        "x": ColumnChunk(values=np.array([0.5, 1.5])),
        "w": ColumnChunk(values=np.array([4.0, 6.0])),
    }
    agg.fill_chunk(columns, 2)
    got = render(agg)
    lines = got.splitlines()
    assert lines[0] == "bin_low,bin_high,entries,sum"
    assert lines[1] == "0.0,1.0,1.0,4.0"
    assert lines[2] == "1.0,2.0,1.0,6.0"


def test_render_requires_bin():
    with pytest.raises(HistError):
        render(Count())


# --- spec mini-grammar -----------------------------------------------------------------


def test_parse_hist_spec_forms():
    assert isinstance(parse_hist_spec("count"), Count)
    s = parse_hist_spec("sum('x + 1')")
    assert isinstance(s, Sum)
    assert s.quantity == parse("x + 1")
    b = parse_hist_spec("bin(10, 0, 100, 'x')")
    assert (b.num, b.low, b.high) == (10, 0.0, 100.0)
    assert b.quantity == parse("x")
    assert parse_hist_spec("bin(1e3, 0, 1, 'x')").num == 1000
    assert isinstance(b.value, Count)
    nested = parse_hist_spec('bin(2, -1.5, 1.5, "x", sum(\'w\'))')
    assert isinstance(nested.value, Sum)
    deep = parse_hist_spec("bin(2, 0, 1, 'x', bin(3, 0, 1, 'w', count))")
    assert isinstance(deep.value, Bin)
    assert deep.value.num == 3
    assert [len(deep.entries), len(deep.value.entries), len(deep.value.value.entries)] == [1, 5, 30]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "bogus",
        "bin(0, 0, 1, 'x')",  # num < 1
        "bin(2.5, 0, 1, 'x')",  # num not whole
        "bin(1e999, 0, 1, 'x')",  # num infinite
        "bin(2, 1, 1, 'x')",  # empty range
        "bin(2, 0, 1)",  # missing quantity
        "sum()",
        "sum('x' extra",
        "bin(2, 0, 1, 'x') trailing",
        "sum('1 +')",  # inner expression must parse
    ],
)
def test_parse_hist_spec_rejections(text):
    with pytest.raises(HistError):
        parse_hist_spec(text)


@pytest.mark.parametrize(
    ("text", "offset"),
    [
        ("bin(2, 0, 1, 'x') $", 18),  # no token starts at '$'
        ("sum('x' extra", 8),  # expected ')'
        ("bin(2, 0, 1,  'x +')", 18),  # in the quoted expression: 14 + 1 + 3
        ("bin(1, 0, 1, 'x', " * 100 + "count" + ")" * 100, 18 * MAX_NESTING + 3),  # too deep
    ],
    ids=["lexer", "grammar", "quoted-expression", "nesting"],
)
def test_hist_spec_errors_name_their_offset_in_the_spec(text, offset):
    with pytest.raises(HistError) as exc:
        parse_hist_spec(text)
    assert re.search(r"offset (\d+)", str(exc.value)).group(1) == str(offset)
