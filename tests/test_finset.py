"""Core set arithmetic: construction, sumsets, k-fold sums, parsing."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import finsets
from powermonoid import finset
from powermonoid import (
    MAX_ELEMENT,
    FinSet,
    bounds,
    format_set,
    interval,
    kfold,
    make_set,
    parse_set,
    reflect,
    sumset,
    sumset_naive,
    translate,
)


def test_construction_normalizes_and_sorts():
    x = make_set([5, -5, -4, 7, 6, 1, 0, -2])
    assert x.elems == (-5, -4, -2, 0, 1, 5, 6, 7)
    assert make_set([3, 3, 3]) == make_set([3])


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        FinSet([])


def test_non_integer_elements_rejected():
    with pytest.raises(TypeError):
        FinSet([0, 1.5])
    with pytest.raises(TypeError):
        FinSet([0, True])


def test_non_integer_rejected_whatever_the_order():
    # a set-first shortcut would fold True into 1 and 1.0 into 1 unseen
    for values in ([1, True], [True, 1], [1, 1.0], [0, 1.5], ["1", 1]):
        with pytest.raises(TypeError):
            FinSet(values)
    # the per-element check still reports the first bad element in order
    with pytest.raises(TypeError):
        FinSet([1.5, MAX_ELEMENT + 1])
    with pytest.raises(OverflowError, match=str(MAX_ELEMENT + 1)):
        FinSet([MAX_ELEMENT + 1, 1.5])


def test_int_subclasses_and_generators_accepted():
    class Label(int):
        pass

    x = FinSet([Label(3), 1, Label(2)])
    assert x == make_set([1, 2, 3])
    assert FinSet(v for v in (3, 1, 2, 3)).elems == (1, 2, 3)
    assert FinSet(range(5, 0, -1)).elems == (1, 2, 3, 4, 5)
    assert FinSet({4, -4}).elems == (-4, 4)
    with pytest.raises(ValueError):
        FinSet(v for v in ())


def test_magnitude_cap():
    FinSet([MAX_ELEMENT])
    with pytest.raises(OverflowError):
        FinSet([MAX_ELEMENT + 1])
    with pytest.raises(OverflowError):
        FinSet([-MAX_ELEMENT - 1])
    # the error names the first out-of-range element in input order
    with pytest.raises(OverflowError, match=str(MAX_ELEMENT + 2)):
        FinSet([0, MAX_ELEMENT + 2, MAX_ELEMENT + 1])


def test_interval_and_bounds():
    assert interval(-2, 3).elems == (-2, -1, 0, 1, 2, 3)
    assert interval(4, 4).elems == (4,)
    assert bounds(make_set([-3, 0, 7])) == (-3, 7)
    with pytest.raises(ValueError):
        interval(2, 1)
    # a bool would count as 0 or 1, and any other non-int end is no bound
    for lo, hi, bad in ((True, 3, True), (0, False, False), (0.0, 2, 0.0), ("1", 3, "1"),
                        (1, None, None)):
        with pytest.raises(TypeError, match=f"^interval ends must be integers, got {bad!r}$"):
            interval(lo, hi)


def test_sumset_worked_examples():
    x = make_set([-1, 0, 2])
    assert sumset(x, make_set([0, 1, 3])) == make_set([-1, 0, 1, 2, 3, 5])
    assert sumset(x, make_set([0, 2, 3])) == interval(-1, 5)


def test_translate_and_reflect():
    x = make_set([0, 2, 3])
    assert translate(x, 10) == make_set([10, 12, 13])
    assert reflect(x, 3) == make_set([0, 1, 3])
    assert reflect(x, 0) == make_set([-3, -2, 0])


def test_translate_and_reflect_validate_like_the_constructor():
    # the trusted route covers int shifts inside the range; anything else but
    # a bool is built by the validating constructor and raises as it does
    top = make_set([MAX_ELEMENT - 2, MAX_ELEMENT - 1, MAX_ELEMENT])
    bottom = make_set([-MAX_ELEMENT, -MAX_ELEMENT + 1, 0, MAX_ELEMENT])
    for build, x, t, values in (
        (translate, top, 2, (v + 2 for v in top)),
        (reflect, bottom, MAX_ELEMENT, (MAX_ELEMENT - v for v in bottom)),
        (translate, top, 0.5, (v + 0.5 for v in top)),
        (reflect, bottom, -1, (-1 - v for v in bottom)),
    ):
        with pytest.raises((OverflowError, TypeError)) as trusted:
            build(x, t)
        with pytest.raises(trusted.type) as validated:
            make_set(values)
        assert str(trusted.value) == str(validated.value)
    assert translate(top, -MAX_ELEMENT).elems == (-2, -1, 0)
    assert reflect(bottom, 0).elems == (-MAX_ELEMENT, 0, MAX_ELEMENT - 1, MAX_ELEMENT)
    # a bool would act as 0 or 1, so it is refused before any element is built
    x = make_set([0, 2, 3])
    for t in (True, False):
        with pytest.raises(TypeError, match=f"^shift must be an integer, got {t!r}$"):
            translate(x, t)
        with pytest.raises(TypeError, match=f"^reflection offset must be an integer, got {t!r}$"):
            reflect(x, t)


@given(finsets(), st.one_of(st.integers(-50, 50), st.floats(-50, 50), st.text(max_size=2), st.none()))
def test_membership_matches_the_element_tuple(x, v):
    assert (v in x) == (v in x.elems)


def test_set_operators_and_hash():
    x, y = make_set([-1, 0, 2]), make_set([0, 1, 3])
    assert x + y == sumset(x, y)
    assert len({x, make_set([2, 0, -1])}) == 1
    assert 2 in x and 1 not in x
    assert len(x) == 3
    assert list(x) == [-1, 0, 2]


def test_set_operators_refuse_other_types():
    x = make_set([0, 1])
    # == and + defer to the other operand, which knows no FinSet either
    assert (x == (0, 1)) is False and x != (0, 1)
    with pytest.raises(TypeError):
        x + 1


def test_rendering():
    x = make_set([-1, 0, 2])
    assert str(x) == "{-1,0,2}"
    assert format_set(x) == "{-1,0,2}"
    assert repr(x) == "FinSet({-1,0,2})"


@given(finsets(), finsets())
def test_sumset_dual_path(x, y):
    assert sumset(x, y) == sumset_naive(x, y)


@given(finsets(min_value=-(10**9), max_value=10**9, max_size=6),
       finsets(min_value=-(10**9), max_value=10**9, max_size=6))
def test_sumset_dual_path_wide_span(x, y):
    # a few elements over a span of up to 4e9: a mask would cost far more
    # than the pairs, so the hashed route answers
    assert sumset(x, y) == sumset_naive(x, y)


class RouteSpy:
    """Counts the dense route's shift-or passes; zero means the hashed route ran."""

    def __init__(self, monkeypatch):
        self.dense = 0
        shift_or = finset._shift_or

        def counted(*args):
            self.dense += 1
            return shift_or(*args)

        monkeypatch.setattr(finset, "_shift_or", counted)

    def sum(self, x, y, route):
        before = self.dense
        try:
            return sumset(x, y)
        finally:
            assert ("dense" if self.dense > before else "hashed") == route


@pytest.fixture
def route(monkeypatch):
    return RouteSpy(monkeypatch)


@pytest.mark.parametrize("force", ["dense", "hashed"])
@given(finsets(max_size=20), finsets(max_size=20))
def test_each_route_matches_naive(force, x, y):
    # pin the cost model so that one route answers every pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finset, "_PAIR_BITS", 2**64 if force == "dense" else 0)
        assert RouteSpy(mp).sum(x, y, force) == sumset_naive(x, y)


def test_dense_route_above_two_to_the_twenty(route):
    rng = random.Random(7)
    x = make_set(rng.sample(range(1 << 20), 4000))
    y = make_set(rng.sample(range(-(1 << 20), 0), 300))
    assert x.max + y.max - x.min - y.min > 1 << 20
    assert route.sum(x, y, "dense") == sumset_naive(x, y)


def test_sparse_wide_sum_takes_the_hashed_route(route):
    rng = random.Random(8)
    x = make_set(rng.sample(range(1 << 21), 300))
    y = make_set(rng.sample(range(1 << 21), 300))
    assert route.sum(x, y, "hashed") == sumset_naive(x, y)


def test_sum_at_the_range_ends(route):
    top, bottom = make_set([MAX_ELEMENT]), make_set([-MAX_ELEMENT])
    assert route.sum(top, make_set([0]), "hashed") == top
    assert route.sum(bottom, make_set([0]), "hashed") == bottom
    near_top = interval(MAX_ELEMENT - 99, MAX_ELEMENT)
    near_bottom = interval(-MAX_ELEMENT, -MAX_ELEMENT + 99)
    assert route.sum(near_top, make_set([0, -1]), "dense") == sumset_naive(near_top, make_set([0, -1]))
    for x, y, r in ((top, make_set([1]), "hashed"), (near_top, make_set([0, 1]), "dense")):
        with pytest.raises(OverflowError, match=str(MAX_ELEMENT + 1)):
            route.sum(x, y, r)
    for x, y, r in ((bottom, make_set([-1]), "hashed"), (near_bottom, make_set([-1, 0]), "dense")):
        with pytest.raises(OverflowError, match=str(-MAX_ELEMENT - 1)):
            route.sum(x, y, r)


@pytest.mark.parametrize("lo, hi", [(0, 160_000), (-160_000, -7), (-(2**40), 5000 - 2**40)])
def test_interval_round_trips_through_the_mask(route, lo, hi):
    x = interval(lo, hi)
    s = route.sum(x, make_set([0]), "dense")
    assert s.elems == tuple(range(lo, hi + 1))
    assert s == sumset_naive(x, make_set([0]))


def test_far_apart_pair_allocates_no_mask():
    x, y = make_set([0, 2**40]), make_set([0, 2**41])
    tracemalloc.start()
    try:
        s = sumset(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == sumset_naive(x, y) == make_set([0, 2**40, 2**41, 2**40 + 2**41])
    assert peak < 1 << 20


@given(finsets(), finsets(), finsets())
def test_sumset_laws(x, y, z):
    assert sumset(x, y) == sumset(y, x)
    assert sumset(sumset(x, y), z) == sumset(x, sumset(y, z))
    assert sumset(x, FinSet([0])) == x


@given(finsets(), finsets())
def test_sumset_bounds_add(x, y):
    s = sumset(x, y)
    assert (s.min, s.max) == (x.min + y.min, x.max + y.max)
    assert len(s) >= max(len(x), len(y))


@given(st.integers(-50, 50), st.integers(0, 40), st.integers(-50, 50), st.integers(0, 40))
def test_interval_sum_closure(lo1, w1, lo2, w2):
    a, b = interval(lo1, lo1 + w1), interval(lo2, lo2 + w2)
    assert sumset(a, b) == interval(lo1 + lo2, lo1 + lo2 + w1 + w2)


def test_kfold_worked_example():
    assert kfold(make_set([-1, 0, 2]), 2) == make_set([-2, -1, 0, 1, 2, 4])


@given(finsets(min_value=-20, max_value=20, max_size=6), st.integers(0, 8))
def test_kfold_matches_repeated_addition(x, k):
    expected = FinSet([0])
    for _ in range(k):
        expected = sumset_naive(expected, x)
    assert kfold(x, k) == expected


def test_kfold_rejects_negative():
    with pytest.raises(ValueError):
        kfold(make_set([0, 1]), -1)
    # a bool would fold as 0 or 1, and a float or a string is no count
    for k in (True, False, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"fold count must be an integer, got {k!r}"):
            kfold(make_set([0, 1]), k)


def test_parse_set_literals():
    assert parse_set("{-1,0,2}") == make_set([-1, 0, 2])
    assert parse_set("{ -1 , 0 , 2 }") == make_set([-1, 0, 2])
    assert parse_set("-3..4") == interval(-3, 4)
    assert parse_set("{5}") == make_set([5])


@given(finsets())
def test_parse_format_round_trip(x):
    assert parse_set(format_set(x)) == x


def test_parse_errors_name_offending_token():
    with pytest.raises(ValueError, match="bad"):
        parse_set("bad")
    with pytest.raises(ValueError, match="x"):
        parse_set("{1,x,3}")
    with pytest.raises(ValueError):
        parse_set("{}")
    with pytest.raises(ValueError):
        parse_set("4..1")
    # interval shorthand names the first end that is no integer
    for text, token in (("a..b", "'a'"), ("1..x", "'x'"), ("..5", "''"), ("1..2..3", "'2..3'")):
        with pytest.raises(ValueError) as err:
            parse_set(text)
        assert str(err.value) == f"bad integer {token} in interval shorthand", text


def test_interval_shorthand_cap():
    # at most MAX_SHORTHAND elements; interval itself stays uncapped
    assert finset.MAX_SHORTHAND == 10**6
    assert len(parse_set("-1..999998")) == finset.MAX_SHORTHAND
    with pytest.raises(ValueError, match=r"shorthand -1\.\.999999 spans 1000001 elements"):
        parse_set("-1..999999")
    assert len(interval(0, finset.MAX_SHORTHAND)) == finset.MAX_SHORTHAND + 1
