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
from powermonoid.boxing import runs


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


def test_interval_refuses_out_of_range_ends_before_building():
    # named as the ascending per-element check names them, with no tuple of
    # 2**63 elements built first
    tracemalloc.start()
    try:
        for lo, hi, named in ((0, 2**63, MAX_ELEMENT + 1), (-(2**63), 0, -(2**63)),
                              (2**63, 2**64, 2**63), (-(2**64), 2**64, -(2**64))):
            with pytest.raises(OverflowError, match=f"^element {named} outside the supported integer range$"):
                interval(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert interval(MAX_ELEMENT - 1, MAX_ELEMENT).elems == (MAX_ELEMENT - 1, MAX_ELEMENT)
    assert interval(-MAX_ELEMENT, 1 - MAX_ELEMENT).elems == (-MAX_ELEMENT, 1 - MAX_ELEMENT)


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
    """Tells the three sumset routes apart by the helper each one alone calls."""

    def __init__(self, monkeypatch):
        self.calls = {"dense": 0, "runs": 0}
        for route, name in (("dense", "_shift_or"), ("runs", "_sum_of_runs")):
            monkeypatch.setattr(finset, name, self._counted(route, getattr(finset, name)))

    def _counted(self, route, helper):
        def counted(*args):
            self.calls[route] += 1
            return helper(*args)

        return counted

    def sum(self, x, y, route):
        before = dict(self.calls)
        try:
            return sumset(x, y)
        finally:
            taken = [r for r in self.calls if self.calls[r] > before[r]] or ["hashed"]
            assert taken == [route]


@pytest.fixture
def route(monkeypatch):
    return RouteSpy(monkeypatch)


def force(mp, route):
    """Pin the cost model so that the named route answers every sum.

    At one bit an interval sum, runs are always counted and always cheaper
    than the pairs, each of which costs more; at 2**128 bits, more than the
    dense estimate of any sum in range, the count gives up on its first
    pair of runs.
    """
    if route == "runs":
        for name, value in (("_RUNS_MIN_BITS", 0), ("_INTERVAL_BITS", 1)):
            mp.setattr(finset, name, value)
    else:
        mp.setattr(finset, "_INTERVAL_BITS", 2**128)
        mp.setattr(finset, "_PAIR_BITS", 2**64 if route == "dense" else 0)


ROUTES = ["dense", "hashed", "runs"]


@pytest.mark.parametrize("route_name", ROUTES)
@given(finsets(max_size=20), finsets(max_size=20))
def test_each_route_matches_naive(route_name, x, y):
    with pytest.MonkeyPatch.context() as mp:
        force(mp, route_name)
        assert RouteSpy(mp).sum(x, y, route_name) == sumset_naive(x, y)


def test_runs_route_on_every_pair_of_small_zero_sets(monkeypatch):
    # the 128 sets inside [-3, 4] that hold 0, and all 8,256 unordered pairs
    others = [v for v in range(-3, 5) if v]
    sets = [make_set([0, *(v for i, v in enumerate(others) if mask >> i & 1)])
            for mask in range(1 << len(others))]
    force(monkeypatch, "runs")
    spy = RouteSpy(monkeypatch)
    pairs = 0
    for i, x in enumerate(sets):
        for y in sets[i:]:
            assert spy.sum(x, y, "runs") == sumset_naive(x, y), (x, y)
            pairs += 1
    assert (len(sets), pairs) == (128, 8256)


def blocks(rng, count, length, gap):
    """A union of count blocks of 1..length elements, gaps of 2..gap between them."""
    out, v = [], rng.randint(-50, 50)
    for _ in range(count):
        n = rng.randint(1, length)
        out.extend(range(v, v + n))
        v += n + rng.randint(2, gap)
    return make_set(out)


def test_runs_route_merges_touching_and_overlapping_sums(monkeypatch):
    # the interval sums, sorted by start, meet the union so far in three
    # ways: overlapping it, touching it, or one integer short of it, which
    # must stay a gap; every way occurs below
    force(monkeypatch, "runs")
    spy = RouteSpy(monkeypatch)
    rng = random.Random(11)
    seen = {"overlap": 0, "touch": 0, "gap of 1": 0}
    for _ in range(300):
        x = blocks(rng, rng.randint(1, 6), 4, 4)
        y = blocks(rng, rng.randint(1, 6), 4, 4)
        sums = sorted((a + c, b + d) for a, b in runs(x).runs for c, d in runs(y).runs)
        hi = sums[0][1]
        for a, b in sums[1:]:
            if a <= hi:
                seen["overlap"] += 1
            elif a == hi + 1:
                seen["touch"] += 1
            elif a == hi + 2:
                seen["gap of 1"] += 1
            hi = max(hi, b)
        assert spy.sum(x, y, "runs") == sumset_naive(x, y), (x, y)
    assert min(seen.values()) > 0, seen


def test_long_runs_take_the_runs_route(route):
    # too many pairs for the oracle: the dense route, pinned, checks them
    rng = random.Random(12)
    for count in (1, 3, 20):
        x, y = blocks(rng, count, 2000, 400), blocks(rng, count, 2000, 400)
        with pytest.MonkeyPatch.context() as mp:
            force(mp, "dense")
            expected = sumset(x, y)
        assert route.sum(x, y, "runs") == expected
    a, b = interval(0, 10**5 - 1), interval(-5, 10**5)
    assert route.sum(a, b, "runs").elems == tuple(range(-5, 2 * 10**5))


def test_many_runs_fall_back_from_the_runs_route(route):
    # about 10^4 runs each: r_x * r_y interval sums would cost more than the
    # dense route, and the run count gives up long before it reaches them
    rng = random.Random(13)
    x = make_set(rng.sample(range(40_000), 20_000))
    y = make_set(rng.sample(range(40_000), 20_000))
    s = route.sum(x, y, "dense")
    assert (s.min, s.max) == (x.min + y.min, x.max + y.max)


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


@pytest.mark.parametrize("x, y", [
    (interval(MAX_ELEMENT - 99, MAX_ELEMENT), make_set([0, 1])),
    (make_set([MAX_ELEMENT - 50, *range(MAX_ELEMENT - 9, MAX_ELEMENT + 1)]), make_set([0, 3, 4, 60])),
    (make_set([MAX_ELEMENT - 300, MAX_ELEMENT - 5]), interval(0, 20)),
    (interval(-MAX_ELEMENT, -MAX_ELEMENT + 99), make_set([-1, 0])),
    (make_set([-MAX_ELEMENT, -MAX_ELEMENT + 7, -MAX_ELEMENT + 40]), make_set([-8, -3, 0])),
])
def test_every_route_names_the_same_element_past_the_range(x, y):
    # each route builds the sum in ascending order, so each must refuse it
    # naming the element the ascending per-element check would
    messages = []
    for r in ROUTES:
        with pytest.MonkeyPatch.context() as mp:
            force(mp, r)
            with pytest.raises(OverflowError) as err:
                RouteSpy(mp).sum(x, y, r)
        messages.append(str(err.value))
    with pytest.raises(OverflowError) as err:
        make_set(sorted({a + b for a in x for b in y}))
    assert messages == [str(err.value)] * 3


@pytest.mark.parametrize("lo, hi", [(0, 160_000), (-160_000, -7), (-(2**40), 5000 - 2**40)])
def test_interval_round_trips_through_the_mask(monkeypatch, lo, hi):
    # the runs route would answer this sum; pinned off, it is a codec check
    monkeypatch.setattr(finset, "_INTERVAL_BITS", 2**128)
    x = interval(lo, hi)
    s = RouteSpy(monkeypatch).sum(x, make_set([0]), "dense")
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


# the folds ROADMAP's Baseline times at the CLI's span cap
BASELINE_FOLDS = ["{0,1}", "{0,2}", "{0,3,7,11,20}", "{-5,0,1,9}", "{0,10,11,37,50,64,99}"]


@pytest.mark.parametrize("literal", BASELINE_FOLDS)
def test_kfold_agrees_with_the_runs_route_pinned_off(literal, monkeypatch):
    # up to k where the fold spans about 4 * 10**4, well past where the runs
    # route starts answering the doublings.  {0,1}, and {0,2} once rescaled,
    # are one run and fold in one step; the multi-run literals double
    x = parse_set(literal)
    ks = [*range(9), 40_000 // (x.max - x.min)]
    doubles = literal not in ("{0,1}", "{0,2}")
    spy = RouteSpy(monkeypatch)
    folds = [kfold(x, k) for k in ks]
    assert (spy.calls["runs"] > 0) == doubles
    monkeypatch.setattr(finset, "_INTERVAL_BITS", 2**128)
    spy.calls.update(dense=0, runs=0)
    assert folds == [kfold(x, k) for k in ks]
    assert spy.calls["runs"] == 0
    assert (spy.calls["dense"] > 0) == doubles
    expected = make_set([0])
    for k, fold in zip(ks, folds[:-1]):
        assert fold == expected, k
        expected = sumset_naive(expected, x)


def test_one_run_folds_in_one_step(monkeypatch):
    # negative, straddling and singleton intervals, and a progression that
    # the rescale maps to one run, fold with no sum at all.  The interval of
    # width 4096 is wide enough for the rescale's gcd, which is 1; the
    # progression is rescaled from k = 2 on
    def no_sum(x, y):
        raise AssertionError(f"a one-run fold took the sum {x} + {y}")

    cases = [(interval(-9, -4), range(9)), (interval(-3, 2), range(9)), (make_set([5]), range(9)),
             (make_set([-7]), [10**5]), (interval(-4000, 96), [1]),
             (make_set([-2000, -1000, 0, 1000]), range(2, 9))]
    for x, ks in cases:
        expected = make_set([0])
        for k in range(max(ks) + 1):
            if k in ks:
                with monkeypatch.context() as mp:
                    mp.setattr(finset, "sumset", no_sum)
                    assert kfold(x, k) == expected, (x, k)
            expected = sumset_naive(expected, x)
    # the progression is no run itself: only the rescale makes it one
    assert len(runs(cases[-1][0]).runs) == 4


def test_one_run_fold_refuses_out_of_range_ends_before_building():
    # the fold's own first element past the range, as the ascending check
    # names it, raised without building any of the 2**63 elements
    tracemalloc.start()
    try:
        for x, k, named in ((make_set([0, 1]), 2**63, MAX_ELEMENT + 1),
                            (interval(-3, 5), 2**62, -3 * 2**62),
                            (make_set([2**61]), 5, 5 * 2**61)):
            with pytest.raises(OverflowError, match=f"^element {named} outside the supported integer range$"):
                kfold(x, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def lone_runs(count, start):
    """count runs of one element each, two apart."""
    return tuple(range(start, start + 2 * count, 2))


def test_run_count_is_exact_below_the_limit():
    xs = (-9, -8, -7, -3, 0, 1, 5, 6, 7, 8, 40)
    ys = (*range(100, 1100), 1200, *range(1300, 1302))
    rx = [(-9, -7), (-3, -3), (0, 1), (5, 8), (40, 40)]
    ry = [(100, 1099), (1200, 1200), (1300, 1301)]
    assert finset._runs(xs, ys, 16) == (rx, ry)
    assert finset._runs(ys, xs, 16) == (ry, rx)
    # the first product that reaches the limit gives up, not the one after
    assert finset._runs(xs, ys, 15) is None
    assert finset._runs(lone_runs(3, 0), lone_runs(3, 1), 9) is None
    assert finset._runs(lone_runs(3, 0), lone_runs(3, 1), 10)[0] == [(v, v) for v in range(0, 6, 2)]
    # one long operand against a single run: every run of it is counted
    assert len(finset._runs(lone_runs(10_000, 0), (0,), 10_001)[0]) == 10_000


def test_failed_run_count_stops_near_the_square_root_of_the_limit(monkeypatch):
    counted = 0
    iter_runs = finset._iter_runs

    def counting(elems):
        nonlocal counted
        for run in iter_runs(elems):
            counted += 1
            yield run

    monkeypatch.setattr(finset, "_iter_runs", counting)
    xs, ys = lone_runs(10_000, 0), lone_runs(10_000, 1)
    for limit in (1, 2, 50, 10_000, 99_999_999):
        counted = 0
        assert finset._runs(xs, ys, limit) is None
        assert counted <= 2 * limit ** 0.5 + 2, (limit, counted)


def test_kfold_divides_out_the_gcd_and_scales_back():
    # d > 1 with negative and positive minima, and singletons, where d = 0;
    # each set is wide enough that every fold from k = 1 on is rescaled
    for values in ([3], [-4], [0], [0, 2], [-6, -2, 4], [-9, -3, 6, 12], [5, 15, 35], [-7, -1]):
        x = make_set([1000 * v for v in values])
        expected = make_set([0])
        for k in range(8):
            assert kfold(x, k) == expected, (values, k)
            expected = sumset_naive(expected, x)
    # scaled back, the fold refuses the element the ascending check names
    with pytest.raises(OverflowError, match=f"^element {10**19} outside"):
        kfold(make_set([0, 2 * 10**18]), 5)


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
