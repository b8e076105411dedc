"""Reduced-monoid structure: factorizations, atoms, bounded candidates."""

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import zero_sets
from powermonoid import (
    UNIT,
    ZeroSet,
    as_zero_set,
    candidates_with_bounds,
    factorizations,
    interval,
    is_atom,
    make_set,
    sumset_naive,
)


def _factor_oracle(x):
    """Exhaustive reference: try every unordered pair of zero-anchored subsets.

    Both factors of a zero-anchored product necessarily sit inside it, so
    plain subset enumeration is complete.  Deliberately brute force and
    independent of the production enumeration order.
    """
    rest = [v for v in x.elems if v != 0]
    subs = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subs.append(as_zero_set(combo + (0,)))
    found = []
    for y, z in itertools.combinations_with_replacement(subs, 2):
        if y == UNIT or z == UNIT:
            continue
        if sumset_naive(y, z) == x:
            found.append((y, z) if y.elems <= z.elems else (z, y))
    return sorted(found, key=lambda p: (p[0].elems, p[1].elems))


def test_zero_required():
    with pytest.raises(ValueError):
        ZeroSet([1, 2])
    assert as_zero_set([2, 0, -1]).elems == (-1, 0, 2)
    assert UNIT == ZeroSet([0])


def test_factorizations_worked_example():
    x = as_zero_set([-1, 0, 1, 2])
    got = factorizations(x)
    want = [
        (as_zero_set([-1, 0]), as_zero_set([0, 1, 2])),
        (as_zero_set([-1, 0]), as_zero_set([0, 2])),
        (as_zero_set([-1, 0, 1]), as_zero_set([0, 1])),
    ]
    assert got == want
    assert got == _factor_oracle(x)


def test_factorizations_atom_example():
    assert factorizations(as_zero_set([-1, 0, 2])) == []
    assert is_atom(as_zero_set([-1, 0, 2]))


def test_unit_is_not_an_atom():
    assert not is_atom(UNIT)
    assert factorizations(UNIT) == []


def test_two_element_sets_are_atoms():
    for k in (1, 2, 7, -3):
        assert is_atom(as_zero_set([0, k]))


def test_intervals_factor():
    # [[-1,1]] = {-1,0} + {0,1}
    x = as_zero_set(interval(-1, 1).elems)
    assert (as_zero_set([-1, 0]), as_zero_set([0, 1])) in factorizations(x)
    assert not is_atom(x)


@given(zero_sets(min_value=-6, max_value=6, max_size=6))
def test_factorizations_match_oracle(x):
    assert factorizations(x) == _factor_oracle(x)


# every zero set inside each window, 128 apiece: the windows are lopsided
# both ways, so either factor of a pair can be the narrower, and pairs
# with equal min and span occur in both
@pytest.mark.parametrize("lo, hi", [(-3, 4), (-4, 3)])
def test_every_small_window_set_factors_as_the_oracle(lo, hi):
    free = [v for v in range(lo, hi + 1) if v]
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            x = as_zero_set(combo + (0,))
            pairs = factorizations(x)
            assert pairs == _factor_oracle(x), x
            assert is_atom(x) == (x != UNIT and not pairs), x


# sparse sets (at most 8 elements), where pinning the factors' bounds
# prunes hardest
@given(zero_sets(min_value=-30, max_value=30, max_size=7))
def test_sparse_factorizations_match_oracle(x):
    assert factorizations(x) == _factor_oracle(x)


# dilations k*S spread a few elements over a span far wider than any
# value-indexed bitmask could hold
@given(zero_sets(min_value=-12, max_value=12, max_size=6), st.integers(min_value=2**21, max_value=2**45))
def test_dilated_factorizations_match_oracle(s, k):
    x = as_zero_set(k * v for v in s.elems)
    got = factorizations(x)
    assert got == _factor_oracle(x)
    assert got == [(as_zero_set(k * v for v in y.elems), as_zero_set(k * v for v in z.elems)) for y, z in factorizations(s)]
    assert is_atom(x) == is_atom(s)


def test_wide_sparse_sets():
    assert is_atom(as_zero_set([0, 2**40]))
    x = as_zero_set([0, 2**40, 2**41])
    assert factorizations(x) == _factor_oracle(x) == [(as_zero_set([0, 2**40]), as_zero_set([0, 2**40]))]
    assert not is_atom(x)


@given(zero_sets(min_value=-8, max_value=8, max_size=7))
def test_factorization_pairs_recompose(x):
    pairs = factorizations(x)
    assert is_atom(x) == (len(pairs) == 0 and x != UNIT)
    for y, z in pairs:
        assert sumset_naive(y, z) == x
        assert set(y.elems) <= set(x.elems)
        assert set(z.elems) <= set(x.elems)
        assert y != UNIT and z != UNIT
        assert y.elems <= z.elems


# both factors need nonzero elements to reach 12, so neither is the unit
@given(
    st.tuples(
        zero_sets(min_value=-10, max_value=10, max_size=5),
        zero_sets(min_value=-10, max_value=10, max_size=5),
    ).filter(lambda p: 12 <= len(sumset_naive(*p)) <= 20)
)
def test_products_factor(pair):
    y, z = pair
    x = as_zero_set(sumset_naive(y, z).elems)
    assert tuple(sorted((y, z), key=lambda s: s.elems)) in factorizations(x)
    assert not is_atom(x)


# frozen pair counts; intervals have the most factorizations for their size
@pytest.mark.parametrize(
    "lo, hi, count",
    [(0, 7, 45), (0, 9, 190), (0, 11, 815), (0, 13, 3460), (0, 15, 14770), (-8, 7, 39467)],
)
def test_interval_factorization_counts(lo, hi, count):
    x = as_zero_set(interval(lo, hi).elems)
    pairs = factorizations(x)
    assert len(pairs) == count
    assert not is_atom(x)
    # each distinct factor is one ZeroSet, however many pairs hold it
    factors = [f for p in pairs for f in p]
    assert all(type(f) is ZeroSet for f in factors)
    assert len({id(f) for f in factors}) == len({f.elems for f in factors})


def test_candidates_with_bounds_worked_examples():
    got = candidates_with_bounds(-1, 2)
    assert got == [as_zero_set([-1, 0, 2]), as_zero_set([-1, 0, 1, 2])]
    assert candidates_with_bounds(0, 2) == [as_zero_set([0, 2]), as_zero_set([0, 1, 2])]


def test_candidates_with_bounds_counts():
    # endpoints and 0 are forced; interior non-zero slots are free
    assert len(candidates_with_bounds(-3, 4)) == 2 ** (4 - (-3) - 2)
    assert len(candidates_with_bounds(0, 5)) == 2 ** (5 - 1)
    assert len(candidates_with_bounds(-5, 0)) == 2 ** (5 - 1)
    assert candidates_with_bounds(0, 0) == [UNIT]


def test_candidates_with_bounds_impossible():
    assert candidates_with_bounds(1, 3) == []
    assert candidates_with_bounds(-2, -1) == []
    assert candidates_with_bounds(3, -3) == []


@given(st.integers(-6, 0), st.integers(0, 6))
def test_candidates_have_the_stated_bounds(lo, hi):
    for x in candidates_with_bounds(lo, hi):
        assert (x.min, x.max) == (lo, hi)
        assert 0 in x


def test_enumeration_cap():
    wide = as_zero_set(interval(0, 30).elems)
    with pytest.raises(ValueError, match="cap"):
        factorizations(wide)
    with pytest.raises(ValueError, match="cap"):
        is_atom(wide)
    # the cap is a parameter, not a constant baked into the walk
    small = as_zero_set([-1, 0, 1, 2])
    with pytest.raises(ValueError, match="cap"):
        factorizations(small, max_size=3)
    # a bool cap would be named True, and 3.5 would run; the unit is no exception
    for bad in (True, 3.5, "3"):
        for call, x in ((factorizations, small), (is_atom, small), (is_atom, UNIT)):
            with pytest.raises(TypeError, match=f"max_size must be an integer, got {bad!r}"):
                call(x, max_size=bad)


def test_zero_set_from_a_finset_keeps_its_elements():
    x = make_set([-3, 0, 5])
    z = ZeroSet(x)
    assert type(z) is ZeroSet and z.elems == x.elems == ZeroSet([5, 0, -3]).elems
    with pytest.raises(ValueError, match="does not contain 0"):
        ZeroSet(make_set([-3, 5]))
