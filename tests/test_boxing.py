"""Run decomposition and boxing dimension."""

import re

import pytest
from hypothesis import given

from conftest import finsets
from powermonoid import MAX_ELEMENT, RunProfile, bdim, from_runs, interval, make_set, reflect, runs, translate


def test_worked_example():
    x = make_set([-5, -4, -2, 0, 1, 5, 6, 7])
    p = runs(x)
    assert p.runs == ((-5, -4), (-2, -2), (0, 1), (5, 7))
    assert p.bdim == 4
    assert bdim(x) == 4


def test_intervals_have_dimension_one():
    assert bdim(interval(-3, 9)) == 1
    assert bdim(make_set([42])) == 1


def test_endpoints_flattened():
    p = runs(make_set([-5, -4, -2, 0, 1, 5, 6, 7]))
    assert p.endpoints == (-5, -4, -2, -2, 0, 1, 5, 7)


def test_to_json():
    assert runs(make_set([0, 2])).to_json() == [[0, 0], [2, 2]]


def test_from_runs_round_trip_example():
    x = make_set([-5, -4, -2, 0, 1, 5, 6, 7])
    assert from_runs(runs(x).runs) == x


def test_from_runs_validation():
    with pytest.raises(ValueError):
        from_runs([])
    with pytest.raises(ValueError):
        from_runs([(3, 1)])
    with pytest.raises(ValueError):
        from_runs([(0, 1), (2, 4)])  # touching runs would merge
    with pytest.raises(ValueError):
        from_runs([(0, 3), (2, 5)])  # overlap


def test_from_runs_refuses_ends_that_are_not_ints():
    # FinSet refuses the same values as elements
    for pairs, v in (([(0, 2.7)], 2.7), ([("1", "3")], "1"), ([(True, 3)], True),
                     ([(0, 1), (3, False)], False), ([(0.0, 1)], 0.0)):
        with pytest.raises(TypeError, match=f"^run ends must be integers, got {re.escape(repr(v))}$"):
            from_runs(pairs)
    assert from_runs([(0, 2)]).elems == (0, 1, 2)
    assert from_runs([[-3, -1], [2, 2]]).elems == (-3, -2, -1, 2)


def test_from_runs_checks_the_range_ends():
    top = MAX_ELEMENT
    assert from_runs([(-top, 1 - top), (top - 1, top)]).elems == (-top, 1 - top, top - 1, top)
    with pytest.raises(OverflowError, match=str(top + 1)):
        from_runs([(0, 0), (top - 1, top + 2)])
    with pytest.raises(OverflowError, match=str(-top - 1)):
        from_runs([(-top - 1, -top), (0, 0)])


def test_run_profile_is_hashable_value():
    p = RunProfile(((0, 1), (3, 4)))
    assert p == RunProfile(((0, 1), (3, 4)))
    assert hash(p) == hash(RunProfile(((0, 1), (3, 4))))


def _runs_oracle(x):
    """Independent count: gaps of width >= 2 split runs."""
    es = x.elems
    count = 1
    for prev, cur in zip(es, es[1:]):
        if cur - prev >= 2:
            count += 1
    return count


@given(finsets())
def test_bdim_matches_gap_count(x):
    assert bdim(x) == _runs_oracle(x)


@given(finsets())
def test_runs_partition_the_set(x):
    p = runs(x)
    rebuilt = []
    for lo, hi in p.runs:
        assert lo <= hi
        rebuilt.extend(range(lo, hi + 1))
    assert tuple(rebuilt) == x.elems
    for (_, hi), (lo, _) in zip(p.runs, p.runs[1:]):
        assert lo - hi >= 2


@given(finsets())
def test_bdim_invariant_under_translation_and_reflection(x):
    assert bdim(translate(x, 17)) == bdim(x)
    assert bdim(reflect(x, 0)) == bdim(x)
