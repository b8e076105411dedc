"""Divergence classification and the two padding-witness constructions."""

import itertools
import random
from collections import Counter

import pytest

from conftest import random_run_end_pair, random_run_start_pair
from powermonoid import (
    Divergence,
    OrientationError,
    as_zero_set,
    bdim,
    first_divergence,
    induction_measure,
    interval,
    make_set,
    reflect,
    run_end_witness,
    run_start_witness,
    sumset,
    sumset_naive,
)


def test_first_divergence_classification():
    assert first_divergence(as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 2, 5])) == (
        None,
        Divergence.NONE,
    )
    v, kind = first_divergence(as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5]))
    assert (v, kind) == (4, Divergence.RUN_START)
    v, kind = first_divergence(as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5]))
    assert (v, kind) == (3, Divergence.RUN_END)


def test_bounds_preconditions():
    with pytest.raises(ValueError, match="bounds"):
        first_divergence(as_zero_set([-1, 0, 5]), as_zero_set([-2, 0, 5]))
    with pytest.raises(ValueError, match="straddle"):
        first_divergence(as_zero_set([0, 1, 5]), as_zero_set([0, 2, 5]))


def test_run_start_witness_worked_example():
    a, b = as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5])
    w = run_start_witness(a, b)
    assert w.case is Divergence.RUN_START
    assert w.v == 4
    assert w.helper == interval(0, 1)
    assert w.witness_point == 2
    assert w.lhs == sumset(a, interval(0, 1))
    assert w.rhs == sumset(b, interval(0, 1))
    assert 2 in w.lhs and 2 not in w.rhs
    assert bdim(w.lhs) <= bdim(a) - 1


def test_run_start_orientation():
    a, b = as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5])
    with pytest.raises(OrientationError, match="swap"):
        run_start_witness(b, a)


def test_run_end_witness_worked_example():
    a, b = as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5])
    w = run_end_witness(a, b, 11)
    assert w.case is Divergence.RUN_END
    assert w.v == 3
    assert w.helper == make_set([0] + list(range(5, 12)))
    assert w.witness_point == 2
    # the padding block alone collapses both sets onto one interval
    block = interval(5, 11)
    assert sumset(a, block) == sumset(b, block) == interval(3, 16)
    assert w.lhs == sumset(a, w.helper)
    assert w.rhs == sumset(b, w.helper)
    assert 2 in w.lhs and 2 not in w.rhs
    assert bdim(w.lhs) <= bdim(a) - 1
    # B's final run starts at 4, below the block's sums from ea[v] + 1 = 6:
    # the last run of the padded B starts there
    a = as_zero_set([-5, 0, 1, 2, 3, 4, 5, 7, 8, 9])
    b = as_zero_set([-5, 0, 1, 2, 4, 5, 6, 7, 8, 9])
    w = run_end_witness(a, b)
    assert (w.v, w.witness_point) == (3, 3)
    assert w.helper == make_set([0] + list(range(11, 23)))
    assert w.lhs == make_set([-5] + list(range(0, 32)))
    assert w.rhs == make_set([-5, 0, 1, 2] + list(range(4, 32)))


def test_run_end_default_padding_is_minimal():
    a, b = as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5])
    assert run_end_witness(a, b) == run_end_witness(a, b, 11)
    with pytest.raises(ValueError, match="minimum padding width 11"):
        run_end_witness(a, b, 10)
    # wider padding still separates
    w = run_end_witness(a, b, 20)
    assert w.witness_point in w.lhs and w.witness_point not in w.rhs


def test_run_end_orientation():
    a, b = as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5])
    with pytest.raises(OrientationError, match="swap"):
        run_end_witness(b, a)


def test_run_end_rejects_first_run_divergence():
    a, b = as_zero_set([-2, -1, 0, 2, 5]), as_zero_set([-2, 0, 2, 5])
    assert first_divergence(a, b) == (1, Divergence.RUN_END)
    with pytest.raises(ValueError, match="manual review"):
        run_end_witness(a, b)


def test_run_end_rejects_final_run_divergence():
    a, b = as_zero_set([-1, 0, 1, 4, 5, 6]), as_zero_set([-1, 0, 1, 4, 6])
    assert first_divergence(a, b) == (3, Divergence.RUN_END)
    with pytest.raises(ValueError, match="final run"):
        run_end_witness(a, b)


def test_witness_builders_reject_wrong_case():
    start_pair = (as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5]))
    end_pair = (as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5]))
    with pytest.raises(ValueError, match="run start"):
        run_start_witness(*end_pair)
    with pytest.raises(ValueError, match="run end"):
        run_end_witness(*start_pair)
    with pytest.raises(ValueError):
        run_start_witness(as_zero_set([-1, 0]), as_zero_set([-1, 0]))


def test_induction_measure():
    a, b = as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5])
    assert induction_measure(a, b) == bdim(a) + bdim(b) == 8
    w = run_start_witness(a, b)
    assert induction_measure(w.lhs, w.rhs) < induction_measure(a, b)


@pytest.mark.parametrize("case", ["start", "end"])
def test_random_witnesses(case):
    rng = random.Random(0)
    for _ in range(50):
        if case == "start":
            a, b = random_run_start_pair(rng)
            w = run_start_witness(a, b)
        else:
            a, b = random_run_end_pair(rng)
            w = run_end_witness(a, b)
        assert w.witness_point in w.lhs
        assert w.witness_point not in w.rhs
        assert w.lhs != w.rhs


def test_random_generators_are_seeded():
    pairs1 = [random_run_start_pair(random.Random(3)) for _ in range(5)]
    pairs2 = [random_run_start_pair(random.Random(3)) for _ in range(5)]
    assert pairs1 == pairs2


def test_every_equal_bound_pair_in_a_small_window():
    """Every unordered pair of distinct zero sets inside [-4, 4] whose equal
    bounds straddle 0 strictly, 3,500 pairs: the builder that
    first_divergence names, retried swapped on OrientationError as the CLI
    does, either gives a witness whose padded sums match the pairwise sums
    with its helper, or refuses with one of the two named run-end cases."""
    pairs = []
    for lo, hi in itertools.product(range(-4, 0), range(1, 5)):
        free = [x for x in range(lo + 1, hi) if x != 0]
        sets = [as_zero_set({lo, 0, hi, *combo})
                for r in range(len(free) + 1) for combo in itertools.combinations(free, r)]
        pairs += itertools.combinations(sets, 2)
    assert len(pairs) == 3500
    kinds, refusals, witnessed = Counter(), Counter(), set()
    for a, b in pairs:
        kind = first_divergence(a, b)[1]
        build = run_start_witness if kind is Divergence.RUN_START else run_end_witness
        try:
            try:
                w = build(a, b)
                first, second = a, b
            except OrientationError:
                w = build(b, a)
                first, second = b, a
        except ValueError as exc:
            assert kind is Divergence.RUN_END
            refusals[str(exc)] += 1
            continue
        assert w.case is kind
        assert w.lhs == sumset_naive(first, w.helper)
        assert w.rhs == sumset_naive(second, w.helper)
        assert w.witness_point in w.lhs and w.witness_point not in w.rhs
        kinds[kind] += 1
        witnessed.add(frozenset((a, b)))
    assert kinds == {Divergence.RUN_START: 700, Divergence.RUN_END: 246}
    assert refusals == {
        "divergence at the end of the first run is outside the supported cases; "
        "flagged for manual review": 2403,
        "divergence at the end of the final run is outside the supported cases": 151,
    }
    # the pair or its negation has a witness
    negated = {frozenset(reflect(x, 0) for x in pair) for pair in witnessed}
    assert len(witnessed | negated) == 1580
