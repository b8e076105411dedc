"""Named automorphisms, bound transport, and the verification suites."""

import copy
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from conftest import zero_sets
from powermonoid import (
    BoundTransport,
    CheckResult,
    DivergenceWitness,
    Identity,
    MaxReflection,
    Negation,
    Reversal,
    Table,
    absorption_suite,
    apply,
    as_zero_set,
    check_absorption_identity,
    predict_bounds,
    reflect,
    rigidity_suite,
    run_start_witness,
    runs,
    solve_step_preimage_system,
    step_preimage_suite,
    sumset,
    transport_from_images,
    verify_homomorphism,
)


def test_apply_worked_examples():
    assert apply(Negation(), as_zero_set([-1, 0, 2])) == as_zero_set([-2, 0, 1])
    assert apply(MaxReflection(), as_zero_set([0, 2, 3])) == as_zero_set([0, 1, 3])
    x = as_zero_set([-3, 0, 5])
    assert apply(Identity(), x) == x


def test_reversal_composes_with_negation():
    x = as_zero_set([-1, 0, 2])
    assert apply(Reversal(Identity()), x) == apply(Negation(), x)
    assert apply(Reversal(Negation()), x) == x
    assert apply(Reversal(Reversal(MaxReflection())), x) == apply(MaxReflection(), x)


def test_table_spec():
    t = Table([(as_zero_set([0, 1]), as_zero_set([-1, 0]))])
    assert apply(t, as_zero_set([0, 1])) == as_zero_set([-1, 0])
    with pytest.raises(ValueError, match="domain"):
        apply(t, as_zero_set([0, 2]))
    with pytest.raises(ValueError, match="injective"):
        Table([
            (as_zero_set([0, 1]), as_zero_set([0, 1])),
            (as_zero_set([0, 2]), as_zero_set([0, 1])),
        ])
    with pytest.raises(ValueError, match="conflicting"):
        Table([
            (as_zero_set([0, 1]), as_zero_set([0, 1])),
            (as_zero_set([0, 1]), as_zero_set([0, 2])),
        ])


def test_apply_refuses_what_is_no_map_spec():
    with pytest.raises(TypeError, match="not a map spec: 'negation'"):
        apply("negation", as_zero_set([0, 1]))


def test_homomorphism_check_fails_on_one_broken_sum():
    # negation on {0,1}, but {0,1} + {0,1} = {0,1,2} goes to {-2,0}, not to
    # {-1,0} + {-1,0} = {-2,-1,0}; the table is injective all the same
    up, two = as_zero_set([0, 1]), as_zero_set([0, 1, 2])
    broken = Table([(up, apply(Negation(), up)), (two, as_zero_set([-2, 0]))])
    assert not verify_homomorphism(broken, [(up, up)])
    whole = Table([(up, apply(Negation(), up)), (two, apply(Negation(), two))])
    assert verify_homomorphism(whole, [(up, up)])


@given(zero_sets(), zero_sets())
def test_identity_negation_max_reflection_are_additive(x, y):
    pairs = [(x, y)]
    assert verify_homomorphism(Identity(), pairs)
    assert verify_homomorphism(Negation(), pairs)
    assert verify_homomorphism(MaxReflection(), pairs)


@given(zero_sets(min_value=0))
def test_max_reflection_is_an_involution_on_anchored_sets(x):
    # sets with min = 0 reflect back onto themselves
    assert apply(MaxReflection(), apply(MaxReflection(), x)) == x


def test_max_reflection_is_not_injective_on_signed_sets():
    a, b = as_zero_set([-1, 0]), as_zero_set([0, 1])
    assert a != b
    assert apply(MaxReflection(), a) == apply(MaxReflection(), b) == as_zero_set([0, 1])


@given(zero_sets())
def test_max_reflection_fixed_form(x):
    assert apply(MaxReflection(), x) == reflect(x, x.max)


def test_transport_worked_examples():
    ident = transport_from_images(as_zero_set([0, 1]), as_zero_set([-1, 0]))
    assert predict_bounds(ident, 3, 5) == (-3, 5)
    neg = transport_from_images(as_zero_set([-1, 0]), as_zero_set([0, 1]))
    assert predict_bounds(neg, 3, 5) == (-5, 3)


def test_transport_validation():
    with pytest.raises(ValueError, match="image pair"):
        BoundTransport(0, 0, -1, 0)
    with pytest.raises(ValueError, match="image pair"):
        transport_from_images(as_zero_set([0]), as_zero_set([-1, 0]))
    ident = transport_from_images(as_zero_set([0, 1]), as_zero_set([-1, 0]))
    with pytest.raises(ValueError):
        predict_bounds(ident, -1, 2)


@given(zero_sets(min_value=-10, max_value=10, max_size=6))
def test_transport_predicts_actual_bounds(x):
    for auto in (Identity(), Negation()):
        t = transport_from_images(
            apply(auto, as_zero_set([0, 1])), apply(auto, as_zero_set([-1, 0]))
        )
        img = apply(auto, x)
        assert predict_bounds(t, -x.min, x.max) == (img.min, img.max)


@given(zero_sets(min_value=-8, max_value=8, max_size=6), st.integers(0, 4))
def test_absorption_identity(x, extra):
    k = max(-x.min, x.max) + extra
    assert check_absorption_identity(x, k)


def test_absorption_identity_precondition():
    x = as_zero_set([-2, 0, 3])
    assert check_absorption_identity(x, 3)
    with pytest.raises(ValueError, match="at least"):
        check_absorption_identity(x, 2)


def test_step_preimage_system():
    sols = solve_step_preimage_system(10)
    assert len(sols) == 240
    assert {(xm, xp) for *_, xm, xp in sols} == {(0, 1), (1, 0)}
    for a, b, c, d, xm, xp in sols:
        # the two linear constraints, re-checked against the raw tuples
        assert c * xm + a * xp == 0
        assert d * xm + b * xp == 1
        assert a + b > 0 and c + d > 0 and xm + xp > 0
        if xm == 1:
            assert (c, d) == (0, 1)
        else:
            assert (a, b) == (0, 1)
    assert sols == sorted(sols)


def test_step_preimage_system_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        solve_step_preimage_system(-1)


def test_step_preimage_scales_with_bound():
    # per branch the forced pair pins two parameters; the other two are free
    # except the all-zero combination
    for bound in (3, 6, 10):
        assert len(solve_step_preimage_system(bound)) == 2 * ((bound + 1) ** 2 - 1)


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        (absorption_suite, {"seed": 0, "samples": 60}),
        (step_preimage_suite, {}),
        (rigidity_suite, {"seed": 0, "samples": 60}),
    ],
)
def test_suites_pass_and_serialize(suite, kwargs):
    checks = suite(**kwargs)
    assert checks and all(c.passed for c in checks)
    for c in checks:
        json.dumps(c.witness)  # witnesses must be machine-readable


def test_suites_are_deterministic():
    a = absorption_suite(seed=7, samples=40)
    b = absorption_suite(seed=7, samples=40)
    assert [(c.name, c.passed, c.witness) for c in a] == [
        (c.name, c.passed, c.witness) for c in b
    ]


@pytest.mark.parametrize("suite", [absorption_suite, rigidity_suite])
@pytest.mark.parametrize("samples", [0, -5])
def test_suites_refuse_sample_counts_below_one(suite, samples):
    # no sets drawn would still report every check as passed
    with pytest.raises(ValueError, match="samples must be at least 1"):
        suite(seed=0, samples=samples)
    # a bool would run and be echoed as true, and 2.5 would fail in range
    for bad in (True, 2.5, "3"):
        with pytest.raises(TypeError, match=f"samples must be an integer, got {bad!r}"):
            suite(seed=0, samples=bad)
        # random.Random takes either, and the witness would echo it
        with pytest.raises(TypeError, match=f"seed must be an integer, got {bad!r}"):
            suite(seed=bad, samples=1)


@given(zero_sets(), zero_sets())
def test_homomorphism_check_agrees_with_direct_expansion(x, y):
    t = Table([
        (x, apply(Negation(), x)),
        (y, apply(Negation(), y)),
        (sumset(x, y), apply(Negation(), sumset(x, y))),
    ])
    assert verify_homomorphism(t, [(x, y)])


def test_records_are_read_only_values():
    # the records behave as frozen dataclasses did, without that import
    witness = run_start_witness(as_zero_set({-2, 0, 2, 5}), as_zero_set({-2, 0, 3, 5}))
    records = [Identity(), Negation(), MaxReflection(), Reversal(Reversal(Negation())),
               BoundTransport(0, 1, -1, 0), CheckResult("c", True, {"n": 1}),
               runs(as_zero_set({0, 1, 3})), witness]
    for record in records:
        assert record == copy.copy(record) == pickle.loads(pickle.dumps(record))
        assert all(other != record for other in records if other is not record)
        field = (type(record).__match_args__ or ("anything",))[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert Identity() != Negation() and hash(Identity()) == hash(Negation())
    assert Reversal(Identity()) == Reversal(Identity()) != Reversal(Negation())
    assert hash(Reversal(Identity())) == hash(Reversal(Identity()))
    assert repr(Reversal(Negation())) == "Reversal(inner=Negation())"
    assert repr(BoundTransport(0, 1, -1, 0)) == (
        "BoundTransport(up_min=0, up_max=1, down_min=-1, down_max=0)")
    assert repr(CheckResult("c", True, {"n": 1})) == "CheckResult(name='c', passed=True, witness={'n': 1})"
    assert repr(witness).startswith("DivergenceWitness(case=<Divergence.RUN_START: 'run-start'>, v=")
    assert BoundTransport(up_min=0, up_max=1, down_min=-1, down_max=0) == BoundTransport(0, 1, -1, 0)
    assert isinstance(witness, DivergenceWitness) and witness.witness_point == 2
    with pytest.raises(TypeError):
        hash(CheckResult("c", True, {}))
    with pytest.raises(TypeError):
        Identity(1)
    match Reversal(MaxReflection()):
        case Reversal(inner):
            assert inner == MaxReflection()
