"""Separating witnesses for pairs of sets with the same bounds.

Two distinct zero-anchored sets with equal minimum and maximum have run
endpoint sequences that first differ at some index v.  Padding both sets
with a suitable helper then yields a point lying in one padded sum but not
the other, while strictly shrinking the combined boxing dimension; that
descent is the engine of the uniqueness argument.  The divergence splits
into two shapes: at a run's start (v even) a short interval [[0,d]] exposes
the gap below it, at a run's end (v odd) a far-away interval block C makes
everything above the diverging run collapse while the point just past the
shorter run survives on one side only.  That helper is {0} ∪ C, and
x + ({0} ∪ C) = x ∪ (x + C) for any x, so once x + C is checked to be
the interval [[a_v+1, max+c]], the padded sum is x's elements up to a_v
followed by that interval, and needs no second sum.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum

from .boxing import bdim, runs
from .finset import FinSet, _Record, interval, sumset
from .monoid import ZeroSet, as_zero_set


class Divergence(Enum):
    RUN_START = "run-start"
    RUN_END = "run-end"
    NONE = "none"


class OrientationError(ValueError):
    """The pair is valid but the arguments are in the wrong order."""


class DivergenceWitness(_Record):
    __slots__ = ("case", "v", "helper", "witness_point", "lhs", "rhs")

    def __init__(self, case: Divergence, v: int, helper: FinSet, witness_point: int,
                 lhs: FinSet, rhs: FinSet):
        super().__init__(case, v, helper, witness_point, lhs, rhs)


def _diverge(
    a: FinSet, b: FinSet
) -> tuple[ZeroSet, ZeroSet, tuple[int, ...], tuple[int, ...], int | None, Divergence]:
    """The pair as ZeroSets, their endpoint sequences and first divergence.

    Returns (a, b, ea, eb, v, kind), with (v, kind) as in
    :func:`first_divergence`.
    """
    a, b = as_zero_set(a), as_zero_set(b)
    if (a.min, a.max) != (b.min, b.max):
        raise ValueError("endpoint bounds of the two sets must agree")
    if not (a.min < 0 < a.max):
        raise ValueError("bounds must straddle zero strictly")
    ea, eb = runs(a).endpoints, runs(b).endpoints
    for v, (x, y) in enumerate(zip(ea, eb)):
        if x != y:
            kind = Divergence.RUN_START if v % 2 == 0 else Divergence.RUN_END
            return a, b, ea, eb, v, kind
    if a == b:
        return a, b, ea, eb, None, Divergence.NONE
    raise AssertionError("distinct sets with agreeing endpoint prefixes")


def first_divergence(a: FinSet, b: FinSet) -> tuple[int | None, Divergence]:
    """Index and kind of the first endpoint-sequence difference.

    Returns (None, Divergence.NONE) when the sets are equal.  Comparison
    never needs to look past the shorter endpoint sequence: equal bounds
    force a difference before it runs out.
    """
    return _diverge(a, b)[4:]


def run_start_witness(a: FinSet, b: FinSet) -> DivergenceWitness:
    """Witness for a pair whose endpoints first differ at a run start.

    Orientation contract: the first set must own the earlier run start
    (a_v < b_v); otherwise OrientationError tells the caller to swap.
    """
    a, b, ea, eb, v, kind = _diverge(a, b)
    if kind is not Divergence.RUN_START:
        raise ValueError(f"pair does not diverge at a run start (divergence: {kind.value})")
    if ea[v] > eb[v]:
        raise OrientationError("the second set owns the earlier run start; swap the arguments")
    # v is even and positive: index 0 is the shared minimum
    d = ea[v] - ea[v - 1] - 1
    helper = interval(0, d)
    lhs = sumset(a, helper)
    rhs = sumset(b, helper)
    w = ea[v]
    if w not in lhs or w in rhs:
        raise AssertionError("separating point failed its membership contract")
    if bdim(lhs) > bdim(a) - 1:
        raise AssertionError("padding did not shrink the boxing dimension")
    return DivergenceWitness(Divergence.RUN_START, v, helper, w, lhs, rhs)


def run_end_witness(a: FinSet, b: FinSet, c: int | None = None) -> DivergenceWitness:
    """Witness for a pair whose endpoints first differ at a run end.

    Orientation contract: the first set must own the later run end
    (a_v > b_v).  The padding block C = [[-min+a_v+1, c]] needs c at least
    wide enough to bridge every gap of both sets; c defaults to that
    minimum width and smaller values are rejected.

    Both a + C and b + C are checked to equal the interval
    [[a_v+1, max+c]].  The helper is {0} ∪ C, and
    x + ({0} ∪ C) = x ∪ (x + C), so each padded sum has the closed form
    x ∪ [[a_v+1, max+c]]: x's elements up to a_v, then that interval,
    since every element of x above a_v lies in it.
    """
    a, b, ea, eb, v, kind = _diverge(a, b)
    if kind is not Divergence.RUN_END:
        raise ValueError(f"pair does not diverge at a run end (divergence: {kind.value})")
    u = (v - 1) // 2
    # the index of each set's final run
    r = len(ea) // 2 - 1
    s = len(eb) // 2 - 1
    if u == 0:
        raise ValueError(
            "divergence at the end of the first run is outside the supported cases; flagged for manual review"
        )
    if u >= r:
        raise ValueError("divergence at the end of the final run is outside the supported cases")
    if ea[v] < eb[v]:
        raise OrientationError("the second set owns the later run end; swap the arguments")
    lo = a.min
    c0 = -lo + ea[v] + max(ea[2 * r] - ea[1], eb[2 * s] - eb[1])
    if c is None:
        c = c0
    elif c < c0:
        raise ValueError(f"c below the minimum padding width {c0}")
    block = interval(-lo + ea[v] + 1, c)
    collapsed = interval(ea[v] + 1, a.max + c)
    if sumset(a, block) != collapsed or sumset(b, block) != collapsed:
        raise AssertionError("padding block failed to collapse both sets to one interval")
    # block.min >= 1, so 0 goes first
    helper = FinSet._from_sorted((0,) + block.elems)
    # the closed form of x + helper, from the collapse just checked
    lhs, rhs = (FinSet._from_sorted(x.elems[:bisect_right(x.elems, ea[v])] + collapsed.elems)
                for x in (a, b))
    w = eb[v] + 1
    if w not in lhs or w in rhs:
        raise AssertionError("separating point failed its membership contract")
    if bdim(lhs) > r:
        raise AssertionError("padding did not shrink the boxing dimension")
    return DivergenceWitness(Divergence.RUN_END, v, helper, w, lhs, rhs)


def induction_measure(a: FinSet, b: FinSet) -> int:
    """bdim(a) + bdim(b), the quantity the descent shrinks."""
    return bdim(a) + bdim(b)
