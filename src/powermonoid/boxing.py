"""Run decomposition of finite integer sets and the boxing dimension.

Every finite set of integers splits uniquely into maximal runs (discrete
intervals) separated by gaps of at least 2.  The number of runs is the set's
boxing dimension; it is the key finiteness measure for the induction
arguments in :mod:`powermonoid.proofsteps`.
"""

from __future__ import annotations

from itertools import chain

from .finset import _INT_ONLY, FinSet, _as_int, _Record


class RunProfile(_Record):
    """The maximal runs of a set as ascending (lo, hi) pairs."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]):
        super().__init__(runs)

    @property
    def bdim(self) -> int:
        return len(self.runs)

    @property
    def endpoints(self) -> tuple[int, ...]:
        """Flattened endpoint sequence lo0, hi0, lo1, hi1, ..."""
        return tuple(v for run in self.runs for v in run)

    def to_json(self) -> list[list[int]]:
        """JSON form: array of [lo, hi] pairs."""
        return [[lo, hi] for lo, hi in self.runs]


def runs(x: FinSet) -> RunProfile:
    """Decompose x into maximal runs."""
    out = []
    lo = prev = x.min
    for v in x.elems[1:]:
        if v == prev + 1:
            prev = v
            continue
        out.append((lo, prev))
        lo = prev = v
    out.append((lo, prev))
    return RunProfile(tuple(out))


def bdim(x: FinSet) -> int:
    """Boxing dimension: the number of maximal runs of x."""
    return runs(x).bdim


def from_runs(pairs) -> FinSet:
    """Materialize a set from (lo, hi) run pairs.

    The pairs must be valid as a run decomposition: each lo <= hi, and
    consecutive runs separated by a gap of at least 2 (touching or
    overlapping runs would merge and are rejected).  Valid pairs list the
    elements in ascending order, so only the two ends are range-checked.
    The ends must be ints, as :class:`FinSet` elements must: a bool, a float
    or a string raises TypeError.
    """
    pairs = [(lo, hi) for lo, hi in pairs]
    # one pass over the types in C; only other types take the per-end check
    if set(map(type, chain.from_iterable(pairs))) != _INT_ONLY:
        pairs = [tuple(_as_int(v, "run ends must be integers") for v in run) for run in pairs]
    if not pairs:
        raise ValueError("a run profile needs at least one run")
    elems = []
    prev_hi = None
    for lo, hi in pairs:
        if lo > hi:
            raise ValueError(f"run ({lo},{hi}) is empty")
        if prev_hi is not None and lo <= prev_hi + 1:
            raise ValueError(f"runs must be separated by gaps of at least 2, got ({lo},{hi}) after hi={prev_hi}")
        elems.extend(range(lo, hi + 1))
        prev_hi = hi
    return FinSet._from_sorted(tuple(elems))
