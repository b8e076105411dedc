"""Independent plain-Python references the benchmark checks results against.

None of these call into powermonoid: sums are built from Python ``set``
arithmetic and factorizations from brute-force subset pairs, so a fault in
the package cannot hide behind the same fault in its reference.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

# Above this many element pairs, a dense sum is built by scanning the output
# span for a witness instead of enumerating every pair.
_PAIRWISE_LIMIT = 4_000_000


def plain_sum(xs, ys) -> set[int]:
    """Minkowski sum of two integer collections as a Python set."""
    xs, ys = set(xs), set(ys)
    if len(xs) * len(ys) <= _PAIRWISE_LIMIT:
        return {a + b for a in xs for b in ys}
    small, big = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
    small = sorted(small)
    bmin, bmax = min(big), max(big)
    out = set()
    for s in range(small[0] + bmin, small[-1] + bmax + 1):
        # only v with s - v inside big's bounds can witness s
        for i in range(bisect_left(small, s - bmax), bisect_right(small, s - bmin)):
            if s - small[i] in big:
                out.add(s)
                break
    return out


def plain_kfold(xs, k: int) -> set[int]:
    acc = {0}
    for _ in range(k):
        acc = plain_sum(acc, xs)
    return acc


def plain_runs(xs) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers, ascending."""
    s = set(xs)
    return [(v, _run_end(s, v)) for v in sorted(s) if v - 1 not in s]


def _run_end(s: set[int], v: int) -> int:
    while v + 1 in s:
        v += 1
    return v


def plain_from_runs(pairs) -> set[int]:
    return {v for lo, hi in pairs for v in range(lo, hi + 1)}


def digest(values) -> tuple[int, int]:
    """Order-sensitive fingerprint of a sorted integer sequence."""
    t = tuple(values)
    return len(t), hash(t)


def set_digest(s: set[int]) -> tuple[int, int]:
    return digest(sorted(s))


def fmt(s) -> str:
    """Canonical literal of an integer set: ascending, comma-separated."""
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def factor_pairs(x) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every unordered factorization of a zero-anchored set, by brute force.

    Tries each ordered pair of zero-anchored subsets of x (both factors of a
    zero-anchored product lie inside it), keeping pairs other than the unit
    whose sum is x.  Pairs are returned smaller factor first, sorted.
    """
    xs = sorted(set(x))
    target = set(xs)
    rest = [v for v in xs if v != 0]
    subs = []
    for r in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subs.append(tuple(sorted(combo + (0,))))
    lo, hi = xs[0], xs[-1]
    found = set()
    for y, z in itertools.product(subs, repeat=2):
        if y[0] + z[0] != lo or y[-1] + z[-1] != hi:
            continue
        if {a + b for a in y for b in z} == target:
            found.add((y, z) if y <= z else (z, y))
    return sorted(found)


def endpoints(xs) -> list[int]:
    return [v for run in plain_runs(xs) for v in run]


def first_divergence(a, b) -> int | None:
    """Index of the first differing run endpoint of two sets, or None."""
    for v, (p, q) in enumerate(zip(endpoints(a), endpoints(b))):
        if p != q:
            return v
    return None


def step_preimage_solutions(bound: int) -> int:
    """Count solutions of the unit-step preimage system over 0..bound.

    c*xm + a*xp == 0 and d*xm + b*xp == 1 with a+b > 0, c+d > 0 and
    (xm, xp) != (0, 0).
    """
    rng = range(bound + 1)
    count = 0
    for xm, xp in itertools.product(rng, rng):
        if xm == 0 and xp == 0:
            continue
        zero = [(c, a) for c in rng for a in rng if c * xm + a * xp == 0]
        one = [(d, b) for d in rng for b in rng if d * xm + b * xp == 1]
        count += sum(1 for c, a in zero for d, b in one if a + b > 0 and c + d > 0)
    return count


def parse_literal(lit: str) -> set[int]:
    """Elements of a brace literal ``{1,2}`` or an interval ``LO..HI``."""
    if lit.startswith("{"):
        return {int(t) for t in lit[1:-1].split(",")}
    lo, hi = lit.split("..")
    return set(range(int(lo), int(hi) + 1))
