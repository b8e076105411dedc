"""The reduced power monoid: sets containing 0, atoms, factorizations.

Restricting the power monoid to sets with 0 as an element quotients away
translation and makes factorization meaningful: {0} is the unit, and since
0 in Z forces Y to be a subset of Y + Z, both halves of any factorization of
X are subsets of X.  That containment bound is what keeps the enumeration
here exact and finite.

The factorization search pins each factor's bounds first: Y + Z = X forces
min Y + min Z = min X and max Y + max Z = max X.  Choosing a = min Y and
b = max Y fixes c = min Z and d = max Z, puts {a, 0, b} in Y and {c, 0, d}
in Z, and leaves only the y with y + c and y + d in X, and the z with
z + a and z + b in X, as optional elements.  For each Y drawn from those,
the Z are the exact covers of X by translates Y + z, held as bitmasks over
X's element positions so that their width is |X| however wide the span.
On intervals the cost follows the number of factorizations returned; on
sparse atoms the pinned pools are nearly always empty.

Y is always the narrower factor: the spans of Y and Z sum to the span of
X, so b - a <= (max X - min X) / 2, and on equal spans Y has the smaller
min.  That names one factor of each pair Y, so each pair is built once,
and Y's pool, the one walked subset by subset, is the smaller.  Only the
two factors of equal min and equal span share a branch; it yields them in
both orders, and the lexicographically larger order is dropped.

A pair costs little past its discovery: Y and each Z are emitted as their
ascending element tuples, each Z in order and with no sort; the pairs are
sorted once as plain tuples of element tuples; and each distinct factor
then becomes one ZeroSet, shared by every pair that holds it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from .finset import FinSet, _as_int

# Intervals near this size have millions of factorizations, and the search
# runs at least as long as its output; refuse past this size unless the
# caller raises the cap explicitly.
DEFAULT_MAX_SIZE = 24


class ZeroSet(FinSet):
    """A FinSet required to contain 0."""

    __slots__ = ()

    def __init__(self, values: Iterable[int]):
        if isinstance(values, FinSet):
            # already validated and sorted; membership bisects
            self._elems = values.elems
            has_zero = 0 in values
        else:
            super().__init__(values)
            has_zero = 0 in self._elems
        if not has_zero:
            raise ValueError("set does not contain 0")


UNIT = ZeroSet((0,))


def as_zero_set(x: FinSet | Iterable[int]) -> ZeroSet:
    """Coerce to a ZeroSet, rejecting sets without 0."""
    if isinstance(x, ZeroSet):
        return x
    return ZeroSet(x)


def _check_cap(x: ZeroSet, max_size: int) -> None:
    if len(x) > max_size:
        raise ValueError(f"set has {len(x)} elements, above the enumeration cap {max_size}")


def _pinned(x: ZeroSet) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, list[tuple[int, int]]]]:
    """Every narrower factor Y != {0} of x, and what its cofactor Z may hold.

    Masks index x's elements by position, bit i for the i-th smallest, so
    their width is |x| whatever the span.  Yields (Y, forced, cover,
    candidates): Y as its sorted element tuple, forced the sorted elements
    of {c, 0, d}, cover the mask of Y + forced, and each candidate
    (z, mask) an optional z with Y + z inside x.  The Z with Y + Z = x are
    exactly forced plus the candidates whose masks complete cover to the
    full mask, and only Y for which some Z exists (forced plus all
    candidates) are yielded.

    The branch (a, b) = (min Y, max Y) is taken only when Y is no wider
    than Z, b - a <= d - c, which is 2(b - a) <= max x - min x, and on a
    tie of widths only when a <= c.  Every pair {Y, Z} with Y + Z = x and
    neither factor the unit is generated: its spans sum to max x - min x,
    so naming Y the narrower factor, or on equal spans the one with the
    smaller min, meets both conditions.  Then a <= 0 <= b, (a, b) != (0, 0)
    because Y != {0}, and a, b, c, d, a + d and b + c all lie in x, as Y
    and Z are subsets of x and Y + Z = x; so the branch (a, b) is taken,
    Y is among the subsets grown from its pool and Z among the covers.
    Each pair comes from one branch, that of its narrower factor, or on
    equal spans its lower one; only when the two factors have equal min
    and equal span do they share the branch, which yields both orders.
    """
    elems = x.elems
    lo, hi = elems[0], elems[-1]
    pos = {v: 1 << i for i, v in enumerate(elems)}
    full = (1 << len(elems)) - 1
    span = hi - lo
    half = span // 2
    zero = bisect_left(elems, 0)
    # b - a <= d - c is b <= a + span / 2, so a < -span / 2 leaves no b >= 0
    for a in elems[bisect_left(elems, -half):zero + 1]:
        c = lo - a
        if c not in pos:
            continue
        # on equal spans Y takes the smaller min; bisect the top b rather
        # than test each.  b = 0 with a = 0 would make Y the unit, and Z is
        # never the unit, as its cofactor x is never the narrower
        top = bisect_right(elems, a + half - (a > c and not span % 2))
        for b in elems[zero + (a == 0):top]:
            d = hi - b
            # a + d and b + c are the forced sums not already known to be
            # min x, 0 or max x
            if d not in pos or a + d not in pos or b + c not in pos:
                continue
            py = [y for y in elems if a < y < b and y and y + c in pos and y + d in pos]
            pz = [z for z in elems if c < z < d and z and z + a in pos and z + b in pos]
            cover = 0
            for v in (a, 0, b):
                cover |= pos[v + c] | pos[v] | pos[v + d]
            cands = [(z, pos[z + a] | pos[z] | pos[z + b]) for z in pz]
            # grow Y one pool element at a time, each subset once; a
            # candidate z leaves for good once some y + z falls outside x
            stack = [(0, tuple(sorted({a, 0, b})), cover, cands)]
            while stack:
                i, ys, cover, cands = stack.pop()
                reach = cover
                for _, m in cands:
                    reach |= m
                if reach == full:
                    yield tuple(sorted(ys)), tuple(sorted({c, 0, d})), cover, cands
                for j in range(i, len(py)):
                    y = py[j]
                    stack.append((
                        j + 1,
                        ys + (y,),
                        cover | pos[y + c] | pos[y] | pos[y + d],
                        [(z, m | pos[y + z]) for z, m in cands if y + z in pos],
                    ))


def _covers(forced: tuple[int, ...], cover: int, cands: list[tuple[int, int]],
            target: int) -> list[tuple[int, ...]]:
    """Every Z whose candidates' masks, with cover, OR to exactly target.

    forced is the sorted {c, 0, d} of Z's min c and max d, and each Z comes
    back as its full ascending element tuple, built in order with no sort:
    c when c < 0, then the chosen candidates in their ascending order with 0
    placed before the first positive one, then d when d > 0.  That tuple is
    strictly ascending and holds each of c, 0 and d once.  _pinned offers
    the candidates in ascending order, each a nonzero z with c < z < d, and
    c <= 0 <= d; so c < the negative candidates < 0 < the positive ones < d.
    When c = 0 there is no negative candidate and c is 0 itself, and when
    d = 0 there is no positive one and d is 0 itself.
    """
    n = len(cands)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cands[i][1]
    c, d = forced[0], forced[-1]
    head = (c,) if c < 0 else ()
    tail = (d,) if d > 0 else ()
    # 0 follows the negative candidates, which are the first k
    k = sum(z < 0 for z, _ in cands)
    out = []
    # every entry can still reach target: the first does, as _pinned yields
    # only the Y whose cover and candidates reach it, and taking cands[i]
    # keeps acc | suffix[i], so only the branch that skips it needs the test
    stack = [(0, cover, head)]
    pop, push = stack.pop, stack.append
    while stack:
        i, acc, zs = pop()
        if i == k:
            zs += (0,)
        if i == n:
            out.append(zs + tail)
            continue
        z, m = cands[i]
        i += 1
        if acc | suffix[i] == target:
            push((i, acc, zs))
        push((i, acc | m, zs + (z,)))
    return out


def factorizations(x: FinSet, max_size: int = DEFAULT_MAX_SIZE) -> list[tuple[ZeroSet, ZeroSet]]:
    """All nontrivial factorizations of x in the reduced power monoid.

    Returns every unordered pair {Y, Z} of ZeroSets, both != {0}, with
    Y + Z = x; each pair appears once, lexicographically least element
    first, and the list of pairs is itself sorted lexicographically.
    The search pins both factors' bounds (see the module docstring), so on
    intervals its cost follows the number of pairs returned, and on sparse
    atoms it is nearly constant.

    The pairs are collected as element tuples, which _pinned and _covers
    build, and sorted once as plain tuples.  Each distinct factor is then
    one ZeroSet, made in that final pass and shared by every pair that
    holds it.  A bool or non-int max_size raises TypeError.
    """
    max_size = _as_int(max_size, "max_size must be an integer")
    x = as_zero_set(x)
    _check_cap(x, max_size)
    target = (1 << len(x)) - 1
    found = []
    for ye, forced, cover, cands in _pinned(x):
        # when Z has Y's bounds the branch yields the pair both ways round,
        # so keep the ordered one; any other pair comes once, so swap it
        twin = forced[0] == ye[0] and forced[-1] == ye[-1]
        for ze in _covers(forced, cover, cands, target):
            if ye <= ze:
                found.append((ye, ze))
            elif not twin:
                found.append((ze, ye))
    if not found:
        return found
    found.sort()
    new = ZeroSet._from_sorted
    factors = {}
    get = factors.get
    pairs = []
    for ye, ze in found:
        y = get(ye)
        if y is None:
            y = factors[ye] = new(ye)
        z = get(ze)
        if z is None:
            z = factors[ze] = new(ze)
        pairs.append((y, z))
    return pairs


def is_atom(x: FinSet, max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """True when x is an atom: not the unit and with no nontrivial factorization.

    The walk stops at the first factor Y that _pinned yields, an element
    tuple, so it builds no ZeroSet.  A bool or non-int max_size raises
    TypeError, even for the unit.
    """
    max_size = _as_int(max_size, "max_size must be an integer")
    x = as_zero_set(x)
    if x == UNIT:
        return False
    _check_cap(x, max_size)
    return next(_pinned(x), None) is None


def candidates_with_bounds(lo: int, hi: int) -> list[ZeroSet]:
    """All ZeroSets with the given minimum and maximum, in mask order.

    Elements strictly between the endpoints are free except 0, which is
    forced; the set of mask s holds free[i] exactly when bit i of s is set,
    and the sets come in ascending s.  Returns [] when no ZeroSet can have
    these bounds.
    """
    if lo > hi or lo > 0 or hi < 0:
        return []
    free = [v for v in range(lo + 1, hi) if v != 0]
    return [ZeroSet([lo, 0, hi, *(v for i, v in enumerate(free) if s >> i & 1)])
            for s in range(1 << len(free))]
