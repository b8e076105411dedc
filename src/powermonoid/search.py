"""Exhaustive automorphism search over a bounded window of the monoid.

The window of radius m holds every zero-anchored subset of [[-m,m]] and the
partial Cayley table of the sums that stay inside.  A window automorphism is
a bijection of the window respecting every such in-window product, with
image sums required to stay in the window too.

Closure.  A window map phi sends the finite set of in-window pairs
injectively into itself, hence bijectively: (phi X, phi Y) is an in-window
pair with sum phi Z iff (X, Y) is one with sum Z.  So the inverse of a
window map is a window map, and so is a composite of two: the window maps
form a group G.

Twins.  Let T be the transpositions in G that fix u = {0,1}.  If (a b) and
(b c) are in T, so is (a c) = (a b)(b c)(a b), so T splits the elements it
moves into components, each a set whose every two elements swap cleanly,
and <T> is the product of the symmetric groups of the components.  Call a
map rank-monotone if it sends each component onto a component, its r-th
smallest element to the r-th smallest.

Lemma.  The rank-monotone members of G form a group H, and every member of
G is one member of H composed with one member of <T>, so |G| is the product
of |C|! over the components C times |H|.

- g in G conjugates (a b) in T to (g a  g b), again in T: (a b) fixes
  d = {-1,0} too, and g permutes {u, d}, both by bound transport below.
  So g sends each component onto a component of its size and each element
  outside the components outside them.
- So each coset g<T> holds exactly one rank-monotone map: g composed with
  the permutation of each component that sorts g's images of it.
- Rank-monotone maps compose, and the only one in <T> is the identity.

The largest component is the set of isolated elements at m = 2, 3 and 4,
the non-units that occur in no in-window product except unit + x = x.  At
m = 1, T is empty and H = {identity, negation}: the one transposition in G
is (d u), which is negation.  From m = 2 on, (d u) is no window map, as it
fixes u + u = [[0,2]], which d + d = [[-2,0]] would have to be, so there T
holds every transposition in G.

Sum counts.  The sum count of x is the number of in-window pairs of two
non-units with sum x; both factors of a window element lie in the window,
so this is its factorization count.  phi fixes the unit {0}, the only
in-window idempotent, since X + X is larger than X for every other X.  So
by closure it sends the pairs of two non-units with sum x onto those with
sum phi x, and (phi X, phi Y) is an in-window pair only if (X, Y) is.

Bound transport.  phi keeps the bounds (min X, max X) of every set X, or
negates them to (-max X, -min X).  Let u = {0,1}, d = {-1,0}, and let j.u
= [[0,j]] and j.d = [[-j,0]] for 1 <= j <= m.

- The product (j-1).u + u = j.u stays in the window, so by induction
  phi(j.u) = j.phi(u), in the window.  For j = m, a value v of phi(u) with
  |v| >= 2 would put m.v outside [[-m,m]], so phi(u) lies in [[-1,1]], and
  it is not {0} = phi({0}).  The same holds for d.
- u is no sum of two non-units: such a sum A + B contains A and B, so A =
  B = u, and u + u = [[0,2]].  So u has sum count 0, while {-1,0,1} = u + d
  has sum count at least 1, and phi(u) is u or d.  So is phi(d), and phi is
  injective: phi(d) = d when phi(u) = u, and phi(d) = u when phi(u) = d.
- X + j.u is in the window iff max X + j <= m, and X + j.d iff min X - j
  >= -m.  phi keeps in-window pairs both ways, so if phi(u) = u, then max X
  <= m - j iff max phi(X) <= m - j for every j, and max phi(X) = max X;
  if phi(u) = d, then max X <= m - j iff min phi(X) >= j - m, and
  min phi(X) = -max X.  The same with d gives the minimum.

Finding T.  A map in T fixes u, so it keeps the bounds and the sum count,
and twins share both.

- A twin has sum count 0.  Let (a b) be in T and a = X + Y with X and Y
  non-units.  A non-unit summand moves a bound, so X and Y have other
  bounds than a, and than its twin b: (a b) fixes X and Y and moves their
  sum, so it is no window map.
- A twin's own pairs decide its swap.  Take a of sum count 0, and b of its
  bounds and sum count.  The in-window triples (i, j) -> k that touch a
  are unit + a = a and (a, j) -> a + j over a's in-window partners j, as
  a + j is neither a nor b for a non-unit j.  b has a's partners, which
  the bounds decide, so b's triples mirror a's, and the triples touching
  neither are fixed.  Hence (a b) is in T iff for each triple (a, j) -> k,
  (b, phi j) is an in-window pair with sum phi k: those are as many
  triples of b as a has, so all of them, and the involution sends them
  back onto a's.

So only pairs of equal bounds and sum count 0 are candidates, each decided
from its own pairs.  In such a class, the first element's twins form its
component with it, by transitivity, and the rest of the class splits the
same way.

Search.  window_group finds the components and H from one pass over the
partial table.  The search for H backtracks over images, {0,1} first and
then in ascending size order, with unit propagation over the partial
table.  An element goes to an element of its rank in a component of its
size, or outside the components if it lies outside, and its whole
component is assigned with it, as the lemma allows.  With pruning on,
{0,1} goes to {-1,0} or {0,1}, and every later element to an unused set of
its class of bounds and sum count, with the bounds negated when {0,1} went
to {-1,0}.  With pruning off, every unused set is a candidate.

Listing.  G is the union of the cosets h<T> over the members h of H, and
the tables of a coset agree with h off the components: h composed with
sigma in <T> sends x to h(sigma x).  Walk the moved elements, those of the
components, in ascending index order.  At the r-th element x of a
component C, sigma x is one of the |C| - r elements of C not yet used by
the earlier elements of C, and h ascends on C, so taking them in ascending
order lists the coset in ascending lexicographic order: table i of the
coset is the mixed radix number i over every component, unranked digit by
digit, and nothing of size |C|! is built.  By closure, every table of the
coset is a window map iff h and each (C[0] b) are, and window_group has
decided each such transposition from its own pairs.  So each member of H
is verified against the full partial table and checked to ascend on every
component, and a failing one raises.  The listing always takes the search
with pruning; the one without, which assumes neither bound transport nor
sum counts, is only the tests' reference for the candidate rule.  Every
table of a coset agrees with h before the smallest moved element,
everywhere when nothing moves, so the cosets of the sorted members follow
one another in order when those members strictly increase before it;
otherwise the search raises too.

The window is built without a set sum, by Kronecker substitution: one
integer product per in-window pair.  With slot width w = m.bit_length() + 1,
element X has the code c(X), the sum of 2^(w(v+m)) over its values v, a
1 in slot v + m.  Slot v + 2m of c(X)c(Y) then holds r(v), the number of
pairs (x, y) in X x Y with x + y = v, as long as no slot overflows.  None
does for an in-window pair: its bounds add up inside [[-m,m]], so its two
widths sum to at most 2m, one factor is at most m wide and has at most
m + 1 elements, and r(v) <= min(|X|, |Y|) <= m + 1 <= 2^(w-1) < 2^w.
Adding 2^(w-1) - 1 to each of the 4m + 1 slots leaves each below 2^w, so
nothing carries, and sets a slot's top bit, 2^(w-1), exactly when r(v) is
not 0.  Masking every slot to its top bit gives the code of X + Y, whose
values lie in [[-m,m]], shifted up by m slots and w - 1 bits, and one dict
lookup turns it into the sum's index.

The in-window partners of each set are read off the index bits.  Element
i = (hi << m) | lo, with lo and hi below 2^m, holds 0, the value -m + b for
each bit b of lo and the value 1 + b for each bit b of hi.  The bounds of
X + Y are the sums of the bounds, so for X with bounds (-s, t), where
0 <= s, t <= m, Y is a partner iff min Y >= s - m and max Y <= m - t.
min Y >= s - m iff Y holds none of -m .. s - m - 1, the values of lo bits
0 .. s - 1, that is iff the low s bits of Y's lo are clear: its lo is
l << s with l < 2^(m-s).  max Y <= m - t iff Y holds none of
m - t + 1 .. m, the values of hi bits m - t .. m - 1, that is iff Y's hi is
below 2^(m-t).  So the partners of X are exactly the (h << m) | (l << s)
with h < 2^(m-t) and l < 2^(m-s), and as l << s < 2^m, looping h, then l,
lists them in ascending order.  That list runs h-major, so h < 2^(m-t) is
a prefix of it: the partners for bounds (-s, t) are the first
2^(m-t) * 2^(m-s) = 2^(2m-s-t) entries of those for (-s, 0), and the build
keeps one list per s and slices it.  It keeps the partners at or above
X's own index, row by row in index order, so pair_sums is listed row by
row with partners ascending: its keys come sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from math import factorial, prod
from operator import eq, index

from .finset import _as_int
from .monoid import ZeroSet

MAX_WINDOW = 6

# find_window_automorphisms stops here: m = 4 has a twin component of 33
# isolated elements and about 6*10^46 tables, more than len() can report,
# though the search for H finishes m = 4 in under 0.1 s.  Its cosets would
# interleave too: four of the seven consecutive pairs of members of H(4)
# agree on indices 0..68, and 69 is the smallest moved element
LIST_MAX_WINDOW = 3

# window_survivors_oracle backtracks over plain bijections, checking only the
# definition: feasible on the 16 elements of m=2, not the 64 of m=3
ORACLE_MAX_WINDOW = 2

class WindowUniverse:
    """The window of radius m, 1 <= m <= MAX_WINDOW: all zero-anchored
    subsets of [[-m,m]] plus their partial Cayley table.

    Element i holds the b-th of the nonzero values [-m..-1, 1..m] exactly
    when bit b of i is set.  m must be an int, not a bool: anything else
    raises TypeError, and an int subclass is kept as the int it equals.

    pair_sums maps each in-window pair (i, j), i <= j, to the index of its
    sum, listed row by row with i ascending and each row's partners
    ascending, so its keys are sorted.  A set with bounds (-s, t) has as
    in-window partners exactly the j = (h << m) | (l << s) with
    h < 2^(m-t) and l < 2^(m-s), which looping h, then l, lists in
    ascending order, as a prefix of the list for bounds (-s, 0); the module
    docstring proves this from the index layout.

    The partial table is built with no set sum.  Each element X gets the
    code c(X) = sum of 2^(w(v+m)) over its values v, with slot width
    w = m.bit_length() + 1.  An in-window pair has one factor at most m
    wide, so each slot v + 2m of c(X)c(Y) counts at most m + 1 <= 2^(w-1)
    ways to write v.  Adding 2^(w-1) - 1 to every slot therefore carries
    out of none and sets the top bit of exactly the nonzero ones, and the
    top bits are c(X + Y) shifted up by m slots and w - 1 bits, which a
    dict maps to the sum's index: one multiplication, addition, mask and
    lookup per pair.  See the module docstring for the whole argument.
    """

    __slots__ = ("m", "elements", "index", "pair_sums")

    def __init__(self, m: int):
        self.m = m = _as_int(m, "window radius must be an integer")
        if not 1 <= m <= MAX_WINDOW:
            raise ValueError(f"window radius must be in 1..{MAX_WINDOW}")
        # element i = (hi << m) | lo holds the values -m + b for the bits b
        # of lo, then 0, then 1 + b for the bits b of hi; its code has a
        # 1 in slot v + m, w bits wide, for each of its values v
        w = m.bit_length() + 1
        heads, tails = [((), 0)], [((), 0)]
        for b in range(m):
            heads += [(vs + (b - m,), c | 1 << w * b) for vs, c in heads]
            tails += [(vs + (b + 1,), c | 1 << w * (b + 1 + m)) for vs, c in tails]
        zero = 1 << w * m
        elems = [neg + (0,) + pos for pos, _ in tails for neg, _ in heads]
        codes = [nc | zero | pc for _, pc in tails for _, nc in heads]
        self.elements = tuple(map(ZeroSet._from_sorted, elems))
        # one int object per index, shared by every table that names it
        ids = list(range(len(elems)))
        self.index = dict(zip(elems, ids))
        # the partners of a set with bounds (-s, 0), ascending, read off the
        # index bits; those of bounds (-s, t) are its first 2^(2m-s-t) (the
        # module docstring proves both)
        cols = [[ids[h << m | l << s] for h in range(1 << m) for l in range(1 << m - s)]
                for s in range(m + 1)]
        # no slot of an in-window product carries (see the class docstring),
        # so its slots' top bits are the sum's code shifted up by shift bits
        ones = sum(1 << w * s for s in range(4 * m + 1))
        offset, keep = ones * ((1 << w - 1) - 1), ones << w - 1
        shift = w * m + w - 1
        by_mark = {c << shift: k for k, c in zip(ids, codes)}
        self.pair_sums = {(i, j): by_mark[keep & offset + ci * codes[j]]
                          for i, e, ci in zip(ids, elems, codes)
                          for j in cols[-e[0]][:1 << 2 * m + e[0] - e[-1]] if i <= j}


# build_window(m) is WindowUniverse(m), under the name the package exported first
build_window = WindowUniverse


def verify_window_map(u: WindowUniverse, table) -> bool:
    """Full check of one bijection table against every in-window pair.

    True iff (table[i], table[j]) is an in-window pair with sum table[k]
    for every in-window pair (i, j) with sum k: one lookup per pair in the
    partial table, by the sorted pair of images.  Raises ValueError unless
    table is a permutation of the window's indices.
    """
    t = tuple(table)
    try:
        permutes = sorted(map(index, t)) == list(range(len(u.elements)))
    except TypeError:
        permutes = False
    if not permutes:
        raise ValueError("not a bijection table over the window")
    pair_sums = u.pair_sums
    return all(pair_sums.get((t[i], t[j]) if t[i] <= t[j] else (t[j], t[i])) == t[k]
               for (i, j), k in pair_sums.items())


def identity_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(range(len(u.elements)))


def negation_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(u.index[tuple(sorted(-v for v in e))] for e in u.elements)


def as_table_spec(u: WindowUniverse, table: tuple[int, ...]):
    """Index table rendered as an explicit source -> image :class:`~powermonoid.autos.Table`."""
    # imported here so that loading the search does not load autos
    from .autos import Table

    return Table((u.elements[i], u.elements[k]) for i, k in enumerate(table))


def window_group(u: WindowUniverse, prune: bool = True
                 ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """The window group G as (components, members, order).

    components are the components of T, the window transpositions that fix
    {0,1}, each an ascending index tuple of at least two elements, sorted;
    members is H, the rank-monotone window automorphisms, sorted; order is
    |G|, the product of |C|! over the components C times |H|.

    One pass over the partial table gives each element's propagation
    neighbours and its sum count.  Only pairs of equal bounds and sum count
    0 are twin candidates, each decided from the first element's own
    in-window pairs, as the module docstring proves: in each such class,
    the first element's twins form its component with it, and the rest of
    the class splits the same way.  Nothing here calls
    :func:`verify_window_map`.

    The search for H assigns images to {0,1} first, then smallest set
    first; assigning an image propagates every in-window product with
    already-assigned partners, and an image sum falling outside the window
    is an immediate conflict.  An element goes to an element of its rank in
    a component of its size, or outside the components if it lies outside,
    and its whole component is assigned with it.  With prune on, {0,1} goes
    to {-1,0} or {0,1}, and every later element to a set of its class of
    bounds and sum count, the bounds negated when {0,1} went to {-1,0}.
    These are the rules proven in the module docstring.  prune=False makes
    every unused set a candidate, the tests' reference for those rules.
    The members are not verified here, only in
    :func:`find_window_automorphisms`.
    """
    n = len(u.elements)
    unit, up, down = u.index[(0,)], u.index[(0, 1)], u.index[(-1, 0)]
    pair_sums = u.pair_sums
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nsums = [0] * n
    for (i, j), k in pair_sums.items():
        neighbors[i].append((j, k))
        if i != j:
            neighbors[j].append((i, k))
        if unit not in (i, j):
            nsums[k] += 1
    classes: dict[tuple[int, int, int], list[int]] = {}
    for i, e in enumerate(u.elements):
        classes.setdefault((e.min, e.max, nsums[i]), []).append(i)

    def swaps(a: int, b: int) -> bool:
        # each pair (a, j) -> k must go to the in-window pair (b, phi j) -> phi k
        phi = {a: b, b: a}
        for j, k in neighbors[a]:
            j = phi.get(j, j)
            if pair_sums.get((b, j) if b <= j else (j, b)) != phi.get(k, k):
                return False
        return True

    comps = []
    for (_, _, count), rest in classes.items():
        while count == 0 and len(rest) > 1:
            first = rest[0]
            comp = [first] + [b for b in rest[1:] if swaps(first, b)]
            if len(comp) > 1:
                comps.append(tuple(comp))
            rest = [b for b in rest if b not in comp]
    comps.sort()
    # each element's component, empty outside them, and its rank there
    home: list[tuple[int, ...]] = [()] * n
    rank = [0] * n
    for comp in comps:
        for r, x in enumerate(comp):
            home[x], rank[x] = comp, r

    seq = sorted(range(n), key=lambda i: (i != up, len(u.elements[i]), i))
    img: list[int | None] = [None] * n
    used = [False] * n
    members = []

    def assign(i0: int, t0: int, trail: list[int]) -> bool:
        queue = [(i0, t0)]
        while queue:
            i, t = queue.pop()
            cur = img[i]
            if cur is not None:
                if cur != t:
                    return False
                continue
            if used[t] or len(home[i]) != len(home[t]) or rank[i] != rank[t]:
                return False
            img[i] = t
            used[t] = True
            trail.append(i)
            queue.extend(zip(home[i], home[t]))
            for j, k in neighbors[i]:
                tj = img[j]
                if tj is None:
                    continue
                key = (t, tj) if t <= tj else (tj, t)
                sk = pair_sums.get(key)
                if sk is None:
                    return False
                queue.append((k, sk))
        return True

    def candidates(i: int):
        if not prune:
            return [t for t in range(n) if not used[t]]
        if i == up:
            return [down, up]
        e = u.elements[i]
        key = (e.min, e.max, nsums[i]) if img[up] == up else (-e.max, -e.min, nsums[i])
        return [t for t in classes[key] if not used[t]]

    def dfs(pos: int) -> None:
        while pos < n and img[seq[pos]] is not None:
            pos += 1
        if pos == n:
            members.append(tuple(img))
            return
        i = seq[pos]
        for t in candidates(i):
            trail: list[int] = []
            if assign(i, t, trail):
                dfs(pos + 1)
            for j in reversed(trail):
                used[img[j]] = False
                img[j] = None

    dfs(0)
    members.sort()
    return comps, members, prod(factorial(len(c)) for c in comps) * len(members)


class WindowMaps(Sequence):
    """The window automorphisms as a read-only ascending sequence of tables.

    Built by :func:`find_window_automorphisms`, which verifies every member
    of H before it is stored.  The tables are the cosets h<T> of the sorted
    members h, one after another, and table i of a coset is the mixed radix
    number i over every twin component: one digit per moved element, in
    ascending index order, the r-th element x of a component C having
    |C| - r values, and digit q sending x to h's image of the q-th smallest
    element of C not yet used.  No table is built before it is read, and
    every table, read in any order, is unranked that way, so nothing of
    size |C|! is built.  A slice is a view over the same cosets, and ``x in
    maps`` bisects.  ``len``, negative indices, ``index``, ``count`` and
    ``reversed`` work as on a list, and ``==`` compares elementwise with
    lists and other sequences of this type; the repr is the list's.  There
    is no ``append``, ``sort`` or hash.
    """

    __slots__ = ("_comps", "_members", "_images", "_digits", "_size", "_span")

    def __init__(self, components: list[tuple[int, ...]], members: list[tuple[int, ...]],
                 span: range | None = None):
        """components the twin components, each ascending; members the
        sorted members of H, each ascending on every component; and span
        the indices into all cosets that this view shows.
        """
        self._comps, self._members = components, members
        # each member's ascending images of each component
        self._images = [[tuple(h[x] for x in c) for c in components] for h in members]
        # each moved element, ascending, with its component and the place
        # value of its digit, which multiplies the radices of the later digits
        moved = sorted((x, k, len(c) - r) for k, c in enumerate(components)
                       for r, x in enumerate(c))
        radices = [radix for _, _, radix in moved]
        self._digits = [(x, k, prod(radices[d + 1:])) for d, (x, k, _) in enumerate(moved)]
        self._size = prod(radices)
        self._span = range(len(members) * self._size) if span is None else span

    def _row(self, j: int) -> tuple[int, ...]:
        b, r = divmod(j, self._size)
        # the digits of r, most significant first, each taking the q-th
        # smallest unused image of its component
        t, pools = list(self._members[b]), list(map(list, self._images[b]))
        for x, k, place in self._digits:
            q, r = divmod(r, place)
            t[x] = pools[k].pop(q)
        return tuple(t)

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WindowMaps(self._comps, self._members, self._span[i])
        return self._row(self._span[i])

    def __iter__(self):
        return map(self._row, self._span)

    def __contains__(self, table) -> bool:
        # the rows of all cosets ascend, so one bisection finds a table
        every = range(len(self._members) * self._size)
        try:
            j = bisect_left(every, table, key=self._row)
        except TypeError:
            return False
        return j < len(every) and j in self._span and self._row(j) == table

    def __eq__(self, other):
        if not isinstance(other, (list, WindowMaps)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


def find_window_automorphisms(u: WindowUniverse) -> WindowMaps:
    """All window automorphisms, as a lazy ascending sequence of image-index tables.

    By the module lemma these are the cosets h<T> of the members h of H.
    Each member is verified here and checked to ascend on every twin
    component, and a failing one raises RuntimeError; by closure, with the
    transpositions :func:`window_group` decided, that verifies its whole
    coset.  The sorted members must strictly increase before the smallest
    moved element, or everywhere when nothing moves, so that their cosets
    follow one another in order; otherwise this raises RuntimeError too.
    Only the tables read from the result are built; see :class:`WindowMaps`.
    Windows above :data:`LIST_MAX_WINDOW` are refused.
    """
    if u.m > LIST_MAX_WINDOW:
        raise ValueError(f"windows above m={LIST_MAX_WINDOW} have at least 33! automorphisms, "
                         "too many to list")
    comps, members, _ = window_group(u)
    steps = [(a, b) for c in comps for a, b in zip(c, c[1:])]
    if not all(verify_window_map(u, h) and all(h[a] < h[b] for a, b in steps) for h in members):
        raise RuntimeError("a member of H is not a window map ascending on every twin component")
    head = comps[0][0] if comps else len(u.elements)
    if any(a[:head] >= b[:head] for a, b in zip(members, members[1:])):
        raise RuntimeError("the members of H do not strictly increase before the smallest moved "
                           "element, so their cosets would interleave")
    return WindowMaps(comps, members)


def window_survivors_oracle(u: WindowUniverse) -> list[tuple[int, ...]]:
    """Slow independent route: the bijections that satisfy the definition.

    Backtracks over image tables in index order, images ascending, so the
    tables come out sorted.  Each in-window pair (i, j) -> k is checked as
    soon as it can be: (t_i, t_j) must be an in-window pair once i and j
    have images, with sum t_k once k has one too.  Whether a self-pair
    (i, i) goes to an in-window (t_i, t_i) depends on t_i alone, so it is
    decided once per element, as the list of candidates for t_i: the t with
    (t, t) in the table when (i, i) is, every t otherwise.  Reads only the
    element count and the partial table, and calls nothing else of this
    module.  Windows above :data:`ORACLE_MAX_WINDOW` are refused.
    """
    if u.m > ORACLE_MAX_WINDOW:
        raise ValueError(f"oracle enumeration is only feasible for m <= {ORACLE_MAX_WINDOW}")
    n = len(u.elements)
    pair_sums = u.pair_sums
    doubles = [t for t in range(n) if (t, t) in pair_sums]
    candidates = [doubles if (i, i) in pair_sums else range(n) for i in range(n)]
    # checks[x]: the pairs (a <= b) -> k to test once x has an image, k None
    # while t_k is unknown; a self-pair's bare membership test is left to
    # candidates
    checks: list[list[tuple[int, int, int | None]]] = [[] for _ in range(n)]
    for (a, b), k in pair_sums.items():
        if k <= b or a < b:
            checks[b].append((a, b, k if k <= b else None))
        if k > b:
            checks[k].append((a, b, k))
    table = [0] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(table))
            return
        for t in candidates[i]:
            if used[t]:
                continue
            table[i] = t
            for a, b, k in checks[i]:
                ta, tb = table[a], table[b]
                s = pair_sums.get((ta, tb) if ta <= tb else (tb, ta))
                if s is None or (k is not None and s != table[k]):
                    break
            else:
                used[t] = True
                extend(i + 1)
                used[t] = False

    extend(0)
    return found
