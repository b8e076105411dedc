"""Exhaustive automorphism search over a bounded window of the monoid.

The window of radius m holds every zero-anchored subset of [[-m,m]] and the
partial Cayley table of the sums that stay inside.  A window automorphism is
a bijection of the window respecting every such in-window product, with
image sums required to stay in the window too.

The isolated elements are the non-units that occur in no in-window product
except unit + x = x, as a summand or as a sum: 0, 2 and 8 of them at
m = 1, 2, 3.  The rest, the unit included, is the core.

Lemma.  The window automorphisms are exactly the maps that permute the
isolated elements arbitrarily and act on the core by an automorphism that
fixes every isolated element, so the group is Sym(isolated) x Aut(core).

- Every window map fixes the unit: {0} is the only in-window idempotent,
  since X + X is larger than X for every other X.
- A map sends the core onto the core, hence the isolated elements onto
  themselves: a core element x other than the unit occurs in some product
  (a, b) -> k with a and b not the unit, and the image product
  (phi a, phi b) -> phi k has phi a and phi b not the unit either, so
  phi x is in the core; phi is injective and the core is finite.
- A permutation of the isolated elements that fixes everything else
  preserves every product, since their only products are unit + x = x.

So the search runs only over the core, with the isolated elements pinned:
it backtracks over images, {0,1} first and then in ascending size order,
with unit propagation over the partial table.  Optional pruning keeps only
the candidate images that two invariants of every window map phi allow.

Sum counts.  The sum count of x is the number of in-window pairs of two
non-units with sum x; both factors of a window element lie in the window,
so this is its factorization count.  phi fixes the unit, so it sends the
finite set of such pairs injectively, hence bijectively, into itself, and
the pairs with sum x onto those with sum phi x.  For the same reason (phi
X, phi Y) is an in-window pair only if (X, Y) is.

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

So with pruning on, {0,1} goes to {-1,0} or {0,1}, and every later element
to an unused set of its bounds class, or of the negated class when {0,1}
went to {-1,0}, with an equal sum count.  With pruning off, every unused
set is a candidate.

Coset check.  Each core map and every permutation of the isolated set I form
one coset of tables: a first row t, the core map, and every table that
agrees with t off I and puts t's images of I on I in any order.  Every
reported table is verified against the full partial table, pruning or not,
and a coset at once, without listing it.  A pair (i, j) -> k passes in a
table s iff (s_i, s_j) is an in-window pair with sum s_k, so its verdict
depends only on the images of its own positions, at most three.  Over the
coset, those outside I keep t's images, and those in I take every injective
assignment of t's images of I and nothing else, since each such assignment
extends to a permutation of I.  So every table of the coset passes iff t
passes every pair under each such assignment.  The check reads nothing from
the lemma above; if it fails, each table is verified on its own.  With I
empty it is the single-table check: one dict lookup per in-window pair, at
every radius.

Listing.  The tables of a coset differ only on I, and ascend in the
lexicographic order of the permutations of I, so the cosets of the sorted
core maps follow one another in order when those maps strictly increase
before the first element of I; otherwise the search raises.  The result is
a lazy sequence of blocks, each a whole coset or the tables of a failed
coset that passed one by one.  Table i is found by bisecting the block
offsets and unranking a permutation of I in the factorial number system;
iteration builds a coset's rows as byte columns, a core column constant and
an isolated one a stride slice of the permutations.

The window is built without a set sum: element i selects the nonzero
values by the bits of i, so its position mask, bit v + m for each v, is a
bit shuffle of i, and the mask decodes to the element.  An in-window sum is
the or of the partner's mask shifted once per element of the head, shuffled
back to its index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import islice, permutations, repeat
from math import factorial
from operator import eq, index, lshift, or_

from .finset import _from_mask
from .monoid import ZeroSet

MAX_WINDOW = 6

# find_window_automorphisms stops here: from m = 4 on, the window has at
# least 33 isolated elements, so at least 33! tables, more than len() can
# report, and the core search alone did not finish m = 4 in 120 s
LIST_MAX_WINDOW = 3

# window_survivors_oracle backtracks over plain bijections, checking only the
# definition: feasible on the 16 elements of m=2, not the 64 of m=3
ORACLE_MAX_WINDOW = 2

_NOT_A_BIJECTION = "not a bijection table over the window"


class WindowUniverse:
    """All zero-anchored subsets of [[-m,m]] plus their partial Cayley table.

    Treated as immutable once built: the window check caches a copy of
    ``pair_sums`` holding both orders of each pair on the universe.
    """

    __slots__ = ("m", "elements", "index", "by_bounds", "pair_sums", "_ordered")

    def __init__(self, m: int):
        if not 1 <= m <= MAX_WINDOW:
            raise ValueError(f"window radius must be in 1..{MAX_WINDOW}")
        self.m = m
        # element i selects the nonzero values [-m..-1, 1..m] by the bits of
        # i, and its position mask has bit v + m for each of its v: the low m
        # bits of i stay, the high m move up past bit m, which is 0's
        low = (1 << m) - 1
        masks = [(i & low) | (i >> m << m + 1) | 1 << m for i in range(1 << 2 * m)]
        elements = [ZeroSet(_from_mask(s, -m)) for s in masks]
        self.elements = tuple(elements)
        self.index = {e.elems: i for i, e in enumerate(elements)}
        # the bounds alone decide whether a sum stays inside, so each bounds
        # class has one ascending list of in-window partners; the search
        # also reads the classes, which window maps keep or negate
        by_bounds: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(elements):
            by_bounds.setdefault((e.min, e.max), []).append(i)
        self.by_bounds = by_bounds
        partners = {
            (lo, hi): sorted(j for (lo2, hi2), js in by_bounds.items()
                             if lo + lo2 >= -m and hi + hi2 <= m for j in js)
            for lo, hi in by_bounds
        }
        pair_sums: dict[tuple[int, int], int] = {}
        for i, ei in enumerate(elements):
            js = partners[(ei.min, ei.max)]
            js = js[bisect_left(js, i):]
            pjs = [masks[j] for j in js]
            # or-ing j's mask shifted by v + m for each v of element i gives
            # the sum's position mask, shifted up by m
            sums = [0] * len(js)
            for v in ei:
                sums = list(map(or_, sums, map(lshift, pjs, repeat(v + m))))
            # shifted down by m, the inverse shuffle gives the sum's index
            pair_sums.update(zip(zip(repeat(i), js),
                                 [(s >> m & low) | (s >> 2 * m + 1 << m) for s in sums]))
        self.pair_sums = pair_sums
        self._ordered = None


def build_window(m: int) -> WindowUniverse:
    """The window of radius m, 1 <= m <= MAX_WINDOW, as a :class:`WindowUniverse`.

    Element i holds the b-th of the nonzero values [-m..-1, 1..m] exactly
    when bit b of i is set.  The partial table is built from the elements'
    position masks by shift-or, with no set sum; see the module docstring.
    """
    return WindowUniverse(m)


def verify_window_map(u: WindowUniverse, table) -> bool:
    """Full check of one bijection table against every in-window pair.

    True iff (table[i], table[j]) is an in-window pair with sum table[k]
    for every in-window pair (i, j) with sum k.  Raises ValueError unless
    table is a permutation of the window's indices.
    """
    return _coset_holds(u, tuple(table))


def _coset_holds(u: WindowUniverse, table: tuple[int, ...], iso: tuple[int, ...] = ()) -> bool:
    """Whether every table of table's coset over iso passes.

    The coset holds the tables that agree with table off iso and put its
    images of iso on iso in any order.  Raises ValueError unless table
    permutes the window's indices.  Each in-window pair (i, j) -> k is
    looked up in a dict holding both orders of each pair, once with table's
    own images and, if i, j or k is in iso, once for every injective
    assignment of table's images of iso to those positions: exact for the
    whole coset, as the module docstring shows.
    """
    ordered = u._ordered
    if ordered is None:
        ordered = u._ordered = {}
        for (i, j), k in u.pair_sums.items():
            ordered[(i, j)] = ordered[(j, i)] = k
    t = table
    try:
        permutes = sorted(map(index, t)) == list(range(len(u.elements)))
    except TypeError:
        permutes = False
    if not permutes:
        raise ValueError(_NOT_A_BIJECTION)
    entries = u.pair_sums.items()
    if not all(ordered.get((t[i], t[j])) == t[k] for (i, j), k in entries):
        return False
    if not iso:
        return True
    moved, values, img = set(iso), [t[x] for x in iso], list(t)
    for (i, j), k in entries:
        spots = moved.intersection((i, j, k))
        if not spots:
            continue
        for images in permutations(values, len(spots)):
            for x, v in zip(spots, images):
                img[x] = v
            if ordered.get((img[i], img[j])) != img[k]:
                return False
    return True


def identity_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(range(len(u.elements)))


def negation_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(u.index[tuple(sorted(-v for v in e))] for e in u.elements)


def as_table_spec(u: WindowUniverse, table: tuple[int, ...]):
    """Index table rendered as an explicit source -> image :class:`~powermonoid.autos.Table`."""
    # imported here so that loading the search does not load autos
    from .autos import Table

    return Table((u.elements[i], u.elements[k]) for i, k in enumerate(table))


def isolated_elements(u: WindowUniverse) -> tuple[int, ...]:
    """The non-units that occur in no in-window product except unit + x = x."""
    unit = u.index[(0,)]
    touched = {unit}
    for (i, j), k in u.pair_sums.items():
        if unit not in (i, j):
            touched.update((i, j, k))
    return tuple(i for i in range(len(u.elements)) if i not in touched)


def core_automorphisms(u: WindowUniverse, prune: bool = True) -> list[tuple[int, ...]]:
    """The window automorphisms that fix every isolated element, sorted.

    Backtracking assigns images to {0,1} first, then smallest set first,
    with the isolated elements pinned to themselves; assigning an image
    propagates every in-window product with already-assigned partners, and
    an image sum falling outside the window is an immediate conflict.  With
    prune on, {0,1} goes to {-1,0} or {0,1}, and every later element to a
    set of its bounds class, negated when {0,1} went to {-1,0}, with its
    sum count: the rules proven in the module docstring.  The tables are
    not verified here, only in :func:`find_window_automorphisms`.
    """
    n = len(u.elements)
    up, down = u.index[(0, 1)], u.index[(-1, 0)]
    order = sorted(range(n), key=lambda i: (i != up, len(u.elements[i]), i))
    pair_sums = u.pair_sums
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    unit = u.index[(0,)]
    nsums = [0] * n
    for (i, j), k in pair_sums.items():
        neighbors[i].append((j, k))
        if i != j:
            neighbors[j].append((i, k))
        if unit not in (i, j):
            nsums[k] += 1

    img: list[int | None] = [None] * n
    used = [False] * n
    for i in isolated_elements(u):
        img[i] = i
        used[i] = True
    results = []

    def assign(i0: int, t0: int, trail: list[int]) -> bool:
        queue = [(i0, t0)]
        while queue:
            i, t = queue.pop()
            cur = img[i]
            if cur is not None:
                if cur != t:
                    return False
                continue
            if used[t]:
                return False
            img[i] = t
            used[t] = True
            trail.append(i)
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
        bounds = (e.min, e.max) if img[up] == up else (-e.max, -e.min)
        return [t for t in u.by_bounds[bounds] if not used[t] and nsums[t] == nsums[i]]

    def dfs(pos: int) -> None:
        while pos < n and img[order[pos]] is not None:
            pos += 1
        if pos == n:
            results.append(tuple(img))
            return
        i = order[pos]
        for t in candidates(i):
            trail: list[int] = []
            if assign(i, t, trail):
                dfs(pos + 1)
            for j in reversed(trail):
                used[img[j]] = False
                img[j] = None

    dfs(0)
    results.sort()
    return results


class WindowMaps(Sequence):
    """The window automorphisms as a read-only ascending sequence of tables.

    Built by :func:`find_window_automorphisms`, which verifies every block
    before it is stored.  A block is a whole coset, kept as its first row,
    or the explicit list of its rows that passed :func:`verify_window_map`.
    No table is built before it is read: ``maps[i]`` unranks the
    permutation of the isolated elements within its block, a slice is a
    view over the same blocks, ``x in maps`` bisects, and iteration builds
    the rows coset by coset as byte columns.  ``len``, negative indices,
    ``index``, ``count`` and ``reversed`` work as on a list, and ``==``
    compares elementwise with lists and other sequences of this type; the
    repr is the list's.  There is no ``append``, ``sort`` or hash.
    """

    __slots__ = ("_iso", "_moved", "_blocks", "_starts", "_total", "_span", "_radix")

    def __init__(self, iso: tuple[int, ...], moved: dict[int, bytes], blocks,
                 span: range | None = None):
        """iso ascending, moved the column of each element of iso over the
        rows of a coset, blocks a list of (first row, None) for a whole coset
        or (first row, kept rows), and span the indices into all blocks that
        this view shows.
        """
        self._iso, self._moved, self._blocks = iso, moved, blocks
        size = factorial(len(iso))
        starts, total = [], 0
        for _, rows in blocks:
            starts.append(total)
            total += size if rows is None else len(rows)
        self._starts, self._total = starts, total
        self._span = range(total) if span is None else span
        # the place values of the factorial number system over len(iso) digits
        self._radix = [factorial(q) for q in reversed(range(len(iso)))]

    def _row(self, j: int) -> tuple[int, ...]:
        b = bisect_right(self._starts, j) - 1
        first, rows = self._blocks[b]
        r = j - self._starts[b]
        if rows is not None:
            return rows[r]
        # the r-th permutation of iso in lexicographic order, digit by digit
        t, pool = list(first), list(self._iso)
        for x, place in zip(self._iso, self._radix):
            q, r = divmod(r, place)
            t[x] = pool.pop(q)
        return tuple(t)

    def _rows(self, b: int):
        for first, rows in self._blocks[b:]:
            yield from _coset_rows(first, self._moved) if rows is None else rows

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WindowMaps(self._iso, self._moved, self._blocks, self._span[i])
        return self._row(self._span[i])

    def __iter__(self):
        span = self._span
        if span.step < 0 or not span:
            return map(self._row, span)
        b = bisect_right(self._starts, span.start) - 1
        skip = self._starts[b]
        return islice(self._rows(b), span.start - skip, span.stop - skip, span.step)

    def __contains__(self, table) -> bool:
        # the rows of all blocks ascend, so one bisection finds a table
        every = range(self._total)
        try:
            j = bisect_left(every, table, key=self._row)
        except TypeError:
            return False
        return j < self._total and j in self._span and self._row(j) == table

    def __eq__(self, other):
        if not isinstance(other, (list, WindowMaps)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


def _coset_rows(first: tuple[int, ...], moved: dict[int, bytes]):
    """The rows of first's coset as tuples, in the order of the columns."""
    size = factorial(len(moved))
    return zip(*[moved.get(i, bytes((v,)) * size) for i, v in enumerate(first)])


def find_window_automorphisms(u: WindowUniverse, prune: bool = True) -> WindowMaps:
    """All window automorphisms, as a lazy ascending sequence of image-index tables.

    By the module lemma these are the core automorphisms composed with
    every permutation of the isolated elements.  Each core map gives one
    coset of tables, and each is verified here, pruning or not: the coset
    at once by :func:`_coset_holds`, or, if that fails, each table by
    :func:`verify_window_map`, keeping the ones that pass.  Only the tables
    read from the result are built; see :class:`WindowMaps`.  Windows above
    :data:`LIST_MAX_WINDOW` are refused.
    """
    if u.m > LIST_MAX_WINDOW:
        raise ValueError(f"windows above m={LIST_MAX_WINDOW} have at least 33! automorphisms, "
                         "too many to list")
    iso = isolated_elements(u)
    # row r of the blob is the r-th permutation of iso; the column of iso[q]
    # holds its q-th entry in every row
    blob = b"".join(map(bytes, permutations(iso)))
    moved = {x: blob[q::len(iso)] for q, x in enumerate(iso)}
    # a coset's rows differ only at iso, in the lexicographic order of
    # permutations(iso), so the cosets follow one another in order if the
    # sorted core maps strictly increase before iso[0]
    cores = sorted(core_automorphisms(u, prune))
    head = iso[0] if iso else len(u.elements)
    if any(a[:head] >= b[:head] for a, b in zip(cores, cores[1:])):
        raise RuntimeError("the core maps do not strictly increase before the first isolated "
                           "element, so their cosets would interleave")
    blocks = []
    for core in cores:
        # the first row pins iso, and the rest permute its images of iso
        first = tuple(x if x in moved else v for x, v in enumerate(core))
        if _coset_holds(u, first, iso):
            blocks.append((first, None))
        else:
            kept = [t for t in _coset_rows(first, moved) if verify_window_map(u, t)]
            blocks.append((first, kept))
    return WindowMaps(iso, moved, blocks)


def window_survivors_oracle(u: WindowUniverse) -> list[tuple[int, ...]]:
    """Slow independent route: the bijections that satisfy the definition.

    Backtracks over image tables in index order, images ascending, so the
    tables come out sorted.  Each in-window pair (i, j) -> k is checked as
    soon as it can be: (t_i, t_j) must be an in-window pair once i and j
    have images, with sum t_k once k has one too.  Reads only the element
    count and the partial table, and calls nothing else of this module.
    Windows above :data:`ORACLE_MAX_WINDOW` are refused.
    """
    if u.m > ORACLE_MAX_WINDOW:
        raise ValueError(f"oracle enumeration is only feasible for m <= {ORACLE_MAX_WINDOW}")
    n = len(u.elements)
    pair_sums = u.pair_sums
    # checks[x]: the pairs (a <= b) -> k to test once x has an image, k None while t_k is unknown
    checks: list[list[tuple[int, int, int | None]]] = [[] for _ in range(n)]
    for (a, b), k in pair_sums.items():
        checks[b].append((a, b, k if k <= b else None))
        if k > b:
            checks[k].append((a, b, k))
    table = [0] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            yield tuple(table)
            return
        for t in range(n):
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
                yield from extend(i + 1)
                used[t] = False

    return list(extend(0))
