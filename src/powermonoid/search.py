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

Each core map and every permutation of the isolated elements form one batch
of tables, built as byte columns: a core column is constant, an isolated one
a stride slice of the permutations.  Every reported table is verified
against the full partial table, pruning or not: the batch at once, or table
by table if that fails.  The batch check reads row 0 whole, then translates
only the pairs whose partner or sum column varies, one translate per pair
head; byte columns code batches only.  A single table is checked by one
dict lookup per in-window pair, the same check at every radius.  The rows
of a batch come in the lexicographic order of the permutations of the
isolated elements, so the list needs no sort when the core maps strictly
increase before the first isolated element.

The window is built without a set sum: element i selects the nonzero
values by the bits of i, so its position mask, bit v + m for each v, is a
bit shuffle of i, and the mask decodes to the element.  An in-window sum is
the or of the partner's mask shifted once per element of the head, shuffled
back to its index.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, permutations, repeat
from math import factorial
from operator import index, lshift, or_

from .autos import Table
from .finset import _from_mask
from .monoid import ZeroSet

MAX_WINDOW = 6

# find_window_automorphisms lists every table: from m = 4 on, the window has
# at least 33 isolated elements, so at least 33! tables.  Its byte-coded
# batch check also needs the at most 64 elements of m <= 3.
LIST_MAX_WINDOW = 3

# window_survivors_oracle backtracks over plain bijections, checking only the
# definition: feasible on the 16 elements of m=2, not the 64 of m=3
ORACLE_MAX_WINDOW = 2

# marks an out-of-window sum in the byte-coded table; element indices stay
# below it while the window has at most 64 elements (m <= 3)
_OUTSIDE = 255

_NOT_A_BIJECTION = "not a bijection table over the window"


class WindowUniverse:
    """All zero-anchored subsets of [[-m,m]] plus their partial Cayley table.

    Treated as immutable once built: the table and batch checks cache their
    coded copy of ``pair_sums`` on the universe.
    """

    __slots__ = ("m", "elements", "index", "by_bounds", "pair_sums", "_check")

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
        self._check = None


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
    return _checks(u)[0](tuple(table))


def _checks(u: WindowUniverse):
    """The exact tests of one table and of one column batch, coded once.

    A table t passes iff it permutes the window's indices and, for every
    in-window pair (i, j) -> k, (t[i], t[j]) is an in-window pair with sum
    t[k]: one lookup per pair in a dict holding both orders of each pair.
    A batch of tables is given as columns, cols[i] holding every table's
    image of i, coded in bytes while the window has at most 64 elements.
    Row v of the coded table holds the sum of v and b at offset b and
    _OUTSIDE elsewhere, so a translate through it reads sums with v, and
    the in-window pairs (a, b) -> k are grouped by their head a (16 heads
    at m=3).  Once every row is known to be a bijection, row 0 is checked
    whole: a pair whose head, partner and sum columns are all constant gets
    its verdict in every row.  Then every head column must be constant v,
    and only the pairs whose partner or sum column varies are checked for
    the whole batch, with one translate through row v per head.  The batch
    check is True only if every table is a bijection and passes every pair.
    """
    if u._check is not None:
        return u._check
    n = len(u.elements)
    entries = u.pair_sums.items()
    ordered = {}
    for (i, j), k in entries:
        ordered[(i, j)] = ordered[(j, i)] = k
    indices = list(range(n))

    def check_table(t) -> bool:
        try:
            permutes = sorted(map(index, t)) == indices
        except TypeError:
            permutes = False
        if not permutes:
            raise ValueError(_NOT_A_BIJECTION)
        return all(ordered.get((t[i], t[j])) == t[k] for (i, j), k in entries)

    u._check = check_table, None
    # byte columns for the at most 64 elements of m <= 3; the word test of
    # the batch check needs every index below 128
    if n > 64:
        return u._check

    coded = [bytearray([_OUTSIDE]) * 256 for _ in range(n)]
    grouped: dict[int, list[tuple[int, int]]] = {}
    for (a, b), k in entries:
        coded[a][b] = coded[b][a] = k
        grouped.setdefault(a, []).append((b, k))
    rows = list(map(bytes, coded))
    heads = [(a, bytes(b for b, _ in pairs), bytes(k for _, k in pairs)) for a, pairs in grouped.items()]
    index_bytes = bytes(indices)
    join = b"".join

    def check_batch(cols: list[bytes]) -> bool:
        if len(cols) != n:
            return False
        size = len(cols[0])
        if not size or any(len(c) != size for c in cols):
            return False
        fixed = {i: c[0] for i, c in enumerate(cols) if c == c[:1] * size}
        # the constant values are distinct and below n iff each removes one index
        free = index_bytes.translate(None, bytes(fixed.values()))
        if len(free) != n - len(fixed):
            return False
        varying = [c for i, c in enumerate(cols) if i not in fixed]
        if any(c.translate(None, free) for c in varying):
            return False
        # the values are below 128, so with 0x80 set in every byte of x ^ y no
        # byte borrows when 1 is subtracted from each, and 0x80 falls only
        # where x and y agree
        low = int.from_bytes(b"\x01" * size, "big")
        high = low << 7
        words = [int.from_bytes(c, "big") for c in varying]
        if any((((x ^ y) | high) - low) & high != high for x, y in combinations(words, 2)):
            return False
        # every row is a bijection now, and a pair whose columns are all
        # constant holds in every row iff it holds in row 0
        if not check_table(bytes(c[0] for c in cols)):
            return False
        for a, partners, sums in heads:
            if a not in fixed:
                return False
            moving = [(b, k) for b, k in zip(partners, sums) if b not in fixed or k not in fixed]
            if moving:
                bs, ks = zip(*moving)
                image = join(map(cols.__getitem__, bs)).translate(rows[fixed[a]])
                if image != join(map(cols.__getitem__, ks)):
                    return False
        return True

    u._check = check_table, check_batch
    return u._check


def identity_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(range(len(u.elements)))


def negation_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(u.index[tuple(sorted(-v for v in e))] for e in u.elements)


def as_table_spec(u: WindowUniverse, table: tuple[int, ...]) -> Table:
    """Index table rendered as an explicit source -> image Table spec."""
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


def find_window_automorphisms(u: WindowUniverse, prune: bool = True) -> list[tuple[int, ...]]:
    """All window automorphisms, as image-index tables sorted ascending.

    By the module lemma these are the core automorphisms composed with
    every permutation of the isolated elements.  Each core map gives one
    batch of tables, built as columns, and every table is verified by
    :func:`_window_maps`, pruning or not.  Windows above
    :data:`LIST_MAX_WINDOW` are refused.
    """
    if u.m > LIST_MAX_WINDOW:
        raise ValueError(f"windows above m={LIST_MAX_WINDOW} have at least 33! automorphisms, "
                         "too many to list")
    iso = isolated_elements(u)
    size = factorial(len(iso))
    # row r of the blob is the r-th permutation of iso; the column of iso[q]
    # holds its q-th entry in every row
    blob = b"".join(map(bytes, permutations(iso)))
    moved = {x: blob[q::len(iso)] for q, x in enumerate(iso)}
    cores = core_automorphisms(u, prune)
    results = []
    for core in cores:
        results += _window_maps(u, [moved.get(i, bytes((v,)) * size) for i, v in enumerate(core)])
    # a batch's rows differ only at iso, in the lexicographic order of
    # permutations(iso), so the batches come out sorted if the core maps
    # strictly increase before iso[0]
    head = iso[0] if iso else len(u.elements)
    if any(a[:head] >= b[:head] for a, b in zip(cores, cores[1:])):
        results.sort()
    return results


def _window_maps(u: WindowUniverse, cols: list[bytes]) -> list[tuple[int, ...]]:
    """The tables of one column batch that are window maps, in row order.

    cols[i] holds the image of element i in every table.  The batch is
    checked column by column at once; if that check fails, each table is
    verified on its own with :func:`verify_window_map`.
    """
    tables = zip(*cols)
    if _checks(u)[1](cols):
        return list(tables)
    return [t for t in tables if verify_window_map(u, t)]


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
