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
it backtracks over images in ascending size order with unit propagation
over the partial table; optional pruning restricts candidates to matching
invariant data (bound transport once both unit-step images are fixed, atom
status, factorization count).  Each core map is then expanded by every
permutation of the isolated elements, and every reported table is verified
against the full partial table, pruning or not.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations
from operator import itemgetter

from .autos import Table
from .finset import FinSet, sumset
from .monoid import ZeroSet, factorizations, is_atom, subsets_in_mask_order

MAX_WINDOW = 6

# nontrivial-factorization counts are precomputed for pruning only while
# the universe stays small
_STATS_WINDOW = 4

# marks an out-of-window sum in the byte-coded table; element indices stay
# below it while the window has at most 64 elements (m <= 3)
_OUTSIDE = 255


class WindowUniverse:
    """All zero-anchored subsets of [[-m,m]] plus their partial Cayley table.

    Treated as immutable once built: :func:`verify_window_map` caches its
    coded copy of ``pair_sums`` on the universe.
    """

    __slots__ = ("m", "elements", "index", "pair_sums", "los", "his", "sizes", "atoms", "nfacts",
                 "_check")

    def __init__(self, m: int):
        if not 1 <= m <= MAX_WINDOW:
            raise ValueError(f"window radius must be in 1..{MAX_WINDOW}")
        self.m = m
        free = [v for v in range(-m, m + 1) if v != 0]
        elements = [ZeroSet([0, *sub]) for sub in subsets_in_mask_order(free)]
        self.elements = tuple(elements)
        self.index = index = {e.elems: i for i, e in enumerate(elements)}
        self.los = tuple(e.min for e in elements)
        self.his = tuple(e.max for e in elements)
        self.sizes = tuple(len(e) for e in elements)
        # the bounds alone decide whether a sum stays inside, so each bounds
        # class has one ascending list of in-window partners
        by_bounds: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(elements):
            by_bounds.setdefault((e.min, e.max), []).append(i)
        partners = {
            (lo, hi): sorted(j for (lo2, hi2), js in by_bounds.items()
                             if lo + lo2 >= -m and hi + hi2 <= m for j in js)
            for lo, hi in by_bounds
        }
        pair_sums: dict[tuple[int, int], int] = {}
        for i, ei in enumerate(elements):
            js = partners[(ei.min, ei.max)]
            for j in js[bisect_left(js, i):]:
                pair_sums[(i, j)] = index[sumset(ei, elements[j]).elems]
        self.pair_sums = pair_sums
        if m <= _STATS_WINDOW:
            self.atoms = tuple(is_atom(e) for e in elements)
            self.nfacts = tuple(len(factorizations(e)) for e in elements)
        else:
            self.atoms = None
            self.nfacts = None
        self._check = None


def build_window(m: int) -> WindowUniverse:
    return WindowUniverse(m)


def verify_window_map(u: WindowUniverse, table) -> bool:
    """Full check of one bijection table against every in-window pair.

    True iff (table[i], table[j]) is an in-window pair with sum table[k]
    for every in-window pair (i, j) with sum k.  Raises ValueError unless
    table is a permutation of the window's indices.
    """
    check = u._check
    if check is None:
        check = u._check = _table_check(u)
    return check(tuple(table))


def _table_check(u: WindowUniverse):
    """The exact test behind verify_window_map, coded once per universe.

    Windows of up to 64 elements (n = 4^m divides 256) are coded in bytes,
    so one table costs a few dozen C-level calls.  Row a of the coded table
    holds the sum of a and b at offset b, or _OUTSIDE.  Each in-window pair
    (a, b) with a <= b is listed under its head a, and the heads are taken
    256 / n at a time: the image rows t[a] of one such group, concatenated,
    form one 256-byte translate table.  Translating t[b] + n*q, for a pair
    listed under the q-th head of its group, through that table reads the
    coded sum of the image pair, which must equal t applied to the pair's
    sum.  Larger windows look every image pair up in a dict of ordered
    pairs.
    """
    n = len(u.elements)
    entries = sorted(u.pair_sums.items())
    sums = [k for _, k in entries]

    def not_a_bijection():
        return ValueError("not a bijection table over the window")

    if n >= _OUTSIDE:
        firsts = itemgetter(*(i for (i, _), _ in entries))
        seconds = itemgetter(*(j for (_, j), _ in entries))
        image_sums = itemgetter(*sums)
        ordered = {}
        for (i, j), k in entries:
            ordered[(i, j)] = ordered[(j, i)] = k
        indices = list(range(n))

        def check_wide(t: tuple) -> bool:
            try:
                permutes = sorted(t) == indices
            except TypeError:
                permutes = False
            if not permutes:
                raise not_a_bijection()
            return tuple(map(ordered.get, zip(firsts(t), seconds(t)))) == image_sums(t)

        return check_wide

    coded = [bytearray([_OUTSIDE]) * n for _ in range(n)]
    for (i, j), k in entries:
        coded[i][j] = coded[j][i] = k
    rows = [bytes(row) for row in coded]
    per_table = 256 // n
    heads = sorted({i for (i, _), _ in entries})
    slot = {i: s for s, i in enumerate(heads)}
    heads = bytes(heads)
    # a pair under the q-th head of its group reads row q of the table
    partners = bytes(j for (_, j), _ in entries)
    offsets = int.from_bytes(bytes(n * (slot[i] % per_table) for (i, _), _ in entries), "little")
    group_of = [slot[i] // per_table for (i, _), _ in entries]
    starts = [group_of.index(g) for g in range(group_of[-1] + 1)] + [len(entries)]
    pair_groups = [slice(a, b) for a, b in zip(starts, starts[1:])]
    row_groups = [slice(256 * g, 256 * (g + 1)) for g in range(len(pair_groups))]
    row_pad = bytes(-len(heads) * n % 256)
    sums = bytes(sums)
    # completes t to a translate table that keeps _OUTSIDE
    above = bytes(range(n, 256))
    indices = bytes(range(n))
    join = b"".join
    translate = bytes.translate
    size = len(entries)

    def check_bytes(t: tuple) -> bool:
        try:
            tb = bytes(t)
        except (TypeError, ValueError):
            raise not_a_bijection() from None
        # n bytes that leave nothing of 0..n-1 behind are a permutation
        if len(tb) != n or indices.translate(None, tb):
            raise not_a_bijection()
        tb += above
        image_rows = join(map(rows.__getitem__, heads.translate(tb))) + row_pad
        keys = (int.from_bytes(partners.translate(tb), "little") + offsets).to_bytes(size, "little")
        image = join(map(translate, map(keys.__getitem__, pair_groups),
                         map(image_rows.__getitem__, row_groups)))
        return image == sums.translate(tb)

    return check_bytes


def identity_table(u: WindowUniverse) -> tuple[int, ...]:
    return tuple(range(len(u.elements)))


def negation_table(u: WindowUniverse) -> tuple[int, ...]:
    out = []
    for e in u.elements:
        out.append(u.index[tuple(sorted(-v for v in e))])
    return tuple(out)


def as_table_spec(u: WindowUniverse, table: tuple[int, ...]) -> Table:
    """Index table rendered as an explicit source -> image Table spec."""
    return Table(
        (ZeroSet(u.elements[i]), ZeroSet(u.elements[k]))
        for i, k in enumerate(table)
    )


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

    Backtracking assigns images smallest set first, with the isolated
    elements pinned to themselves; assigning an image propagates every
    in-window product with already-assigned partners, and an image sum
    falling outside the window is an immediate conflict.  With prune on,
    candidates are first filtered by invariant data.  The tables are not
    re-verified here; :func:`find_window_automorphisms` verifies every table
    it reports.
    """
    n = len(u.elements)
    order = sorted(range(n), key=lambda i: (u.sizes[i], i))
    pair_sums = u.pair_sums
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), k in pair_sums.items():
        neighbors[i].append((j, k))
        if i != j:
            neighbors[j].append((i, k))

    i_up = u.index[(0, 1)]
    i_down = u.index[(-1, 0)]
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
        cands = [t for t in range(n) if not used[t]]
        if not prune:
            return cands
        tu, td = img[i_up], img[i_down]
        if tu is not None and td is not None:
            xm, xp = -u.los[i], u.his[i]
            plo = u.los[td] * xm + u.los[tu] * xp
            phi = u.his[td] * xm + u.his[tu] * xp
            cands = [t for t in cands if u.los[t] == plo and u.his[t] == phi]
        if u.atoms is not None:
            cands = [t for t in cands if u.atoms[t] == u.atoms[i]]
        if u.nfacts is not None:
            cands = [t for t in cands if u.nfacts[t] == u.nfacts[i]]
        return cands

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
    every permutation of the isolated elements.  Every reported table is
    verified with :func:`verify_window_map`, pruning or not.
    """
    n = len(u.elements)
    iso = isolated_elements(u)
    # a core map fixes the isolated elements, so writing p[q] at iso[q]
    # composes it with the permutation p
    slot = {x: n + q for q, x in enumerate(iso)}
    spread = itemgetter(*(slot.get(i, i) for i in range(n)))
    results = [
        table
        for core in core_automorphisms(u, prune)
        for table in map(spread, map(core.__add__, permutations(iso)))
        if verify_window_map(u, table)
    ]
    results.sort()
    return results


def window_survivors_oracle(u: WindowUniverse) -> list[tuple[int, ...]]:
    """Slow independent route: filter every signature-compatible bijection.

    Branches over all image choices for the two unit steps, buckets the
    window by transported bounds refined with atom status and factorization
    count, enumerates every in-bucket bijection outright, and keeps the
    tables that pass full verification.  Exhaustive only while the window is
    tiny.
    """
    from itertools import permutations, product

    if u.m > 2:
        raise ValueError("oracle enumeration is only feasible for m <= 2")
    n = len(u.elements)
    i_up = u.index[(0, 1)]
    i_down = u.index[(-1, 0)]
    bclass: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        bclass.setdefault((u.los[i], u.his[i]), []).append(i)

    def subsig(i: int) -> tuple:
        return (u.atoms[i], u.nfacts[i] if u.nfacts is not None else 0)

    results = set()
    for t_up in range(n):
        if u.sizes[t_up] == 1:
            continue
        for t_down in range(n):
            if u.sizes[t_down] == 1:
                continue
            claimed: dict[tuple[int, int], list[int]] = {}
            ok = True
            pairs = []
            for (lo, hi), members in bclass.items():
                plo = u.los[t_down] * -lo + u.los[t_up] * hi
                phi = u.his[t_down] * -lo + u.his[t_up] * hi
                tgt = bclass.get((plo, phi))
                if tgt is None or len(tgt) != len(members) or (plo, phi) in claimed:
                    ok = False
                    break
                claimed[(plo, phi)] = tgt
                pairs.append((members, tgt))
            if not ok:
                continue
            # refine by invariant sub-signature, pinning the step images
            buckets = []
            for members, tgt in pairs:
                by_sig: dict[tuple, tuple[list[int], list[int]]] = {}
                for i in members:
                    by_sig.setdefault(subsig(i), ([], []))[0].append(i)
                for t in tgt:
                    by_sig.setdefault(subsig(t), ([], []))[1].append(t)
                if any(len(src) != len(dst) for src, dst in by_sig.values()):
                    ok = False
                    break
                buckets.extend(by_sig.values())
            if not ok:
                continue
            choices = []
            for src, dst in buckets:
                perms = []
                for perm in permutations(dst):
                    m = dict(zip(src, perm))
                    if m.get(i_up, t_up) != t_up or m.get(i_down, t_down) != t_down:
                        continue
                    perms.append(m)
                choices.append(perms)
            for combo in product(*choices):
                table = [None] * n
                for m in combo:
                    for i, t in m.items():
                        table[i] = t
                if verify_window_map(u, table):
                    results.add(tuple(table))
    return sorted(results)
