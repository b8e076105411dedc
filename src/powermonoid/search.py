"""Exhaustive automorphism search over a bounded window of the monoid.

The window of radius m holds every zero-anchored subset of [[-m,m]] and the
partial Cayley table of the sums that stay inside.  A window automorphism is
a bijection of the window respecting every such in-window product, with
image sums required to stay in the window too.  The search backtracks over
images in ascending size order with unit propagation over the partial
table; optional pruning restricts candidates to matching invariant data
(bound transport once both unit-step images are fixed, atom status,
factorization count).  Every complete assignment is re-verified against the
full partial table before it is reported, pruning or not.
"""

from __future__ import annotations

from .autos import Table
from .finset import FinSet, sumset
from .monoid import ZeroSet, factorizations, is_atom, subsets_in_mask_order

MAX_WINDOW = 6

# nontrivial-factorization counts are precomputed for pruning only while
# the universe stays small
_STATS_WINDOW = 4


class WindowUniverse:
    """All zero-anchored subsets of [[-m,m]] plus their partial Cayley table."""

    __slots__ = ("m", "elements", "index", "pair_sums", "los", "his", "sizes", "atoms", "nfacts")

    def __init__(self, m: int):
        if not 1 <= m <= MAX_WINDOW:
            raise ValueError(f"window radius must be in 1..{MAX_WINDOW}")
        self.m = m
        free = [v for v in range(-m, m + 1) if v != 0]
        elements = [ZeroSet([0, *sub]) for sub in subsets_in_mask_order(free)]
        self.elements = tuple(elements)
        self.index = {e.elems: i for i, e in enumerate(elements)}
        self.los = tuple(e.min for e in elements)
        self.his = tuple(e.max for e in elements)
        self.sizes = tuple(len(e) for e in elements)
        n = len(elements)
        pair_sums: dict[tuple[int, int], int] = {}
        for i in range(n):
            ei = elements[i]
            for j in range(i, n):
                ej = elements[j]
                # bounds decide membership before any sum is computed
                if ei.min + ej.min < -m or ei.max + ej.max > m:
                    continue
                pair_sums[(i, j)] = self.index[sumset(ei, ej).elems]
        self.pair_sums = pair_sums
        if m <= _STATS_WINDOW:
            self.atoms = tuple(is_atom(e) for e in elements)
            self.nfacts = tuple(len(factorizations(e)) for e in elements)
        else:
            self.atoms = None
            self.nfacts = None


def build_window(m: int) -> WindowUniverse:
    return WindowUniverse(m)


def verify_window_map(u: WindowUniverse, table) -> bool:
    """Full check of one bijection table against every in-window pair."""
    table = tuple(table)
    n = len(u.elements)
    if len(table) != n or sorted(table) != list(range(n)):
        raise ValueError("not a bijection table over the window")
    pair_sums = u.pair_sums
    for (i, j), k in pair_sums.items():
        ti, tj = table[i], table[j]
        key = (ti, tj) if ti <= tj else (tj, ti)
        sk = pair_sums.get(key)
        if sk is None or sk != table[k]:
            return False
    return True


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


def find_window_automorphisms(u: WindowUniverse, prune: bool = True) -> list[tuple[int, ...]]:
    """All window automorphisms, as image-index tables sorted ascending.

    Backtracking assigns images smallest set first; assigning an image
    propagates every in-window product with already-assigned partners, and
    an image sum falling outside the window is an immediate conflict.  With
    prune on, candidates are first filtered by invariant data; the final
    verification pass runs regardless.
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
            table = tuple(img)
            # mandatory full pass, independent of any pruning above
            if verify_window_map(u, table):
                results.append(table)
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
