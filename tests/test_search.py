"""Bounded window search for automorphisms of the partial Cayley table."""

import collections
import hashlib
import itertools
import math
import operator
import random
import sys
import time
import tracemalloc
from bisect import bisect_left

import pytest

from powermonoid import (
    FinSet,
    MAX_WINDOW,
    WindowMaps,
    as_table_spec,
    as_zero_set,
    build_window,
    factorizations,
    find_window_automorphisms,
    identity_table,
    negation_table,
    sumset,
    sumset_naive,
    verify_window_map,
    window_survivors_oracle,
)
from powermonoid.search import WindowUniverse, window_group
from test_acceptance import _bound_transport, _twin_components

# sha256 of repr(find_window_automorphisms(build_window(m))), from the
# search that walked and verified every leaf
FROZEN_DIGESTS = {
    1: "ac0e5853115b3238c32a841988c0b7a872519ab10791c1f3698078faa1e7d083",
    2: "22856e5355b92013267c20652609c14504e5f474cdaedc048d61052e7f488e62",
}

# the order of the window group at m=4, and the sha256 of repr(H), its
# eight rank-monotone members, from window_group(build_window(4))
G4_ORDER = 59738682186294663364838554040321263534080000000
H4_DIGEST = "23cbbb7ed8f80657933cda31050f43ca109aacbf241138ddb2df14258a5cd087"


def _naive_pair_sums(u):
    """The in-window pairs and their sums, from sumset_naive."""
    sets = [FinSet(e) for e in u.elements]
    table = {}
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        # bounds first, so only in-window pairs pay for a naive sum
        if sets[i].min + sets[j].min >= -u.m and sets[i].max + sets[j].max <= u.m:
            table[(i, j)] = u.index[sumset_naive(sets[i], sets[j]).elems]
    return table


def _naive_verify(table, t):
    for (i, j), k in table.items():
        if table.get(tuple(sorted((t[i], t[j])))) != t[k]:
            return False
    return True


def _swapped(t, a, b):
    t = list(t)
    t[a], t[b] = t[b], t[a]
    return tuple(t)


def _isolated(u):
    """The non-units that occur in no in-window product except unit + x = x."""
    unit = u.index[(0,)]
    touched = {unit}
    for (i, j), k in u.pair_sums.items():
        if unit not in (i, j):
            touched.update((i, j, k))
    return tuple(i for i in range(len(u.elements)) if i not in touched)


def _largest_twins(u):
    """The largest twin component L: the isolated elements at m = 2..4,
    whose digits are the last of each coset of find_window_automorphisms."""
    return max(window_group(u)[0], key=len)


def _group_order(u):
    """The product of |C|! over the twin components C, times |H|."""
    comps, hs, _ = window_group(u)
    return math.prod(math.factorial(len(c)) for c in comps) * len(hs)


def _patch_members(monkeypatch, members):
    """Make find_window_automorphisms see members(H) in place of H, with
    the real components and order."""
    import powermonoid.search as search

    real = search.window_group

    def patched(u):
        comps, hs, order = real(u)
        return comps, members(hs), order

    monkeypatch.setattr(search, "window_group", patched)


def _first_rows(u):
    """The tables of find_window_automorphisms at multiples of |L|!, L the
    largest twin component: each member of H composed with each arrangement
    of the other components, with L fixed."""
    return list(find_window_automorphisms(u)[::math.factorial(len(_largest_twins(u)))])


def _rank_monotone(t, comps):
    """t composed with the permutation of each component that sorts t's
    images of it: the one rank-monotone member of t's coset of <T>."""
    t = list(t)
    for c in comps:
        for x, v in zip(c, sorted(t[x] for x in c)):
            t[x] = v
    return tuple(t)


def test_universe_shape():
    for m in range(1, MAX_WINDOW + 1):
        u = build_window(m)
        assert u.m == m
        assert len(u.elements) == 2 ** (2 * m)
        assert all(0 in e for e in u.elements)
        for e in u.elements:
            assert u.elements[u.index[e.elems]] == e
        # the pair table is built from this: element i holds free[b]
        # exactly when bit b of i is set
        free = [v for v in range(-m, m + 1) if v != 0]
        for i, e in enumerate(u.elements):
            assert [v in e for v in free] == [bool(i >> b & 1) for b in range(2 * m)], f"m={m}: {i}"
    with pytest.raises(ValueError):
        build_window(MAX_WINDOW + 1)
    with pytest.raises(ValueError):
        build_window(0)


def _bounds_fitting_pairs(u):
    """The pairs i <= j whose bounds add up inside the window.

    The bounds of a sum are the sums of the bounds, so every other pair sums
    outside the window.
    """
    by_bounds = {}
    for i, e in enumerate(u.elements):
        by_bounds.setdefault((e.min, e.max), []).append(i)
    for (lo, hi), firsts in by_bounds.items():
        for (lo2, hi2), seconds in by_bounds.items():
            if lo + lo2 >= -u.m and hi + hi2 <= u.m:
                yield from ((i, j) for i in firsts for j in seconds if i <= j)


def test_partial_table_is_exactly_the_in_window_sums():
    # criterion 8 derives its expected survivor group from this table, and
    # the window build adds no sets: every pair is summed by sumset_naive up
    # to m=4, and at m=5 and 6 the pairs whose bounds fit are summed by sumset
    for m in range(1, MAX_WINDOW + 1):
        u = build_window(m)
        sets = [FinSet(e) for e in u.elements]
        if m <= 4:
            add, pairs = sumset_naive, itertools.combinations_with_replacement(range(len(sets)), 2)
        else:
            add, pairs = sumset, _bounds_fitting_pairs(u)
        expected = {}
        for i, j in pairs:
            s = add(sets[i], sets[j])
            if s.min >= -m and s.max <= m:
                expected[(i, j)] = u.index[s.elems]
        assert u.pair_sums == expected, f"m={m}"
        # pairs are listed row by row, partners ascending
        assert list(u.pair_sums) == sorted(u.pair_sums), f"m={m}"


@pytest.mark.parametrize("m", [True, False, 2.0, "2", None])
def test_window_radius_must_be_an_int(m):
    with pytest.raises(TypeError, match=f"window radius must be an integer, got {m!r}"):
        WindowUniverse(m)


def test_slot_width_bounds_every_representation_count():
    # the build packs each element into slots of w = m.bit_length() + 1 bits
    # and needs every count r(v) of ways to write v in an in-window pair to
    # stay at most 2^(w-1); the proof bounds r(v) by min(|X|, |Y|) <= m + 1,
    # and both bounds are reached
    for m in range(1, MAX_WINDOW + 1):
        u = build_window(m)
        sizes = [len(e) for e in u.elements]
        assert max(min(sizes[i], sizes[j]) for i, j in u.pair_sums) == m + 1, f"m={m}"
        assert m + 1 <= 2 ** m.bit_length()
        if m <= 4:
            widest = max(max(collections.Counter(x + y for x in u.elements[i]
                                                 for y in u.elements[j]).values())
                         for i, j in u.pair_sums)
            assert widest == m + 1, f"m={m}"


def test_window_seven_builds_through_the_same_code(monkeypatch):
    # m = 7 is past the cap and the one radius whose counts fill a slot's
    # top bit (r = 8 = 2^(w-1)), so the build has no headroom left there
    import powermonoid.search as search

    monkeypatch.setattr(search, "MAX_WINDOW", 7)
    u = search.WindowUniverse(7)
    assert len(u.elements) == 16384
    assert len(u.pair_sums) == 165920
    assert list(u.pair_sums) == sorted(u.pair_sums)
    assert set(u.pair_sums) == set(_bounds_fitting_pairs(u))
    rng = random.Random(7)
    for i, j in rng.sample(list(u.pair_sums), 5000):
        assert u.elements[u.pair_sums[(i, j)]] == sumset_naive(u.elements[i], u.elements[j])


def test_verify_rejects_the_unit_step_swap():
    # swapping {0,1} and {0,2} breaks {0,1}+{0,1} = {0,1,2}
    u = build_window(2)
    t = list(identity_table(u))
    i, j = u.index[(0, 1)], u.index[(0, 2)]
    t[i], t[j] = t[j], t[i]
    assert not verify_window_map(u, tuple(t))


def test_verify_rejects_non_bijections():
    u = build_window(1)
    with pytest.raises(ValueError, match="bijection"):
        verify_window_map(u, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="bijection"):
        verify_window_map(u, (0, 1))
    # the largest listed window (m=3) and the first one above it (m=4); a float
    # or a string is no index, even where it equals or spells one
    for m in (3, 4):
        u = build_window(m)
        n = len(u.elements)
        ident = identity_table(u)
        for bad in (
            ident[:-1],
            ident + (0,),
            (1,) + ident[1:],
            ident[:-1] + (n,),
            ident[:-1] + (-1,),
            ident[:-1] + (300,),
            ident[:-1] + (None,),
            ident[:1] + (1.0,) + ident[2:],
            ident[:1] + ("1",) + ident[2:],
        ):
            with pytest.raises(ValueError, match="bijection"):
                verify_window_map(u, bad)
        # a bool is an index
        assert verify_window_map(u, ident[:1] + (True,) + ident[2:])


def test_verify_matches_naive_table_on_identity_and_negation():
    # 64 elements at m=3, up to 1024 at m=5: the one check at every radius
    for m in (1, 2, 3, 4, 5):
        u = build_window(m)
        naive = _naive_pair_sums(u)
        for t in (identity_table(u), negation_table(u)):
            assert _naive_verify(naive, t), f"m={m}"
            assert verify_window_map(u, t), f"m={m}"


def test_verify_matches_naive_table_on_mutants():
    rng = random.Random(20261018)
    for m in (2, 3, 4):
        u = build_window(m)
        n = len(u.elements)
        naive = _naive_pair_sums(u)
        iso = _largest_twins(u)
        # survivors without the full list: the tables at multiples of |L|!, or
        # identity and negation, times permutations of the largest twin component
        survivors = []
        for core in (_first_rows(u) if m <= 3 else [identity_table(u), negation_table(u)]):
            for _ in range(3):
                images = rng.sample(iso, len(iso))
                survivors.append(tuple(images[iso.index(i)] if i in iso else k
                                       for i, k in enumerate(core)))
        if m == 2:
            mutants = [_swapped(t, a, b) for t in survivors
                       for a, b in itertools.combinations(range(n), 2)]
        else:
            mutants = [_swapped(t, *rng.sample(range(n), 2)) for t in survivors for _ in range(40)]
            mutants += [_swapped(t, *rng.sample(iso, 2)) for t in survivors]
        verdicts = []
        for t in survivors + mutants:
            got = verify_window_map(u, t)
            assert got == _naive_verify(naive, t), f"m={m}: {t}"
            verdicts.append(got)
        assert all(verdicts[:len(survivors)])
        assert True in verdicts[len(survivors):] and False in verdicts, f"m={m}"


def test_window_one_by_full_brute_force():
    u = build_window(1)
    sets = [FinSet(e) for e in u.elements]
    survivors = []
    for perm in itertools.permutations(range(4)):
        ok = True
        for i, j in itertools.combinations_with_replacement(range(4), 2):
            s = sumset_naive(sets[i], sets[j])
            if s.min < -1 or s.max > 1:
                continue
            k = u.index[s.elems]
            img = sumset_naive(sets[perm[i]], sets[perm[j]])
            if img.min < -1 or img.max > 1 or u.index[img.elems] != perm[k]:
                ok = False
                break
        if ok:
            survivors.append(perm)
    assert sorted(survivors) == find_window_automorphisms(u)


def test_window_two_survivors_frozen():
    u = build_window(2)
    got = find_window_automorphisms(u)
    assert len(got) == 4
    assert identity_table(u) in got
    assert negation_table(u) in got

    # the two extra maps swap the extremal atoms {-2,-1,0,2} and {-2,0,1,2},
    # which no in-window product constrains: every nontrivial sum involving
    # either one leaves the window, and neither arises as an in-window sum
    p, q = u.index[(-2, -1, 0, 2)], u.index[(-2, 0, 1, 2)]
    swap = list(identity_table(u))
    swap[p], swap[q] = swap[q], swap[p]
    neg_swap = list(negation_table(u))
    neg_swap[p], neg_swap[q] = neg_swap[q], neg_swap[p]
    assert sorted(got) == sorted(
        [identity_table(u), negation_table(u), tuple(swap), tuple(neg_swap)]
    )


def test_isolated_elements_touch_only_the_unit():
    for m, count in ((1, 0), (2, 2), (3, 8), (4, 33), (5, 134), (6, 652)):
        u = build_window(m)
        unit = u.index[(0,)]
        iso = _isolated(u)
        assert len(iso) == count and unit not in iso
        # and from m = 2 to 4 they are the largest twin component
        if 2 <= m <= 4:
            assert iso == _largest_twins(u), f"m={m}"
        # exactly the sets spanning the window that are no in-window sum
        counts = _sum_counts(u)
        assert iso == tuple(i for i, e in enumerate(u.elements)
                            if (e.min, e.max) == (-m, m) and counts[i] == 0), f"m={m}"
        # {0} is the only idempotent, so every window map fixes it
        assert [i for (i, j), k in u.pair_sums.items() if i == j == k] == [unit]
        isolated = set(iso)
        for (a, b), k in u.pair_sums.items():
            if {a, b, k} & isolated:
                assert unit in (a, b), f"m={m}: {(a, b)} -> {k}"
        if m <= 3:
            for a, b in itertools.combinations(iso, 2):
                assert verify_window_map(u, _swapped(identity_table(u), a, b))


def test_survivors_are_sym_iso_times_core():
    # no twin component at m=1, where H is identity and negation, and one
    # at m=2, which H fixes
    for m, h_order in ((1, 2), (2, 2)):
        u = build_window(m)
        comps, hs, _ = window_group(u)
        assert len(comps) == m - 1 and len(hs) == h_order
        if m == 1:
            assert hs == [identity_table(u), negation_table(u)]
        assert all(h[i] == i for h in hs for c in comps for i in c)
        survivors = find_window_automorphisms(u)
        assert len(survivors) == math.prod(math.factorial(len(c)) for c in comps) * len(hs)
        assert hashlib.sha256(repr(survivors).encode()).hexdigest() == FROZEN_DIGESTS[m]
        assert all(map(_bound_transport(u), survivors)), f"m={m}"


def _sum_counts(u):
    """How many in-window pairs of two non-units have each element as sum."""
    unit = u.index[(0,)]
    counts = [0] * len(u.elements)
    for (i, j), k in u.pair_sums.items():
        if unit not in (i, j):
            counts[k] += 1
    return counts


def test_sum_count_is_the_factorization_count_and_kept_by_window_maps():
    for m in (1, 2, 3, 4):
        u = build_window(m)
        counts = _sum_counts(u)
        assert counts == [len(factorizations(e)) for e in u.elements], f"m={m}"
        assert counts[u.index[(0,)]] == 0
        assert all(counts[i] == 0 for i in _isolated(u)), f"m={m}"
        # so the in-window triples touching x add nothing to its bounds and
        # sum count: they number its in-window partners plus its sum count
        touching = [0] * len(u.elements)
        for (i, j), k in u.pair_sums.items():
            for v in {i, j, k}:
                touching[v] += 1
        partners = [sum(e.min + f.min >= -m and e.max + f.max <= m for f in u.elements)
                    for e in u.elements]
        assert touching == list(map(operator.add, partners, counts)), f"m={m}"
    # maps found without any search at m = 1, 2.  At m = 3, 4 the generators
    # of G: the members of H found without the sum-count pruning, and each
    # transposition (C[0] b) of the components that criterion 8 derives from
    # every pair.  Two maps that keep every sum count compose into one that
    # does, so the generators cover all of G
    maps = {m: window_survivors_oracle(build_window(m)) for m in (1, 2)}
    for m in (3, 4):
        u = build_window(m)
        maps[m] = window_group(u, prune=False)[1] + [
            _swapped(identity_table(u), c[0], b) for c in _twin_components(u) for b in c[1:]]
    assert {m: len(tables) for m, tables in maps.items()} == {1: 2, 2: 4, 3: 12, 4: 63}
    for m, tables in maps.items():
        counts = _sum_counts(build_window(m))
        for t in tables:
            assert [counts[k] for k in t] == counts, f"m={m}: {t}"


def _d1_d2(u):
    """d1 swaps two pairs of m=4 sets with equal bounds, and d2 is d1
    conjugated by negation."""
    neg = negation_table(u)
    d1 = identity_table(u)
    for a, b in (((-3, 0, 4), (-3, 0, 3, 4)), ((-4, -3, -1, 0, 3, 4), (-4, -3, -1, 0, 2, 3, 4))):
        d1 = _swapped(d1, u.index[a], u.index[b])
    return d1, tuple(neg[d1[neg[i]]] for i in range(len(neg)))


def test_window_maps_keep_or_negate_every_bound():
    # d1 and d2 are window maps
    u = build_window(4)
    up = u.index[(0, 1)]
    d1, d2 = _d1_d2(u)
    holds = _bound_transport(u)
    for d in (d1, d2):
        assert d != identity_table(u)
        assert verify_window_map(u, d) and d[up] == up and holds(d)
    assert d1 != d2
    for m in range(1, MAX_WINDOW + 1):
        u = build_window(m)
        t = negation_table(u)
        assert t[u.index[(0, 1)]] == u.index[(-1, 0)], f"m={m}"
        assert all((u.elements[k].min, u.elements[k].max) == (-e.max, -e.min)
                   for e, k in zip(u.elements, t)), f"m={m}"


def test_core_maps_increase_before_the_first_isolated_element():
    # the tables at multiples of |L|! fix the largest twin component L and
    # strictly increase before it: L's digits are the last of each coset, so
    # each run of |L|! tables permutes L alone; at m=3 these tables are H
    # spread over the 2^3 arrangements of the twin pairs
    u = build_window(1)
    # no twin component at m=1: the listing is H, in order
    hs = window_group(u)[1]
    assert list(find_window_automorphisms(u)) == hs == sorted(hs) and len(hs) == 2
    for m, count in ((2, 2), (3, 16)):
        u = build_window(m)
        largest = _largest_twins(u)
        head = largest[0]
        firsts = _first_rows(u)
        assert len(firsts) == count
        assert all(t[x] == x for t in firsts for x in largest), f"m={m}"
        assert all(a[:head] < b[:head] for a, b in zip(firsts, firsts[1:])), f"m={m}"


def test_find_refuses_core_maps_out_of_order(monkeypatch):
    import powermonoid.search as search

    # window_group returns H sorted, and find lists its cosets in that
    # order without a sort: reversed, they would not ascend
    _patch_members(monkeypatch, lambda hs: hs[::-1])
    with pytest.raises(RuntimeError, match="interleave"):
        search.find_window_automorphisms(build_window(2))


def test_every_reported_table_is_verified(monkeypatch):
    import powermonoid.search as search

    # window_group decides each twin candidate from its own pairs and
    # verifies nothing; find verifies each member of H once: by closure,
    # the window maps form a group, so the transpositions (C[0] b) of every
    # component C and the member verify every table of its coset
    real = search.verify_window_map
    for m in (1, 2, 3):
        u = build_window(m)
        comps, hs, _ = window_group(u)
        seen = collections.Counter()

        def recording(universe, table):
            seen[tuple(table)] += 1
            return real(universe, table)

        monkeypatch.setattr(search, "verify_window_map", recording)
        search.window_group(u)
        assert not seen, f"m={m}"
        got = search.find_window_automorphisms(u)
        monkeypatch.setattr(search, "verify_window_map", real)
        assert seen == collections.Counter(hs) and len(seen) == 2, f"m={m}"
        # the transpositions decided from their own pairs pass the full check
        ident = identity_table(u)
        assert all(real(u, _swapped(ident, c[0], b)) for c in comps for b in c[1:]), f"m={m}"
        # and the result holds exactly those cosets, listed where it is cheap,
        # over the at most one component of m <= 2
        if m <= 2:
            moved = tuple(x for c in comps for x in c)
            assert list(got) == sorted(t for h in hs for t in _coset(h, moved))


def test_find_refuses_core_maps_that_would_interleave(monkeypatch):
    import powermonoid.search as search

    _patch_members(monkeypatch, lambda hs: hs * 2)
    with pytest.raises(RuntimeError, match="interleave"):
        search.find_window_automorphisms(build_window(2))


@pytest.mark.parametrize("m", [2, 3])
def test_find_refuses_a_first_row_that_moves_the_largest_component(monkeypatch, m):
    import powermonoid.search as search

    # a twin transposition inside the largest component is a window map,
    # but no member of H, as it descends on that component: its coset would
    # not be listed in order, so find raises
    u = build_window(m)
    largest = _largest_twins(u)
    moved = _swapped(identity_table(u), largest[0], largest[1])
    assert verify_window_map(u, moved)
    _patch_members(monkeypatch, lambda hs: [moved])
    with pytest.raises(RuntimeError, match="ascending on every twin component"):
        search.find_window_automorphisms(u)


def _check_views(maps, slices, rng):
    """Each slice of maps, and its reversal, is a view of the indices the
    slice shows: at both ends and at sampled positions it holds the rows of
    maps there, and read backwards it starts with its own last rows."""
    every = range(len(maps))
    for s in slices:
        for view, shown in ((maps[s], every[s]), (maps[s][::-1], every[s][::-1])):
            assert isinstance(view, WindowMaps) and len(view) == len(shown), s
            ks = [0, -1] + [rng.randrange(len(shown)) for _ in range(20)] if shown else []
            assert all(view[k] == maps[shown[k]] for k in ks), s
            tail = list(itertools.islice(reversed(view), 64))
            assert tail == [view[-1 - k] for k in range(min(64, len(view)))], s


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_index_slice_and_compare_as_their_list(m):
    # a full comparison with list(maps) at m <= 2; at m = 3 the same
    # reads are checked against one another, as each row is unranked alone
    u = build_window(m)
    maps = find_window_automorphisms(u)
    n = len(maps)
    assert n == _group_order(u)
    rng = random.Random(m)
    sampled = [0, 1, n - 1, -1, -n] + [rng.randrange(-n, n) for _ in range(300)]
    assert all(maps[::-1][-1 - i] == maps[i] for i in sampled)
    for i in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            maps[i]
    _check_views(maps, (slice(None, -1), slice(None, None, -1), slice(5, 70, 3),
                        slice(None, 64), slice(n, None)), rng)
    assert maps[::-1][1] == maps[-2] and maps[:-1][-1] == maps[-2]
    assert maps[::-1][::-1][:70] == maps[:70] == list(maps[:70])
    # each coset starts at its member of H and ends with every twin
    # component's images reversed
    comps, hs, _ = window_group(u)
    size = n // len(hs)
    for b, h in enumerate(hs):
        last = h
        for c in comps:
            last = _placed(last, c, [h[x] for x in reversed(c)])
        assert maps[b * size] == h and maps[(b + 1) * size - 1] == last, b
    assert all(maps[b * size - 1] < maps[b * size] for b in range(1, len(hs)))
    # ascending, so a bisection finds identity and negation
    for t in (identity_table(u), negation_table(u)):
        assert maps[bisect_left(maps, t)] == t
    drawn = random.Random(m).sample(maps, min(24, n))
    assert drawn == [maps[i] for i in random.Random(m).sample(range(n), min(24, n))]
    assert all(t in maps for t in drawn)
    outside = _swapped(identity_table(u), u.index[(0, 1)], u.index[(-1, 0, 1)])
    assert not verify_window_map(u, outside) and outside not in maps
    assert maps[-1] not in maps[:-1] and maps[0] not in maps[1:] and maps[0] in maps[::-1]
    assert list(outside) not in maps and None not in maps and "x" not in maps
    # a truncated view is another sequence
    assert maps[:-1] != maps and maps[:0] == [] and maps[:64] != tuple(maps[:64])
    with pytest.raises(TypeError):
        hash(maps)
    assert not hasattr(maps, "append") and not hasattr(maps, "sort")
    if m <= 2:
        listed = list(maps)
        for i in sampled:
            assert maps[i] == listed[i], i
        for s in (slice(None, -1), slice(None, None, -1), slice(5, 70, 3), slice(None, 64),
                  slice(n, None)):
            assert maps[s] == listed[s], s
        assert maps == listed and listed == maps
        assert not maps != listed and not listed != maps
        assert maps[:-1] != listed and listed != maps[:-1] and maps != tuple(listed)
        assert repr(maps) == repr(listed) and list(reversed(maps)) == listed[::-1]


def test_window_maps_match_brute_force_over_interleaved_components():
    # three components whose positions interleave, and two rank-monotone
    # members that differ before index 2, the smallest moved element; the
    # first exchanges the two components of three elements
    comps = [(2, 5, 8), (3, 6), (4, 7, 9)]
    swapped = dict(zip((2, 5, 8, 4, 7, 9), (4, 7, 9, 2, 5, 8)))
    members = [tuple(swapped.get(x, x) for x in range(10)), (1, 0, *range(2, 10))]
    maps = WindowMaps(comps, members)
    # every h composed with every permutation of each component, sorted
    expected = []
    for h in members:
        for images in itertools.product(*map(itertools.permutations, comps)):
            sigma = dict(zip(itertools.chain(*comps), itertools.chain(*images)))
            expected.append(tuple(h[sigma.get(x, x)] for x in range(10)))
    expected.sort()
    n = len(expected)
    assert n == 2 * 6 * 2 * 6 == len(maps) and len(set(expected)) == n
    assert list(maps) == expected
    assert [maps[i] for i in range(-n, n)] == expected + expected
    for s in (slice(None, None, -1), slice(100, 3, -7), slice(-2, None, -5), slice(7, 90, 4)):
        assert list(maps[s]) == expected[s] and maps[s] == expected[s], s
    assert all(t in maps and maps.index(t) == i for i, t in enumerate(expected))
    # a table mixing two components is in no coset
    crossed = _swapped(expected[0], 2, 3)
    assert crossed not in maps and _swapped(expected[0], 0, 2) not in maps


def _reads_as(rows, expected):
    """Whether two iterables yield equal rows, compared one pair at a time
    rather than as two lists of up to 645,120 tables."""
    return all(itertools.starmap(operator.eq, itertools.zip_longest(rows, expected)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_read_backwards_as_their_reversed_list(m):
    # every row is unranked on its own, so reading backwards, strided or
    # reversed must give the list's rows in the list's reversed order too:
    # in full at m <= 2, and at m = 3 at the ends and sampled rows of views
    maps = find_window_automorphisms(build_window(m))
    n = len(maps)
    slices = (slice(None, None, -3), slice(n // 2, 1, -3), slice(-2, -n - 5, -7),
              slice(3, n // 3, -3), slice(None, None, -1), slice(None, None, 3))
    _check_views(maps, slices, random.Random(m))
    assert maps[::-1][5:50:-1] == []
    if m <= 2:
        listed = list(maps)
        assert maps[::-1] == listed[::-1] and _reads_as(reversed(maps), reversed(listed))
        for s in slices:
            view = maps[s]
            assert view == listed[s] and _reads_as(reversed(view), reversed(listed[s])), s
        assert maps[::-3][::-1] == listed[::-3][::-1]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_index_and_count_as_their_list(m):
    u = build_window(m)
    maps = find_window_automorphisms(u)
    # Sequence.index reads from the start, so at m=3 only a short view
    # across the first carry out of the largest component's 8! tables
    views = [maps, maps[::-1]] if m <= 2 else [maps[40300:40400], maps[40400:40300:-1]]
    outside = _swapped(identity_table(u), u.index[(0, 1)], u.index[(-1, 0, 1)])
    for view in views:
        listed = list(view)
        for t in listed:
            assert view.index(t) == listed.index(t) and view.count(t) == 1, t
        for absent in (outside, list(listed[0])):
            with pytest.raises(ValueError):
                view.index(absent)
            assert view.count(absent) == 0


def test_failing_first_row_raises(monkeypatch):
    import powermonoid.search as search

    u = build_window(3)
    comps, hs, _ = window_group(u)
    # the first row of the second coset, a member of H that moves more than
    # two elements, so the twin search never verifies it, fails: find
    # raises and returns nothing
    bad = hs[1]
    maps = find_window_automorphisms(u)
    assert maps[len(maps) // 2] == bad
    assert sum(a != b for a, b in enumerate(bad)) > 2
    real = search.verify_window_map
    verified = []

    def rejecting(universe, table):
        verified.append(tuple(table))
        return tuple(table) != bad and real(universe, table)

    monkeypatch.setattr(search, "verify_window_map", rejecting)
    assert search.window_group(u)[0] == comps
    with pytest.raises(RuntimeError, match="not a window map"):
        search.find_window_automorphisms(u)
    assert bad in verified


def test_window_three_search_allocates_little():
    # the result is a lazy sequence: building its 645,120 tables took about
    # 370 MB, and an index plus the coset verdicts take well under 16 MB
    tracemalloc.start()
    try:
        maps = find_window_automorphisms(build_window(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 645120
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_window_maps_read_a_block_too_large_to_build():
    # a twin component of 20 elements: its 20! permutations could never
    # be built, yet reading, slicing and bisecting its coset builds only
    # the rows read
    largest = tuple(range(2, 22))
    first = tuple(range(24))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        maps = WindowMaps([largest], [first])
        size = len(maps)
        expected = [_placed(first, largest, p)
                    for p in itertools.islice(itertools.permutations(largest), 64)]
        head, walked = maps[:64], list(itertools.islice(iter(maps), 64))
        last = maps[-1]
        found = maps[10**18] in maps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert size == math.factorial(20) < sys.maxsize
    assert head == expected and walked == expected
    assert last == _placed(first, largest, largest[::-1])
    assert found
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"


def _placed(table, iso, images):
    t = list(table)
    for x, v in zip(iso, images):
        t[x] = v
    return tuple(t)


def _coset(table, iso):
    """The tables that agree with table off iso and put its images of iso on
    iso in any order, in the lexicographic order of those images."""
    for images in itertools.permutations([table[x] for x in iso]):
        yield _placed(table, iso, images)


def _verdict(u, t):
    try:
        return verify_window_map(u, t)
    except ValueError:
        return "not a bijection"


def _naive_verdict(naive, t):
    if sorted(t) != list(range(len(t))):
        return "not a bijection"
    return _naive_verify(naive, t)


def _replaced(t, i, v):
    return t[:i] + (v,) + t[i + 1:]


def _closure_holds(u, t, comp):
    """Whether every table of t's coset over comp passes, by closure: the
    maps of a partial table form a group, so the coset passes iff t and
    each transposition (comp[0] b) do."""
    ident = identity_table(u)
    return verify_window_map(u, t) and all(verify_window_map(u, _swapped(ident, comp[0], b))
                                           for b in comp[1:])


@pytest.mark.parametrize("bad_at", ["first", "last"])
@pytest.mark.parametrize("m", [2, 3])
def test_coset_check_with_a_bad_core(m, bad_at, monkeypatch):
    import powermonoid.search as search

    u = build_window(m)
    naive = _naive_pair_sums(u)
    rng = random.Random(m)
    iso = _largest_twins(u)
    unit = u.index[(0,)]
    heads = {a for a, _ in u.pair_sums}
    cores = _first_rows(u)
    for core in cores:
        assert _closure_holds(u, core, iso)
        images = [core[x] for x in iso]
        assert all(_naive_verify(naive, _placed(core, iso, rng.sample(images, len(iso))))
                   for _ in range(20))
    pos = 0 if bad_at == "first" else len(cores) - 1
    base = cores[pos]
    # a core partner of a non-unit head that heads no pair itself
    x = next(b for a, b in u.pair_sums if a != unit and b not in heads and b not in iso)
    cases = {
        "breaks a pair": (_swapped(base, x, iso[0]), False),
        "moves a head": (_swapped(base, max(heads), iso[0]), False),
        "repeats an isolated value": (_replaced(base, iso[0], base[iso[1]]), "not a bijection"),
        "repeats a core value": (_replaced(base, iso[0], base[x]), "not a bijection"),
        "leaves the window": (_replaced(base, iso[0], len(base)), "not a bijection"),
    }
    for name, (bad, expected) in cases.items():
        assert _naive_verdict(naive, bad) == _verdict(u, bad) == expected, name
        if expected == "not a bijection":
            with pytest.raises(ValueError, match="bijection"):
                _closure_holds(u, bad, iso)
        else:
            assert not _closure_holds(u, bad, iso), name

    # a first row with a head moved onto a core partner, put before or
    # after a good one: find raises and returns nothing
    bad = _swapped(base, x, max(heads))
    assert not _naive_verify(naive, bad)
    listed = [bad, base] if bad_at == "first" else [base, bad]
    _patch_members(monkeypatch, lambda hs: listed)
    with pytest.raises(RuntimeError, match="not a window map"):
        search.find_window_automorphisms(u)


def _stand_in_universe(n, pair_sums):
    """A universe of n elements with an arbitrary partial table.

    The verifiers and the oracle read only the element count and the pair
    table (the oracle also m, set within its cap), so this checks them on
    tables no window has.
    """
    u = object.__new__(WindowUniverse)
    u.m = 1
    u.elements = tuple(range(n))
    u.pair_sums = pair_sums
    return u


def _random_partial_tables(rng, n, count):
    """count random pair tables over n elements, then one with no pairs and
    one with exactly one."""
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    randoms = [{pair: rng.randrange(n) for pair in pairs if rng.random() < 0.2}
               for _ in range(count)]
    return randoms + [{}, {(1, 2): 3}]


def test_verifiers_match_naive_on_random_partial_tables():
    rng = random.Random(20261018)
    n = 6
    perms = list(itertools.permutations(range(n)))
    for table in _random_partial_tables(rng, n, 40):
        u = _stand_in_universe(n, table)
        verdicts = {t: _naive_verify(table, t) for t in perms}
        assert {t: verify_window_map(u, t) for t in perms} == verdicts
        assert window_survivors_oracle(u) == [t for t in perms if verdicts[t]]


def test_coset_check_matches_naive_on_random_partial_tables():
    # the closure rule against naive enumeration of each coset
    rng = random.Random(20261019)
    n = 6
    perms = list(itertools.permutations(range(n)))
    isos = [iso for size in range(4) for iso in itertools.combinations(range(n), size)]
    outcomes = set()
    for table in _random_partial_tables(rng, n, 40):
        u = _stand_in_universe(n, table)
        passing = [t for t in perms if _naive_verify(table, t)]
        cores = rng.sample(perms, 12) + rng.sample(passing, min(4, len(passing)))
        for iso in isos:
            for core in cores:
                holds = all(_naive_verify(table, t) for t in _coset(core, iso))
                assert _closure_holds(u, core, iso) == holds, (table, iso, core)
                outcomes.add((len(iso), holds, _naive_verify(table, core)))
                with pytest.raises(ValueError, match="bijection"):
                    _closure_holds(u, _replaced(core, 0, core[-1]), iso)
    # cosets of one table hold or fail with it; from two iso elements on,
    # cosets hold, and cosets fail with their first row passing: only a
    # failing transposition refuses those
    assert {(0, True, True), (0, False, False), (1, True, True), (1, False, False)} <= outcomes
    assert not {(0, False, True), (1, False, True)} & outcomes
    assert all({(size, True, True), (size, False, True)} <= outcomes for size in (2, 3))


def test_twin_quotient_orders():
    # |H| for m = 1..4; |G| = the product of |C|! times |H| is the listed count
    for m, size in ((1, 2), (2, 2), (3, 2), (4, 8)):
        u = build_window(m)
        _, hs, order = window_group(u)
        assert len(hs) == size and order == _group_order(u), f"m={m}"
        assert hs == sorted(set(hs)), f"m={m}"
        if m <= 3:
            assert order == len(find_window_automorphisms(u)), f"m={m}"


def test_twin_components_match_the_acceptance_derivation():
    # criterion 8 derives the components from every pair of the partial
    # table, with its own swap check and a union-find; T fixes {0,1}, so
    # the m=1 component of {-1,0} and {0,1}, whose swap is negation, is no
    # component of T
    for m in (1, 2, 3, 4):
        u = build_window(m)
        full = _twin_components(u)
        # every twin has sum count 0, the rule that limits the candidates
        counts = _sum_counts(u)
        assert all(counts[x] == 0 for c in full for x in c), f"m={m}"
        up = u.index[(0, 1)]
        assert window_group(u)[0] == [c for c in full if up not in c], f"m={m}"


def test_window_four_group_frozen():
    u = build_window(4)
    comps, hs, order = window_group(u)
    assert order == _group_order(u) == G4_ORDER
    assert hashlib.sha256(repr(hs).encode()).hexdigest() == H4_DIGEST
    for h in hs:
        assert verify_window_map(u, h) and _rank_monotone(h, comps) == h
    # d1 and d2 are no products of twin swaps and negation: <T, negation> is
    # <T> and its coset by negation, whose rank-monotone members are the
    # identity and negation's
    inside = {identity_table(u), _rank_monotone(negation_table(u), comps)}
    assert inside <= set(hs)
    for d in _d1_d2(u):
        assert _rank_monotone(d, comps) in hs and _rank_monotone(d, comps) not in inside


def test_prune_matches_no_prune_and_oracle():
    # without pruning, every unused set is a candidate, assuming neither
    # bound transport nor sum counts; the search finds the same components
    # and H, from which the listing is built.  m = 4 is the first window
    # whose H holds more than identity and negation
    for m in (1, 2, 3, 4):
        u = build_window(m)
        assert window_group(u, prune=False) == window_group(u), f"m={m}"
    for m in (1, 2):
        u = build_window(m)
        assert find_window_automorphisms(u) == window_survivors_oracle(u)


def test_oracle_shares_nothing_with_the_search(monkeypatch):
    import powermonoid.search as search

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the search")

    for name in ("window_group", "verify_window_map"):
        monkeypatch.setattr(search, name, refuse)
    for m in (1, 2):
        u = build_window(m)
        survivors = search.window_survivors_oracle(u)
        assert hashlib.sha256(repr(survivors).encode()).hexdigest() == FROZEN_DIGESTS[m]
        # a universe holding only m, the element count and the pair table
        bare = _stand_in_universe(len(u.elements), u.pair_sums)
        bare.m = m
        assert search.window_survivors_oracle(bare) == survivors


def test_find_refuses_windows_above_three():
    # a twin component of 33 elements at m=4: at least 33! tables
    with pytest.raises(ValueError, match="33!"):
        find_window_automorphisms(build_window(4))


def test_oracle_window_cap():
    with pytest.raises(ValueError):
        window_survivors_oracle(build_window(3))


def test_as_table_spec_round_trip():
    u = build_window(1)
    t = as_table_spec(u, negation_table(u))
    assert t.image_of(as_zero_set([0, 1])) == as_zero_set([-1, 0])
    assert t.image_of(as_zero_set([-1, 0, 1])) == as_zero_set([-1, 0, 1])
