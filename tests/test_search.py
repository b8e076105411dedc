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


def _unit_only(u):
    """The non-units whose one in-window product is unit + x = x: every
    window map may swap two of them."""
    unit = u.index[(0,)]
    touched = {unit}
    for (i, j), k in u.pair_sums.items():
        if unit not in (i, j):
            touched.update((i, j, k))
    return tuple(i for i in range(len(u.elements)) if i not in touched)


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
    # swapping {0,1} and {0,2} breaks {0,1} + {0,1} = {0,1,2}
    u = build_window(2)
    assert not verify_window_map(u, _swapped(identity_table(u), u.index[(0, 1)], u.index[(0, 2)]))


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
    # transpositions of window maps, on which the two checks must agree.
    # At m <= 2 every transposition of every listed map.  Above, a sample of
    # the m=3 listing, or identity and negation up to m=5, each with 40
    # random transpositions and one swap of two elements whose one in-window
    # product is with the unit, a window map again
    rng = random.Random(20261018)
    for m in (1, 2, 3, 4, 5):
        u = build_window(m)
        n = len(u.elements)
        naive = _naive_pair_sums(u)
        if m <= 2:
            survivors = list(find_window_automorphisms(u))
            mutants = [_swapped(t, a, b) for t in survivors
                       for a, b in itertools.combinations(range(n), 2)]
        else:
            survivors = (rng.sample(find_window_automorphisms(u), 24) if m == 3
                         else [identity_table(u), negation_table(u)])
            mutants = [_swapped(t, *rng.sample(range(n), 2)) for t in survivors for _ in range(40)]
            mutants += [_swapped(t, *rng.sample(_unit_only(u), 2)) for t in survivors]
        verdicts = [verify_window_map(u, t) for t in mutants]
        assert verdicts == [_naive_verify(naive, t) for t in mutants], f"m={m}"
        assert True in verdicts and False in verdicts, f"m={m}"


def _sum_counts(u):
    """How many in-window pairs of two non-units have each element as sum."""
    unit = u.index[(0,)]
    counts = [0] * len(u.elements)
    for (i, j), k in u.pair_sums.items():
        if unit not in (i, j):
            counts[k] += 1
    return counts


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
        comps = window_group(u)[0]
        assert comps == [c for c in full if up not in c], f"m={m}"
        # from m = 2 to 4 the largest component is every element whose one
        # in-window product is with the unit
        if m >= 2:
            assert max(comps, key=len) == _unit_only(u), f"m={m}"


def test_isolated_elements_touch_only_the_unit():
    # the non-units whose one in-window product is with the unit are exactly
    # the sets spanning the window that are no in-window sum
    for m, count in ((1, 0), (2, 2), (3, 8), (4, 33), (5, 134), (6, 652)):
        u = build_window(m)
        counts = _sum_counts(u)
        spanning = tuple(i for i, e in enumerate(u.elements)
                         if (e.min, e.max) == (-m, m) and counts[i] == 0)
        assert len(spanning) == count and _unit_only(u) == spanning, f"m={m}"
        # {0} is the only idempotent, so every window map fixes it
        assert [i for (i, j), k in u.pair_sums.items() if i == j == k] == [u.index[(0,)]]


def test_sum_count_is_the_factorization_count_and_kept_by_window_maps():
    for m in (1, 2, 3, 4):
        u = build_window(m)
        counts = _sum_counts(u)
        assert counts == [len(factorizations(e)) for e in u.elements], f"m={m}"
        assert counts[u.index[(0,)]] == 0
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
        search.find_window_automorphisms(u)
        monkeypatch.setattr(search, "verify_window_map", real)
        assert seen == collections.Counter(hs) and len(seen) == 2, f"m={m}"
        # the transpositions decided from their own pairs pass the full check
        ident = identity_table(u)
        assert all(real(u, _swapped(ident, c[0], b)) for c in comps for b in c[1:]), f"m={m}"


def _find_with_members(monkeypatch, u, listed, match):
    """Run find_window_automorphisms with window_group returning listed in
    place of H, with the real components and order, and check that it
    raises: find lists the cosets in the order given, without a sort,
    verifying each member once.  Returns the tables it verified."""
    import powermonoid.search as search

    comps, _, order = window_group(u)
    real = search.verify_window_map
    verified = []

    def recording(universe, table):
        verified.append(tuple(table))
        return real(universe, table)

    monkeypatch.setattr(search, "window_group", lambda _: (comps, listed, order))
    monkeypatch.setattr(search, "verify_window_map", recording)
    with pytest.raises(RuntimeError, match=match):
        search.find_window_automorphisms(u)
    return verified


def test_find_refuses_core_maps_out_of_order(monkeypatch):
    # window_group returns H sorted; reversed, the cosets would not ascend
    u = build_window(2)
    _find_with_members(monkeypatch, u, window_group(u)[1][::-1], "interleave")


def test_find_refuses_core_maps_that_would_interleave(monkeypatch):
    # each member listed twice: its two cosets would hold the same tables
    u = build_window(2)
    _find_with_members(monkeypatch, u, window_group(u)[1] * 2, "interleave")


@pytest.mark.parametrize("m", [2, 3])
def test_find_refuses_a_first_row_that_moves_the_largest_component(monkeypatch, m):
    # a twin transposition inside the largest component is a window map,
    # but no member of H, as it descends on that component: its coset would
    # not be listed in order, so find raises once it has verified it
    u = build_window(m)
    largest = max(window_group(u)[0], key=len)
    moved = _swapped(identity_table(u), largest[0], largest[1])
    assert verify_window_map(u, moved)
    verified = _find_with_members(monkeypatch, u, [moved], "ascending on every twin component")
    assert moved in verified


@pytest.mark.parametrize("bad_at", ["first", "last"])
@pytest.mark.parametrize("m", [2, 3])
def test_coset_check_with_a_bad_core(m, bad_at, monkeypatch):
    # H with its first or last member composed with the swap of {0,1} and
    # {0,2}, which moves no twin and is no window map: {0,1} + {0,1} =
    # {0,1,2}, while {0,2} + {0,2} leaves the window.  Find raises
    u = build_window(m)
    listed = list(window_group(u)[1])
    pos = 0 if bad_at == "first" else -1
    listed[pos] = _swapped(listed[pos], u.index[(0, 1)], u.index[(0, 2)])
    assert not verify_window_map(u, listed[pos])
    _find_with_members(monkeypatch, u, listed, "not a window map")


def test_failing_first_row_raises(monkeypatch):
    import powermonoid.search as search

    # the first row of the second coset at m=3 is H's second member, which
    # moves more than two elements, so window_group never verifies it; where
    # the verifier refuses it, find raises, and that table is the one it
    # verified and refused
    u = build_window(3)
    bad = window_group(u)[1][1]
    assert sum(a != b for a, b in enumerate(bad)) > 2
    real = search.verify_window_map
    verified = []

    def rejecting(universe, table):
        verified.append(tuple(table))
        return tuple(table) != bad and real(universe, table)

    monkeypatch.setattr(search, "verify_window_map", rejecting)
    with pytest.raises(RuntimeError, match="not a window map"):
        search.find_window_automorphisms(u)
    assert verified[-1] == bad


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
    # every operation the class docstring lists, on the whole sequence and
    # on views: slices of it, reversed and strided, and slices of those
    slices = (slice(None), slice(None, None, -1), slice(100, 3, -7), slice(-2, None, -5),
              slice(7, 90, 4), slice(None, -1), slice(n, None), slice(5, 50, -1))
    # tables in no coset: one mixing two components, one moving a fixed
    # element, and a list, None and a string, which are no tables
    outside = [_swapped(expected[0], 2, 3), _swapped(expected[0], 0, 2), list(expected[0]),
               None, "x"]
    probes = expected[::29] + expected[-1:] + outside[:2]
    for s in slices:
        view, rows = maps[s], expected[s]
        k = len(rows)
        assert isinstance(view, WindowMaps) and len(view) == k, s
        assert list(view) == rows and list(reversed(view)) == rows[::-1], s
        assert [view[i] for i in range(-k, k)] == rows + rows, s
        for i in (k, k + 5, -k - 1):
            with pytest.raises(IndexError):
                view[i]
        for s2 in slices:
            assert list(view[s2]) == rows[s2], (s, s2)
        # membership bisects over every coset, yet answers for the view alone
        assert [t in view for t in expected] == [t in rows for t in expected], s
        assert all(t not in view for t in outside), s
        for t in probes:
            assert view.count(t) == rows.count(t), (s, t)
            if t in rows:
                assert view.index(t) == rows.index(t), (s, t)
            else:
                with pytest.raises(ValueError):
                    view.index(t)
        assert view == rows and rows == view and not view != rows, s
        assert repr(view) == repr(rows), s
    # == compares elementwise with lists and views only: a tuple of the same
    # rows, or a sequence one row shorter, is another sequence
    assert maps[::-1][::-1] == maps and maps[:0] == [] == maps[5:50:-1]
    assert maps[:-1] != maps and maps[:-1] != expected and expected != maps[:-1]
    assert maps != expected[:-1] and maps != tuple(expected) and tuple(expected) != maps
    with pytest.raises(TypeError):
        hash(maps)
    assert not hasattr(maps, "append") and not hasattr(maps, "sort")
    assert random.Random(5).sample(maps, 24) == random.Random(5).sample(expected, 24)


def _coset_ends(u):
    """The members of H and the last table of each one's coset, which puts
    the images of every twin component in descending order."""
    comps, hs, _ = window_group(u)
    lasts = []
    for h in hs:
        last = h
        for c in comps:
            last = _placed(last, c, [h[x] for x in reversed(c)])
        lasts.append(last)
    return hs, lasts


def _outside(u):
    """The swap of {0,1} and {-1,0,1}: no window map."""
    return _swapped(identity_table(u), u.index[(0, 1)], u.index[(-1, 0, 1)])


# A window's listing: at m=1 nothing moves and each coset is one table, at
# m=2 one twin component moves, at m=3 four.  Every read unranks its row
# alone, so each kind of read must agree with the coset ends at every m, and
# at m <= 2 with list(maps), which criterion 8 checks against the oracle


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_index_slice_and_compare_as_their_list(m):
    u = build_window(m)
    maps = find_window_automorphisms(u)
    firsts, lasts = _coset_ends(u)
    n = len(maps)
    size = n // len(firsts)
    assert maps[::size] == firsts and maps[size - 1::size] == lasts
    assert repr(maps[::size]) == repr(firsts)
    assert (maps[0], maps[-n], maps[n - 1], maps[-1]) == (firsts[0], firsts[0], lasts[-1], lasts[-1])
    for i in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            maps[i]
    assert all(t in maps for t in firsts + lasts) and _outside(u) not in maps
    assert firsts[0] not in maps[1:] and lasts[-1] not in maps[:-1]
    if m <= 2:
        listed = list(maps)
        assert [maps[i] for i in range(-n, n)] == listed + listed
        for s in (slice(1, None, 2), slice(None, -1), slice(5, 70, 3)):
            assert maps[s] == listed[s], s
        assert all(t in maps for t in listed)
        assert maps == listed and repr(maps) == repr(listed)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_read_backwards_as_their_reversed_list(m):
    u = build_window(m)
    maps = find_window_automorphisms(u)
    firsts, lasts = _coset_ends(u)
    size = len(maps) // len(firsts)
    assert maps[::-size] == lasts[::-1] and maps[-size::-size] == firsts[::-1]
    assert list(reversed(maps[::size])) == firsts[::-1] and next(reversed(maps)) == lasts[-1]
    assert maps[::-1][::-1][::size] == firsts
    if m <= 2:
        listed = list(maps)
        assert list(reversed(maps)) == listed[::-1]
        for s in (slice(None, None, -1), slice(-2, None, -3), slice(None, None, -3)):
            assert maps[s] == listed[s] and maps[s][::-1] == listed[s][::-1], s
            assert list(reversed(maps[s])) == listed[s][::-1], s


@pytest.mark.parametrize("m", [1, 2, 3])
def test_window_maps_index_and_count_as_their_list(m):
    u = build_window(m)
    maps = find_window_automorphisms(u)
    firsts, lasts = _coset_ends(u)
    size = len(maps) // len(firsts)
    # index and count read from the start, so at m=3 only a view across the
    # end of the first coset: its last rows and the next coset's first
    lo = max(size - 50, 0)
    view = maps[lo:size + 50]
    k = len(view)
    for v, place in ((view, lambda p: p), (view[::-1], lambda p: k - 1 - p)):
        assert (v.index(lasts[0]), v.index(firsts[1])) == (place(size - 1 - lo), place(size - lo))
        assert v.count(lasts[0]) == v.count(firsts[1]) == 1
        for absent in (_outside(u), list(firsts[1])):
            with pytest.raises(ValueError):
                v.index(absent)
            assert v.count(absent) == 0
    if m <= 2:
        listed = list(maps)
        assert [maps.index(t) for t in listed] == list(range(len(listed)))
        assert [maps[::-1].index(t) for t in listed] == list(range(len(listed)))[::-1]


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


def _placed(table, moved, images):
    t = list(table)
    for x, v in zip(moved, images):
        t[x] = v
    return tuple(t)


def _coset(table, moved):
    """The tables that agree with table off moved and put its images of
    moved on moved in any order, in the lexicographic order of those images."""
    for images in itertools.permutations([table[x] for x in moved]):
        yield _placed(table, moved, images)


def _replaced(t, i, v):
    return t[:i] + (v,) + t[i + 1:]


def _closure_holds(u, t, comp):
    """Whether every table of t's coset over comp passes, by closure: the
    maps of a partial table form a group, so the coset passes iff t and
    each transposition (comp[0] b) do."""
    ident = identity_table(u)
    return verify_window_map(u, t) and all(verify_window_map(u, _swapped(ident, comp[0], b))
                                           for b in comp[1:])


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
    # the oracle's candidates for t_i depend on whether (i, i) is a pair:
    # every self-pair, whose survivors are the n rotations, and exactly one,
    # which fixes 2 and 3 and leaves 0 and 1 free to swap
    rotating = {(i, i): (i + 1) % n for i in range(n)}
    one_double = {(2, 2): 3, (0, 1): 4}
    for table in _random_partial_tables(rng, n, 40) + [rotating, one_double]:
        u = _stand_in_universe(n, table)
        verdicts = {t: _naive_verify(table, t) for t in perms}
        assert {t: verify_window_map(u, t) for t in perms} == verdicts
        assert window_survivors_oracle(u) == [t for t in perms if verdicts[t]]
    counts = [len(window_survivors_oracle(_stand_in_universe(n, t))) for t in (rotating, one_double)]
    assert counts == [n, 2]


def test_coset_check_matches_naive_on_random_partial_tables():
    # the closure rule against naive enumeration of each coset
    rng = random.Random(20261019)
    n = 6
    perms = list(itertools.permutations(range(n)))
    comps = [comp for size in range(4) for comp in itertools.combinations(range(n), size)]
    outcomes = set()
    for table in _random_partial_tables(rng, n, 40):
        u = _stand_in_universe(n, table)
        passing = [t for t in perms if _naive_verify(table, t)]
        firsts = rng.sample(perms, 12) + rng.sample(passing, min(4, len(passing)))
        for comp in comps:
            for first in firsts:
                holds = all(_naive_verify(table, t) for t in _coset(first, comp))
                assert _closure_holds(u, first, comp) == holds, (table, comp, first)
                outcomes.add((len(comp), holds, _naive_verify(table, first)))
                with pytest.raises(ValueError, match="bijection"):
                    _closure_holds(u, _replaced(first, 0, first[-1]), comp)
    # cosets over at most one element hold or fail with their first table;
    # over two or three, cosets hold, and cosets fail with their first table
    # passing: only a failing transposition refuses those
    assert {(0, True, True), (0, False, False), (1, True, True), (1, False, False)} <= outcomes
    assert not {(0, False, True), (1, False, True)} & outcomes
    assert all({(size, True, True), (size, False, True)} <= outcomes for size in (2, 3))


def _check_h(u, comps, hs):
    """H is sorted, and each member is a window map that is rank-monotone
    on the components."""
    assert hs == sorted(set(hs))
    assert all(verify_window_map(u, h) and _rank_monotone(h, comps) == h for h in hs)


def test_twin_quotient_orders():
    # |G| and |H| at m = 1..3, where |G| is the product of |C|! over the
    # components C times |H|, and the listed count
    for m, order in ((1, 2), (2, 4), (3, 645120)):
        u = build_window(m)
        comps, hs, got = window_group(u)
        assert (got, len(hs), len(find_window_automorphisms(u))) == (order, 2, order), f"m={m}"
        _check_h(u, comps, hs)


def test_window_four_group_frozen():
    # at m=4, |G| and H are frozen; d1 and d2 are no products of twin swaps
    # and negation: <T, negation> is <T> and its coset by negation, whose
    # rank-monotone members are the identity and negation's
    u = build_window(4)
    comps, hs, order = window_group(u)
    assert (order, len(hs)) == (G4_ORDER, 8)
    _check_h(u, comps, hs)
    assert hashlib.sha256(repr(hs).encode()).hexdigest() == H4_DIGEST
    inside = {identity_table(u), _rank_monotone(negation_table(u), comps)}
    assert inside <= set(hs)
    for d in _d1_d2(u):
        assert _rank_monotone(d, comps) in hs and _rank_monotone(d, comps) not in inside


def test_prune_matches_no_prune():
    # without pruning, every unused set is a candidate, assuming neither
    # bound transport nor sum counts; the search finds the same components
    # and H, from which the listing is built.  m = 4 is the first window
    # whose H holds more than identity and negation
    for m in (1, 2, 3, 4):
        u = build_window(m)
        assert window_group(u, prune=False) == window_group(u), f"m={m}"


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
