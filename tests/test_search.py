"""Bounded window search for automorphisms of the partial Cayley table."""

import hashlib
import itertools
import math
import random

import pytest

from powermonoid import (
    FinSet,
    MAX_WINDOW,
    as_table_spec,
    as_zero_set,
    build_window,
    find_window_automorphisms,
    identity_table,
    negation_table,
    sumset_naive,
    verify_window_map,
    window_survivors_oracle,
)
from powermonoid.search import core_automorphisms, isolated_elements

# sha256 of repr(find_window_automorphisms(build_window(m))), from the
# search that walked and verified every leaf
FROZEN_DIGESTS = {
    1: "ac0e5853115b3238c32a841988c0b7a872519ab10791c1f3698078faa1e7d083",
    2: "22856e5355b92013267c20652609c14504e5f474cdaedc048d61052e7f488e62",
    3: "84de4b99911f24a2f010a1c48c9a386dd296a28a3550ed8448ca278bf7f8a056",
}


def _naive_pair_sums(u):
    """The in-window pairs and their sums, from sumset_naive."""
    sets = [FinSet(e) for e in u.elements]
    table = {}
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        # bounds first, so only in-window pairs pay for a naive sum
        if u.los[i] + u.los[j] >= -u.m and u.his[i] + u.his[j] <= u.m:
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


def test_universe_shape():
    for m in (1, 2, 3):
        u = build_window(m)
        assert u.m == m
        assert len(u.elements) == 2 ** (2 * m)
        assert all(0 in e for e in u.elements)
        for e in u.elements:
            assert u.elements[u.index[e.elems]] == e
    with pytest.raises(ValueError):
        build_window(MAX_WINDOW + 1)
    with pytest.raises(ValueError):
        build_window(0)


def test_partial_table_is_exactly_the_in_window_sums():
    # criterion 8 derives its expected survivor group from this table
    for m in (1, 2, 3):
        u = build_window(m)
        sets = [FinSet(e) for e in u.elements]
        expected = {}
        for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
            s = sumset_naive(sets[i], sets[j])
            if s.min >= -m and s.max <= m:
                expected[(i, j)] = u.index[s.elems]
        assert u.pair_sums == expected, f"m={m}"
        # pairs are listed row by row, partners ascending
        assert list(u.pair_sums) == sorted(u.pair_sums), f"m={m}"


def test_identity_and_negation_always_verify():
    for m in (1, 2, 3):
        u = build_window(m)
        assert verify_window_map(u, identity_table(u))
        assert verify_window_map(u, negation_table(u))


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
    # the byte-coded check (m <= 3) and the wide one (m >= 4)
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
        ):
            with pytest.raises(ValueError, match="bijection"):
                verify_window_map(u, bad)


def test_verify_matches_naive_table_on_identity_and_negation():
    # 64 elements at m=3 and 256 at m=4: both sides of the one-byte limit
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
        iso = isolated_elements(u)
        # survivors without the full list: core maps times permutations of iso
        survivors = []
        for core in (core_automorphisms(u) if m <= 3 else [identity_table(u), negation_table(u)]):
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


def test_window_one_survivors():
    u = build_window(1)
    assert find_window_automorphisms(u) == sorted(
        [identity_table(u), negation_table(u)]
    )


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


def test_window_two_extremal_atoms_are_unconstrained():
    u = build_window(2)
    for extremal in ((-2, -1, 0, 2), (-2, 0, 1, 2)):
        i = u.index[extremal]
        i0 = u.index[(0,)]
        for (a, b), k in u.pair_sums.items():
            if i in (a, b):
                assert i0 in (a, b)  # only the unit pairs with it
            if k == i:
                assert i0 in (a, b)  # only the unit-product reaches it


def test_isolated_elements_touch_only_the_unit():
    for m, count in ((1, 0), (2, 2), (3, 8)):
        u = build_window(m)
        unit = u.index[(0,)]
        iso = isolated_elements(u)
        assert len(iso) == count and unit not in iso
        # {0} is the only idempotent, so every window map fixes it
        assert [i for (i, j), k in u.pair_sums.items() if i == j == k] == [unit]
        for (a, b), k in u.pair_sums.items():
            if {a, b, k} & set(iso):
                assert unit in (a, b), f"m={m}: {(a, b)} -> {k}"
        for a, b in itertools.combinations(iso, 2):
            assert verify_window_map(u, _swapped(identity_table(u), a, b))


def test_survivors_are_sym_iso_times_core():
    for m, core_order in ((1, 2), (2, 2)):
        u = build_window(m)
        iso = isolated_elements(u)
        cores = core_automorphisms(u)
        assert len(cores) == core_order
        assert cores == core_automorphisms(u, prune=False)
        assert all(core[i] == i for core in cores for i in iso)
        survivors = find_window_automorphisms(u)
        assert len(survivors) == math.factorial(len(iso)) * len(cores)
        assert survivors == find_window_automorphisms(u, prune=False)
        assert hashlib.sha256(repr(survivors).encode()).hexdigest() == FROZEN_DIGESTS[m]


def test_window_three_survivors_frozen():
    u = build_window(3)
    iso = isolated_elements(u)
    digests = {}
    for prune in (True, False):
        cores = core_automorphisms(u, prune)
        assert len(cores) == 16
        survivors = find_window_automorphisms(u, prune)
        assert len(survivors) == math.factorial(len(iso)) * len(cores) == 645120
        if prune:
            assert hashlib.sha256(repr(survivors).encode()).hexdigest() == FROZEN_DIGESTS[3]
        # a cheaper digest compares the two lists without holding both
        digests[prune] = hashlib.sha256(b"".join(map(bytes, survivors))).hexdigest()
        del survivors
    assert digests[True] == digests[False]


def test_every_reported_table_is_verified(monkeypatch):
    import powermonoid.search as search

    u = build_window(2)
    seen = []
    rejected = negation_table(u)

    def recording(universe, table):
        seen.append(table)
        return table != rejected

    monkeypatch.setattr(search, "verify_window_map", recording)
    got = search.find_window_automorphisms(u)
    assert len(got) == 3 and rejected not in got
    assert set(got) <= set(seen)


def test_prune_matches_no_prune_and_oracle():
    for m in (1, 2):
        u = build_window(m)
        pruned = find_window_automorphisms(u, prune=True)
        assert pruned == find_window_automorphisms(u, prune=False)
        assert pruned == window_survivors_oracle(u)


def test_oracle_window_cap():
    with pytest.raises(ValueError):
        window_survivors_oracle(build_window(3))


def test_search_is_deterministic():
    u = build_window(2)
    assert find_window_automorphisms(u) == find_window_automorphisms(u)


def test_as_table_spec_round_trip():
    u = build_window(1)
    t = as_table_spec(u, negation_table(u))
    assert t.image_of(as_zero_set([0, 1])) == as_zero_set([-1, 0])
    assert t.image_of(as_zero_set([-1, 0, 1])) == as_zero_set([-1, 0, 1])
