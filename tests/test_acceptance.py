"""Acceptance gate: the ten headline checks, one reported line each.

Each criterion prints a single PASS/FAIL line with its measured numbers,
then asserts.  Criterion 8 checks the window search against the survivor
group the partial table proves.  The paper's {identity, negation} holds
for the whole monoid, but a window of radius m >= 2 also admits swaps of
elements that no in-window sum tells apart.  So the criterion derives
those transpositions T from the partial table alone, pins them against
their known values, and asserts that the survivors are exactly
<T, negation>: 2, 4 and 645,120 = 8!*2*2^3 maps for m = 1, 2, 3.  It
walks each listing once and stores none of its tables.
"""

import hashlib
import itertools
import math
import operator
import random
import time

from conftest import random_run_end_pair, random_run_start_pair
from powermonoid import (
    Identity,
    MaxReflection,
    Negation,
    absorption_suite,
    apply,
    as_zero_set,
    bdim,
    build_window,
    candidates_with_bounds,
    factorizations,
    find_window_automorphisms,
    identity_table,
    interval,
    is_atom,
    kfold,
    make_set,
    negation_table,
    run_end_witness,
    run_start_witness,
    solve_step_preimage_system,
    sumset,
    sumset_naive,
    verify_homomorphism,
    window_survivors_oracle,
)
from powermonoid.autos import STEP_DOWN, STEP_UP
from test_monoid import _factor_oracle


def _report(line):
    # run with -s (or read the failure output) to see every line live
    print(line)


def _criterion(number, label, failures, elapsed, budget, measured=""):
    ok = not failures and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    detail = "; ".join(failures) if failures else f"{elapsed:.3f}s of {budget:g}s"
    if measured and not failures:
        detail = f"{measured}; {detail}"
    _report(f"{verdict} criterion {number:2d} ({label}): {detail}")
    assert ok, f"criterion {number}: " + (detail if failures else f"over budget: {elapsed:.3f}s")


def test_01_boxing_dimension_example():
    x = make_set([-5, -4, -2, 0, 1, 5, 6, 7])
    bdim(x)  # warm path
    t0 = time.perf_counter()
    got = bdim(x)
    elapsed = time.perf_counter() - t0
    failures = [] if got == 4 else [f"bdim = {got}, expected 4"]
    _criterion(1, "boxing dimension example", failures, elapsed, 0.001)


def test_02_interval_sum_closure():
    rng = random.Random(0)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(1000):
        lo1, hi1 = sorted(rng.randint(-50, 50) for _ in range(2))
        lo2, hi2 = sorted(rng.randint(-50, 50) for _ in range(2))
        if sumset(interval(lo1, hi1), interval(lo2, hi2)) != interval(lo1 + lo2, hi1 + hi2):
            bad += 1
    elapsed = time.perf_counter() - t0
    failures = [] if bad == 0 else [f"{bad} of 1000 interval sums broke closure"]
    _criterion(2, "interval sum closure", failures, elapsed, 1.0)


def test_03_absorption_and_transport():
    t0 = time.perf_counter()
    checks = absorption_suite(seed=0, samples=500)
    elapsed = time.perf_counter() - t0
    failures = [f"{c.name}: {c.witness}" for c in checks if not c.passed]
    _criterion(3, "absorption identity and bound transport", failures, elapsed, 5.0)


def test_04_step_preimage_solver():
    t0 = time.perf_counter()
    sols = solve_step_preimage_system(10)
    elapsed = time.perf_counter() - t0
    proj = {(xm, xp) for *_, xm, xp in sols}
    failures = []
    if proj != {(0, 1), (1, 0)}:
        failures.append(f"projection {sorted(proj)} != {{(0,1),(1,0)}}")
    _criterion(4, "step preimage solver", failures, elapsed, 10.0)


def test_05_gap_atom_and_interval_generation():
    t0 = time.perf_counter()
    failures = []
    if not is_atom(as_zero_set([-1, 0, 2])):
        failures.append("{-1,0,2} not recognized as an atom")
    cands = candidates_with_bounds(-1, 2)
    if len(cands) != 2:
        failures.append(f"candidates_with_bounds(-1,2) gave {len(cands)} sets")
    s1 = sumset(make_set([-1, 0, 2]), make_set([0, 1, 3]))
    if s1 != make_set([-1, 0, 1, 2, 3, 5]) or s1 == interval(-1, 5):
        failures.append(f"first contrast sum wrong: {s1}")
    s2 = sumset(make_set([-1, 0, 2]), make_set([0, 2, 3]))
    if s2 != interval(-1, 5):
        failures.append(f"second contrast sum wrong: {s2}")
    for k in range(9):
        for l in range(9):
            if sumset(kfold(STEP_DOWN, k), kfold(STEP_UP, l)) != interval(-k, l):
                failures.append(f"interval generation failed at k={k}, l={l}")
    elapsed = time.perf_counter() - t0
    _criterion(5, "gap atom and interval generation", failures, elapsed, 2.0)


def test_06_max_reflection_properties():
    rng = random.Random(1)

    def sample(lo):
        n = rng.randint(0, 9)
        return as_zero_set({0} | {rng.randint(lo, 20) for _ in range(n)})

    t0 = time.perf_counter()
    failures = []
    pairs = [(sample(-20), sample(-20)) for _ in range(1000)]
    if not verify_homomorphism(MaxReflection(), pairs):
        failures.append("additivity failed on the sampled pairs")
    anchored = [sample(0) for _ in range(1000)]
    bad = sum(apply(MaxReflection(), apply(MaxReflection(), x)) != x for x in anchored)
    if bad:
        failures.append(f"involution failed on {bad} anchored sets")
    if apply(MaxReflection(), as_zero_set([-1, 0])) != apply(MaxReflection(), as_zero_set([0, 1])):
        failures.append("non-injectivity witness failed")
    elapsed = time.perf_counter() - t0
    _criterion(6, "max-reflection endomorphism properties", failures, elapsed, 2.0)


def test_07_proof_step_witnesses():
    t0 = time.perf_counter()
    failures = []

    w = run_start_witness(as_zero_set([-2, 0, 2, 5]), as_zero_set([-2, 0, 3, 5]))
    if not (w.witness_point == 2 and 2 in w.lhs and 2 not in w.rhs and w.helper == interval(0, 1)):
        failures.append("run-start worked example broke")

    a, b = as_zero_set([-2, 0, 1, 2, 5]), as_zero_set([-2, 0, 1, 5])
    w = run_end_witness(a, b, 11)
    block = interval(5, 11)
    collapse = sumset(a, block)
    if not (
        collapse == sumset(b, block) == interval(3, 16)
        and collapse.min == 3
        and w.witness_point == 2
        and 2 in w.lhs
        and 2 not in w.rhs
    ):
        failures.append("run-end worked example broke")

    rng = random.Random(0)
    for _ in range(200):
        ra, rb = random_run_start_pair(rng)
        ws = run_start_witness(ra, rb)
        if ws.witness_point not in ws.lhs or ws.witness_point in ws.rhs:
            failures.append(f"random run-start witness broke on {ra}, {rb}")
            break
    for _ in range(200):
        ra, rb = random_run_end_pair(rng)
        ws = run_end_witness(ra, rb)
        if ws.witness_point not in ws.lhs or ws.witness_point in ws.rhs:
            failures.append(f"random run-end witness broke on {ra}, {rb}")
            break
    elapsed = time.perf_counter() - t0
    _criterion(7, "proof-step witnesses", failures, elapsed, 10.0)


def _twin_components(u):
    """Components of the window transpositions, derived from the partial table.

    A transposition (a b) of window elements is a window automorphism
    exactly when it maps every in-window triple (i, j, i+j) to another one;
    being a bijection of a finite set, it then maps the triples onto
    themselves.  Transpositions that pass generate Sym(C) on each connected
    component C of their graph, so <T> is the product of those symmetric
    groups.  Only triples touching a or b can move, so only those are
    checked.  Components come back as sorted index tuples, sorted.
    """
    pair_sums = u.pair_sums
    touching = [[] for _ in u.elements]
    for (i, j), k in pair_sums.items():
        for v in {i, j, k}:
            touching[v].append((i, j, k))

    def swaps_cleanly(a, b):
        def s(v):
            return b if v == a else a if v == b else v

        for i, j, k in touching[a] + touching[b]:
            si, sj = s(i), s(j)
            if pair_sums.get((si, sj) if si <= sj else (sj, si)) != s(k):
                return False
        return True

    parent = list(range(len(u.elements)))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in itertools.combinations(range(len(u.elements)), 2):
        if swaps_cleanly(a, b):
            parent[root(a)] = root(b)
    groups = {}
    for v in range(len(u.elements)):
        groups.setdefault(root(v), []).append(v)
    return sorted(tuple(g) for g in groups.values() if len(g) > 1)


# the transposition slack each window is known to have, as element sets
_KNOWN_COMPONENTS = {
    1: [{(-1, 0), (0, 1)}],
    2: [{(-2, -1, 0, 2), (-2, 0, 1, 2)}],
    3: [
        {
            (-3, -2, 0, 3),
            (-3, -1, 0, 3),
            (-3, -2, -1, 0, 3),
            (-3, 0, 1, 3),
            (-3, -1, 0, 1, 3),
            (-3, 0, 2, 3),
            (-3, -2, 0, 2, 3),
            (-3, 0, 1, 2, 3),
        },
        {(-3, 0, 2), (-3, 0, 1, 2)},
        {(-2, -1, 0, 2), (-2, 0, 1, 2)},
        {(-2, 0, 3), (-2, -1, 0, 3)},
    ],
}


# sha256 of the m=3 tables joined as bytes, from the list whose repr digest
# was 84de4b99911f24a2f010a1c48c9a386dd296a28a3550ed8448ca278bf7f8a056
BYTES_DIGEST_3 = "ec3cb3ff1c808af334eaabe66bd34422d37f24729e73502331ba85052b6ff08d"


def _bound_transport(u):
    """A test of one table, a tuple or its bytes, for m <= 4: it sends {0,1}
    to {0,1} or {-1,0}, and every set to a set with the same bounds, negated
    in the second case.
    """
    up, down = u.index[(0, 1)], u.index[(-1, 0)]
    bounds = [(e.min, e.max) for e in u.elements]
    ids = {b: c for c, b in enumerate(sorted(set(bounds)))}
    kept = bytes(ids[b] for b in bounds)
    expected = {up: kept, down: bytes(ids[(-hi, -lo)] for lo, hi in bounds)}
    coded = kept.ljust(256, b"\xff")

    def holds(t) -> bool:
        # byte i of the translate is the bounds class of the image of i
        return bytes(t).translate(coded) == expected.get(t[up])

    return holds


def test_08_window_search_pins_identity_and_negation():
    # The paper's {identity, negation} is the automorphism group of the whole
    # monoid.  A finite window is less constrained: elements that no
    # in-window sum tells apart can be swapped.  The criterion asserts that
    # the search returns exactly G = <T, negation>, with T the window
    # transpositions derived above from the partial table alone.
    failures = []
    t0 = time.perf_counter()
    measured = []
    for m in (1, 2, 3):
        u = build_window(m)
        comps = _twin_components(u)
        names = [{u.elements[i].elems for i in c} for c in comps]
        if sorted(names, key=sorted) != sorted(_KNOWN_COMPONENTS[m], key=sorted):
            failures.append(f"m={m}: transposition components {names} are not the known ones")
        neg = negation_table(u)
        if {frozenset(neg[i] for i in c) for c in comps} != {frozenset(c) for c in comps}:
            failures.append(f"m={m}: negation does not permute the components")

        # t lies in <T> iff it fixes every element off the components and
        # maps each component onto itself; t lies in negation.<T> iff it
        # agrees with negation on the same projection
        moved = {i for c in comps for i in c}
        fixed_of = operator.itemgetter(*(i for i in range(len(u.elements)) if i not in moved))
        comp_of = [operator.itemgetter(*c) for c in comps]

        def shape(t):
            return (fixed_of(t), *(frozenset(g(t)) for g in comp_of))

        cosets = {shape(identity_table(u)), shape(neg)}
        neg_in_t = len(cosets) == 1
        if neg_in_t != (m == 1):  # at m=1 negation is the lone transposition
            failures.append(f"m={m}: negation {'is' if neg_in_t else 'is not'} in <T>")
        order = math.prod(math.factorial(len(c)) for c in comps) * len(cosets)

        survivors = find_window_automorphisms(u)
        measured.append(f"m={m} {len(survivors)} survivors, |G|={order}")
        if identity_table(u) not in survivors or neg not in survivors:
            failures.append(f"m={m}: identity or negation missing")
        # one pass over the listing, keeping only the previous row: rows
        # that strictly ascend repeat none.  Each row, as bytes, which order
        # as the tuples do below 256 elements, is checked against
        # <T, negation> and bound transport, and the rows joined must hash as
        # the oracle's at m <= 2 and as the frozen tables at m = 3
        if m <= 2:
            oracle = b"".join(map(bytes, window_survivors_oracle(u)))
            source, expected = "the unpruned oracle", hashlib.sha256(oracle).hexdigest()
        else:
            source, expected = "the frozen m=3 tables", BYTES_DIGEST_3
        holds, digest = _bound_transport(u), hashlib.sha256()
        previous, count, unordered, outside, unbound = b"", 0, 0, 0, 0
        for row in map(bytes, survivors):
            count += 1
            unordered += row <= previous
            previous = row
            outside += shape(row) not in cosets
            unbound += not holds(row)
            digest.update(row)
        if digest.hexdigest() != expected:
            failures.append(f"m={m}: the survivors differ from {source}")
        if m == 1 and count != 2:
            failures.append(f"m=1: {count} survivors, expected exactly identity and negation")
        if unordered:
            failures.append(f"m={m}: {unordered} survivors do not follow the one before in "
                            "ascending order, so the search may repeat one")
        if outside:
            failures.append(f"m={m}: {outside} survivors lie outside <T, negation>")
        if unbound:
            failures.append(f"m={m}: {unbound} survivors neither keep nor negate every bound")
        if count != order:
            failures.append(f"m={m}: {count} survivors, |<T, negation>| = {order}")
    elapsed = time.perf_counter() - t0
    _criterion(8, "window search survivors", failures, elapsed, 60.0, "; ".join(measured))


def test_09_factorization_examples():
    t0 = time.perf_counter()
    failures = []
    x = as_zero_set([-1, 0, 1, 2])
    got = factorizations(x)
    if len(got) != 3 or got != _factor_oracle(x):
        failures.append(f"factorizations({x}) gave {len(got)} pairs")
    if factorizations(as_zero_set([-1, 0, 2])) != []:
        failures.append("factorizations({-1,0,2}) not empty")
    elapsed = time.perf_counter() - t0
    _criterion(9, "factorization examples", failures, elapsed, 1.0)


def test_10_sumset_dual_path():
    rng = random.Random(2)

    def sample():
        n = rng.randint(1, 25)
        return make_set(rng.randint(-200, 200) for _ in range(n))

    t0 = time.perf_counter()
    bad = 0
    for _ in range(10_000):
        x, y = sample(), sample()
        if sumset(x, y) != sumset_naive(x, y):
            bad += 1
    elapsed = time.perf_counter() - t0
    failures = [] if bad == 0 else [f"{bad} of 10000 pairs disagreed"]
    _criterion(10, "sumset dual-path equivalence", failures, elapsed, 10.0)
