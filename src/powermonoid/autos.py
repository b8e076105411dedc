"""Canonical maps on zero-anchored sets and the rigidity machinery.

The maps that matter are few: the identity, negation X -> -X, reflection
through the maximum X -> max X - X, reversal (negation composed after any
map), and explicit lookup tables.  Negation is an automorphism of the
reduced power monoid over Z; reflection through the maximum is additive
everywhere but injective only on sets anchored at 0 from below, which is
exactly the wedge the uniqueness argument drives into every other would-be
automorphism.

The numbered verification suites at the bottom mechanize the supporting
identities: bound transport from the images of the two unit steps, the
absorption identity behind it, the Diophantine system pinning the preimage
of a unit step, and the structural facts that force rigidity.
"""

from __future__ import annotations

import random

from .finset import FinSet, _as_int, _Record, bounds, interval, kfold, reflect, sumset
from .monoid import ZeroSet, as_zero_set, candidates_with_bounds, is_atom

STEP_UP = ZeroSet((0, 1))
STEP_DOWN = ZeroSet((-1, 0))


class Identity(_Record):
    __slots__ = ()


class Negation(_Record):
    __slots__ = ()


class MaxReflection(_Record):
    """X -> max X - X.  Additive on all zero-anchored sets, an involution
    only on those with minimum 0."""

    __slots__ = ()


class Reversal(_Record):
    """Negation composed after another map."""

    __slots__ = ("inner",)

    def __init__(self, inner: Auto):
        super().__init__(inner)


class Table:
    """Explicit map given by (source, image) pairs; must be injective."""

    __slots__ = ("_map",)

    def __init__(self, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        m: dict[ZeroSet, ZeroSet] = {}
        images: set[ZeroSet] = set()
        for src, img in items:
            src, img = as_zero_set(src), as_zero_set(img)
            if m.get(src, img) != img:
                raise ValueError(f"conflicting images for {src}")
            if src not in m and img in images:
                raise ValueError("table is not injective")
            m[src] = img
            images.add(img)
        self._map = m

    def image_of(self, x: ZeroSet) -> ZeroSet:
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(f"set not in table domain: {x}") from None


Auto = Identity | Negation | MaxReflection | Reversal | Table


def apply(auto: Auto, x: FinSet) -> ZeroSet:
    """Apply a map spec to a zero-anchored set."""
    x = as_zero_set(x)
    match auto:
        case Identity():
            return x
        case Negation():
            return as_zero_set(reflect(x, 0))
        case MaxReflection():
            return as_zero_set(reflect(x, x.max))
        case Reversal(inner):
            return as_zero_set(reflect(apply(inner, x), 0))
        case Table():
            return auto.image_of(x)
    raise TypeError(f"not a map spec: {auto!r}")


def verify_homomorphism(auto: Auto, pairs) -> bool:
    """Check apply(f, X+Y) == apply(f, X) + apply(f, Y) over the given pairs."""
    for x, y in pairs:
        x, y = as_zero_set(x), as_zero_set(y)
        if apply(auto, sumset(x, y)) != sumset(apply(auto, x), apply(auto, y)):
            return False
    return True


class BoundTransport(_Record):
    """How a map moves set bounds, read off the images of the unit steps.

    up_min/up_max bound the image of {0,1}; down_min/down_max the image of
    {-1,0}.  Additivity makes the transport linear: a set X with bounds
    (-x_minus, x_plus) must land on a set with

        min = down_min*x_minus + up_min*x_plus
        max = down_max*x_minus + up_max*x_plus
    """

    __slots__ = ("up_min", "up_max", "down_min", "down_max")

    def __init__(self, up_min: int, up_max: int, down_min: int, down_max: int):
        ok = (
            up_min <= 0 <= up_max
            and down_min <= 0 <= down_max
            and up_max - up_min > 0
            and down_max - down_min > 0
        )
        if not ok:
            raise ValueError("not a valid image pair")
        super().__init__(up_min, up_max, down_min, down_max)


def transport_from_images(img_up: FinSet, img_down: FinSet) -> BoundTransport:
    """BoundTransport from the images of {0,1} and {-1,0}."""
    up, down = as_zero_set(img_up), as_zero_set(img_down)
    return BoundTransport(up.min, up.max, down.min, down.max)


def predict_bounds(t: BoundTransport, x_minus: int, x_plus: int) -> tuple[int, int]:
    """Predicted (min, max) of the image of a set with bounds (-x_minus, x_plus)."""
    if x_minus < 0 or x_plus < 0:
        raise ValueError("x_minus and x_plus must be nonnegative")
    return (
        t.down_min * x_minus + t.up_min * x_plus,
        t.down_max * x_minus + t.up_max * x_plus,
    )


def check_absorption_identity(x: FinSet, k: int) -> bool:
    """The padding identity behind bound transport.

    X + k*{-1,0} + k*{0,1} == (k+x_minus)*{-1,0} + (k+x_plus)*{0,1}
    whenever k >= max(x_minus, x_plus); smaller k is a precondition error.
    """
    x = as_zero_set(x)
    x_minus, x_plus = -x.min, x.max
    if k < max(x_minus, x_plus):
        raise ValueError("k must be at least max(-min X, max X)")
    lhs = sumset(sumset(x, kfold(STEP_DOWN, k)), kfold(STEP_UP, k))
    rhs = sumset(kfold(STEP_DOWN, k + x_minus), kfold(STEP_UP, k + x_plus))
    return lhs == rhs


def solve_step_preimage_system(bound: int) -> list[tuple[int, int, int, int, int, int]]:
    """Exhaust the system pinning which bounds a preimage of {0,1} can have.

    Solves  c*x_minus + a*x_plus == 0  and  d*x_minus + b*x_plus == 1  over
    0..bound with a+b > 0, c+d > 0, x_minus+x_plus > 0, where (a, b) are the
    drop/rise of the image of {0,1}, (c, d) of {-1,0}, and (-x_minus, x_plus)
    the bounds of the candidate preimage.  Returns sorted
    (a, b, c, d, x_minus, x_plus) tuples.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rng = range(bound + 1)
    sols = []
    for xm in rng:
        for xp in rng:
            if xm == 0 and xp == 0:
                continue
            eq_zero = [(c, a) for c in rng for a in rng if c * xm + a * xp == 0]
            eq_one = [(d, b) for d in rng for b in rng if d * xm + b * xp == 1]
            for c, a in eq_zero:
                for d, b in eq_one:
                    if a + b > 0 and c + d > 0:
                        sols.append((a, b, c, d, xm, xp))
    sols.sort()
    return sols


class CheckResult(_Record):
    """One named sub-check of a verification suite."""

    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: dict):
        super().__init__(name, passed, witness)


def _random_zero_set(rng: random.Random, lo: int, hi: int) -> ZeroSet:
    extra = rng.randint(0, min(10, hi - lo))
    elems = {0} | {rng.randint(lo, hi) for _ in range(extra)}
    return ZeroSet(elems)


def _require_samples(samples: int) -> int:
    samples = _as_int(samples, "samples must be an integer")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


def absorption_suite(seed: int = 0, samples: int = 500) -> list[CheckResult]:
    """Random-instance checks of the absorption identity and bound transport.

    Raises ValueError for ``samples < 1``, which would check nothing, and
    TypeError for a bool or any other non-int seed or samples.
    """
    seed = _as_int(seed, "seed must be an integer")
    samples = _require_samples(samples)
    rng = random.Random(seed)
    sets = [_random_zero_set(rng, -20, 20) for _ in range(samples)]
    t_id = transport_from_images(STEP_UP, STEP_DOWN)
    t_neg = transport_from_images(apply(Negation(), STEP_UP), apply(Negation(), STEP_DOWN))

    identity_fails = sum(
        not check_absorption_identity(x, max(-x.min, x.max)) for x in sets
    )
    id_fails = sum(predict_bounds(t_id, -x.min, x.max) != bounds(x) for x in sets)
    neg_fails = sum(
        predict_bounds(t_neg, -x.min, x.max) != bounds(apply(Negation(), x)) for x in sets
    )
    return [
        CheckResult(
            "absorption-identity-random",
            identity_fails == 0,
            {"seed": seed, "samples": samples, "failures": identity_fails},
        ),
        CheckResult(
            "bound-transport-identity",
            id_fails == 0,
            {"seed": seed, "samples": samples, "failures": id_fails},
        ),
        CheckResult(
            "bound-transport-negation",
            neg_fails == 0,
            {"seed": seed, "samples": samples, "failures": neg_fails},
        ),
    ]


def step_preimage_suite(bound: int = 10) -> list[CheckResult]:
    """Exhaustive check that the preimage system only admits the unit steps."""
    sols = solve_step_preimage_system(bound)
    proj = {(xm, xp) for *_, xm, xp in sols}
    down = [s for s in sols if s[4] == 1]
    up = [s for s in sols if s[5] == 1]
    return [
        CheckResult(
            "projection-pins-unit-steps",
            proj == {(0, 1), (1, 0)},
            {"bound": bound, "solutions": len(sols), "projection": sorted(proj)},
        ),
        CheckResult(
            "down-branch-forces-unit-image",
            all(s[2] == 0 and s[3] == 1 and s[5] == 0 for s in down),
            {"tuples": len(down)},
        ),
        CheckResult(
            "up-branch-forces-unit-image",
            all(s[0] == 0 and s[1] == 1 and s[4] == 0 for s in up),
            {"tuples": len(up)},
        ),
    ]


def rigidity_suite(seed: int = 0, samples: int = 500) -> list[CheckResult]:
    """The structural facts that force rigidity, as named sub-checks.

    Failures are reported in the results, not raised.  Raises ValueError
    for ``samples < 1``, which would leave only the fixed probe, and
    TypeError for a bool or any other non-int seed or samples.
    """
    seed = _as_int(seed, "seed must be an integer")
    samples = _require_samples(samples)
    checks = []

    cands = candidates_with_bounds(-1, 2)
    expected = [ZeroSet((-1, 0, 2)), ZeroSet((-1, 0, 1, 2))]
    ok = cands == expected and is_atom(expected[0]) and not is_atom(expected[1])
    checks.append(
        CheckResult(
            "bounded-candidates-and-atom",
            ok,
            {"candidates": [str(c) for c in cands]},
        )
    )

    bad = [
        (k, l)
        for k in range(9)
        for l in range(9)
        if interval(-k, l) != sumset(kfold(STEP_DOWN, k), kfold(STEP_UP, l))
    ]
    checks.append(
        CheckResult("interval-generation", not bad, {"range": 8, "failures": bad[:5]})
    )

    gap_atom = ZeroSet((-1, 0, 2))
    s1 = sumset(gap_atom, ZeroSet((0, 1, 3)))
    s2 = sumset(gap_atom, ZeroSet((0, 2, 3)))
    full = interval(-1, 5)
    checks.append(
        CheckResult(
            "interval-collapse-contrast",
            s1 != full and s2 == full,
            {"first_sum": str(s1), "second_sum": str(s2), "interval": str(full)},
        )
    )

    rng = random.Random(seed)
    fails = 0
    probes = [STEP_UP] + [
        as_zero_set({0} | {rng.randint(1, 12) for _ in range(rng.randint(0, 8))})
        for _ in range(samples)
    ]
    for x in probes:
        neg = apply(Negation(), x)
        table = Table({neg: neg})
        got = apply(Negation(), apply(table, apply(Negation(), x)))
        if got != x:
            fails += 1
    checks.append(
        CheckResult(
            "negation-conjugation-fixes-anchored",
            fails == 0,
            {"seed": seed, "samples": len(probes), "failures": fails},
        )
    )
    return checks
