"""Shared test configuration: derandomized hypothesis profile, strategies and seeded pair generators."""

import random

from hypothesis import HealthCheck, settings, strategies as st

from powermonoid import FinSet, ZeroSet, as_zero_set, from_runs

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def finsets(min_value=-50, max_value=50, max_size=12):
    """Strategy for arbitrary nonempty finite integer sets."""
    return st.sets(
        st.integers(min_value=min_value, max_value=max_value),
        min_size=1,
        max_size=max_size,
    ).map(FinSet)


def zero_sets(min_value=-20, max_value=20, max_size=10):
    """Strategy for finite integer sets anchored at 0."""
    return st.sets(
        st.integers(min_value=min_value, max_value=max_value),
        max_size=max_size,
    ).map(lambda s: as_zero_set(s | {0}))


def _random_profile(rng: random.Random, min_runs: int) -> list[tuple[int, int]]:
    """Random run profile containing 0 with min < 0 < max."""
    while True:
        nr = rng.randint(min_runs, min_runs + 3)
        pos = 0
        raw = []
        for _ in range(nr):
            length = rng.randint(1, 4)
            raw.append((pos, pos + length - 1))
            pos += length - 1 + rng.randint(2, 5)
        j0 = rng.randrange(nr)
        lo, hi = raw[j0]
        # anchor 0 strictly inside the overall span
        lo_ok = lo + 1 if j0 == 0 else lo
        hi_ok = hi - 1 if j0 == nr - 1 else hi
        if lo_ok > hi_ok:
            continue
        shift = rng.randint(lo_ok, hi_ok)
        return [(a - shift, b - shift) for a, b in raw]


def random_run_start_pair(rng: random.Random) -> tuple[ZeroSet, ZeroSet]:
    """Seeded (A, B) pair diverging first at a run start, A oriented first."""
    while True:
        profile = _random_profile(rng, 2)
        nr = len(profile)
        u = rng.randint(1, nr - 1)
        lo, hi = profile[u]
        top = min(hi, 0 if lo <= 0 <= hi else hi)
        if lo + 1 > top:
            continue
        delta = rng.randint(1, top - lo)
        b_profile = list(profile)
        b_profile[u] = (lo + delta, hi)
        return as_zero_set(from_runs(profile)), as_zero_set(from_runs(b_profile))


def random_run_end_pair(rng: random.Random) -> tuple[ZeroSet, ZeroSet]:
    """Seeded (A, B) pair diverging first at an interior run end, A oriented first."""
    while True:
        profile = _random_profile(rng, 3)
        nr = len(profile)
        u = rng.randint(1, nr - 2)
        lo, hi = profile[u]
        bottom = max(lo, 0 if lo <= 0 <= hi else lo)
        if bottom > hi - 1:
            continue
        delta = rng.randint(1, hi - bottom)
        b_profile = list(profile)
        b_profile[u] = (lo, hi - delta)
        return as_zero_set(from_runs(profile)), as_zero_set(from_runs(b_profile))
