"""Shared pieces of the benchmark: locating the package, tracing, statistics.

Nothing here imports powermonoid at module level; :func:`load_package`
does it explicitly, from the ``src`` directory of the checkout this file
sits in, so a copy of the benchmark without the package fails loudly
instead of picking up some other installed copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "cli-output.schema.json"
OUT_DIR = ROOT / ".bench_out"

LAYERS = ("finset", "boxing", "monoid", "autos", "proofsteps", "search", "cli")


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_package():
    """Import powermonoid from this checkout's ``src`` and return it."""
    init = SRC / "powermonoid" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no powermonoid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import powermonoid

    if Path(powermonoid.__file__).resolve() != init.resolve():
        raise SetupError(f"imported powermonoid from {powermonoid.__file__}, not {init}")
    return powermonoid


def child_env() -> dict:
    """Environment for subprocesses: the checkout's package first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def inputs_bytes(inputs) -> bytes:
    """Canonical serialization of generated inputs, for the seed checks."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


# --- tracing ---------------------------------------------------------------


class NullTracer:
    """Untraced runs: call straight through."""

    op_id = None

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, layer, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans recorded in memory around calls made from the benchmark.

    A span is ``[name, layer, start, end, parent, op_id, index]``; ``parent``
    is the index of the enclosing span or None.  Spans are written out only
    at the end of the run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    def span(self, layer, name):
        return _Span(self, layer, name)

    def call(self, layer, name, fn, *args, **kwargs):
        with _Span(self, layer, name):
            return fn(*args, **kwargs)

    def self_times(self, spans) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = {}
        for s in spans:
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2]) - child[s[6]]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, layer, start, end, parent, op_id, idx in self.spans:
                fh.write(json.dumps({
                    "id": idx, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "op": op_id,
                }) + "\n")


class _Span:
    __slots__ = ("tr", "rec")

    def __init__(self, tr: Tracer, layer: str, name: str):
        self.tr = tr
        stack = tr._stack
        self.rec = [name, layer, 0.0, 0.0, stack[-1] if stack else None, tr.op_id, len(tr.spans)]

    def __enter__(self):
        tr = self.tr
        tr.spans.append(self.rec)
        tr._stack.append(self.rec[6])
        self.rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tr._stack.pop()
        return False


# --- host speed ----------------------------------------------------------------


class Speedometer:
    """Scales timings to a fixed reference speed of the interpreter.

    The host this benchmark was tuned on alternates between a fast phase
    and phases up to 1.7 times slower, in stretches from a tenth of a second
    to longer than a run, so raw timings of the same code differ by a third
    between runs.  While active, a timer signal every PERIOD_S seconds times
    a fixed piece of plain Python (set, sort, dict and big-integer work, as
    in the package, but none of its code).  A span [t0, t1] is then reported
    as its length minus the samples taken inside it, times REF_S over the
    mean sample time inside it (or of the nearest samples, for short
    spans): the time the span would have taken at the reference speed.
    """

    PERIOD_S = 0.05
    # sample time in the fast phase of the 2-vCPU, 2.1 GHz host, CPython 3.11
    REF_S = 0.0006
    NEAREST = 2

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        for k in range(10):
            s = {(i * 7919 + k) % 2003 for i in range(150)}
            ranked = {v: i for i, v in enumerate(sorted(s))}
            mask = 0
            for v in list(ranked)[:50]:
                mask |= 1 << (v & 511)
        self.starts.append(t0)
        self.loops.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] at the reference speed, the sampling taken out."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        inside = self.loops[lo:hi]
        if inside:
            return (t1 - t0 - sum(inside)) * self.REF_S / statistics.fmean(inside)
        near = self.loops[max(0, lo - self.NEAREST // 2):lo + self.NEAREST // 2]
        return (t1 - t0) * self.REF_S / statistics.fmean(near)


# --- statistics --------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  With n samples that is the
    (n-10)-th smallest, the p = 100*(n-10)/n percentile; fewer than 11
    samples have no such percentile and give the maximum at p = 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def fit_exponent(sizes, times) -> tuple[float, float]:
    """Least-squares fit of t = c * n**k on log scales; returns (k, c)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-12)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    k = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return k, math.exp(my - k * mx)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metadata() -> dict:
    """Interpreter, core count and source identity recorded with each result."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "powermonoid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }
