"""Layer probes of the traced run: fixed inputs per layer at two to four sizes.

Each probe times calls into one module's public functions through the
tracer, so its spans land in the same span file as the workload pass.  The
sizes are fixed; the seed only picks elements.  Scaling rows report the
time at each size and the exponent k of a least-squares fit t = c * n**k,
or for the subset sweeps the growth b of t = c * b**n, so a quadratic
codec or an exponential sweep shows as a number, not only as seconds.

``baseline_rows`` sets a few of these figures beside the Baseline section
of ROADMAP.md and flags those that disagree by more than the spread between
repeated measurements of the same row.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import statistics
import subprocess
import sys
import time

import reference as ref
from common import child_env, fit_exponent, peak_rss_mb
from workloads import divergent_pair

ROUNDTRIP_SIZES = (20_000, 40_000, 80_000, 160_000)
SCALE_SIZES = (500, 1000, 2000)
SPARSE_SPAN = 1 << 22
INTERVAL_SIZES = (12, 14, 16)
ATOM_SIZES = (14, 16, 18)
BUILD_SIZES = (4, 5, 6)
LEAF_SAMPLE = 2000
WITNESS_PAIRS = 50
CLI_REPEATS = 3
SUM_REPEATS = 5

# ROADMAP.md, "Baseline (measured 2026-10-17, 2 cores, Python 3.11.7)"
ROADMAP = {
    "decode_interval_160000_s": (1.78 + 0.18, "_from_mask 1.78 s + _bit_mask 0.18 s"),
    "sparse_2000x2000_span_2p22_s": (1.7, "2000x2000 over a 2^22 span"),
    "factorizations_interval16_s": (4.7, "interval of size 16"),
    "is_atom_sparse20_s": (13.7, "sparse set of size 20"),
    "search_m3_s": (35.0, "window search m=3"),
    "search_m3_peak_rss_mb": (364.0, "m=3 search peak RSS, same baseline"),
    "cli_sum_s": (0.12, "powermonoid sum end to end"),
}


class Probe:
    """Timings and counts of one traced run's layer probes."""

    def __init__(self, lib, tr, seed: int):
        self.lib = lib
        self.tr = tr
        self.rng = random.Random(f"probe:{seed}")
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict[str, object] = {}
        self.problems: list[str] = []
        self.checks = 0
        self.samples: dict[str, list[float]] = {}

    def time(self, row: str, layer: str, name: str, fn, *args, **kwargs):
        """One timed call inside a span; returns (seconds, result)."""
        self.tr.op_id = f"probe:{row}"
        t0 = time.perf_counter()
        out = self.tr.call(layer, name, fn, *args, **kwargs)
        return time.perf_counter() - t0, out

    def expect(self, ok: bool, problem: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def scaling(self, key: str, sizes, times) -> float:
        """Power-law fit t = c * n**k; records and returns k."""
        k, c = fit_exponent(sizes, times)
        self.details[key] = {"sizes": list(sizes), "s": times, "exponent": k, "coef": c}
        self.put(f"{key}.exponent", k, "1")
        return k

    def growth(self, key: str, sizes, times) -> float:
        """Exponential fit t = c * b**n for the subset sweeps; records and returns b."""
        k, c = fit_exponent([math.exp(n) for n in sizes], times)
        b = math.exp(k)
        self.details[key] = {"sizes": list(sizes), "s": times, "growth": b, "coef": c}
        self.put(f"{key}.growth", b, "1/elem")
        return b

    # --- finset ---------------------------------------------------------------

    def finset(self) -> None:
        lib, rng = self.lib, self.rng
        values = [rng.randint(-10**6, 10**6) for _ in range(100_000)]
        ts = [self.time("make_set", "finset", "finset.make_set", lib.make_set, values)[0]
              for _ in range(5)]
        self.put("finset.make_set.us_per_elem", statistics.median(ts) / len(values) * 1e6, "us")

        pairs = [(lib.make_set(rng.sample(range(-200, 201), rng.randint(1, 25))),
                  lib.make_set(rng.sample(range(-200, 201), rng.randint(1, 25))))
                 for _ in range(300)]
        ts = [self.time("sumset.small", "finset", "finset.sumset", lib.sumset, x, y)[0]
              for x, y in pairs]
        self.put("finset.sumset.small.p50_us", statistics.median(ts) * 1e6, "us")

        zero = lib.make_set([0])
        times = []
        for n in ROUNDTRIP_SIZES:
            x = lib.make_set(range(n + 1))
            reps = 2 if n == ROUNDTRIP_SIZES[-1] else 1
            ts = []
            for _ in range(reps):
                t, out = self.time(f"roundtrip.{n}", "finset", "finset.sumset", lib.sumset, x, zero)
                self.expect(out == x, f"roundtrip {n}: X + {{0}} != X")
                ts.append(t)
            self.samples["decode_interval_160000_s"] = ts
            times.append(statistics.median(ts))
            self.put(f"finset.sumset.roundtrip.n{n}.s", times[-1], "s")
        self.scaling("finset.sumset.roundtrip", ROUNDTRIP_SIZES, times)

        times = []
        for n in SCALE_SIZES:
            xs, ys = rng.sample(range(4 * n), n), rng.sample(range(4 * n), n)
            t, out = self.time(f"dense.{n}", "finset", "finset.sumset",
                               lib.sumset, lib.make_set(xs), lib.make_set(ys))
            self.expect(set(out) == ref.plain_sum(xs, ys), f"dense sumset {n} wrong")
            times.append(t)
            out_len = len(out)
        self.scaling("finset.sumset.dense", SCALE_SIZES, times)
        self.put("finset.sumset.dense.ns_per_out_elem", times[-1] / out_len * 1e9, "ns")

        times = []
        for n in SCALE_SIZES:
            xs, ys = rng.sample(range(SPARSE_SPAN), n), rng.sample(range(SPARSE_SPAN), n)
            x, y = lib.make_set(xs), lib.make_set(ys)
            reps = 2 if n == SCALE_SIZES[-1] else 1
            ts = []
            for _ in range(reps):
                t, out = self.time(f"sparse.{n}", "finset", "finset.sumset", lib.sumset, x, y)
                ts.append(t)
            self.expect(ref.digest(out.elems) == ref.set_digest(ref.plain_sum(xs, ys)),
                        f"sparse sumset {n} wrong")
            self.samples["sparse_2000x2000_span_2p22_s"] = ts
            times.append(statistics.median(ts))
        self.scaling("finset.sumset.sparse", SCALE_SIZES, times)
        self.put("finset.sumset.sparse.ns_per_pair", times[-1] / SCALE_SIZES[-1] ** 2 * 1e9, "ns")

    # --- boxing ---------------------------------------------------------------

    def boxing(self) -> None:
        lib, rng = self.lib, self.rng
        xs = [v for v in range(160_000) if rng.random() < 0.5]
        x = lib.make_set(xs)
        pairs = ref.plain_runs(xs)
        t_runs, t_from = [], []
        for _ in range(3):
            t, prof = self.time("runs", "boxing", "boxing.runs", lib.runs, x)
            t_runs.append(t)
            t, back = self.time("from_runs", "boxing", "boxing.from_runs", lib.from_runs, pairs)
            t_from.append(t)
        self.expect(list(prof.runs) == pairs and back == x, "runs/from_runs round trip wrong")
        self.put("boxing.runs.ns_per_elem", statistics.median(t_runs) / len(xs) * 1e9, "ns")
        self.put("boxing.from_runs.ns_per_elem", statistics.median(t_from) / len(xs) * 1e9, "ns")

    # --- monoid ---------------------------------------------------------------

    def monoid(self) -> None:
        lib, rng = self.lib, self.rng
        times = []
        for n in INTERVAL_SIZES:
            x = lib.as_zero_set(range(n))
            reps = 2 if n == INTERVAL_SIZES[-1] else 1
            ts = []
            for _ in range(reps):
                t, pairs = self.time(f"factorizations.interval{n}", "monoid",
                                     "monoid.factorizations", lib.factorizations, x)
                ts.append(t)
            self.samples["factorizations_interval16_s"] = ts
            times.append(statistics.median(ts))
            self.put(f"monoid.factorizations.interval{n}.s", times[-1], "s")
        self.expect(all(ref.plain_sum(y, z) == set(x) for y, z in pairs),
                    "interval factorization pair does not sum to X")
        self.growth("monoid.factorizations", INTERVAL_SIZES, times)
        self.put("monoid.factorizations.pairs", len(pairs), "count")
        self.put("monoid.factorizations.us_per_pair", times[-1] / len(pairs) * 1e6, "us")

        nonzero = [v for v in range(-60, 61) if v]
        atom_t, nonatom_t = [], []
        for n in ATOM_SIZES:
            x = lib.as_zero_set([0] + rng.sample(nonzero, n - 1))
            t, atom = self.time(f"is_atom.atom{n}", "monoid", "monoid.is_atom", lib.is_atom, x)
            atom_t.append(t)
            self.put(f"monoid.is_atom.atom.n{n}.s", t, "s")
            self.details[f"is_atom.sparse{n}.atom"] = atom
            y = self._product(n)
            t, atom = self.time(f"is_atom.nonatom{n}", "monoid", "monoid.is_atom", lib.is_atom, y)
            self.expect(atom is False, f"product of size {n} reported as an atom")
            nonatom_t.append(t)
        b = self.growth("monoid.is_atom.atom", ATOM_SIZES, atom_t)
        self.put("monoid.is_atom.atom.busy_s", sum(atom_t), "s")
        self.put("monoid.is_atom.nonatom.busy_s", sum(nonatom_t), "s")
        # ROADMAP quotes size 20, which is too slow to run in every traced run
        self.details["is_atom_sparse20_extrapolated_s"] = atom_t[-1] * b ** (20 - ATOM_SIZES[-1])

    def _product(self, n: int):
        small = [v for v in range(-9, 10) if v]
        while True:
            y = [0] + self.rng.sample(small, self.rng.randint(2, 5))
            z = [0] + self.rng.sample(small, self.rng.randint(2, 5))
            s = ref.plain_sum(y, z)
            if len(s) == n:
                return self.lib.as_zero_set(s)

    # --- search ---------------------------------------------------------------

    def search_m3(self, pass_m3=None) -> None:
        """The m=3 search: time, peak memory, survivor count, a leaf sample.

        ``pass_m3`` is (universe, leaf sample, survivor count, seconds, peak
        RSS) from the window workload's own traced pass, which then is not
        repeated.  Run before anything else allocates, the process peak
        after it is the search's own.
        """
        if pass_m3 is None:
            u3 = self.lib.build_window(3)
            t3, survivors = self.time("find.m3", "search", "search.find_window_automorphisms",
                                      self.lib.find_window_automorphisms, u3)
            count = len(survivors)
            leaves = self.rng.sample(survivors, min(LEAF_SAMPLE, count))
            del survivors
            peak = peak_rss_mb()
        else:
            u3, leaves, count, t3, peak = pass_m3
        self.m3 = (u3, leaves, count, t3)
        self.put("search.find_window_automorphisms.m3.s", t3, "s")
        self.put("search.find_window_automorphisms.m3.peak_rss_mb", peak, "MB")
        self.put("search.survivors.m3", count, "count")

    def search(self) -> None:
        lib = self.lib
        times, sizes = [], []
        for m in BUILD_SIZES:
            t, u = self.time(f"build.m{m}", "search", "search.build_window", lib.build_window, m)
            times.append(t)
            sizes.append(4**m)
            self.put(f"search.build_window.m{m}.s", t, "s")
            self.put(f"search.build_window.m{m}.pairs", len(u.pair_sums), "count")
        self.scaling("search.build_window", sizes, times)

        for m in (1, 2):
            u = lib.build_window(m)
            _, found = self.time(f"find.m{m}", "search", "search.find_window_automorphisms",
                                 lib.find_window_automorphisms, u)
            self.put(f"search.survivors.m{m}", len(found), "count")
        t, oracle = self.time("oracle.m2", "search", "search.window_survivors_oracle",
                              lib.window_survivors_oracle, u)
        self.expect(oracle == found, "oracle differs from the search at m=2")
        self.put("search.window_survivors_oracle.s", t, "s")
        for m, want in ((1, 2), (2, 4), (3, 645120)):
            got = self.metrics[f"search.survivors.m{m}"][0]
            self.expect(got == want, f"m={m}: {got} survivors, expected {want}")

        u3, leaves, count, t3 = self.m3
        # in table order, as the search visits leaves; the faster of two passes
        leaves = sorted(leaves)
        self.tr.op_id = "probe:verify_window_map"
        passes = []
        for _ in range(2):
            t0 = time.perf_counter()
            ok = all([self.tr.call("search", "search.verify_window_map", lib.verify_window_map,
                                   u3, s) for s in leaves])
            passes.append(time.perf_counter() - t0)
        per_leaf = min(passes) / len(leaves)
        self.expect(ok, "a sampled m=3 survivor fails verify_window_map")
        self.put("search.verify_window_map.us_per_leaf", per_leaf * 1e6, "us")
        # share of the m=3 search that per-leaf verification would take
        self.put("search.verify_share", count * per_leaf / t3, "1")

    # --- autos and proofsteps ---------------------------------------------------

    def autos(self) -> None:
        lib = self.lib
        for name, fn, args in (
            ("absorption_suite", lib.absorption_suite, (self.seed, 500)),
            ("step_preimage_suite", lib.step_preimage_suite, ()),
            ("rigidity_suite", lib.rigidity_suite, (self.seed, 500)),
        ):
            t, checks = self.time(name, "autos", f"autos.{name}", fn, *args)
            self.expect(all(c.passed for c in checks), f"{name} reports a failed check")
            self.put(f"autos.{name}.s", t, "s")

    def proofsteps(self) -> None:
        lib = self.lib
        for case, name, fn in ((1, "run_start_witness", lib.run_start_witness),
                               (2, "run_end_witness", lib.run_end_witness)):
            ts = []
            for _ in range(WITNESS_PAIRS):
                a, b = (ref.parse_literal(s) for s in divergent_pair(self.rng, case))
                v = ref.first_divergence(a, b)
                ea, eb = ref.endpoints(a), ref.endpoints(b)
                if (ea[v] > eb[v]) == (case == 1):
                    a, b = b, a
                t, w = self.time(name, "proofsteps", f"proofsteps.{name}", fn,
                                 lib.as_zero_set(a), lib.as_zero_set(b))
                self.expect(w.witness_point in w.lhs and w.witness_point not in w.rhs,
                            f"{name}: witness does not separate")
                ts.append(t)
            self.put(f"proofsteps.{name}.us", statistics.median(ts) * 1e6, "us")

    # --- cli --------------------------------------------------------------------

    def cli(self) -> None:
        """Split each command into subprocess, in-process cli.main and library call."""
        lib = self.lib
        cli = importlib.import_module("powermonoid.cli")
        env = child_env()
        parse = lib.parse_set

        def factor(x):
            z = lib.as_zero_set(parse(x))
            return lib.factorizations(z), lib.is_atom(z)

        def window(m):
            u = lib.build_window(m)
            return lib.find_window_automorphisms(u)

        x, y = ref.fmt(self.rng.sample(range(-20, 21), 6)), ref.fmt(self.rng.sample(range(-20, 21), 6))
        z = ref.fmt({0} | set(self.rng.sample(range(-6, 7), 6)))
        commands = [
            (["sum", x, y], "finset", "finset.sumset", lambda: lib.sumset(parse(x), parse(y))),
            (["kfold", x, "3"], "finset", "finset.kfold", lambda: lib.kfold(parse(x), 3)),
            (["bdim", x], "boxing", "boxing.runs", lambda: lib.runs(parse(x)).bdim),
            (["runs", x], "boxing", "boxing.runs", lambda: lib.runs(parse(x)).to_json()),
            (["apply", "negation", z], "autos", "autos.apply",
             lambda: lib.apply(lib.Negation(), lib.as_zero_set(parse(z)))),
            (["factor", z], "monoid", "monoid.factorizations", lambda: factor(z)),
            (["verify", "lemma22"], "autos", "autos.step_preimage_suite", lib.step_preimage_suite),
            (["search-autos", "--window", "1"], "search", "search.find_window_automorphisms",
             lambda: window(1)),
        ]
        rows, startup, overhead = [], [], []
        for argv, layer, name, direct in commands:
            row = "cli:" + argv[0]
            sub, main, lib_t = [], [], []
            for _ in range(CLI_REPEATS):
                t, proc = self.time(row, "cli", "cli.subprocess", subprocess.run,
                                    [sys.executable, "-m", "powermonoid", *argv],
                                    capture_output=True, env=env, timeout=60)
                sub.append(t)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    t, code = self.time(row, "cli", "cli.main", cli.main, argv)
                main.append(t)
                self.expect(code == proc.returncode == 0 and buf.getvalue().encode() == proc.stdout,
                            f"{' '.join(argv)}: in-process output differs from the subprocess")
                lib_t.append(self.time(row, layer, name, direct)[0])
            s, mn, lb = (statistics.median(v) for v in (sub, main, lib_t))
            rows.append({"argv": argv, "subprocess_ms": s * 1e3, "cli_main_ms": mn * 1e3,
                         "library_ms": lb * 1e3})
            startup.append(s - mn)
            overhead.append(mn - lb)
        self.details["cli_split"] = rows
        self.put("cli.startup_ms", statistics.median(startup) * 1e3, "ms")
        self.put("cli.main_overhead_ms", statistics.median(overhead) * 1e3, "ms")

        ts = []
        for _ in range(SUM_REPEATS):
            t, proc = self.time("cli:sum-baseline", "cli", "cli.subprocess", subprocess.run,
                                [sys.executable, "-m", "powermonoid", "sum", "{-1,0,2}", "{0,1,3}"],
                                capture_output=True, env=env, timeout=60)
            ts.append(t)
        self.samples["cli_sum_s"] = ts

    def run_all(self) -> None:
        """Every probe but the m=3 search, which :meth:`search_m3` ran already."""
        self.finset()
        self.boxing()
        self.monoid()
        self.search()
        self.autos()
        self.proofsteps()
        self.cli()
        self.details["baseline"] = self.baseline_rows()

    # --- baseline -----------------------------------------------------------

    def baseline_rows(self) -> list[dict]:
        """Rows beside the ROADMAP Baseline figures, with a disagreement flag.

        The spread of a row is (max - min) / median of its repeated
        measurements; rows measured once borrow the largest spread of the
        others.  A row is flagged when |measured / ROADMAP - 1| exceeds it.
        """
        measured = {
            "search_m3_s": [self.metrics["search.find_window_automorphisms.m3.s"][0]],
            "search_m3_peak_rss_mb": [self.metrics["search.find_window_automorphisms.m3.peak_rss_mb"][0]],
            "is_atom_sparse20_s": [self.details["is_atom_sparse20_extrapolated_s"]],
            **self.samples,
        }
        spreads = {k: (max(v) - min(v)) / statistics.median(v) for k, v in measured.items() if len(v) > 1}
        fallback = max(spreads.values())
        rows = []
        for key, (figure, what) in ROADMAP.items():
            value = statistics.median(measured[key])
            spread = spreads.get(key, fallback)
            rows.append({
                "case": key, "what": what, "roadmap": figure, "measured": value,
                "ratio": value / figure, "samples": len(measured[key]), "spread": spread,
                "flag": abs(value / figure - 1) > spread,
            })
        return rows
