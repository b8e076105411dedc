"""The four workloads: seeded inputs, the timed operations, and their checks.

Every workload is one closed loop with one caller: the next operation
starts when the previous one has returned.  A workload is a fixed list of
operations generated from the seed; a run repeats that list for a number
of rounds set by ``--seconds``.  Each workload provides

- ``gen(seed)``: plain JSON-serializable inputs, the same for the same seed;
- ``ops(inputs)``: the operation list of one round;
- ``run(op, lib, tr, state)``: the timed calls into the package;
- ``summarize(op, raw, state)``: a compact record of the result, made
  outside the timed call, holding what the checks need;
- ``check(op, summary, cache)``: None when the result is right, else a
  reason.  It compares against the plain-Python references in
  :mod:`reference`, never against the package itself.

Input sizes are fixed per workload so that the cost of a round barely
depends on the seed; the seed picks the elements.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from bisect import bisect_left
from itertools import combinations

import reference as ref
from common import SCHEMA, child_env, peak_rss_mb

CLI_TIMEOUT_S = 60
LEAF_SAMPLE = 2000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    round_s = 1.0

    def prepare(self, state: dict) -> None:
        """Per-run state the timed calls need, set up outside the timing."""

    def summarize(self, op, raw, state):
        return raw

    def key(self, i: int, op):
        """Identity of an operation: executions with one key repeat one call."""
        return i


# --- arith -------------------------------------------------------------------


class Arith(Workload):
    name = "arith"
    round_s = 5.0

    SMALL_OPS = 250
    SMALL_KINDS = ("sumset", "kfold", "runs", "bdim", "from_runs")
    ROUNDTRIP_SPANS = (10_000, 160_000)
    DENSE_SPANS = (20_000, 80_000)
    RUNS_SPAN = 160_000
    SPARSE = ((2000, 1 << 22, 2000, 1 << 21), (1000, 1 << 21, 500, 1 << 21))

    def gen(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        ops = []
        # sizes cycle through 1..25 for every kind, so only the elements,
        # not the mix of sizes, depend on the seed
        for i in range(self.SMALL_OPS):
            kind = self.SMALL_KINDS[i % len(self.SMALL_KINDS)]
            size = 1 + (i // len(self.SMALL_KINDS)) % 25
            x = rng.sample(range(-200, 201), size)
            op = {"regime": "small", "kind": kind, "x": x}
            if kind == "sumset":
                op["y"] = rng.sample(range(-200, 201), 26 - size)
            elif kind == "kfold":
                op["k"] = 2 + i % 3
            elif kind == "from_runs":
                op = {"regime": "small", "kind": kind, "pairs": [list(p) for p in ref.plain_runs(x)]}
            ops.append(op)
        for n in self.ROUNDTRIP_SPANS:
            lo = rng.randint(-1000, 1000)
            ops.append({"regime": "dense", "kind": "sumset", "x": list(range(lo, lo + n + 1)), "y": [0]})
        for span in self.DENSE_SPANS:
            ops.append({"regime": "dense", "kind": "sumset",
                        "x": _dense(rng, span // 2), "y": _dense(rng, span // 2)})
        big = _dense(rng, self.RUNS_SPAN)
        ops.append({"regime": "dense", "kind": "runs", "x": big})
        ops.append({"regime": "dense", "kind": "bdim", "x": big})
        ops.append({"regime": "dense", "kind": "from_runs",
                    "pairs": [list(p) for p in ref.plain_runs(_dense(rng, self.RUNS_SPAN))]})
        ops.append({"regime": "dense", "kind": "kfold", "x": _dense(rng, 5000), "k": 4})
        for nx, sx, ny, sy in self.SPARSE:
            ops.append({"regime": "sparse", "kind": "sumset",
                        "x": rng.sample(range(sx), nx), "y": rng.sample(range(sy), ny)})
        rng.shuffle(ops)
        return {"ops": ops}

    def ops(self, inputs):
        return inputs["ops"]

    def run(self, op, lib, tr, state):
        kind = op["kind"]
        if kind == "from_runs":
            return tr.call("boxing", "boxing.from_runs", lib.from_runs, op["pairs"])
        x = tr.call("finset", "finset.make_set", lib.make_set, op["x"])
        if kind == "sumset":
            y = tr.call("finset", "finset.make_set", lib.make_set, op["y"])
            return tr.call("finset", "finset.sumset", lib.sumset, x, y)
        if kind == "kfold":
            return tr.call("finset", "finset.kfold", lib.kfold, x, op["k"])
        if kind == "runs":
            return tr.call("boxing", "boxing.runs", lib.runs, x)
        return tr.call("boxing", "boxing.bdim", lib.bdim, x)

    def summarize(self, op, raw, state):
        kind = op["kind"]
        if kind == "runs":
            return ("runs", ref.digest(tuple(r) for r in raw.runs))
        if kind == "bdim":
            return ("int", raw)
        return ("set", ref.digest(raw.elems))

    def check(self, op, summary, cache):
        key = id(op)
        if key not in cache:
            cache[key] = self._expected(op)
        return None if summary == cache[key] else f"{op['regime']} {op['kind']}: wrong result"

    def _expected(self, op):
        kind = op["kind"]
        if kind == "sumset":
            return ("set", ref.set_digest(ref.plain_sum(op["x"], op["y"])))
        if kind == "kfold":
            return ("set", ref.set_digest(ref.plain_kfold(op["x"], op["k"])))
        if kind == "from_runs":
            return ("set", ref.set_digest(ref.plain_from_runs(op["pairs"])))
        runs = ref.plain_runs(op["x"])
        if kind == "runs":
            return ("runs", ref.digest(runs))
        return ("int", len(runs))


def _dense(rng: random.Random, span: int) -> list[int]:
    """About half of the integers in a seeded window of the given span."""
    lo = rng.randint(-span, span)
    out = [v for v in range(lo, lo + span) if rng.random() < 0.5]
    return out or [lo]


# --- factor ------------------------------------------------------------------


class Factor(Workload):
    name = "factor"
    round_s = 5.0

    # several sets of 12 put a block of like-cost ops at the median latency
    SPARSE_SIZES = (8, 10, 12, 12, 12, 12, 13, 14, 15, 16)
    INTERVAL_SIZES = (8, 10, 12, 14, 16)
    PRODUCT_SIZES = (8, 9, 10)
    # the brute-force subset-pair oracle runs up to this size
    ORACLE_MAX = 10

    def gen(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        nonzero = [v for v in range(-60, 61) if v]
        small = [v for v in range(-8, 9) if v]
        ops = []
        for n in self.SPARSE_SIZES:
            ops.append({"family": "sparse", "x": [0] + rng.sample(nonzero, n - 1)})
        for n in self.INTERVAL_SIZES:
            ops.append({"family": "interval", "x": list(range(n))})
        for n in self.PRODUCT_SIZES:
            while True:
                y = [0] + rng.sample(small, rng.randint(1, 3))
                z = [0] + rng.sample(small, rng.randint(1, 3))
                s = ref.plain_sum(y, z)
                if len(s) == n:
                    break
            xs = sorted(s)
            rng.shuffle(xs)
            ops.append({"family": "product", "x": xs})
        rng.shuffle(ops)
        return {"ops": ops}

    def ops(self, inputs):
        return inputs["ops"]

    def run(self, op, lib, tr, state):
        x = tr.call("finset", "finset.make_set", lib.make_set, op["x"])
        x = tr.call("monoid", "monoid.as_zero_set", lib.as_zero_set, x)
        pairs = tr.call("monoid", "monoid.factorizations", lib.factorizations, x)
        atom = tr.call("monoid", "monoid.is_atom", lib.is_atom, x)
        return pairs, atom

    def summarize(self, op, raw, state):
        pairs, atom = raw
        return tuple((y.elems, z.elems) for y, z in pairs), atom

    def check(self, op, summary, cache):
        key = (id(op), summary)
        if key not in cache:
            cache[key] = self._check(op, *summary)
        return cache[key]

    def _check(self, op, pairs, atom):
        x = set(op["x"])
        label = f"{op['family']} |X|={len(x)}"
        if atom is not (len(pairs) == 0):
            return f"{label}: is_atom={atom} but {len(pairs)} factorizations"
        if list(pairs) != sorted(set(pairs)):
            return f"{label}: factorizations unsorted or duplicated"
        for y, z in pairs:
            if y > z or 0 not in y or 0 not in z or y == (0,) or z == (0,):
                return f"{label}: malformed pair {y} + {z}"
            if list(y) != sorted(set(y)) or list(z) != sorted(set(z)):
                return f"{label}: factor not strictly ascending"
            if ref.plain_sum(y, z) != x:
                return f"{label}: {y} + {z} is not X"
        if len(x) <= self.ORACLE_MAX and list(pairs) != ref.factor_pairs(x):
            return f"{label}: differs from the subset-pair oracle"
        return None


# --- window ------------------------------------------------------------------


class Window(Workload):
    name = "window"
    round_s = 40.0

    # build and search of the small windows repeat so the round has enough
    # operations for a latency median and tail
    REPS = 16
    SURVIVORS = {1: 2, 2: 4, 3: 645120}
    PAIR_SAMPLES = 64
    LEAF_SAMPLES = 24

    def gen(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        ops = []
        for _ in range(self.REPS):
            ops += [["build", 1], ["find", 1], ["oracle", 1],
                    ["build", 2], ["find", 2], ["oracle", 2], ["build", 4]]
        ops += [["build", 3], ["find", 3], ["build", 5], ["build", 6]]
        # which pairs and survivor tables the checks sample
        return {"ops": ops, "check_seed": rng.getrandbits(64)}

    def ops(self, inputs):
        return [(kind, m, inputs["check_seed"]) for kind, m in inputs["ops"]]

    def key(self, i, op):
        return op[:2]

    def run(self, op, lib, tr, state):
        kind, m, _ = op
        if kind == "build":
            u = tr.call("search", "search.build_window", lib.build_window, m)
            state[m] = u
            return u
        if kind == "find":
            return tr.call("search", "search.find_window_automorphisms",
                           lib.find_window_automorphisms, state[m])
        return tr.call("search", "search.window_survivors_oracle",
                       lib.window_survivors_oracle, state[m])

    def summarize(self, op, raw, state):
        kind, m, check_seed = op
        rng = random.Random(f"{check_seed}:{kind}:{m}")
        if kind == "build":
            return ("build", m, _check_universe(raw, m, rng, self.PAIR_SAMPLES))
        u = state[m]
        if kind == "oracle":
            return ("oracle", m, len(raw), raw == state.get(("find", m)))
        # keep the small survivor lists for the oracle comparison, and a
        # sample of the m=3 one for the traced run's per-leaf verify timing
        state[("find", m)] = raw if m <= 2 else None
        if m == 3:
            # the high-water mark while only the first m=3 result exists
            state.setdefault("m3_peak_mb", peak_rss_mb())
        if m == 3 and state.get("tracing"):
            leaves = random.Random(f"{check_seed}:leaves").sample(raw, min(LEAF_SAMPLE, len(raw)))
            state["m3"] = (u, leaves, len(raw))
        return ("find", m, len(raw), _check_survivors(u, raw, rng, self.LEAF_SAMPLES))

    def check(self, op, summary, cache):
        kind, m = summary[0], summary[1]
        if kind == "build":
            return summary[2]
        want = self.SURVIVORS[m]
        if summary[2] != want:
            return f"{kind} m={m}: {summary[2]} survivors, expected {want}"
        if kind == "oracle":
            return None if summary[3] else f"oracle m={m}: differs from the search"
        return summary[3]


def _window_subsets(m: int) -> set[tuple[int, ...]]:
    free = [v for v in range(-m, m + 1) if v]
    return {tuple(sorted((0,) + c)) for r in range(len(free) + 1) for c in combinations(free, r)}


def _check_universe(u, m: int, rng: random.Random, samples: int) -> str | None:
    elems = [e.elems for e in u.elements]
    if len(elems) != 4**m or set(elems) != _window_subsets(m):
        return f"build m={m}: window elements wrong"
    # in-window unordered pairs, counted from the bounds alone
    by_bounds: dict[tuple[int, int], int] = {}
    for e in elems:
        by_bounds[(e[0], e[-1])] = by_bounds.get((e[0], e[-1]), 0) + 1
    keys = list(by_bounds.items())
    count = 0
    for a, ((lo1, hi1), n1) in enumerate(keys):
        for (lo2, hi2), n2 in keys[a:]:
            if lo1 + lo2 >= -m and hi1 + hi2 <= m:
                count += n1 * (n1 + 1) // 2 if (lo1, hi1) == (lo2, hi2) else n1 * n2
    if len(u.pair_sums) != count:
        return f"build m={m}: {len(u.pair_sums)} in-window pairs, expected {count}"
    n = len(elems)
    for _ in range(samples):
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        s = ref.plain_sum(elems[i], elems[j])
        inside = min(s) >= -m and max(s) <= m
        k = u.pair_sums.get((i, j))
        if inside != (k is not None) or (inside and set(elems[k]) != s):
            return f"build m={m}: pair ({i},{j}) wrong"
    return None


def _check_survivors(u, tables, rng: random.Random, samples: int) -> str | None:
    m = u.m
    elems = [e.elems for e in u.elements]
    n = len(elems)
    if any(a >= b for a, b in zip(tables, tables[1:])):
        return f"find m={m}: survivors not sorted and distinct"
    index = {e: i for i, e in enumerate(elems)}
    identity = tuple(range(n))
    negation = tuple(index[tuple(sorted(-v for v in e))] for e in elems)
    for name, t in (("identity", identity), ("negation", negation)):
        pos = bisect_left(tables, t)
        if pos == len(tables) or tables[pos] != t:
            return f"find m={m}: {name} missing"
    # in-window products from plain sums, then a seeded sample of survivors
    products = {}
    for i in range(n):
        for j in range(i, n):
            s = ref.plain_sum(elems[i], elems[j])
            if min(s) >= -m and max(s) <= m:
                products[(i, j)] = index[tuple(sorted(s))]
    for t in rng.sample(tables, min(samples, len(tables))):
        if sorted(t) != list(identity):
            return f"find m={m}: survivor is not a bijection"
        for (i, j), k in products.items():
            a, b = sorted((t[i], t[j]))
            if products.get((a, b)) != t[k]:
                return f"find m={m}: survivor breaks {elems[i]} + {elems[j]}"
    return None


# --- cli ---------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    round_s = 5.0

    def gen(self, seed: int) -> dict:
        rng = _rng(self.name, seed)

        def lit(lo=-20, hi=20, n=None, zero=False):
            xs = set(rng.sample(range(lo, hi + 1), n or rng.randint(1, 8)))
            return ref.fmt(xs | {0} if zero else xs)

        a, b = -rng.randint(1, 9), rng.randint(0, 9)
        c, d = rng.randint(-5, 5), rng.randint(6, 12)
        autos = ["identity", "negation", "max-reflection", "reversal:negation",
                 "reversal:max-reflection"]
        pair1 = divergent_pair(rng, 1)
        pair2 = divergent_pair(rng, 2)
        argvs = [
            ["sum", lit(), lit()],
            ["sum", "--output", "plain", "--", f"{a}..{b}", f"{c}..{d}"],
            ["kfold", lit(n=rng.randint(1, 5)), str(rng.randint(2, 5))],
            ["kfold", "--output", "plain", "--", f"{a}..{b}", str(rng.randint(2, 5))],
            ["bdim", lit(), "--output", "plain"],
            ["bdim", lit()],
            ["runs", lit()],
            ["runs", lit(), "--output", "plain"],
            ["apply", rng.choice(autos), lit(zero=True)],
            ["apply", rng.choice(autos), lit(zero=True), "--output", "plain"],
            ["factor", lit(-6, 6, n=rng.randint(4, 9), zero=True)],
            ["factor", lit(-6, 6, n=rng.randint(4, 9), zero=True), "--output", "plain"],
            ["verify", "lemma21", "--seed", str(rng.randint(0, 10**6))],
            ["verify", "lemma22"],
            ["verify", "lemma23", "--seed", str(rng.randint(0, 10**6)), "--output", "plain"],
            ["verify", "theorem", "--case", "1", "--A", pair1[0], "--B", pair1[1]],
            ["verify", "theorem", "--case", "2", "--A", pair2[0], "--B", pair2[1]],
            ["search-autos", "--window", "1", "--oracle"],
            ["search-autos", "--window", "2", "--oracle", "--output", "plain"],
            # a parse error: exit 2 and empty stdout is the right answer
            ["sum", "{" + str(rng.randint(1, 9)) + ",x}", "{0}"],
        ]
        return {"argvs": argvs}

    def ops(self, inputs):
        # every argv runs twice per round; the repeat must be byte-identical
        argvs = [tuple(a) for a in inputs["argvs"]]
        return argvs + argvs

    def key(self, i, argv):
        return argv

    def run(self, argv, lib, tr, state):
        try:
            proc = tr.call("cli", "cli.subprocess", subprocess.run,
                           [sys.executable, "-m", "powermonoid", *argv],
                           capture_output=True, env=state["env"], timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return ("timeout", b"", b"")
        return (proc.returncode, proc.stdout, proc.stderr)

    def prepare(self, state):
        state["env"] = child_env()

    def check(self, argv, summary, cache):
        if "validator" not in cache:
            from jsonschema import Draft202012Validator

            cache["validator"] = Draft202012Validator(json.loads(SCHEMA.read_text()))
        code, out, err = summary
        if code == "timeout":
            return f"{' '.join(argv)}: timed out after {CLI_TIMEOUT_S} s"
        first = cache.setdefault(("stdout", argv), out)
        if out != first:
            return f"{' '.join(argv)}: stdout differs on a repeat"
        key = ("verdict", argv, code, out)
        if key not in cache:
            cache[key] = _check_cli(argv, code, out.decode(), err.decode(), cache["validator"])
        return cache[key]


def _check_cli(argv, code, out: str, err: str, validator) -> str | None:
    label = " ".join(argv)
    plain = "plain" in argv
    args = [a for a in argv if a not in ("--", "--output", "plain", "--oracle")]
    cmd = args[0]
    if cmd == "sum" and args[1].endswith(",x}"):
        ok = code == 2 and out == "" and err.startswith("error:")
        return None if ok else f"{label}: expected a parse error with exit 2"
    if code != 0:
        return f"{label}: exit {code}: {err.strip()[-200:]}"
    if plain:
        want = _plain_reference(args)
        return None if out == want else f"{label}: plain output {out!r}, expected {want!r}"
    lines = out.splitlines()
    if len(lines) != 1:
        return f"{label}: expected one JSON line"
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError:
        return f"{label}: stdout is not JSON"
    if not validator.is_valid(payload):
        return f"{label}: output fails the CLI schema"
    problem = _json_reference(args, payload)
    return f"{label}: {problem}" if problem else None


def _apply(auto: str, x: set[int]) -> set[int]:
    name, _, inner = auto.partition(":")
    if name == "identity":
        return x
    if name == "negation":
        return {-v for v in x}
    if name == "max-reflection":
        return {max(x) - v for v in x}
    return {-v for v in _apply(inner, x)}


def _set_result(args) -> set[int]:
    cmd = args[0]
    if cmd == "sum":
        return ref.plain_sum(ref.parse_literal(args[1]), ref.parse_literal(args[2]))
    if cmd == "kfold":
        return ref.plain_kfold(ref.parse_literal(args[1]), int(args[2]))
    return _apply(args[1], ref.parse_literal(args[2]))


def _factor_lines(x: set[int]):
    pairs = ref.factor_pairs(x)
    return [[ref.fmt(y), ref.fmt(z)] for y, z in pairs]


_SUITE_NAMES = {
    "lemma21": ["absorption-identity-random", "bound-transport-identity",
                "bound-transport-negation"],
    "lemma22": ["projection-pins-unit-steps", "down-branch-forces-unit-image",
                "up-branch-forces-unit-image"],
    "lemma23": ["bounded-candidates-and-atom", "interval-generation",
                "interval-collapse-contrast", "negation-conjugation-fixes-anchored"],
}


def _plain_reference(args) -> str:
    cmd = args[0]
    if cmd in ("sum", "kfold", "apply"):
        return ref.fmt(_set_result(args)) + "\n"
    if cmd == "bdim":
        return f"{len(ref.plain_runs(ref.parse_literal(args[1])))}\n"
    if cmd == "runs":
        runs = [list(r) for r in ref.plain_runs(ref.parse_literal(args[1]))]
        return json.dumps(runs, separators=(",", ":")) + "\n"
    if cmd == "factor":
        x = ref.parse_literal(args[1])
        pairs = _factor_lines(x)
        lines = [f"set: {ref.fmt(x)}", f"atom: {'false' if pairs else 'true'}"]
        return "\n".join(lines + [f"{y} + {z}" for y, z in pairs]) + "\n"
    if cmd == "verify":
        return "".join(f"{name}: pass\n" for name in _SUITE_NAMES[args[1]])
    m = int(args[2])
    n = Window.SURVIVORS[m]
    return f"m: {m}\nsurvivors: {n}\noracle_survivors: {n}\noracle_matches: true\n"


def _json_reference(args, p: dict) -> str | None:
    cmd = args[0]
    if cmd in ("sum", "kfold", "apply"):
        want = {"op": cmd, "result": ref.fmt(_set_result(args))}
    elif cmd == "bdim":
        want = {"op": "bdim", "result": len(ref.plain_runs(ref.parse_literal(args[1])))}
    elif cmd == "runs":
        want = {"op": "runs", "result": [list(r) for r in ref.plain_runs(ref.parse_literal(args[1]))]}
    elif cmd == "factor":
        x = ref.parse_literal(args[1])
        pairs = _factor_lines(x)
        want = {"set": ref.fmt(x), "atom": not pairs, "factorizations": pairs}
    elif cmd == "verify" and args[1] == "theorem":
        return _theorem_problem(args, p)
    elif cmd == "verify":
        return _suite_problem(args, p)
    else:
        return _search_problem(int(args[2]), p)
    return None if p == want else f"got {p}, expected {want}"


def _suite_problem(args, p: dict) -> str | None:
    lemma = args[1]
    if p["lemma"] != lemma or [c["name"] for c in p["checks"]] != _SUITE_NAMES[lemma]:
        return "wrong suite or check names"
    if not all(c["pass"] for c in p["checks"]):
        return "a check failed"
    if lemma == "lemma21":
        seed = int(args[args.index("--seed") + 1])
        if any(c["witness"] != {"seed": seed, "samples": 500, "failures": 0} for c in p["checks"]):
            return "witness does not echo the seed, samples and zero failures"
    if lemma == "lemma22":
        w = p["checks"][0]["witness"]
        if w["projection"] != [[0, 1], [1, 0]] or w["solutions"] != _lemma22_solutions():
            return "step-preimage solutions differ from the reference count"
    return None


_LEMMA22 = []


def _lemma22_solutions() -> int:
    if not _LEMMA22:
        _LEMMA22.append(ref.step_preimage_solutions(10))
    return _LEMMA22[0]


def _theorem_problem(args, p: dict) -> str | None:
    case = int(args[args.index("--case") + 1])
    a = ref.parse_literal(args[args.index("--A") + 1])
    b = ref.parse_literal(args[args.index("--B") + 1])
    v = ref.first_divergence(a, b)
    ea, eb = ref.endpoints(a), ref.endpoints(b)
    # the first set must own the earlier run start (case 1) / later run end (case 2)
    swapped = ea[v] > eb[v] if case == 1 else ea[v] < eb[v]
    first, second = (b, a) if swapped else (a, b)
    if p.get("case") != case or p.get("swapped") is not swapped or p.get("pass") is not True:
        return f"case/swapped/pass fields wrong: {p}"
    helper = ref.parse_literal(p["helper"])
    lhs, rhs = ref.plain_sum(first, helper), ref.plain_sum(second, helper)
    if ref.parse_literal(p["lhs"]) != lhs or ref.parse_literal(p["rhs"]) != rhs:
        return "lhs/rhs are not the padded sums"
    w = p["witness_point"]
    if w not in lhs or w in rhs:
        return "witness point does not separate the padded sums"
    if len(ref.plain_runs(lhs)) >= len(ref.plain_runs(first)):
        return "padding did not lower the boxing dimension"
    return None


def _search_problem(m: int, p: dict) -> str | None:
    free = [v for v in range(-m, m + 1) if v]
    names = []
    for mask in range(1 << len(free)):
        names.append(ref.fmt({0} | {free[i] for i in range(len(free)) if mask >> i & 1}))
    n = Window.SURVIVORS[m]
    if p["m"] != m or p["survivors"] != n or p["elements"] != names:
        return "m, survivor count or element list wrong"
    if len(p["maps"]) != n or p["maps"][0] != names:
        return "maps missing or identity not first"
    neg = [ref.fmt({-v for v in ref.parse_literal(e)}) for e in names]
    if neg not in p["maps"]:
        return "negation map missing"
    if p.get("oracle_survivors") != n or p.get("oracle_matches") is not True:
        return "oracle disagrees"
    return None


def divergent_pair(rng: random.Random, case: int) -> tuple[str, str]:
    """Seeded zero-anchored pair with equal bounds diverging at a run start
    (case 1) or at the end of an interior run (case 2), in random order."""
    while True:
        nruns = rng.randint(2 if case == 1 else 3, 5)
        runs, pos = [], 0
        for _ in range(nruns):
            length = rng.randint(2, 4)
            runs.append([pos, pos + length - 1])
            pos += length - 1 + rng.randint(2, 5)
        u = rng.randint(1, nruns - 1) if case == 1 else rng.randint(1, nruns - 2)
        other = [list(r) for r in runs]
        if case == 1:
            other[u][0] += 1
        else:
            other[u][1] -= 1
        a = ref.plain_from_runs(runs)
        b = ref.plain_from_runs(other)
        shift = rng.choice(sorted(a & b))
        a = {v - shift for v in a}
        b = {v - shift for v in b}
        if not (min(a) < 0 < max(a)):
            continue
        if rng.random() < 0.5:
            a, b = b, a
        return ref.fmt(a), ref.fmt(b)


WORKLOADS = {w.name: w for w in (Arith(), Factor(), Window(), Cli())}
