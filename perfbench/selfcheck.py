#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

- The same seed gives byte-identical inputs, in this process and in a
  fresh one; a different seed gives different inputs.
- A planted wrong answer raises the failure fraction: each workload runs a
  cheap subset of its operations once against the real package (no
  failures expected) and once with one package function replaced by a
  version that returns a wrong result (failures expected).

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import types

from common import inputs_bytes, load_package
from run import check_all, run_rounds
from workloads import WORKLOADS

SEEDS = (1, 2)


def inputs_digest(workload: str, seed: int) -> str:
    return hashlib.sha256(inputs_bytes(WORKLOADS[workload].gen(seed))).hexdigest()


def fail_frac(wl, ops, lib) -> float:
    state: dict = {}
    wl.prepare(state)
    _, summaries = run_rounds(wl, ops, lib, 1, state)
    return len(check_all(wl, ops, summaries)) / len(summaries)


def planted(lib) -> dict[str, types.SimpleNamespace]:
    """Copies of the package namespace with one function giving wrong answers."""
    def extra_element(x, y):
        out = lib.sumset(x, y)
        return lib.make_set(out.elems + (out.max + 1,))

    def lose_last_pair(x):
        return lib.factorizations(x)[:-1]

    def lose_last_survivor(u):
        return lib.find_window_automorphisms(u)[:-1]

    def patched(**overrides):
        ns = types.SimpleNamespace(**vars(lib))
        vars(ns).update(overrides)
        return ns

    return {
        "arith": patched(sumset=extra_element),
        "factor": patched(factorizations=lose_last_pair),
        "window": patched(find_window_automorphisms=lose_last_survivor),
    }


def cheap_ops(name: str, inputs) -> list:
    ops = WORKLOADS[name].ops(inputs)
    if name == "arith":
        return [op for op in ops if op["regime"] == "small"]
    if name == "factor":
        return [op for op in ops if len(op["x"]) <= 12]
    if name == "window":
        return [op for op in ops if op[1] <= 2][:6]
    return ops[:3]


def cli_planted(wl, ops, lib) -> float:
    """Run a few argvs, then corrupt one stdout and one exit code."""
    state: dict = {}
    wl.prepare(state)
    _, summaries = run_rounds(wl, ops, lib, 1, state)
    (i, (code, out, err)), (j, (code2, out2, err2)) = summaries[0], summaries[1]
    bad = [(i, (code, out.replace(b"}", b",999}", 1), err)), (j, (1, out2, err2))]
    return len(check_all(wl, ops, bad)) / len(bad)


def main() -> int:
    problems = []
    for name in WORKLOADS:
        a, b = (inputs_digest(name, s) for s in SEEDS)
        if inputs_digest(name, SEEDS[0]) != a:
            problems.append(f"{name}: same seed, different inputs in one process")
        fresh = subprocess.run(
            [sys.executable, "-c",
             f"import selfcheck; print(selfcheck.inputs_digest({name!r}, {SEEDS[0]}))"],
            capture_output=True, text=True, cwd=sys.path[0], timeout=120,
        ).stdout.strip()
        if fresh != a:
            problems.append(f"{name}: same seed, different inputs in a fresh process")
        if a == b:
            problems.append(f"{name}: seeds {SEEDS} give the same inputs")
        print(f"{name}: seed {SEEDS[0]} inputs sha256 {a[:16]}, seed {SEEDS[1]} {b[:16]}")

    lib = load_package()
    wrong = planted(lib)
    for name, wl in WORKLOADS.items():
        ops = cheap_ops(name, wl.gen(SEEDS[0]))
        clean = fail_frac(wl, ops, lib)
        bad = cli_planted(wl, ops, lib) if name == "cli" else fail_frac(wl, ops, wrong[name])
        print(f"{name}: fail_frac {clean:.3f} clean, {bad:.3f} with a planted wrong answer")
        if clean != 0:
            problems.append(f"{name}: failures against the real package")
        if bad <= clean:
            problems.append(f"{name}: a planted wrong answer did not raise fail_frac")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
