#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload factor --seeds 1-10 [--seconds 15]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles and the spread (third minus
first quartile, as a share of the median) beside the bound in
BENCHMARK.json.  A spread above a third of its bound is marked ``!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(seed, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
              "failed", result["failed"], flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        mark = "!" if spread > metric["bound"] / 3 else " "
        print(f"{mark} {metric['name']:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
