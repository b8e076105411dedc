#!/usr/bin/env python3
"""Layered benchmark of powermonoid: four closed-loop workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arith --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``arith``, ``factor``, ``window``,
``cli``.  Each is one caller that waits for every result, in one process
and one thread.  The seed makes the inputs; the package sees only them.
A run repeats the workload's fixed operation list for
``round(seconds / nominal round time)`` rounds, at least one, and checks
every result against a plain-Python reference after the timing.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over five fresh processes of the time from process
  start until ``import powermonoid`` is done and the inputs are generated;
- ``wall_s``: time to finish the op list once, taking for each op the
  median of its executions in the run;
- ``op_p50_ms`` and ``op_tail_ms``: median latency per operation, and the
  latency at the highest percentile with at least ten operations beyond it
  (the percentile and sample count are in the details line);
- ``pass_frac``: 1 - fail_frac, where fail_frac is failed / attempted and a
  failure is a wrong result, an exception, a wrong exit code, a timeout or
  invalid output (fail_frac itself is 0 when all is well, and the result
  line carries both counts);
- ``peak_rss_mb``: peak resident memory of the process, or of its children
  for ``cli``.

Timings are scaled to a reference interpreter speed by
:class:`common.Speedometer`, because the host's speed drifts by up to 1.7x
over seconds; the raw figures are in the details line.

``--trace 1`` runs every op of the list once untraced and once traced,
back to back, with a span around every call the benchmark makes into the
package, then the layer probes of ``probes.py``, and prints the per-layer
metrics.  Spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The line before the result is a JSON ``details`` object: interpreter, core
count, git SHA, op-tail percentile, failures, and for traced runs the
scaling fits and the ROADMAP baseline rows.  The last line is the result.
Exit status is 2, with no result, when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time

from common import (
    LAYERS,
    OUT_DIR,
    NullTracer,
    Speedometer,
    SetupError,
    Tracer,
    load_package,
    metadata,
    peak_rss_mb,
    tail,
)
from workloads import WORKLOADS

SETUP_REPEATS = 5

# functions whose call counts the traced run reports
COUNTED = (
    "finset.make_set", "finset.sumset", "finset.kfold",
    "boxing.runs", "boxing.bdim", "boxing.from_runs",
    "monoid.factorizations", "monoid.is_atom",
    "search.build_window", "search.find_window_automorphisms",
    "search.window_survivors_oracle", "search.verify_window_map",
    "autos.absorption_suite", "autos.step_preimage_suite", "autos.rigidity_suite",
    "proofsteps.run_start_witness", "proofsteps.run_end_witness",
    "cli.main", "cli.subprocess",
)


class OpError:
    """Summary standing in for an operation that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def run_op(wl, op, lib, tr, state):
    """One timed operation; returns (start, end, summary of the result).

    Afterwards every live object is moved out of the cyclic collector's
    reach, so the summaries the benchmark keeps do not lengthen the
    collections the next operations trigger.
    """
    with tr.span("bench", "bench.op"):
        t0 = time.perf_counter()
        try:
            raw = wl.run(op, lib, tr, state)
            t1 = time.perf_counter()
            out = t0, t1, wl.summarize(op, raw, state)
        except Exception as exc:  # any failure of the package counts, none stops the run
            out = t0, time.perf_counter(), OpError(exc)
        raw = None
        gc.freeze()
    return out


def run_rounds(wl, ops, lib, rounds: int, state: dict):
    """Untraced closed loop; returns ([(start, end)], [(op index, summary)])."""
    tr = NullTracer()
    spans, summaries = [], []
    for _ in range(rounds):
        for i, op in enumerate(ops):
            t0, t1, summary = run_op(wl, op, lib, tr, state)
            spans.append((t0, t1))
            summaries.append((i, summary))
    return spans, summaries


def run_paired(wl, ops, lib, tr, state: dict):
    """One round where every op runs once untraced and once traced.

    The two runs of an op are back to back, and which goes first alternates
    from op to op, so the difference of the two totals is the tracing
    overhead rather than drift of the machine between two rounds.  Returns
    ``{traced: (spans, summaries)}`` for traced False and True.
    """
    null = NullTracer()
    out = {False: ([], []), True: ([], [])}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t = tr if traced else null
            t.op_id = f"0:{i}"
            state["tracing"] = traced
            t0, t1, summary = run_op(wl, op, lib, t, state)
            out[traced][0].append((t0, t1))
            out[traced][1].append((i, summary))
    return out


def check_all(wl, ops, summaries) -> list[str]:
    cache: dict = {}
    failures = []
    for i, summary in summaries:
        if isinstance(summary, OpError):
            failures.append(summary.reason)
            continue
        try:
            reason = wl.check(ops[i], summary, cache)
        except Exception as exc:  # a malformed result must fail, not crash the check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(reason)
    return failures


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and generate inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def per_op(wl, ops, latencies) -> tuple[list[float], float]:
    """Each execution's latency replaced by the median over executions of its op.

    Every op runs in every round, and the small window ops and the CLI
    argvs also repeat within a round.  Returns the per-execution list and
    its total over one round of the list.
    """
    keys = [wl.key(i, op) for i, op in enumerate(ops)]
    runs: dict = {}
    for j, t in enumerate(latencies):
        runs.setdefault(keys[j % len(ops)], []).append(t)
    typical = {k: statistics.median(v) for k, v in runs.items()}
    per_exec = [typical[keys[j % len(ops)]] for j in range(len(latencies))]
    return per_exec, sum(typical[k] for k in keys)


def untraced(wl, lib, inputs, args, details) -> tuple[dict, int, list[str]]:
    ops = wl.ops(inputs)
    state: dict = {}
    wl.prepare(state)
    rounds = max(1, round(args.seconds / wl.round_s))
    with Speedometer() as speed:
        spans, summaries = run_rounds(wl, ops, lib, rounds, state)
    state.clear()
    peak = peak_rss_mb(children=wl.name == "cli")
    failures = check_all(wl, ops, summaries)
    raw = [t1 - t0 for t0, t1 in spans]
    lat = [speed.scaled(*s) for s in spans]
    typical, wall = per_op(wl, ops, lat)
    tail_ms, pct, n = tail(typical)
    details.update(
        rounds=rounds, raw_wall_s=sum(raw) / rounds, raw_op_p50_ms=statistics.median(raw) * 1e3,
        speed_samples=len(speed.loops), op_tail={"percentile": pct, "samples": n},
    )
    metrics = {
        "setup_s": (measure_setup(wl.name, args.seed), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "pass_frac": (1 - len(failures) / len(lat), "1"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, len(lat), failures


def traced(wl, lib, inputs, args, details) -> tuple[dict, int, list[str]]:
    import probes

    ops = wl.ops(inputs)
    tr = Tracer()
    probe = probes.Probe(lib, tr, args.seed)
    if wl.name != "window":
        # first, so the peak memory read after it is the search's own
        probe.search_m3()
    state: dict = {}
    wl.prepare(state)
    first = len(tr.spans)
    with Speedometer() as speed:
        passes = run_paired(wl, ops, lib, tr, state)
    pass_spans = tr.spans[first:]
    if wl.name == "window":
        t3 = max(s[3] - s[2] for s in pass_spans if s[0] == "search.find_window_automorphisms")
        probe.search_m3(state["m3"] + (t3, state["m3_peak_mb"]))
    state.clear()
    failures = check_all(wl, ops, passes[False][1]) + check_all(wl, ops, passes[True][1])
    probe.run_all()
    failures += probe.problems

    metrics = {f"{layer}.self_s": (0.0, "s") for layer in LAYERS + ("bench",)}
    for layer, t in tr.self_times(pass_spans).items():
        metrics[f"{layer}.self_s"] = (t, "s")
    wall0, wall1 = (sum(speed.scaled(*s) for s in passes[t][0]) for t in (False, True))
    metrics["bench.trace_overhead_s"] = (wall1 - wall0, "s")
    counts = dict.fromkeys(COUNTED, 0)
    busy = {"finset.kfold": 0.0, "monoid.factorizations": 0.0}
    for s in tr.spans:
        if s[0] in counts:
            counts[s[0]] += 1
    for s in pass_spans:
        if s[0] in busy:
            busy[s[0]] += s[3] - s[2]
    for name, n in counts.items():
        metrics[f"{name}.calls"] = (n, "count")
    for name, t in busy.items():
        metrics[f"{name}.busy_s"] = (t, "s")
    metrics.update(probe.metrics)

    details.update(
        untraced_wall_s=wall0, traced_wall_s=wall1, spans=len(tr.spans),
        probe_checks=probe.checks, **probe.details,
    )
    path = OUT_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
    tr.write(path)
    details["span_file"] = str(path.relative_to(OUT_DIR.parent))
    return metrics, 2 * len(ops) + probe.checks, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    try:
        lib = load_package()
        inputs = wl.gen(args.seed)
        if args.setup_only:
            return 0
        details = {"workload": wl.name, "seed": args.seed, "trace": args.trace, **metadata()}
        run = traced if args.trace else untraced
        metrics, attempted, failures = run(wl, lib, inputs, args, details)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details["fail_frac"] = len(failures) / attempted
    details["failures"] = failures[:20]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
