"""Command-line front end for the power-monoid toolkit.

Every subcommand emits a single JSON document on stdout (the default) or a
bare human-readable rendering under ``--output plain``.  Each ``_cmd_*``
returns its JSON payload, its plain lines and its exit code, and
:func:`main` is the one renderer: it alone reads ``--output`` and writes
stdout.  Output is byte-identical for identical argv and seed: no timings,
no timestamps, and insertion-ordered keys throughout.  Exit codes: 0 for
success or an all-pass verification, 1 when a verification reports a
failure, 2 for usage and parse errors, which every command raises as
``ValueError`` before any output.  A reader that closes stdout early
changes none of these: the rest of the output goes to ``os.devnull``, with
no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

# every command parses sets; each imports the rest of the library it runs
# inside the function that runs it, so a process loads only those modules
from .finset import MAX_SHORTHAND, FinSet, kfold, parse_set, sumset

# full map listings are only useful while they are small; the survivor
# count is always exact regardless
MAPS_LIMIT = 64

# verify lemma21 costs about 50 us a sample and lemma23 about 18 us (2-vCPU
# Xeon, CPython 3.11.7): at the cap, lemma21 ran 2.3-3.9 s and lemma23
# 0.85-0.9 s.  A count below 1 would check nothing and still report every
# check as passed.
SAMPLES_MAX = 50_000


def _plain(value) -> str:
    """A value as plain text: bools as true/false, strings bare, else compact JSON."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"))


def _key_lines(payload: dict, keys) -> list[str]:
    """``key: value`` lines for those of keys present in payload, in order."""
    return [f"{key}: {_plain(payload[key])}" for key in keys if key in payload]


def _parse_auto(token: str):
    """The autos map spec a CLI automorphism name stands for."""
    from .autos import Identity, MaxReflection, Negation, Reversal

    # reversal composes negation after its argument, and negation is an
    # involution, so only the parity of the prefixes counts
    depth = 0
    while token.startswith("reversal:"):
        token, depth = token[len("reversal:"):], depth + 1
    match token:
        case "identity":
            spec = Identity()
        case "negation":
            spec = Negation()
        case "max-reflection":
            spec = MaxReflection()
        case _:
            raise ValueError(f"unknown automorphism name: {token!r}")
    return Reversal(spec) if depth % 2 else spec


def _sum(args: argparse.Namespace) -> FinSet:
    x, y = parse_set(args.x), parse_set(args.y)
    # the sum holds at most min(|X| * |Y|, span) elements, and any two
    # shorthand operands span at most 2 * MAX_SHORTHAND - 1 integers.  The
    # slowest sums found under that cap take under 3 s (2-vCPU host)
    size = min(len(x) * len(y), x.max + y.max - x.min - y.min + 1)
    if size > 2 * MAX_SHORTHAND - 1:
        raise ValueError(f"sum of sets of {len(x)} and {len(y)} elements may hold {size} "
                         f"elements, above the cap of {2 * MAX_SHORTHAND - 1}")
    return sumset(x, y)


def _kfold(args: argparse.Namespace) -> str:
    x, k = parse_set(args.x), args.k
    # the fold spans k * (max X - min X) + 1 integers and may fill them all,
    # so the span takes the shorthand cap, as the output size does
    span = k * (x.max - x.min) + 1
    if span > MAX_SHORTHAND:
        raise ValueError(f"kfold of a set of width {x.max - x.min} with k = {k} spans {span} "
                         f"integers, above the cap of {MAX_SHORTHAND}")
    return str(kfold(x, k))


def _runs(args: argparse.Namespace):
    from .boxing import runs

    return runs(parse_set(args.x))


def _apply(args: argparse.Namespace) -> str:
    from .autos import apply

    # apply anchors its argument at 0 itself
    return str(apply(_parse_auto(args.auto), parse_set(args.x)))


# the single-result commands, each printed bare under --output plain
_RESULTS = {
    # the operands are freed before the sum is rendered
    "sum": lambda args: str(_sum(args)),
    "kfold": _kfold,
    "bdim": lambda args: _runs(args).bdim,
    "runs": lambda args: _runs(args).to_json(),
    "apply": _apply,
}


def _cmd_result(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    result = _RESULTS[args.command](args)
    return {"op": args.command, "result": result}, [_plain(result)], 0


def _cmd_factor(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .monoid import UNIT, as_zero_set, factorizations

    x = as_zero_set(parse_set(args.x))
    # a factor can sit in many pairs, so each distinct one is rendered once
    literals: dict[tuple[int, ...], str] = {}

    def literal(y) -> str:
        return literals.get(y.elems) or literals.setdefault(y.elems, str(y))

    pairs = [[literal(y), literal(z)] for y, z in factorizations(x)]
    # a non-unit is an atom iff it has no nontrivial factorization
    payload = {"set": str(x), "atom": x != UNIT and not pairs, "factorizations": pairs}
    return payload, _key_lines(payload, ("set", "atom")) + [f"{y} + {z}" for y, z in pairs], 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    # only the random suites read --samples
    if args.lemma in ("lemma21", "lemma23") and not 1 <= args.samples <= SAMPLES_MAX:
        raise ValueError(f"--samples must be between 1 and {SAMPLES_MAX}")
    if args.lemma == "theorem":
        return _verify_theorem(args)
    from .autos import absorption_suite, rigidity_suite, step_preimage_suite

    match args.lemma:
        case "lemma21":
            checks = absorption_suite(seed=args.seed, samples=args.samples)
        case "lemma22":
            checks = step_preimage_suite()
        case _:
            checks = rigidity_suite(seed=args.seed, samples=args.samples)
    payload = {
        "lemma": args.lemma,
        "checks": [
            {"name": c.name, "pass": c.passed, "witness": c.witness} for c in checks
        ],
    }
    lines = [f"{c.name}: {'pass' if c.passed else 'FAIL'}" for c in checks]
    return payload, lines, 0 if all(c.passed for c in checks) else 1


def _verify_theorem(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    if args.A is None or args.B is None:
        raise ValueError("verify theorem requires --A and --B")
    from .monoid import as_zero_set
    from .proofsteps import OrientationError, run_end_witness, run_start_witness

    a = as_zero_set(parse_set(args.A))
    b = as_zero_set(parse_set(args.B))
    # the padded sums lie in [min, max + reach]: case 1 pads by [[0,d]] with
    # d below the width, and case 2 by a block ending at c, which defaults
    # to at most twice the width
    width = max(a.max, b.max) - min(a.min, b.min)
    reach = width if args.case == 1 else 2 * width if args.c is None else args.c
    span = width + reach + 1
    if span > MAX_SHORTHAND:
        raise ValueError(f"verify theorem case {args.case} pads sets of width {width} into "
                         f"sums spanning up to {span} integers, above the cap of {MAX_SHORTHAND}")

    # the witness builders want the set owning the divergent endpoint first;
    # the CLI tries both orders and annotates when it had to swap
    def build(first, second):
        if args.case == 1:
            return run_start_witness(first, second)
        return run_end_witness(first, second, args.c)

    swapped = False
    try:
        try:
            w = build(a, b)
        except OrientationError:
            swapped = True
            w = build(b, a)
    except ValueError as exc:
        payload = {"case": args.case, "swapped": swapped, "error": str(exc), "pass": False}
        return payload, _key_lines(payload, ("error", "pass")), 1

    ok = w.witness_point in w.lhs and w.witness_point not in w.rhs
    payload = {
        "case": args.case,
        "swapped": swapped,
        "helper": str(w.helper),
        "lhs": str(w.lhs),
        "rhs": str(w.rhs),
        "witness_point": w.witness_point,
        "pass": ok,
    }
    return payload, _key_lines(payload, payload), 0 if ok else 1


def _cmd_search(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .search import (
        LIST_MAX_WINDOW,
        MAX_WINDOW,
        ORACLE_MAX_WINDOW,
        build_window,
        find_window_automorphisms,
        window_survivors_oracle,
    )

    if not 1 <= args.window <= MAX_WINDOW:
        raise ValueError(f"--window must be between 1 and {LIST_MAX_WINDOW}")
    if args.window > LIST_MAX_WINDOW:
        raise ValueError(
            f"--window {args.window} is refused: its survivors include every permutation of "
            f"at least 33 isolated sets, too many to list; search-autos takes windows "
            f"1..{LIST_MAX_WINDOW}"
        )
    if args.oracle and args.window > ORACLE_MAX_WINDOW:
        raise ValueError(
            f"--oracle is exhaustive over bijections; windows above {ORACLE_MAX_WINDOW} are not supported"
        )
    u = build_window(args.window)
    survivors = find_window_automorphisms(u)
    names = [str(e) for e in u.elements]
    payload: dict = {"m": args.window, "survivors": len(survivors), "elements": names}
    payload["maps"] = [[names[k] for k in t] for t in survivors[:MAPS_LIMIT]]
    if len(survivors) > MAPS_LIMIT:
        payload["maps_truncated"] = True
    ok = True
    if args.oracle:
        oracle = window_survivors_oracle(u)
        ok = oracle == survivors
        payload["oracle_survivors"] = len(oracle)
        payload["oracle_matches"] = ok
    keys = ("m", "survivors", "maps_truncated", "oracle_survivors", "oracle_matches")
    return payload, _key_lines(payload, keys), 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("json", "plain"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="powermonoid",
        description="Exact sumset arithmetic and verification in the reduced power monoid of the integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", parents=[common], help="sumset of two sets")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("kfold", parents=[common], help="k-fold sumset of a set")
    p.add_argument("x")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("bdim", parents=[common], help="boxing dimension of a set")
    p.add_argument("x")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("runs", parents=[common], help="maximal-run decomposition of a set")
    p.add_argument("x")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("factor", parents=[common], help="atom test and all two-part factorizations")
    p.add_argument("x")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("apply", parents=[common], help="apply a named automorphism to a set")
    p.add_argument("auto", help="identity | negation | max-reflection | reversal:<name>")
    p.add_argument("x")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("lemma", choices=("lemma21", "lemma22", "lemma23", "theorem"))
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--samples", type=int, default=500,
                   help=f"sample count for randomized suites (1..{SAMPLES_MAX})")
    p.add_argument("--case", type=int, choices=(1, 2), default=1, help="theorem: divergence case")
    p.add_argument("--A", help="theorem: first set")
    p.add_argument("--B", help="theorem: second set")
    p.add_argument("--c", type=int, default=None, help="theorem case 2: padding width")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-autos", parents=[common], help="exhaustive window automorphism search")
    # the cap is search.LIST_MAX_WINDOW, written out so that building the
    # parser imports nothing; a test keeps the two equal
    p.add_argument("--window", type=int, required=True, help="window radius (1..3)")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.output == "json":
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at
        # exit, to devnull, as the recipe in the signal module docs does
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
