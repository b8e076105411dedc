"""Exact computation in the finitary power monoid of the integers.

The package works with finite sets of integers under the Minkowski sum
X + Y = {x + y}, concentrating on the reduced monoid of sets that contain 0.
It provides:

- finset: the FinSet value type, the sumset and its naive oracle, k-fold
  sums, translation and reflection, the set literal grammar.
- boxing: run decomposition and the boxing dimension.
- monoid: ZeroSets, atoms, exhaustive factorization into unordered pairs.
- autos: the canonical maps (identity, negation, reflection through the
  maximum, reversal, explicit tables), bound transport from unit-step
  images, and the named verification suites behind the rigidity argument.
- proofsteps: separating witnesses for same-bounds set pairs, driven by the
  first divergence of their run endpoint sequences.
- search: exhaustive window automorphism search, split into the symmetric
  groups of the twin components and a searched quotient of rank-monotone
  maps, its result a lazy sequence of verified tables, with an independent
  slow oracle.
- cli: the powermonoid command line.

The namespace is lazy (PEP 562): ``import powermonoid`` loads no submodule,
and each name in ``__all__`` imports its submodule on first access, so a
program pays only for the modules it reads from.
"""

# the exported names of each submodule
_EXPORTS = {
    "finset": (
        "MAX_ELEMENT",
        "FinSet",
        "bounds",
        "format_set",
        "interval",
        "kfold",
        "make_set",
        "parse_set",
        "reflect",
        "sumset",
        "sumset_naive",
        "translate",
    ),
    "boxing": ("RunProfile", "bdim", "from_runs", "runs"),
    "monoid": (
        "UNIT",
        "ZeroSet",
        "as_zero_set",
        "candidates_with_bounds",
        "factorizations",
        "is_atom",
    ),
    "autos": (
        "Auto",
        "BoundTransport",
        "CheckResult",
        "Identity",
        "MaxReflection",
        "Negation",
        "Reversal",
        "Table",
        "absorption_suite",
        "apply",
        "check_absorption_identity",
        "predict_bounds",
        "rigidity_suite",
        "solve_step_preimage_system",
        "step_preimage_suite",
        "transport_from_images",
        "verify_homomorphism",
    ),
    "proofsteps": (
        "Divergence",
        "DivergenceWitness",
        "OrientationError",
        "first_divergence",
        "induction_measure",
        "run_end_witness",
        "run_start_witness",
    ),
    "search": (
        "MAX_WINDOW",
        "WindowMaps",
        "WindowUniverse",
        "as_table_spec",
        "build_window",
        "find_window_automorphisms",
        "identity_table",
        "negation_table",
        "verify_window_map",
        "window_survivors_oracle",
    ),
}

# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name or a library submodule, imported on first access."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    # later reads find the name in the module dict and skip this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
