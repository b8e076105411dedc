"""Exact computation in the finitary power monoid of the integers.

The package works with finite sets of integers under the Minkowski sum
X + Y = {x + y}, concentrating on the reduced monoid of sets that contain 0.
It provides:

- finset: the FinSet value type, bit-parallel and naive sumsets, k-fold
  sums, translation and reflection, the set literal grammar.
- boxing: run decomposition and the boxing dimension.
- monoid: ZeroSets, atoms, exhaustive factorization into unordered pairs.
- autos: the canonical maps (identity, negation, reflection through the
  maximum, reversal, explicit tables), bound transport from unit-step
  images, and the named verification suites behind the rigidity argument.
- proofsteps: separating witnesses for same-bounds set pairs, driven by the
  first divergence of their run endpoint sequences.
- search: exhaustive window automorphism search, split into a symmetric
  group on the isolated elements and a searched core, its result a lazy
  sequence of verified tables, with an independent slow oracle.
- cli: the powermonoid command line.
"""

from .finset import (
    MAX_ELEMENT,
    FinSet,
    bounds,
    format_set,
    interval,
    kfold,
    make_set,
    parse_set,
    reflect,
    sumset,
    sumset_naive,
    translate,
)
from .boxing import RunProfile, bdim, from_runs, runs
from .monoid import (
    UNIT,
    ZeroSet,
    as_zero_set,
    candidates_with_bounds,
    factorizations,
    is_atom,
)
from .autos import (
    Auto,
    BoundTransport,
    CheckResult,
    Identity,
    MaxReflection,
    Negation,
    Reversal,
    Table,
    absorption_suite,
    apply,
    check_absorption_identity,
    predict_bounds,
    rigidity_suite,
    solve_step_preimage_system,
    step_preimage_suite,
    transport_from_images,
    verify_homomorphism,
)
from .proofsteps import (
    Divergence,
    DivergenceWitness,
    OrientationError,
    first_divergence,
    induction_measure,
    random_run_end_pair,
    random_run_start_pair,
    run_end_witness,
    run_start_witness,
)
from .search import (
    MAX_WINDOW,
    WindowMaps,
    WindowUniverse,
    as_table_spec,
    build_window,
    find_window_automorphisms,
    identity_table,
    negation_table,
    verify_window_map,
    window_survivors_oracle,
)

__version__ = "0.1.0"
