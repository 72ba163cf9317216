"""Root finding for complex polynomials via BNQN and its classical baselines.

The package minimizes F(x, y) = |g(x+iy)|^2 / 2 with backtracking New
Q-Newton's method (BNQN), plain Newton, NQN, and backtracking gradient
descent, runs the one-variable Newton and random relaxed Newton maps, and
renders basins of attraction.
"""

from .basins import BasinMap, GridSpec, degree2_reference, export_csv, export_ppm, render_basin, run_rrn_experiment
from .complexpoly import (
    Polynomial,
    all_roots,
    bisector_newton_map,
    newton_map_1d,
    parse_polynomial,
    polynomial_to_string,
    relaxed_newton_map,
    sample_relaxed_alpha,
    schroder_conjugacy_defect,
)
from .errors import (
    BnqnError,
    DerivativeVanishes,
    LineSearchUnderflow,
    NoAdmissibleDelta,
    NoConvergence,
    PoleHit,
    SingularMatrix,
)
from .invariance import (
    ConjugatedObjective,
    ConjugationSpec,
    check_invariance,
    newton_conjugacy_check,
    random_orthogonal,
    rotation,
    shear_counterexample,
    transform_config,
)
from .linalg import EigenDecomposition, SymmetricMatrix, eigh, minsp, reflected_direction, sp
from .objective import (
    BilinearTestObjective,
    LimitClass,
    ObjectiveFunction,
    PolyModulusObjective,
    RationalModulusObjective,
    classify_limit,
)
from .solvers import (
    IterationTrace,
    Method,
    SolverConfig,
    export_trace_csv,
    random_deltas,
    run,
    select_delta,
)

__version__ = "0.1.0"
