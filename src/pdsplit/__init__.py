"""Primal-dual splitting solvers for composite convex minimization.

Library layout:

- ``core``: oracle contracts (smooth / prox / conjugate-smooth terms) and the
  problem bundle.
- ``prox``: closed-form proximal operators and conjugate proxes, with the
  Moreau form for a term that declares none.
- ``linops``: linear operators with adjoints and certified bounds on ||A A^T||.
- ``algorithms``: the splitting passes, step sizes, averagedness, solve loop.
- ``metrics``: the dual-metric geometry, residuals, gap and rate bounds.
- ``problems``: reproducible benchmark generators, cached reference solutions
  and the atomic file write the CLI shares.
- ``cli``: the ``pdsplit`` command-line front end.
"""

from .algorithms import (
    AlgorithmId,
    SolverState,
    StepSizes,
    initial_state,
    solve,
    validate_stepsizes,
)
from .core import (
    ConjugateSmoothTerm,
    ProblemSpec,
    ProxTerm,
    SmoothTerm,
    evaluate_objective,
    zero_conjugate_smooth,
    zero_smooth,
)
from .linops import (
    DenseMatrixOp,
    DifferenceOp,
    IdentityOp,
    LinearMap,
    ScaledIdentityOp,
)
from .metrics import (
    ConvergenceRecord,
    MNormContext,
    combined_norm_sq,
    ergodic_gap_bound_check,
    fixed_point_residual,
    lagrangian,
    linear_rate_rho,
    m_norm_sq,
    sublinear_rate_bound,
)
from .problems import (
    gen_elastic_net_strongly_convex,
    gen_fused_lasso,
    gen_toy_quadratic,
    reference_solution,
)
from .prox import (
    l1,
    prox_conjugate,
    prox_l1,
    prox_sq_l2,
    squared_l2,
    zero_prox,
)

__version__ = "0.1.0"
