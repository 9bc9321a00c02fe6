"""Randomized sketching for constrained least squares.

Implements the classical sketch, the Hessian sketch and the iterative
Hessian sketch over convex constraint sets (l1 and nuclear-norm balls,
the simplex, boxes), together with the sketch ensembles they rely on,
contraction certificates, and an experiment harness.
"""

__version__ = "0.1.0"

from .constraints import (
    Box,
    ConstraintSet,
    L1Ball,
    NuclearBall,
    Simplex,
    Unconstrained,
    contains,
    project,
)
from .experiments import (
    ExperimentRow,
    gen_lowrank,
    gen_sparse,
    gen_unconstrained,
    run_experiment,
)
from .ihs import (
    IhsConfig,
    IhsReport,
    LsProblem,
    classical_sketch_solve,
    contraction_certificates_unconstrained,
    hessian_sketch_solve,
    ihs_solve,
    recommend_iterations,
    recommend_sketch_size,
    solve_exact,
)
from .linalg import SvdResult, estimate_opnorm_sq, fwht_normalized, solve_psd, thin_svd
from .sketch import (
    SketchOperator,
    SketchSpec,
    alpha_balance,
    build_sketch,
    explicit_sketch,
    identity_sketch,
    leverage_scores,
    verify_projection_condition,
)
from .subsolver import SketchedQuadratic, SolverControls, SubsolveResult, solve_constrained

__all__ = [
    "Box", "ConstraintSet", "L1Ball", "NuclearBall", "Simplex", "Unconstrained",
    "contains", "project",
    "ExperimentRow", "gen_lowrank", "gen_sparse", "gen_unconstrained", "run_experiment",
    "IhsConfig", "IhsReport", "LsProblem",
    "classical_sketch_solve", "contraction_certificates_unconstrained",
    "hessian_sketch_solve", "ihs_solve",
    "recommend_iterations", "recommend_sketch_size", "solve_exact",
    "SvdResult", "estimate_opnorm_sq", "fwht_normalized", "solve_psd", "thin_svd",
    "SketchOperator", "SketchSpec", "alpha_balance", "build_sketch",
    "explicit_sketch", "identity_sketch", "leverage_scores", "verify_projection_condition",
    "SketchedQuadratic", "SolverControls", "SubsolveResult", "solve_constrained",
]
