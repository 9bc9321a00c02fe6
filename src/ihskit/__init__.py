"""Randomized sketching for constrained least squares.

The package root is the solver API: the constraint sets, the problem,
sketch, inner-solver and IHS settings, the exact solve and the
classical, Hessian and iterative Hessian sketches, the report they all
return, and the sketch-size and round-count recommenders. Everything
else (kernels, sketch operators, the inner solver, certificates, the
generators and experiment runners) is imported from its own module,
for example ``ihskit.sketch.build_sketch`` or
``ihskit.experiments.run_experiment``.
"""

__version__ = "0.1.0"

from .constraints import Box, L1Ball, NuclearBall, Simplex, Unconstrained
from .ihs import (
    IhsConfig,
    IhsReport,
    LsProblem,
    classical_sketch_solve,
    hessian_sketch_solve,
    ihs_solve,
    recommend_iterations,
    recommend_sketch_size,
    solve_exact,
)
from .sketch import SketchSpec
from .subsolver import SolverControls

__all__ = [
    "Box", "L1Ball", "NuclearBall", "Simplex", "Unconstrained",
    "IhsConfig", "IhsReport", "LsProblem", "SketchSpec", "SolverControls",
    "classical_sketch_solve", "hessian_sketch_solve", "ihs_solve", "solve_exact",
    "recommend_iterations", "recommend_sketch_size",
]
