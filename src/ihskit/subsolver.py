"""Inner solver for sketched quadratics over a constraint set.

The objective is ``g(x) = 0.5 ||B x||^2 - <c, x>``. Unconstrained
problems are solved directly through the normal equations; constrained
problems by projected gradient, by default with Nesterov momentum that
restarts whenever the objective fails to decrease, which keeps the
accepted iterates monotone. The gradient step is 1/L with
``L = OPNORM_SAFETY * lambda_max(B^T B)``, the top eigenvalue taken
exactly from the Gram matrix that the iteration forms anyway (or handed
in by a caller that has computed it already).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constraints import ConstraintSet, Unconstrained, project
from .errors import DimensionError, RankDeficiencyError, SingularMatrixError
from .linalg import OPNORM_SAFETY, ensure_matrix, ensure_vector, solve_psd, top_eigenvalue


@dataclass
class SketchedQuadratic:
    """Data of ``g(x) = 0.5 ||B x||^2 - <c, x>`` minimized over ``set``.

    ``c`` is a vector, or a d x k matrix when k responses share one B;
    x takes its shape, and the set sees x flattened column-major.

    ``G`` is the Gram matrix ``B^T B``. A caller that has formed it
    already passes it in; otherwise it is formed once at construction.
    """

    B: np.ndarray
    c: np.ndarray
    set: ConstraintSet = field(default_factory=Unconstrained)
    G: Optional[np.ndarray] = None

    def __post_init__(self):
        self.B = ensure_matrix(self.B, "B")
        self.c = (ensure_vector if np.ndim(self.c) == 1 else ensure_matrix)(self.c, "c")
        d = self.B.shape[1]
        if d != self.c.shape[0]:
            raise DimensionError(f"B has {d} columns but c has length {self.c.shape[0]}")
        self.G = self.gram() if self.G is None else ensure_matrix(self.G, "G")
        if self.G.shape != (d, d):
            raise DimensionError(f"G is {self.G.shape}, expected ({d}, {d})")

    def gram(self) -> np.ndarray:
        return self.B.T @ self.B

    def value(self, x: np.ndarray) -> float:
        bx = self.B @ x
        return 0.5 * float(np.vdot(bx, bx)) - float(np.vdot(self.c, x))


@dataclass
class SolverControls:
    """Termination controls for the projected-gradient solver.

    ``tol`` bounds the gradient-mapping norm; ``None`` selects the
    default ``1e-10 * max(1, ||c||_2)``, tight enough that outer
    contraction arguments treating inner solves as exact stay valid.

    Inside ``ihs_solve`` this tolerance is a floor. Under the default
    ``IhsConfig(inner_schedule="tracking")`` every constrained round
    after the first is handed a looser tolerance that tracks the outer
    step, which gives up the exact-solve assumption of the paper's
    contraction argument; ``inner_schedule="fixed"`` uses this
    tolerance in every round. Either way a round counts as converged
    when it met the tolerance it was handed.
    """

    tol: Optional[float] = None
    max_iter: int = 5000
    acceleration: bool = True

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    def resolve_tol(self, c: np.ndarray) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-10 * max(1.0, float(np.linalg.norm(c)))


@dataclass
class SubsolveResult:
    x: np.ndarray
    converged: bool
    iterations: int
    grad_map_norm: float


def project_iterate(cset: ConstraintSet, x: np.ndarray) -> np.ndarray:
    """Project a vector or a d x k iterate through its column-major flattening."""
    return project(cset, x.ravel(order="F")).reshape(x.shape, order="F")


def solve_unconstrained(q: SketchedQuadratic) -> np.ndarray:
    """Exact minimizer ``(B^T B)^{-1} c`` of the unconstrained quadratic."""
    try:
        return solve_psd(q.G, q.c)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(
            "sketched Gram matrix B^T B is singular; increase the sketch size m "
            f"(pivot {exc.pivot})"
        ) from exc


def solve_constrained(
    q: SketchedQuadratic,
    x0: Optional[np.ndarray] = None,
    ctl: Optional[SolverControls] = None,
    lam_max: Optional[float] = None,
) -> SubsolveResult:
    """Projected-gradient minimization of ``q`` over its constraint set.

    Starts from the projection of ``x0`` (zero if omitted), keeps every
    iterate feasible, and stops once the gradient mapping
    ``L ||x - P_C(x - grad g(x)/L)||`` drops below the tolerance.
    ``lam_max`` is ``lambda_max(q.G)`` when the caller has it already;
    otherwise it is computed here.
    """
    ctl = ctl or SolverControls()
    gram = q.G
    tol = ctl.resolve_tol(q.c)
    lip = OPNORM_SAFETY * (top_eigenvalue(gram) if lam_max is None else lam_max)
    if lip <= 0.0:
        lip = 1.0

    def value(v):
        return 0.5 * float(np.vdot(v, gram @ v)) - float(np.vdot(q.c, v))

    x = project_iterate(q.set, np.zeros_like(q.c) if x0 is None else np.asarray(x0, float))
    z = x.copy()
    tk = 1.0
    fx = value(x)
    grad_map = np.inf
    iterations = 0
    for iterations in range(1, ctl.max_iter + 1):
        if ctl.acceleration:
            x_new = project_iterate(q.set, z - (gram @ z - q.c) / lip)
            f_new = value(x_new)
            if f_new > fx:
                # momentum overshot: restart from the last accepted iterate
                z = x.copy()
                tk = 1.0
                x_new = project_iterate(q.set, z - (gram @ z - q.c) / lip)
                f_new = value(x_new)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            z = x_new + ((tk - 1.0) / t_next) * (x_new - x)
            tk = t_next
            step = project_iterate(q.set, x_new - (gram @ x_new - q.c) / lip)
            grad_map = lip * float(np.linalg.norm(x_new - step))
        else:
            x_new = project_iterate(q.set, x - (gram @ x - q.c) / lip)
            f_new = value(x_new)
            grad_map = lip * float(np.linalg.norm(x - x_new))
        x, fx = x_new, f_new
        if grad_map <= tol:
            return SubsolveResult(x, True, iterations, grad_map)
    return SubsolveResult(x, False, iterations, grad_map)
