"""Inner solver for sketched quadratics over a constraint set.

The objective is ``g(x) = 0.5 x^T G x - <c, x>`` with ``G = B^T B``.
The exact solve, the classical and Hessian sketches and every IHS
round minimize such a quadratic and differ only in G and c, so
:func:`solve_constrained` is the one inner solver of them all. Over
``Unconstrained`` it solves ``G x = c`` exactly by Cholesky; over any
other set it runs projected gradient with Nesterov momentum (FISTA,
Beck & Teboulle 2009) and the gradient restart of O'Donoghue & Candes
(Found. Comput. Math. 2015): a step from z to x_new is taken again
from the last iterate x, with the momentum reset, whenever
``<z - x_new, x_new - x> > 0``, that is, when the momentum points
against the step's gradient mapping. The test reads no objective
values, so rounding noise in them, once the objective has converged to
working precision, does not trip it. The objective need not decrease
from one iterate to the next. The gradient
step is 1/L with ``L = OPNORM_SAFETY * lambda_max(G)``, the top
eigenvalue taken exactly from G once, on first use, and cached on the
quadratic. :func:`projected_step` is the one place that forms L, and
the one projected-gradient step: the solver takes every step through
it, and so does a caller that needs a step outside the solve.

Each iteration costs one projection and one product with G, plus one
of each per restart. The stopping test reads the gradient mapping at
the point z the step was taken from, ``L ||x_new - z||`` with
``x_new = P_C(z - grad g(z) / L)``, which the step yields for free;
the gradient mapping at ``x_new`` itself is at most twice that
(Nesterov, Math. Program. 2013). The product ``G x_new`` gives the
next gradient through ``G z_next = G x_new + beta (G x_new - G x)``.

:class:`SketchedQuadratic` checks G once, when it is built, and the
solver trusts it from then on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

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
    Either way it is checked here, once: a non-finite G raises
    :class:`NonFiniteError`. The solvers read only G, so a caller holding
    G may pass ``B=None`` and free B.

    ``lam_max``, the top eigenvalue of G, is computed on first use and
    cached, so that every projected-gradient step on one quadratic costs
    one eigenvalue computation in all; a quadratic over
    ``Unconstrained`` never computes it.
    """

    B: Optional[np.ndarray]
    c: np.ndarray
    set: ConstraintSet = field(default_factory=Unconstrained)
    G: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.B is not None:
            self.B = ensure_matrix(self.B, "B")
        elif self.G is None:
            raise ValueError("SketchedQuadratic needs B or its Gram matrix G")
        self.c = (ensure_vector if np.ndim(self.c) == 1 else ensure_matrix)(self.c, "c")
        self.G = ensure_matrix(self.gram() if self.G is None else self.G, "G")
        d = (self.G if self.B is None else self.B).shape[1]
        if d != self.c.shape[0]:
            raise DimensionError(f"B has {d} columns but c has length {self.c.shape[0]}")
        if self.G.shape != (d, d):
            raise DimensionError(f"G is {self.G.shape}, expected ({d}, {d})")

    def gram(self) -> np.ndarray:
        return self.B.T @ self.B

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.vdot(x, self.G @ x)) - float(np.vdot(self.c, x))

    @cached_property
    def lam_max(self) -> float:
        return top_eigenvalue(self.G)


@dataclass
class SolverControls:
    """Termination controls for the projected-gradient solver.

    ``tol`` bounds the stopping measure, the gradient mapping
    ``L ||x_new - z||`` at the point z of the last step (see the module
    docstring), so the returned iterate's own gradient mapping is at
    most ``2 tol``; ``None`` selects the default
    ``1e-10 * max(1, ||c||_2)``, tight enough that outer contraction
    arguments treating inner solves as exact stay valid.

    Inside ``ihs_solve`` this tolerance is a floor. Under the default
    ``IhsConfig(inner_schedule="tracking")`` every constrained round of
    a solve of more than one round is handed a looser tolerance that
    tracks the outer step, which gives up the exact-solve assumption of
    the paper's contraction argument; ``inner_schedule="fixed"`` uses
    this tolerance in every round. Either way a round counts as
    converged when it met the tolerance it was handed.
    """

    tol: Optional[float] = None
    max_iter: int = 5000

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
    """Outcome of :func:`solve_constrained`.

    ``grad_map_norm`` is the stopping measure of the last iteration,
    ``L ||x - z||`` for the returned x and the point z its step was
    taken from; ``restarts`` counts the momentum restarts, each of
    which cost one more projection and one more product with G.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    grad_map_norm: float
    restarts: int = 0


def project_iterate(cset: ConstraintSet, x: np.ndarray) -> np.ndarray:
    """Project a vector or a d x k iterate through its column-major flattening."""
    return project(cset, x.ravel(order="F")).reshape(x.shape, order="F")


def projected_step(q: SketchedQuadratic, v: np.ndarray,
                   gv: np.ndarray) -> Tuple[np.ndarray, float]:
    """The projected gradient step ``v_new = P_C(v - (G v - c) / L)`` on
    ``q`` from v, given ``gv = G v``, and its gradient mapping
    ``L ||v_new - v||``.

    ``L = OPNORM_SAFETY * q.lam_max``, or 1 when G is zero; this is the
    one place that forms it.
    """
    lip = OPNORM_SAFETY * q.lam_max
    lip = lip if lip > 0.0 else 1.0
    v_new = project_iterate(q.set, v - (gv - q.c) / lip)
    return v_new, lip * float(np.linalg.norm(v_new - v))


def solve_constrained(
    q: SketchedQuadratic,
    x0: Optional[np.ndarray] = None,
    ctl: Optional[SolverControls] = None,
) -> SubsolveResult:
    """Minimize ``q`` over its constraint set.

    Over ``Unconstrained`` the result is the exact minimizer
    ``G^-1 c``, with 0 iterations; ``x0`` and ``ctl`` are not read, and
    ``q.lam_max`` is not computed. A singular G raises
    :class:`RankDeficiencyError`.

    Over any other set projected gradient starts from the projection of
    ``x0`` (zero if omitted), keeps every iterate feasible, and stops
    once the gradient mapping at the point z of the last step,
    ``L ||x_new - z||`` with ``x_new = P_C(z - grad g(z)/L)``, drops
    below the tolerance; it returns x_new, whose own gradient mapping
    ``L ||x_new - P_C(x_new - grad g(x_new)/L)||`` is then at most twice
    the tolerance. An iteration costs one projection and one product
    with G, and a momentum restart one more of each. The steps are
    :func:`projected_step`'s, with L from ``q.lam_max``: computed on the
    first step unless a caller has read it already.
    """
    if isinstance(q.set, Unconstrained):
        try:
            return SubsolveResult(solve_psd(q.G, q.c, check_finite=False), True, 0, 0.0)
        except SingularMatrixError as exc:
            raise RankDeficiencyError(
                f"Gram matrix is singular (pivot {exc.pivot}): A is rank deficient "
                "or the sketch size m is too small") from exc
    ctl = ctl or SolverControls()
    gram = q.G
    tol = ctl.resolve_tol(q.c)

    def step_from(v, gv):
        """The projected gradient step from v, its product with G and the
        gradient mapping at v; that at the new point is at most twice it."""
        v_new, grad_map = projected_step(q, v, gv)
        return v_new, gram @ v_new, grad_map

    # x is the last accepted iterate and z the point the next step is
    # taken from; gx = G x and gz = G z ride along, so that an iteration
    # costs one product G x_new and one projection.
    x = project_iterate(q.set, np.zeros_like(q.c) if x0 is None else np.asarray(x0, float))
    gx = gram @ x
    z, gz = x, gx
    tk = 1.0
    grad_map = np.inf
    iterations = restarts = 0
    for iterations in range(1, ctl.max_iter + 1):
        x_new, g_new, grad_map = step_from(z, gz)
        if np.vdot(z - x_new, x_new - x) > 0.0:
            # the momentum points against the step's gradient mapping:
            # restart from the last accepted iterate. A step from x
            # itself gives -||x_new - x||^2 here and never restarts.
            restarts += 1
            z, gz, tk = x, gx, 1.0
            x_new, g_new, grad_map = step_from(z, gz)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / t_next
        tk = t_next
        if beta == 0.0:
            z, gz = x_new, g_new
        else:
            z, gz = x_new + beta * (x_new - x), g_new + beta * (g_new - gx)
        x, gx = x_new, g_new
        if grad_map <= tol:
            return SubsolveResult(x, True, iterations, grad_map, restarts)
    return SubsolveResult(x, False, iterations, grad_map, restarts)
