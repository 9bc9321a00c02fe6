"""Certified references and output checks, computed apart from ihskit.

Every problem here is ``min_C (1/2N) ||A X - Y||_F^2`` with A tall and
of full column rank, X a vector (one column) or a d1 x d2 matrix, and C
the whole space, an l1 ball or a nuclear-norm ball. Nothing in this
module imports the program under test.

A reference X is certified through the gradient mapping
``G(X) = L (X - P_C(X - grad f(X) / L))``: for a mu-strongly convex,
L-smooth f, ``||X - X*||_F <= 2 ||G(X)||_F / mu`` (Nesterov, Thm 2.2.7
with y = X*). The prediction seminorm ``||A (X - X*)||_F / sqrt(N)`` is
then at most ``sqrt(L)`` times that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TARGET_REL = 1e-8          # an output counts as solved within this relative seminorm error
CERT_MARGIN = 100.0        # the reference is certified this far below the target
FEAS_SLACK_REL = 1e-10     # norm excess over the radius that still counts as feasible
MAX_ITER = 20000           # accelerated projected gradient steps before giving up


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto ``{x : ||x||_1 <= radius}`` by bisection on
    the soft threshold, finished exactly on the active set."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    active = a > lo
    theta = (a[active].sum() - radius) / active.sum()
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_nuclear(x: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto the nuclear-norm ball: project the singular values
    onto the l1 ball of the same radius."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return (u * project_l1(s, radius)) @ vt


@dataclass
class Problem:
    """``min_C (1/2N) ||A X - Y||_F^2`` in the benchmark's own form."""

    A: np.ndarray
    Y: np.ndarray                       # length n, or n x d2
    kind: str = "ls"                    # "ls", "l1" or "nuclear"
    radius: Optional[float] = None

    @property
    def N(self) -> int:
        """Row count of the problem as the program sees it (stacked)."""
        return self.Y.size

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "l1":
            return project_l1(x, self.radius)
        if self.kind == "nuclear":
            return project_nuclear(x, self.radius)
        return x

    def seminorm(self, x: np.ndarray) -> float:
        """``||A X||_F / sqrt(N)``."""
        return float(np.linalg.norm(self.A @ x)) / math.sqrt(self.N)

    def norm(self, x: np.ndarray) -> float:
        """The constraint norm (l1 or nuclear); 0 for least squares."""
        if self.kind == "l1":
            return float(np.abs(x).sum())
        if self.kind == "nuclear":
            return float(np.linalg.svd(x, compute_uv=False).sum())
        return 0.0


@dataclass
class Reference:
    problem: Problem
    x: np.ndarray                # as a matrix for nuclear problems
    certified_semi: float        # proven bound on ||A (x - x*)|| / sqrt(N)
    target: float                # absolute seminorm tolerance for outputs
    iterations: int


def _curvature(prob: Problem):
    h = prob.A.T @ prob.A / prob.N
    ev = np.linalg.eigvalsh(h)
    return h, prob.A.T @ prob.Y / prob.N, float(ev[0]), float(ev[-1])


def _certificate(prob, h, b, mu, lip, x):
    g = lip * (x - prob.project(x - (h @ x - b) / lip))
    # the projection is nonexpansive, so a rounding error in h @ x - b
    # moves g by at most that much
    slack = 8 * h.shape[0] * np.finfo(float).eps * (
        lip * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    return math.sqrt(lip) * 2.0 * (float(np.linalg.norm(g)) + slack) / mu


def certified_reference(prob: Problem) -> Reference:
    """Solve ``prob`` and certify the solution ``CERT_MARGIN`` times below
    the target ``TARGET_REL * ||A x_ref|| / sqrt(N)``.

    Least squares goes through ``numpy.linalg.lstsq``; the ball
    constraints through accelerated projected gradient with the
    strongly convex momentum ``(sqrt L - sqrt mu) / (sqrt L + sqrt mu)``.
    Raises ``RuntimeError`` when the certificate is not reached.
    """
    h, b, mu, lip = _curvature(prob)
    if not mu > 0:
        raise RuntimeError("the design is rank deficient; no certificate exists")
    if prob.kind == "ls":
        x = np.linalg.lstsq(prob.A, prob.Y, rcond=None)[0]
        it = 0
    else:
        beta = (math.sqrt(lip) - math.sqrt(mu)) / (math.sqrt(lip) + math.sqrt(mu))
        x = prob.project(np.zeros_like(b))
        z = x
        for it in range(1, MAX_ITER + 1):
            x_new = prob.project(z - (h @ z - b) / lip)
            z = x_new + beta * (x_new - x)
            x = x_new
            if it % 25 == 0:
                target = TARGET_REL * prob.seminorm(x)
                if _certificate(prob, h, b, mu, lip, x) <= target / CERT_MARGIN:
                    break
    target = TARGET_REL * prob.seminorm(x)
    cert = _certificate(prob, h, b, mu, lip, x)
    if not cert <= target / CERT_MARGIN:
        raise RuntimeError(
            f"reference not certified: bound {cert:.3e} > target/{CERT_MARGIN:g} "
            f"= {target / CERT_MARGIN:.3e}")
    return Reference(prob, x, cert, target, it)


def check_solution(ref: Reference, x) -> Optional[str]:
    """None when ``x`` meets the target and lies in the constraint set;
    otherwise a one-line reason. ``x`` may be the program's flat
    (column-major) vector for a matrix problem."""
    prob = ref.problem
    xm = np.asarray(x, dtype=np.float64)
    if xm.size != ref.x.size:
        return f"solution has {xm.size} entries, expected {ref.x.size}"
    xm = xm.reshape(ref.x.shape, order="F")
    if not np.all(np.isfinite(xm)):
        return "solution has non-finite entries"
    err = prob.seminorm(xm - ref.x)
    if not err <= ref.target:
        return f"seminorm error {err:.3e} above target {ref.target:.3e}"
    if prob.kind != "ls":
        excess = prob.norm(xm) - prob.radius
        if excess > FEAS_SLACK_REL * prob.radius:
            return f"infeasible: {prob.kind} norm exceeds the radius by {excess:.3e}"
    return None
