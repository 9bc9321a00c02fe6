"""Top-level least-squares solvers.

All solvers minimize ``f(x) = (1/2n) ||A x - y||^2`` over a constraint
set C (n = number of rows). Three sketched routes exist beside the
exact solve:

* classical sketch - compress both sides once and solve
  ``min (1/2nm) ||S A x - S y||^2`` (same minimizer as the usual
  ``1/2n`` scaling);
* Hessian sketch - compress only the quadratic term,
  ``min (1/2nm) ||S A x||^2 - <A^T y / n, x>``;
* iterative Hessian sketch - repeat the Hessian sketch on residual
  problems with a fresh independent operator per round,

    x_{t+1} = argmin_C (1/2m) ||S_{t+1} A (x - x_t)||^2
                       - <A^T (y - A x_t), x>,

  which contracts geometrically toward the exact solution.

Unconstrained rounds take the closed form ``x_{t+1} = G^-1 (G x_t +
mu grad_t)`` with ``G = (SA)^T (SA) / nm`` and ``grad_t = A^T (y - A
x_t) / n``. ``IhsConfig.step`` picks mu:

* ``"plain"`` (default) - mu = 1, the paper's update above. For a
  Gaussian sketch its asymptotic per-round rate is
  ``sqrt((1 - c)^-3 - 2 (1 - c)^-1 + 1)`` with c = d/m, about 0.573 at
  m = 6d;
* ``"tuned"`` - the moment-matched Wishart step
  ``mu = (m - d)(m - d - 3) / (m (m - 1))``, which minimizes the
  expected squared error after one Gaussian round (Lacotte & Pilanci,
  "Faster least squares optimization", arXiv:1911.02675); its
  asymptotic rate is sqrt(c), about 0.408 at m = 6d. The step falls
  back to mu = 1 where those moments do not hold: non-Gaussian kinds,
  fixed operators, block-structured problems, constrained sets, and
  m <= d + 3 (the inverse-Wishart second moment is undefined there).

The per-round contraction of unconstrained problems is certified by
the pair ``(Z1, Z2)``: the smallest restricted eigenvalue of
``S^T S / m`` on the range of A, and the deviation of the same matrix
from ``mu I`` between the current error direction and that range. Then
``||A e_{t+1}|| <= (Z2 / Z1) ||A e_t||`` holds exactly for either step.
Both are read off the d x d restricted Gram ``H = U^T (S^T S / m) U``,
U an orthonormal basis of range(A), which a round reduces from its
sketch beside its Gram, so that no round keeps its operator.

Constrained rounds have no closed form; projected gradient solves them,
warm-started at x_t. ``IhsConfig.inner_schedule`` sets its tolerance:

* ``"tracking"`` (default) - round t stops at
  ``max(floor, TRACKING_FACTOR * sqrt(lambda_max(G_t)) * ||step||)``,
  where the floor is the fixed tolerance below and the step is the last
  outer step ``x_{t-1} - x_{t-2}`` for t >= 2. Round 1 has no outer step
  yet and takes the projected gradient step from x0 on its own
  quadratic, ``P_C(x0 - (G_1 x0 - c_1) / L) - x0``, through
  :func:`~ihskit.subsolver.projected_step`, the step every inner
  iteration takes, with the same ``L`` and the same cached
  ``lambda_max(G_1)``. It costs one projection and one product with
  G_1. A solve of a single round keeps the floor, so that it is the
  Hessian sketch. The inner accuracy only keeps pace with the outer
  progress (Schmidt, Le Roux & Bach, NeurIPS 2011; the inexact
  subproblems of Pilanci & Wainwright's Newton sketch, SIAM J. Optim.
  2017). The tolerance bounds the inner solver's ``grad_map_norm``,
  the gradient mapping at the point of its last step, which bounds that
  of the round's result within a factor of 2 (see ``ihskit.subsolver``);
* ``"fixed"`` - every round stops at ``IhsConfig.inner.resolve_tol(c)``,
  by default ``1e-10 * max(1, ||c||)``. This is the paper's iteration,
  whose contraction argument assumes exact subproblem solves, and the
  experiment runners use it.

Tracking also needs fewer rounds. An early-stopped, warm-started solve
lands short of the exact round minimizer, a damped step toward it, as
the tuned step is in unconstrained rounds. The damping falls where it
helps: gradient steps converge last along the small eigenvalues of G,
where a sketch that underestimates the curvature makes the exact step
overshoot. On the 16 perfbench ``lowrank_nuclear`` problems of seeds
902-903 (nuclear ball, 1440 x 144 in 12 blocks, Gaussian m = 72), the
error shrinks by a median factor of 0.29 per round under tracking,
against 0.46 for exact solves, and a relative error of 1e-8 takes
15-18 rounds (median 16) and a median 58 inner iterations per
problem, against 22-30 rounds (median 24.5) and 595 iterations exact.

An IHS round, like either one-shot sketch, depends on its sketch only
through the Gram of ``S A`` (and of ``S [A | y]`` for the classical
sketch), and takes it from :func:`~ihskit.sketch.sketch_gram`. A
Gaussian or Rademacher sketch is drawn there in panels of
``PANEL_ROWS`` rows, the same draws as ``build_sketch``, and the
panels' products with A are reduced into the Gram, and into H when
certificates are collected, a block of at least d rows at a time. No
such solve holds the m x n sketch or the m x d matrix ``S A``: a round
holds one panel (for Rademacher also its bits, a byte per entry) and a
block of at most m x d. The
block sums round differently from the Gram of the whole ``S A`` in the
last bits. Any other sketch, of ROS or row-sampling kind or from an
``operator_factory``, forms ``S A`` and reduces it once.

A round's sketch does not depend on the iterate, so ``ihs_solve``
draws a large Gaussian or Rademacher round ahead of time: rounds t+1
and t+2 are drawn and reduced to their Gram matrices on ``LOOKAHEAD``
worker threads that the solve starts for itself, while the calling
thread forms the gradient and solves round t. numpy's random fill and
BLAS release the interpreter lock, so the draws run on two cores. The
solve stops its workers before it returns or raises, so no thread
outlives it. Each round's stream is fixed by ``(seed, t)``, so the
output does not depend on the order in which the rounds are drawn.

Every other round runs on the calling thread when it is solved, with
nothing drawn ahead: ROS and row-sampling rounds, rounds of an
``operator_factory``, and rounds with fewer than ``POOL_MIN_ENTRIES``
entries in the sketch and A. ``operator_factory(t)`` is then called
once per round, in order, on the calling thread, and one apply and its
``S A`` live at a time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg

from .constraints import ConstraintSet, Unconstrained, ambient_dim
from .errors import DimensionError, MissingHintError, RankDeficiencyError
from .linalg import ensure_matrix, ensure_vector, thin_svd
from .sketch import PANEL_KINDS, SketchOperator, SketchSpec, leverage_scores, sketch_gram
from .sketch import build_sketch  # unused here, but perfbench's tracer wraps this name
from .subsolver import (
    SketchedQuadratic,
    SolverControls,
    project_iterate,
    projected_step,
    solve_constrained,
)

STEPS = ("plain", "tuned")
INNER_SCHEDULES = ("tracking", "fixed")

# Tracking inner tolerance per unit of sqrt(lambda_max(G)) * outer step,
# on the inner solver's stopping measure: the gradient mapping at the
# point of its last step, which bounds that of the returned iterate
# within a factor of 2. On the perfbench problems of seeds 1301-1306,
# factors of 0.005, 0.01, 0.02, 0.04 and 0.1 took a mean 22.3, 18.7,
# 15.6, 17.3 and 21.2 rounds to perfbench's target on lowrank_nuclear,
# and 12.9, 12.8, 11.2, 11.0 and 13.2 on lasso_ros. Both sides of 0.02
# lose rounds where they lose any: looser rounds stop short of progress,
# tighter ones damp the outer step less.
TRACKING_FACTOR = 0.02

# Rounds of a Gaussian or Rademacher sketch that are drawn ahead of the
# round being solved, and the workers that draw them. Other kinds draw
# nothing ahead. A ROS apply on a worker overlapped nothing: at 3000 x
# 128, m = 888 (l1 ball, 12 rounds; one BLAS thread, 8 interleaved runs
# on 2 shared cores) it took a median 8.1 ms wall against 6.9 ms CPU per
# round, and a solve 120 ms, against 111 ms with every apply on the
# calling thread.
LOOKAHEAD = 2

# Gaussian and Rademacher rounds whose sketch and A_base hold fewer
# entries than this, n_base (m + d_base), run on the calling thread too.
# Their iterate-free part takes a few hundred microseconds, most of it in
# the interpreter, so a worker overlaps little of it and costs the
# calling thread interpreter-lock hand-offs. On perfbench's
# lowrank_nuclear (120 x 12, m = 72: 10080 entries; 2 cores, one BLAS
# thread) drawing on workers made time_to_target_s 8% and setup_s 12% slower
# (medians of 13 pairs of runs). The smallest perfbench workload above
# the threshold, ls_gaussian, has 688128.
POOL_MIN_ENTRIES = 1 << 16


@dataclass
class LsProblem:
    """A constrained least-squares instance, optionally with ground truth.

    ``sketch_blocks = k`` > 1 marks a multiple-response problem stacked
    column-major: A must be exactly ``I_k (x) A_base`` and is rejected
    otherwise. The solvers then work on A_base, the response as an
    ``n/k x k`` matrix and the iterate as a ``d/k x k`` matrix, with one
    sketch of A_base's rows shared by every response column. Inputs and
    outputs stay flat column-major vectors of length d.
    """

    A: np.ndarray
    y: np.ndarray
    set: ConstraintSet = field(default_factory=Unconstrained)
    truth: Optional[np.ndarray] = None
    sketch_blocks: int = 1

    def __post_init__(self):
        self.A = ensure_matrix(self.A, "A")
        self.y = ensure_vector(self.y, "y")
        if self.A.shape[0] == 0:
            raise DimensionError(f"A has no rows (shape {self.A.shape})")
        if self.A.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"A has {self.A.shape[0]} rows but y has length {self.y.shape[0]}"
            )
        want = ambient_dim(self.set)
        if want is not None and want != self.A.shape[1]:
            raise DimensionError(
                f"constraint set expects dimension {want}, A has {self.A.shape[1]} columns"
            )
        k = self.sketch_blocks
        if k < 1 or self.A.shape[0] % k or self.A.shape[1] % k:
            raise DimensionError(f"A of shape {self.A.shape} does not split into {k} blocks")
        if k > 1:
            nb, db = self.A.shape[0] // k, self.A.shape[1] // k
            base = self.A[:nb, :db]
            # the diagonal blocks of a (k, nb, k, db) view, then a nonzero
            # count that leaves no room for nonzero off-diagonal entries
            diag = np.diagonal(self.A.reshape(k, nb, k, db), axis1=0, axis2=2)
            if (not np.all(diag == base[:, :, None])
                    or np.count_nonzero(self.A) != k * np.count_nonzero(base)):
                raise DimensionError(f"A is not I_{k} (x) A_base with A_base of shape {base.shape}")
        if self.truth is not None:
            self.truth = ensure_vector(self.truth, "truth")
            _unflatten(self, self.truth, "truth")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def seminorm(self, v) -> float:
        """Prediction seminorm ``||A v||_2 / sqrt(n)``."""
        a_base = _base_form(self)[0]
        return float(np.linalg.norm(a_base @ _unflatten(self, v, "v"))) / math.sqrt(self.n)


def _base_form(problem: LsProblem) -> Tuple[np.ndarray, np.ndarray]:
    """A_base and the response as an n_base x k matrix, both views.

    With k = 1 they are A and y themselves, and iterates stay 1-D, so an
    ordinary problem runs the same products as a vector solver would.
    """
    k = problem.sketch_blocks
    if k == 1:
        return problem.A, problem.y
    return problem.A[:problem.n // k, :problem.d // k], problem.y.reshape((-1, k), order="F")


def _unflatten(problem: LsProblem, v, name: str) -> np.ndarray:
    """A flat length-d vector as a d_base x k iterate (1-D when k = 1)."""
    v = ensure_vector(v, name)
    if v.shape[0] != problem.d:
        raise DimensionError(f"{name} has length {v.shape[0]}, expected {problem.d}")
    k = problem.sketch_blocks
    return v if k == 1 else v.reshape((-1, k), order="F")


@dataclass
class IhsConfig:
    """Controls for the iterative solver: per-round sketch, round count,
    unconstrained step rule (``"plain"`` or ``"tuned"``, see the module
    docstring), inner solver settings and the inner tolerance schedule
    of constrained rounds.

    ``inner_schedule="tracking"`` (the default) loosens the tolerance of
    each constrained round to track the outer step (round 1 its own
    first projected gradient step), with ``inner.resolve_tol(c)`` as its
    floor, which a solve of one round keeps. It gives up the
    assumption of the paper's contraction argument that every round is
    solved exactly, so the paper-figure runners pass ``"fixed"``, which
    solves every round to the floor. Under either schedule
    ``IhsReport.round_converged`` means that a round met the tolerance
    it was given.
    """

    spec: SketchSpec
    rounds: int
    inner: SolverControls = field(default_factory=SolverControls)
    collect_certificates: bool = False
    x0: Optional[np.ndarray] = None
    step: str = "plain"
    inner_schedule: str = "tracking"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.step not in STEPS:
            raise ValueError(f"unknown step {self.step!r}; expected one of {STEPS}")
        if self.inner_schedule not in INNER_SCHEDULES:
            raise ValueError(f"unknown inner_schedule {self.inner_schedule!r}; "
                             f"expected one of {INNER_SCHEDULES}")


@dataclass
class IhsReport:
    """Per-round trace of one solve; every solver returns one.

    From ``ihs_solve``, ``iterates`` and the error lists have length
    rounds + 1 (the leading entry is the feasible starting point), and
    the rest one entry per round (0 inner iterations if unconstrained).
    ``solve_exact`` and the one-shot sketches report one round, with
    ``iterates == [x]`` and the solve's wall time. Errors are to
    ``problem.truth``, if set, and to ``ihs_solve``'s ``reference``.

    ``per_round_seconds`` is the calling thread's time per round: its
    wait for the round's sketched Gram, when a worker of the solve drew
    it ahead, or else its own draw and reduction of it, plus its solve of
    the round (see the module docstring for which rounds draw ahead). The
    sum is about the solve's wall time.
    """

    iterates: List[np.ndarray]
    errors_to_ls: Optional[List[float]]
    errors_to_truth: Optional[List[float]]
    per_round_seconds: List[float]
    certificates: Optional[List[Tuple[float, float]]]
    round_converged: List[bool]
    inner_iterations: List[int] = field(default_factory=list)

    @property
    def x(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def all_converged(self) -> bool:
        return all(self.round_converged)


def _leverage_for(a: np.ndarray, spec: SketchSpec):
    return leverage_scores(a) if spec.kind == "rowsample_leverage" else None


def _check_sketch_size(cset: ConstraintSet, sketch, d: int) -> None:
    """Refuse a sketch of fewer rows than the d columns of A_base on an
    unconstrained problem. Its Gram has rank at most m < d, yet rounding
    can leave Cholesky a tiny positive last pivot and a meaningless
    solution. A constrained solve keeps m < d, the paper's regime."""
    if isinstance(cset, Unconstrained) and sketch.m < d:
        raise RankDeficiencyError(
            f"sketch size m = {sketch.m} is below d = {d}: the sketched Gram of an "
            "unconstrained problem is singular")


def _report(problem: LsProblem, xs, seconds, flags, inner_iters,
            reference=None, certs=None) -> IhsReport:
    """The report of a solve whose iterates, in base form, are ``xs``.
    Errors are computed only against ``reference`` and ``problem.truth``,
    each when given."""
    iterates = [v.flatten(order="F") for v in xs]

    def errors(target):
        return None if target is None else [problem.seminorm(v - target) for v in iterates]

    return IhsReport(iterates, errors(reference), errors(problem.truth), seconds, certs, flags,
                     inner_iters)


def solve_exact(problem: LsProblem, ctl: Optional[SolverControls] = None) -> IhsReport:
    """Reference solution of ``min_C (1/2n) ||A x - y||^2``, as a report
    of one round (see :class:`IhsReport`).

    The inner solver minimizes the quadratic with ``G = A^T A / n`` and
    ``c = A^T y / n``: exactly by Cholesky when unconstrained, by
    projected gradient otherwise. A rank-deficient A raises
    :class:`RankDeficiencyError` when unconstrained. ``all_converged`` is
    false when the subsolver stopped at its iteration cap.
    """
    tic = time.perf_counter()
    a, y = _base_form(problem)
    n = problem.n
    q = SketchedQuadratic(None, a.T @ y / n, problem.set, G=a.T @ a / n)
    res = solve_constrained(q, x0=None, ctl=ctl)
    return _report(problem, [res.x], [time.perf_counter() - tic], [res.converged],
                   [res.iterations])


def _one_shot(problem: LsProblem, spec, ctl, operator, sketch_response) -> IhsReport:
    """The classical (``sketch_response``) or the Hessian sketch solve.

    The sketch, ``operator`` or else a draw from ``spec``, reaches the
    solve only through its Gram (:func:`sketch_gram`), so a dense draw
    never forms ``S A``. The classical solve takes both G and c from the
    Gram of ``S [A | y]``, sketched in one pass without stacking A and y.
    On an unconstrained problem a sketch of m < d_base rows raises
    :class:`RankDeficiencyError` before its Gram is formed.
    """
    tic = time.perf_counter()
    a, y = _base_form(problem)
    if operator is None and spec is None:
        raise ValueError("either a sketch spec or a realized operator is required")
    d = a.shape[1]
    sketch = spec if operator is None else operator
    _check_sketch_size(problem.set, sketch, d)
    lev = _leverage_for(a, spec) if operator is None else None
    if sketch_response:
        gram = sketch_gram(sketch, a, problem.n, leverage_p=lev, y=y)[0]
        g, c = gram[:d, :d], (gram[:d, d:] if y.ndim == 2 else gram[:d, d])
    else:
        g, c = sketch_gram(sketch, a, problem.n, leverage_p=lev)[0], a.T @ y / problem.n
    q = SketchedQuadratic(None, c, problem.set, G=g)
    res = solve_constrained(q, x0=None, ctl=ctl)
    return _report(problem, [res.x], [time.perf_counter() - tic], [res.converged],
                   [res.iterations])


def classical_sketch_solve(
    problem: LsProblem,
    spec: Optional[SketchSpec] = None,
    ctl: Optional[SolverControls] = None,
    operator: Optional[SketchOperator] = None,
) -> IhsReport:
    """Solve the fully sketched problem ``min_C (1/2nm) ||S(Ax - y)||^2``,
    as a report of one round (see :class:`IhsReport`).

    ``operator`` overrides the random draw with a fixed realized sketch
    (e.g. the scaled identity), in which case ``spec`` may be omitted.
    On a block problem the sketch acts on the n/k rows of A_base.
    """
    return _one_shot(problem, spec, ctl, operator, sketch_response=True)


def hessian_sketch_solve(
    problem: LsProblem,
    spec: Optional[SketchSpec] = None,
    ctl: Optional[SolverControls] = None,
    operator: Optional[SketchOperator] = None,
) -> IhsReport:
    """Solve with the quadratic term sketched and the exact linear term,
    ``min_C (1/2nm) ||S A x||^2 - <A^T y / n, x>``, as a report of one
    round (see :class:`IhsReport`): one plain IHS round started from 0."""
    return _one_shot(problem, spec, ctl, operator, sketch_response=False)


def _range_basis(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(s, V / s)`` for ``A = U diag(s) V^T``, so that ``U = A (V / s)``.
    A must have full column rank. s and V are those of the d x d factor R
    of ``A = QR`` (LAPACK ``dgeqrf``, Householder, so backward stable like
    an SVD of A), and neither Q nor U is formed."""
    d = a.shape[1]
    r = np.triu(scipy.linalg.lapack.dgeqrf(a)[0][:d]) if a.size else np.zeros((0, d))
    _, s, vt = thin_svd(r, check_finite=False)
    if s.size == 0 or s[0] <= 0 or np.sum(s > 1e-10 * s[0]) < a.shape[1]:
        raise RankDeficiencyError("certificates require A with full column rank")
    return s, vt.T / s


def _round_certificates(h: np.ndarray, basis, error: np.ndarray, mu: float = 1.0):
    """(Z1, Z2) of a sketch with restricted Gram ``h`` at the error
    ``x_ref - x_t`` (d_base x k on a block problem). ``A error = U c`` with
    ``c = diag(s) V^T error``, so Z1 = lambda_min(H) and Z2 =
    ``||(H - mu I) c|| / ||c||``, the deviation from ``mu I`` of the matrix
    that maps the error of an update with step mu (mu = 1: the paper's Z2).
    """
    s, w = basis
    z1 = float(np.linalg.eigvalsh(h)[0])
    c = (w.T @ error.reshape(s.size, -1)) * (s * s)[:, None]
    nc = float(np.linalg.norm(c))
    if nc <= 0.0:
        return z1, 0.0
    return z1, float(np.linalg.norm(h @ c - mu * c)) / nc


def contraction_certificates_unconstrained(
    a, op: SketchOperator, x_ls, x_start=None
) -> Tuple[float, float]:
    """Certificate pair (Z1, Z2) of a sketch for an unconstrained problem.

    Z1 is the smallest eigenvalue of ``U^T (S^T S / m) U`` with U an
    orthonormal basis of range(A); Z2 measures ``S^T S / m - I``
    between U and the unit vector along ``A (x_ls - x_start)``
    (``x_start`` defaults to zero, matching a first round started at
    the origin). A zero direction yields Z2 = 0.
    """
    am = ensure_matrix(a, "A")
    xv = ensure_vector(x_ls, "x_ls")
    start = np.zeros_like(xv) if x_start is None else ensure_vector(x_start, "x_start")
    for name, v in (("x_ls", xv), ("x_start", start)):
        if v.shape[0] != am.shape[1]:
            raise DimensionError(f"{name} has length {v.shape[0]}, A has {am.shape[1]} columns")
    basis = _range_basis(am)
    h = sketch_gram(op, am, am.shape[0], w=basis[1])[1]
    return _round_certificates(h, basis, xv - start)


def _step_scale(problem: LsProblem, config: IhsConfig, fixed_operator: bool) -> float:
    """Step mu of the unconstrained update for this problem and config."""
    m, d = config.spec.m, problem.d
    if (config.step == "plain" or config.spec.kind != "gaussian" or fixed_operator
            or problem.sketch_blocks != 1 or not isinstance(problem.set, Unconstrained)
            or m <= d + 3):
        return 1.0
    return (m - d) * (m - d - 3) / (m * (m - 1))


def ihs_solve(
    problem: LsProblem,
    config: IhsConfig,
    reference: Optional[np.ndarray] = None,
    operator_factory=None,
) -> IhsReport:
    """Run the iterative Hessian sketch and return the full trace.

    Each round draws an independent sketch from the config's seed
    (stream id = round index) and solves the sketched residual problem
    warm-started at the current iterate. When ``reference`` (usually
    the exact solution) is supplied, per-round errors to it are
    recorded, and certificates as well if requested and the problem is
    unconstrained. ``operator_factory(t)`` overrides the draw of round
    t (1-based) with a fixed realized sketch, of n/k rows on a block
    problem. It is called once per round, in order, on the calling
    thread, when round t is solved (see the module docstring), and an
    exception it or the operator's ``apply`` raises reaches the caller
    unchanged. A singular sketched Gram in an unconstrained round raises
    :class:`RankDeficiencyError`, as does, before its Gram is formed, an
    unconstrained round whose sketch has fewer rows than A_base columns.

    ``config.step`` selects the unconstrained update ``x+ = G^-1 (G x +
    mu grad)``: ``"plain"`` (mu = 1, the default; a Gaussian sketch at
    m = 6d contracts at about 0.573 per round) or ``"tuned"`` (the
    Gaussian Wishart step, about 0.41 at m = 6d; see the module
    docstring). The ``fig2`` experiment runs ``"tuned"`` unless given
    ``step="plain"``; the other runners run ``"plain"``, and ``ihskit
    solve`` runs ``"tuned"``.
    The certificates are measured against the mu that runs, so the
    bound ``err+ <= (Z2 / Z1) err`` holds for either step.

    ``config.inner_schedule`` sets the inner tolerance of constrained
    rounds (see the module docstring); unconstrained rounds are exact
    under either schedule.
    """
    a, y = _base_form(problem)
    cset, n = problem.set, problem.n
    ref = None if reference is None else _unflatten(problem, reference, "reference")
    x0 = np.zeros(problem.d) if config.x0 is None else config.x0
    x = project_iterate(cset, _unflatten(problem, x0, "x0"))

    mu = _step_scale(problem, config, operator_factory is not None)
    unconstrained = isinstance(cset, Unconstrained)
    tracking = not unconstrained and config.inner_schedule == "tracking" and config.rounds > 1
    want_certs = config.collect_certificates and ref is not None and unconstrained
    basis = _range_basis(a) if want_certs else None

    # The iterate-free part of a round: the Gram of S A / sqrt(n m) and the
    # certificates' H, drawn ahead on a worker of this solve or taken on
    # the calling thread when the round is solved.
    lev = None if operator_factory is not None else _leverage_for(a, config.spec)
    w = basis[1] if want_certs else None

    def sketched_gram(t):
        sketch = config.spec.for_round(t) if operator_factory is None else operator_factory(t)
        _check_sketch_size(cset, sketch, a.shape[1])
        return sketch_gram(sketch, a, n, w, lev)

    xs = [x]
    seconds: List[float] = []
    certs: Optional[List[Tuple[float, float]]] = [] if want_certs else None
    flags: List[bool] = []
    inner_iters: List[int] = []

    # Large panel rounds draw ahead on LOOKAHEAD workers at once; every
    # other round runs on the calling thread when it is solved.
    pool = None
    if (operator_factory is None and config.spec.kind in PANEL_KINDS
            and a.shape[0] * (config.spec.m + a.shape[1]) >= POOL_MIN_ENTRIES):
        pool = ThreadPoolExecutor(LOOKAHEAD, thread_name_prefix="ihskit")
    ahead: deque = deque()

    def draw_ahead(t):
        if pool is not None and t <= config.rounds:
            ahead.append(pool.submit(sketched_gram, t))

    try:
        for t in range(1, LOOKAHEAD + 1):
            draw_ahead(t)
        for t in range(1, config.rounds + 1):
            tic = time.perf_counter()
            gram, h = ahead.popleft().result() if pool is not None else sketched_gram(t)
            draw_ahead(t + LOOKAHEAD)
            if want_certs:
                certs.append(_round_certificates(h, basis, ref - x, mu))
            q = SketchedQuadratic(None, gram @ x + mu * (a.T @ (y - a @ x) / n), cset, G=gram)
            ctl = config.inner
            if tracking:
                # round 1 tracks the projected gradient step from x instead
                step = xs[-1] - xs[-2] if t >= 2 else projected_step(q, x, q.G @ x)[0] - x
                tol = TRACKING_FACTOR * math.sqrt(max(q.lam_max, 0.0)) * float(np.linalg.norm(step))
                if tol > ctl.resolve_tol(q.c):
                    ctl = replace(ctl, tol=tol)
            res = solve_constrained(q, x0=x, ctl=ctl)
            del h, gram, q      # free this round's Gram before taking the next
            x = res.x
            seconds.append(time.perf_counter() - tic)
            flags.append(res.converged)
            inner_iters.append(res.iterations)
            xs.append(x)
    finally:
        # no round of this solve is left queued or running, nor its workers
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    return _report(problem, xs, seconds, flags, inner_iters, reference, certs)


_WIDTH_FAMILIES = ("unconstrained", "sparse", "lowrank")


def recommend_sketch_size(
    family: str,
    d: Optional[int] = None,
    s: Optional[int] = None,
    d1: Optional[int] = None,
    d2: Optional[int] = None,
    r: Optional[int] = None,
    rho: float = 0.5,
    c0: float = 1.5,
) -> int:
    """Per-round sketch size ``m = ceil((c0 / rho^2) W^2)``.

    The squared width W^2 of the relevant cone is ``d`` for
    unconstrained problems, ``s log(e d / s)`` for l1 balls with
    sparsity hint s, and ``r (d1 + d2)`` for nuclear balls with rank
    hint r. ``c0`` must be finite and positive, and ``d`` at least 1.

    The formula sets the scale of m; it does not guarantee the rate
    rho. At the defaults an unconstrained problem gets m = 6d. A
    Gaussian sketch of that size contracts at about 0.573 per round
    under the plain update, above rho = 1/2; the tuned step
    (``IhsConfig(step="tuned")``) contracts at about 0.41, within it.
    For l1 balls the gap can be wider: a ROS sketch with d = 128,
    s = 16 gets m = 296, and on 4500 x 128 problems with sigma = 1 it
    took from 23 to 41 rounds to reach a relative error of 1e-8 over
    ten seeds, about 0.65 per round on the slowest.
    """
    if family not in _WIDTH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_WIDTH_FAMILIES}")
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    if not (0.0 < c0 < math.inf):
        raise ValueError(f"width constant c0 must be finite and positive, got {c0}")
    if d is not None and d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if family == "unconstrained":
        if d is None:
            raise MissingHintError("unconstrained width needs the dimension d")
        width_sq = float(d)
    elif family == "sparse":
        if d is None or s is None:
            raise MissingHintError("sparse width needs the dimension d and a sparsity hint s")
        if not 1 <= s <= d:
            raise ValueError(f"sparsity hint must satisfy 1 <= s <= d, got s={s}, d={d}")
        width_sq = s * math.log(math.e * d / s)
    else:
        if d1 is None or d2 is None or r is None:
            raise MissingHintError("low-rank width needs d1, d2 and a rank hint r")
        if not 1 <= r <= min(d1, d2):
            raise ValueError(f"rank hint must satisfy 1 <= r <= min(d1, d2), got {r}")
        width_sq = r * (d1 + d2)
    return int(math.ceil((c0 / rho ** 2) * width_sq))


def recommend_iterations(n: int, semi_norm_ls: float, sigma: float, rho: float) -> int:
    """Round count ``N = 1 + ceil(log(sqrt(n) r / sigma) / log(1/rho))``.

    ``r`` is the prediction seminorm of the exact solution. Clamps at 1
    when the log argument does not exceed one.
    """
    if n < 1 or semi_norm_ls <= 0 or sigma <= 0:
        raise ValueError("n, semi_norm_ls and sigma must be positive")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    arg = math.sqrt(n) * semi_norm_ls / sigma
    if arg <= 1.0:
        return 1
    return max(1, 1 + math.ceil(math.log(arg) / math.log(1.0 / rho)))
