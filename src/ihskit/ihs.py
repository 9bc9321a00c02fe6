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
U an orthonormal basis of range(A), which a round forms from its
``S A`` beside its Gram, so that no round keeps its operator.

Constrained rounds have no closed form; projected gradient solves them,
warm-started at x_t. ``IhsConfig.inner_schedule`` sets its tolerance:

* ``"tracking"`` (default) - round t >= 2 stops at
  ``max(floor, TRACKING_FACTOR * sqrt(lambda_max(G_t)) * ||x_{t-1} -
  x_{t-2}||)``, where the floor is the fixed tolerance below. The inner
  accuracy only keeps pace with the outer progress (Schmidt, Le Roux &
  Bach, NeurIPS 2011; the inexact subproblems of Pilanci & Wainwright's
  Newton sketch, SIAM J. Optim. 2017). Round 1 keeps the floor. The
  tolerance bounds the inner solver's ``grad_map_norm``, the gradient
  mapping at the point of its last step, which bounds that of the
  round's result within a factor of 2 (see ``ihskit.subsolver``);
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
14-18 rounds (median 15.5), against 23-29 (median 24) exact.

A round's sketch does not depend on the iterate, so ``ihs_solve``
draws and applies it ahead of time: rounds t+1 and t+2 are drawn,
applied to A and reduced to their Gram matrices on a pool of two worker
threads that every solve shares, while the calling thread forms the
gradient and solves round t. numpy's random fill and BLAS release the
interpreter lock, so the draws run on two cores. Each round's stream is
fixed by ``(seed, t)``, so the output does not depend on the order in
which the rounds are drawn. A fixed ``operator_factory(t)`` must
therefore be a pure function of t: it is called on a worker thread, up
to two rounds before round t is solved.

A round without an ``operator_factory`` forms ``S A`` without an
operator (:func:`~ihskit.sketch.sketch_product`). A Gaussian or
Rademacher sketch is then drawn and applied in panels of
``PANEL_ROWS`` rows, so a round holds one panel (two for Rademacher)
besides its m x d matrix ``S A`` and its Gram, whatever n is; such
rounds take no lock, and both workers draw at once. The panel product
gives the same draws as ``build_sketch``, but at some shapes BLAS
rounds a panel's rows differently from those of the whole product. Every
other round runs its ``apply``, and the Gram product of its output,
under the solve's ``apply_lock``: ROS and row-sampling rounds, and
rounds of an ``operator_factory``. One such apply and its sketched
matrix live at a time, whatever the workers' timing, so a solve's
transient memory is that of a single apply, beside the realized
operators: two drawn ahead, each holding its m x n matrix if it is
dense, and freed when its apply returns. Small rounds, with fewer
than ``POOL_MIN_ENTRIES`` entries in the sketch and A, take the same
steps in the same order on the calling thread, where a worker would
cost more in hand-offs than it saves.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .constraints import ConstraintSet, Unconstrained, ambient_dim
from .errors import DimensionError, MissingHintError, RankDeficiencyError
from .linalg import ensure_matrix, ensure_vector, thin_svd, top_eigenvalue
from .sketch import PANEL_KINDS, SketchOperator, SketchSpec, leverage_scores, sketch_product
from .sketch import build_sketch  # unused here, but perfbench's tracer wraps this name
from .subsolver import SketchedQuadratic, SolverControls, project_iterate, solve_constrained

__all__ = [
    "LsProblem", "IhsConfig", "IhsReport",
    "solve_exact", "classical_sketch_solve", "hessian_sketch_solve", "ihs_solve",
    "recommend_sketch_size", "recommend_iterations",
    "contraction_certificates_unconstrained",
]

STEPS = ("plain", "tuned")
INNER_SCHEDULES = ("tracking", "fixed")

# Tracking inner tolerance per unit of sqrt(lambda_max(G)) * outer step,
# on the inner solver's stopping measure: the gradient mapping at the
# point of its last step, which bounds that of the returned iterate
# within a factor of 2. On the perfbench problems of seeds 1301-1306,
# factors of 0.005, 0.01, 0.02, 0.04 and 0.1 took a mean 21.9, 18.2,
# 15.4, 17.4 and 21.5 rounds to perfbench's target on lowrank_nuclear,
# and 13.6, 12.8, 11.4, 11.1 and 13.3 on lasso_ros. Both sides of 0.02
# lose rounds: looser rounds stop short of progress, tighter ones damp
# the outer step less.
TRACKING_FACTOR = 0.02

# Rounds whose sketch is drawn and applied ahead of the round being
# solved, one on each worker of the shared pool.
LOOKAHEAD = 2

# Rounds whose sketch and A_base hold fewer entries than this,
# n_base (m + d_base), draw and apply on the calling thread instead.
# Their iterate-free part takes a few hundred microseconds, most of it in
# the interpreter, so a worker overlaps little of it and costs the
# calling thread interpreter-lock hand-offs. On perfbench's
# lowrank_nuclear (120 x 12, m = 72: 10080 entries; 2 cores, one BLAS
# thread) the pool made time_to_target_s 8% and setup_s 12% slower
# (medians of 13 pairs of runs). The smallest perfbench workload above
# the threshold, ls_gaussian, has 688128.
POOL_MIN_ENTRIES = 1 << 16

_pool_lock = threading.Lock()
_pool: Optional[Tuple[int, ThreadPoolExecutor]] = None


def _sketch_pool() -> ThreadPoolExecutor:
    """The worker pool that every solve shares.

    It is created on first use, so importing the package starts no
    thread, and again in a forked child, which inherits the pool object
    but none of its threads.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), ThreadPoolExecutor(LOOKAHEAD, thread_name_prefix="ihskit"))
        return _pool[1]


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
    sigma: Optional[float] = None
    sketch_blocks: int = 1

    def __post_init__(self):
        self.A = ensure_matrix(self.A, "A")
        self.y = ensure_vector(self.y, "y")
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
    each constrained round after the first to track the outer step,
    with ``inner.resolve_tol(c)`` as its floor. It gives up the
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
    """Per-round trace of one iterative solve.

    ``iterates`` and the error lists have length rounds + 1 (the leading
    entry is the feasible starting point); timings, certificates,
    convergence flags and inner iteration counts (0 for unconstrained
    rounds) have one entry per round.

    ``per_round_seconds`` is the calling thread's time per round: its
    wait for the round's sketched Gram, drawn ahead on a worker thread,
    plus its solve of the round. A small round, drawn on the calling
    thread (see ``POOL_MIN_ENTRIES``), counts the draw of the round two
    ahead instead of a wait. The sum is about the solve's wall time.
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


def solve_exact(
    problem: LsProblem,
    ctl: Optional[SolverControls] = None,
    full_result: bool = False,
):
    """Reference solution of ``min_C (1/2n) ||A x - y||^2``.

    The inner solver minimizes the quadratic with ``G = A^T A / n`` and
    ``c = A^T y / n``: exactly by Cholesky when unconstrained, by
    projected gradient otherwise. A rank-deficient A raises
    :class:`RankDeficiencyError` when unconstrained. With ``full_result``
    the return value is ``(x, converged)``, where ``converged`` is false
    when the subsolver stopped at its iteration cap.
    """
    a, y = _base_form(problem)
    n = problem.n
    q = SketchedQuadratic(None, a.T @ y / n, problem.set, G=a.T @ a / n)
    res = solve_constrained(q, x0=None, ctl=ctl)
    x = res.x.flatten(order="F")
    return (x, res.converged) if full_result else x


def _one_shot(problem: LsProblem, spec, ctl, full_result, operator, sketch_response):
    """The classical (``sketch_response``) or the Hessian sketch solve.

    Without an operator the sketch is drawn from ``spec`` by
    :func:`sketch_product`. The classical solve sketches ``[A | y]`` in
    one pass.
    """
    a, y = _base_form(problem)
    if operator is None and spec is None:
        raise ValueError("either a sketch spec or a realized operator is required")
    d = a.shape[1]
    src = np.column_stack((a, y)) if sketch_response else a
    if operator is not None:
        say = operator.apply(src)
    else:
        say = sketch_product(spec, src, leverage_p=_leverage_for(a, spec))
    sa = say[:, :d]
    sy = (say[:, d:] if y.ndim == 2 else say[:, d]) if sketch_response else None
    scale = problem.n * sa.shape[0]
    c = sa.T @ sy / scale if sketch_response else a.T @ y / problem.n
    q = SketchedQuadratic(sa / math.sqrt(scale), c, problem.set)
    res = solve_constrained(q, x0=None, ctl=ctl)
    x = res.x.flatten(order="F")
    return (x, res.converged) if full_result else x


def classical_sketch_solve(
    problem: LsProblem,
    spec: Optional[SketchSpec] = None,
    ctl: Optional[SolverControls] = None,
    full_result: bool = False,
    operator: Optional[SketchOperator] = None,
):
    """Solve the fully sketched problem ``min_C (1/2nm) ||S(Ax - y)||^2``.

    ``operator`` overrides the random draw with a fixed realized sketch
    (e.g. the scaled identity), in which case ``spec`` may be omitted.
    On a block problem the sketch acts on the n/k rows of A_base.
    """
    return _one_shot(problem, spec, ctl, full_result, operator, sketch_response=True)


def hessian_sketch_solve(
    problem: LsProblem,
    spec: Optional[SketchSpec] = None,
    ctl: Optional[SolverControls] = None,
    full_result: bool = False,
    operator: Optional[SketchOperator] = None,
):
    """Solve with the quadratic term sketched and the exact linear term,
    ``min_C (1/2nm) ||S A x||^2 - <A^T y / n, x>``."""
    return _one_shot(problem, spec, ctl, full_result, operator, sketch_response=False)


def _range_basis(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(s, V / s)`` for ``A = U diag(s) V^T``, so that ``U = A (V / s)``.
    A must have full column rank."""
    _, s, vt = thin_svd(a)
    if s.size == 0 or s[0] <= 0 or np.sum(s > 1e-10 * s[0]) < a.shape[1]:
        raise RankDeficiencyError("certificates require A with full column rank")
    return s, vt.T / s


def _restricted_gram(b: np.ndarray, basis) -> np.ndarray:
    """``H = U^T (S^T S / m) U`` from ``B = S A``, as ``S U = B (V / s)``. Its
    error grows as eps cond(A), and would as eps cond(A)^2 from ``B^T B``."""
    su = b @ basis[1]
    return su.T @ su / b.shape[0]


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
    return _round_certificates(_restricted_gram(op.apply(am), basis), basis, xv - start)


def _step_scale(problem: LsProblem, config: IhsConfig, fixed_operator: bool) -> float:
    """Step mu of the unconstrained update for this problem and config."""
    m, d = config.spec.m, problem.d
    if (config.step == "plain" or config.spec.kind != "gaussian" or fixed_operator
            or problem.sketch_blocks != 1 or not isinstance(problem.set, Unconstrained)
            or m <= d + 3):
        return 1.0
    return (m - d) * (m - d - 3) / (m * (m - 1))


class _CallingThread:
    """Runs each submitted call at once on the calling thread."""

    @staticmethod
    def submit(fn, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:        # raised when the round is taken, as from the pool
            fut.set_exception(exc)
        return fut


def _scaled_gram(b: np.ndarray, n: int) -> np.ndarray:
    """The Gram of ``B / sqrt(n m)`` for the m x d sketched matrix
    ``B = S A``, which it scales in place."""
    b /= math.sqrt(n * b.shape[0])
    return b.T @ b


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
    problem. It must be a pure function of t: it is called on a worker
    thread of the shared pool, up to two rounds before round t is
    solved (see the module docstring), and an exception it or the
    operator's ``apply`` raises reaches the caller unchanged. A
    singular sketched Gram in an unconstrained round raises
    :class:`RankDeficiencyError`.

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
    want_certs = config.collect_certificates and ref is not None and unconstrained
    basis = _range_basis(a) if want_certs else None

    # The iterate-free part of a round, run on a pool worker (or, for a
    # small round, on the calling thread): the certificates' H and the Gram
    # of S A / sqrt(n m), so S A is freed before the part returns. A dense
    # sketch without an operator is drawn in panels, under no lock.
    lev = None if operator_factory is not None else _leverage_for(a, config.spec)
    apply_lock = threading.Lock()
    lock = (nullcontext() if operator_factory is None and config.spec.kind in PANEL_KINDS
            else apply_lock)

    def sketched_gram(t):
        op = None if operator_factory is None else operator_factory(t)
        with lock:
            b = sketch_product(config.spec.for_round(t), a, lev) if op is None else op.apply(a)
            return (_restricted_gram(b, basis) if want_certs else None), _scaled_gram(b, n)

    xs = [x]
    seconds: List[float] = []
    certs: Optional[List[Tuple[float, float]]] = [] if want_certs else None
    flags: List[bool] = []
    inner_iters: List[int] = []

    if a.shape[0] * (config.spec.m + a.shape[1]) >= POOL_MIN_ENTRIES:
        pool = _sketch_pool()
    else:
        pool = _CallingThread()
    ahead: deque = deque()

    def draw_ahead(t):
        if t <= config.rounds:
            ahead.append(pool.submit(sketched_gram, t))

    try:
        for t in range(1, LOOKAHEAD + 1):
            draw_ahead(t)
        for t in range(1, config.rounds + 1):
            tic = time.perf_counter()
            h, gram = ahead.popleft().result()
            draw_ahead(t + LOOKAHEAD)
            if want_certs:
                certs.append(_round_certificates(h, basis, ref - x, mu))
            q = SketchedQuadratic(None, gram @ x + mu * (a.T @ (y - a @ x) / n), cset, G=gram)
            ctl, lam = config.inner, None
            if not unconstrained:
                lam = top_eigenvalue(q.G)
                if config.inner_schedule == "tracking" and t >= 2:
                    outer_step = float(np.linalg.norm(xs[-1] - xs[-2]))
                    tol = TRACKING_FACTOR * math.sqrt(max(lam, 0.0)) * outer_step
                    if tol > ctl.resolve_tol(q.c):
                        ctl = replace(ctl, tol=tol)
            res = solve_constrained(q, x0=x, ctl=ctl, lam_max=lam)
            del h, gram, q      # free this round's Gram before taking the next
            x = res.x
            seconds.append(time.perf_counter() - tic)
            flags.append(res.converged)
            inner_iters.append(res.iterations)
            xs.append(x)
    finally:
        # after a failure no round of this solve is left queued or running
        for fut in ahead:
            fut.cancel()
        wait(ahead)

    iterates = [v.flatten(order="F") for v in xs]

    def errors(target):
        return None if target is None else [problem.seminorm(v - target) for v in iterates]

    return IhsReport(iterates, errors(reference), errors(problem.truth), seconds, certs, flags,
                     inner_iters)


_WIDTH_FAMILIES = ("unconstrained", "sparse", "lowrank")
_FAMILY_ALIASES = {"l1": "sparse", "nuclear": "lowrank", "gaussian": "unconstrained"}


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
    hint r.

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
    fam = _FAMILY_ALIASES.get(family, family)
    if fam not in _WIDTH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_WIDTH_FAMILIES}")
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    if fam == "unconstrained":
        if d is None:
            raise MissingHintError("unconstrained width needs the dimension d")
        width_sq = float(d)
    elif fam == "sparse":
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
