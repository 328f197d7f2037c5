"""Single-point solvers: hard-thresholding descent, penalty decomposition,
their cascade, a fixed-support steepest-descent refiner and a scalarized
baseline.

Every step-size search backtracks over ``alpha0 * delta^h`` for
``h = 0..MAX_HALVINGS`` through :func:`backtrack`; only the acceptance test
and the window of steps a line model leaves open differ between callers.
The Armijo test (:func:`armijo_step`) asks for sufficient decrease on every
objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .core import (
    LINE_SAFETY,
    STATIONARITY_EPS,
    UNIT_ROUNDOFF,
    MultiObjectiveProblem,
    SupportSet,
    as_support,
    check_number,
    check_point,
    project_sparse,
)
from .directions import theta_L, theta_subspace

# Backtracking tries alpha0 * delta^h for h = 0..MAX_HALVINGS, then gives up.
MAX_HALVINGS = 50
# Relative slack on a step bound derived from a line model: the bound is a
# root computed in a few float operations, and a relative error e in its
# inputs moves it by at most 2e relative, far below 2^-30.
STEP_SLACK = 2.0 ** -30
# Penalty decomposition per problem family: (tau growth, first inner
# tolerance).  The inner tolerance shrinks by EPS_SHRINK per outer step and
# the decomposition stops once ||x - y|| <= XY_TOL.
PENALTY_SCHEDULE = {"quadratic": (1.5, 1e-2), "logistic": (1.3, 1e-5)}
EPS_SHRINK = 0.9
XY_TOL = 1e-3


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking line-search constants: alpha0 * delta^h steps, sufficient
    decrease gamma * a * theta."""

    alpha0: float
    delta: float
    gamma: float


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings.

    ``L`` is the proximal curvature used by the hard-thresholding steps; it
    should exceed every objective's gradient Lipschitz constant (a margin of
    1.1x is the usual choice, see :func:`default_config`).  ``tau0`` is the
    first penalty weight of :func:`mospd`, and ``family`` (a key of
    ``PENALTY_SCHEDULE``) picks its growth and inner tolerance.  The Armijo
    constants are fixed: ``SolverConfig.armijo``.
    """

    armijo: ClassVar[ArmijoParams] = ArmijoParams(alpha0=1.0, delta=0.5, gamma=1e-4)

    L: float
    eps: float = STATIONARITY_EPS
    max_iter: int = 10_000
    tau0: float = 1.0
    family: str = "quadratic"

    def __post_init__(self):
        check_number("L", self.L, 0, open_low=True)
        check_number("eps", self.eps, 0, open_low=True)
        check_number("max_iter", self.max_iter, 1, integer=True)
        check_number("tau0", self.tau0, 0, open_low=True)
        if self.family not in PENALTY_SCHEDULE:
            raise ValueError(f"unknown problem family {self.family!r}")


def default_config(p: MultiObjectiveProblem, family: str = "quadratic",
                   **settings) -> SolverConfig:
    """Config with L = 1.1 * max_j L(f_j) for a problem of ``family``.

    ``settings`` (``eps``, ``max_iter``, ``tau0``) replace their
    :class:`SolverConfig` defaults.
    """
    return SolverConfig(L=1.1 * float(np.max(p.lipschitz)), family=family, **settings)


@dataclass
class SolverTrace:
    """Recorded iterates: (point, objective vector, theta value) triples."""

    iterates: list
    status: str  # 'converged' | 'budget_exhausted'


def moiht(p: MultiObjectiveProblem, x0: np.ndarray, s: int, cfg: SolverConfig):
    """Multi-objective iterative hard thresholding.

    Repeats ``x <- x + d`` with ``d`` a global optimum of the proximal
    subproblem (:func:`theta_L`), stopping once ``theta_L(x) > -cfg.eps`` or
    the iteration budget runs out.  Every iterate is feasible, and each step
    decreases every objective by at least
    ``0.5 * ||step||^2 * (L - L(f_j))`` when ``L`` dominates the Lipschitz
    constants.

    Returns ``(point, SolverTrace)``.
    """
    x0, s = check_point(x0, s, p.n)
    if cfg.L <= float(np.max(p.lipschitz)):
        warnings.warn(
            f"curvature L={cfg.L} does not exceed max Lipschitz constant "
            f"{float(np.max(p.lipschitz))}; convergence guarantees are void",
            stacklevel=2,
        )
    x = x0.copy()
    trace = SolverTrace(iterates=[], status="budget_exhausted")
    fx = np.asarray(p.evaluate(x), dtype=float)
    for k in range(cfg.max_iter + 1):
        sol = theta_L(p, x, s, cfg.L)
        trace.iterates.append((x.copy(), fx.copy(), sol.theta))
        if sol.theta > -cfg.eps:
            trace.status = "converged"
            break
        if k == cfg.max_iter:
            break
        x = x + sol.d
        fnew = np.asarray(p.evaluate(x), dtype=float)
        if __debug__:
            gap = 0.5 * float(sol.d @ sol.d) * (cfg.L - p.lipschitz)
            # rounding in f grows with |f| (scalarized weights reach ~1e10)
            slack = 1e-9 + 1e-12 * (np.abs(fx) + np.abs(fnew))
            assert np.all(fx - fnew >= gap - slack), "descent lemma violated"
        fx = fnew
    return x, trace


def backtrack(p: MultiObjectiveProblem, x: np.ndarray, d: np.ndarray, cfg: SolverConfig,
              accept: Callable[[float, np.ndarray], bool], window=(0.0, math.inf)):
    """First step ``a = alpha0 * delta^h``, h = 0..MAX_HALVINGS, that passes
    ``accept(a, f(x + a d))``: returns ``(a, x + a d, f(x + a d))``, or
    ``(0.0, None, None)`` when none does.

    ``window = (floor, ceiling)`` holds the steps that can still pass:
    the caller has proven that ``accept`` rejects every step above
    ``ceiling`` and every step below ``floor``, so those are not evaluated
    and the search ends at the first step below ``floor``.  The result is
    the one the full search returns, bit for bit; only the number of
    ``evaluate`` calls differs.
    """
    evaluate, delta = p.evaluate, cfg.armijo.delta
    floor, ceiling = window
    a = cfg.armijo.alpha0
    for _ in range(MAX_HALVINGS + 1):
        if a < floor:
            break
        if a <= ceiling:
            cand = x + a * d
            fc = np.asarray(evaluate(cand), dtype=float)
            if accept(a, fc):
                return a, cand, fc
        a *= delta
    return 0.0, None, None


def _armijo_ceiling(model, theta: float, fx, gamma: float) -> float:
    """A step above which the line model proves the Armijo test fails, or ``inf``.

    Write ``(s, lo, _, e) = model = p.line(x, d)`` and ``b_j = s_j - gamma theta``.
    The search compares ``f_j(x + a d) <= fx_j + gamma * a * theta`` in
    floats; that threshold lies within ``u |fx_j| + 4.01 u gamma |theta|``
    of its exact value (``a <= alpha0 = 1``), and computing ``b_j`` errs by
    ``<= u |s_j| + 2.01 u gamma |theta|``.  So with
    ``c_j = e_j + 2 u (|fx_j| + |s_j| + 4 gamma |theta|)`` objective ``j``
    rejects every step with ``a^2 lo_j / 2 + a b_j > c_j``; for
    ``lo_j >= 0`` that is every step above the positive root.  This needs
    ``fx`` to be the oracle's own ``f(x)``, as the ``ArchiveEntry`` and
    :func:`mosd` contracts guarantee.  Objectives whose bound is not finite
    are left out, and any one objective that rejects a step rejects it.
    """
    slope, lo, _, err = model
    gt = gamma * theta
    ceiling = math.inf
    for s_j, lo_j, e_j, f_j in zip(slope, lo, err, fx):
        if not lo_j >= 0.0:
            continue  # the rejected steps need not be a prefix
        c = e_j + 2.0 * UNIT_ROUNDOFF * (abs(f_j) + abs(s_j) + 4.0 * abs(gt))
        root = positive_root(lo_j, s_j - gt, c) * (1.0 + STEP_SLACK)
        if root < ceiling:  # never true for NaN
            ceiling = root
    return ceiling


def positive_root(A: float, B: float, C: float) -> float:
    """The step ``a >= 0`` with ``A a^2 / 2 + B a = C``, for ``A, C >= 0``.

    Computed without cancellation, so it is within a few units in the last
    place.  ``inf`` when the left side never reaches ``C`` (``A = 0``,
    ``B <= 0``), NaN when the discriminant overflowed or is NaN.
    """
    disc = B * B + 2.0 * A * C
    if not disc < math.inf:
        return math.nan
    if B > 0.0:
        return 2.0 * C / (B + math.sqrt(disc))
    if A > 0.0:
        return (math.sqrt(disc) - B) / A
    return math.inf


def armijo_step(p: MultiObjectiveProblem, x: np.ndarray, d: np.ndarray, theta: float,
                cfg: SolverConfig, fx: np.ndarray | None = None):
    """First step ``a = alpha0 * delta^h`` with sufficient decrease on every
    objective: ``f_j(x + a d) <= f_j(x) + gamma * a * theta`` for all j.

    ``theta`` must be negative (a descent certificate).  ``fx`` is ``f(x)``
    when the caller already holds it, an ``(m,)`` array; ``None`` evaluates
    it here.  Returns ``(a, x + a d, f(x + a d))`` as :func:`backtrack`
    does, ``(0.0, None, None)`` if no step up to ``h = MAX_HALVINGS``
    qualifies.

    With a ``p.line`` model the steps it proves too long
    (:func:`_armijo_ceiling`) are skipped without evaluating them; the
    returned step, point and values are the same.
    """
    if theta >= 0:
        raise ValueError("the Armijo search needs a strictly negative theta")
    if fx is None:
        fx = np.asarray(p.evaluate(x), dtype=float)
    else:
        fx = np.asarray(fx, dtype=float)
        if fx.shape != (p.m,):
            raise ValueError(f"fx must have shape ({p.m},), got {fx.shape}")
    gamma = cfg.armijo.gamma
    window = (0.0, math.inf if p.line is None
              else _armijo_ceiling(p.line(x, d), theta, fx.tolist(), gamma))
    # all() over the list of m flags is ndarray.all() without its dispatch
    return backtrack(p, x, d, cfg,
                     lambda a, fc: all((fc <= fx + gamma * a * theta).tolist()), window)


def armijo_common(p: MultiObjectiveProblem, x: np.ndarray, d: np.ndarray,
                  theta: float, I: None, cfg: SolverConfig, *,
                  fx: np.ndarray | None = None) -> float:
    """The step of :func:`armijo_step` (same checks), or 0.0 if none qualifies.

    A caller that holds ``f(x)`` passes it as ``fx`` (shape ``(m,)``, else
    ``ValueError``) and it is not evaluated again.  ``I`` must be ``None``
    (every objective; anything else is a ``ValueError``): the slot stays so
    that ``cfg`` keeps its position, where ``bench/tracing.py`` reads it.
    """
    if I is not None:
        raise ValueError("the Armijo search tests every objective; I must be None")
    return armijo_step(p, x, d, theta, cfg, fx)[0]


def mosd(p: MultiObjectiveProblem, x0: np.ndarray, J, eps: float,
         cfg: SolverConfig, fx: np.ndarray | None = None) -> np.ndarray:
    """Steepest common descent restricted to the index set ``J``.

    Iterates Armijo steps along the ``theta_subspace`` direction until the
    subspace measure exceeds ``-eps`` or the budget runs out.  Coordinates
    off ``J`` are never touched, so zeros there stay bit-exact zeros.
    ``fx`` is ``f(x0)`` when the caller already holds it, as for
    :func:`armijo_step`; ``None`` leaves it to the first line search.  After
    that each search starts from the values of the step it accepted last, so
    the objectives are evaluated at most once at ``x0`` plus once per trial
    step.  A start it cannot move from comes back as an unchanged copy.
    """
    x0 = np.asarray(x0, dtype=float)
    J = as_support(J, p.n)
    if not J.contains_support_of(x0):
        raise ValueError("start point has nonzeros outside the fixed support")
    x = x0.copy()
    for _ in range(cfg.max_iter):
        sol = theta_subspace(p, x, J)
        if sol.theta > -eps:
            break
        alpha, x_new, f_new = armijo_step(p, x, sol.d, sol.theta, cfg, fx)
        if alpha == 0.0:
            break  # line search stalled; cannot certify further progress
        x, fx = x_new, f_new
    return x


def _penalized(p: MultiObjectiveProblem, y: np.ndarray, tau: float) -> MultiObjectiveProblem:
    """Objectives f_j(x) + (tau/2) ||x - y||^2 with matching oracles.

    When ``p`` has a ``line`` model, so does the result: the penalty adds
    ``tau (x - y).d`` to every slope and ``tau ||d||^2`` to every curvature
    bound, exactly.  Its rounding, in ``u = 2^-53`` with
    ``D = ||x - y|| + ||d||`` and ``R = D + ||y|| >= ||x|| + ||d||``:

    * one evaluation of the penalty errs by
      ``<= (n + 3) 1.002 u tau ||z - y||^2 / 2``, with
      ``||z - y|| <= D + 2.01 u R``; adding it to ``f_j`` errs by
      ``u (|f_j| + penalty)``, and ``2 u |f_j|`` over both evaluations is
      at most ``err_j / 4`` of ``p`` by the contract;
    * rounding ``x + a d`` moves the penalty by
      ``<= 2.01 u tau D R + 2.1 u^2 tau R^2``;
    * the computed penalty slope and curvature move the model by
      ``<= (n + 2) 1.002 u tau D^2 / 2``;
    * adding those to ``p``'s slope and curvature in floats moves the
      model by ``<= 1.01 u (|slope_j| + max(|lo_j|, |hi_j|) / 2)`` of the
      sums.

    The first three come to ``<= u tau ((1.51 n + 5.1) D^2 + 2.1 D R +
    2.2 u R^2)``.  The result's ``err_j`` is ``1.25 err_j`` of ``p`` plus
    ``LINE_SAFETY`` times ``u tau ((2n + 6) D^2 + 3 D R + 3 u R^2) +
    2 u (|slope_j| + max(|lo_j|, |hi_j|))``, and at least
    ``8 u |f_j + penalty|``.
    """
    y = np.asarray(y, dtype=float)
    evaluate, gradient, half_tau = p.evaluate, p.gradient, 0.5 * tau

    def ev(x):
        diff = x - y
        return np.asarray(evaluate(x), dtype=float) + half_tau * diff.dot(diff)

    def grad(x):
        return np.asarray(gradient(x), dtype=float) + tau * (x - y)

    inner, norm_y = p.line, math.sqrt(y.dot(y))
    k, k_sum = LINE_SAFETY * UNIT_ROUNDOFF * tau, LINE_SAFETY * 2.0 * UNIT_ROUNDOFF

    def line(x, d):
        slope, lo, hi, err = inner(x, d)
        diff = x - y
        q = float(d.dot(d))
        ts, tq = tau * float(diff.dot(d)), tau * q
        D = math.sqrt(diff.dot(diff)) + math.sqrt(q)
        R = D + norm_y
        pen = k * ((2 * p.n + 6) * D * D + 3.0 * D * R + 3.0 * UNIT_ROUNDOFF * R * R)
        slope = [s + ts for s in slope]
        lo = [v + tq for v in lo]
        hi = [v + tq for v in hi]
        err = [1.25 * e + pen + k_sum * (abs(s) + max(abs(a), abs(b)))
               for e, s, a, b in zip(err, slope, lo, hi)]
        return slope, lo, hi, err

    return MultiObjectiveProblem(
        n=p.n, m=p.m, evaluate=ev, gradient=grad, lipschitz=p.lipschitz + tau,
        line=None if inner is None else line,
    )


def mospd(p: MultiObjectiveProblem, x0: np.ndarray, s: int, cfg: SolverConfig):
    """Sparse penalty decomposition: alternate penalized descent and projection.

    Outer loop over a penalty weight tau that starts at ``cfg.tau0`` and
    grows, with a shrinking inner tolerance, by the ``cfg.family`` entry of
    ``PENALTY_SCHEDULE``; inside, alternate
    (i) an x-step driving x to approximate subspace stationarity for the
    penalized objectives ``f_j(x) + (tau/2)||x - y||^2`` over the full space
    and (ii) the y-step ``y = project_sparse(x, s)``, until x moves less
    than the inner tolerance.  Stops once ``||x - y|| <= XY_TOL`` and
    returns ``project_sparse(x, s)`` so the output is always feasible.

    Returns ``(point, info)``: ``status`` ('converged' | 'budget_exhausted'),
    iteration counts, final ``xy_gap``, ``tau_final`` and ``x_unprojected``.
    """
    x0, s = check_point(x0, s, p.n)
    full = SupportSet(tuple(range(p.n)), p.n)
    tau_growth, eps_k = PENALTY_SCHEDULE[cfg.family]
    x = x0.copy()
    y = project_sparse(x, s)
    tau = cfg.tau0
    xy_gap = float(np.linalg.norm(x - y))
    outer = 0
    inner_total = 0
    status = "budget_exhausted"
    # tau guard keeps the penalized Lipschitz constants representable.
    for outer in range(1, min(cfg.max_iter, 1000) + 1):
        for _ in range(100):  # inner alternation cap per tau (warm started)
            inner_total += 1
            x_new = mosd(_penalized(p, y, tau), x, full, eps_k, cfg)
            y = project_sparse(x_new, s)
            moved = float(np.linalg.norm(x_new - x))
            x = x_new
            if moved < eps_k:
                break
        xy_gap = float(np.linalg.norm(x - y))
        if xy_gap <= XY_TOL:
            status = "converged"
            break
        tau *= tau_growth
        eps_k *= EPS_SHRINK
        if tau > 1e14:
            break
    return project_sparse(x, s), {
        "status": status,
        "outer_iterations": outer,
        "inner_iterations": inner_total,
        "xy_gap": xy_gap,
        "x_unprojected": x,
        "tau_final": tau,
    }


def mohyb(p: MultiObjectiveProblem, x0: np.ndarray, s: int, cfg: SolverConfig):
    """Penalty decomposition followed by hard-thresholding descent.

    The second stage starts from the first stage's output, so whenever it
    converges the result is L-stationary within ``cfg.eps``.  Returns
    ``(point, info)`` with the first stage's info under ``mospd``, the
    second stage's ``moiht_iterations`` and its ``status``.
    """
    x1, info1 = mospd(p, x0, s, cfg)
    x2, trace = moiht(p, x1, s, cfg)
    return x2, {
        "mospd": info1,
        "moiht_iterations": len(trace.iterates) - 1,
        "status": trace.status,
    }


def default_lambda_grid(n: int) -> np.ndarray:
    """The 2n-point trade-off grid {2^(i + 1/2) : i = -n, ..., n-1}."""
    return 2.0 ** (np.arange(-n, n, dtype=float) + 0.5)


def scalarize(p: MultiObjectiveProblem, lam: float) -> MultiObjectiveProblem:
    """Single-objective problem f_1 + lam * f_2 (requires m = 2)."""
    if p.m != 2:
        raise ValueError("scalarization is defined for biobjective problems")

    def ev(x, _lam=lam):
        f = np.asarray(p.evaluate(x), dtype=float)
        return np.array([f[0] + _lam * f[1]])

    def grad(x, _lam=lam):
        g = np.asarray(p.gradient(x), dtype=float)
        return (g[0] + _lam * g[1])[None, :]

    lip = np.array([float(p.lipschitz[0] + lam * p.lipschitz[1])])
    return MultiObjectiveProblem(n=p.n, m=1, evaluate=ev, gradient=grad, lipschitz=lip)


def scalarized_iht(p: MultiObjectiveProblem, s: int, lambda_grid, cfg: SolverConfig) -> list:
    """Single-objective hard thresholding on f_1 + lam f_2 for each lam.

    Each run starts at the origin with curvature 1.1 * (L(f_1) + lam L(f_2));
    returns one point per grid value, in grid order.  ``cfg.L`` is ignored
    in favor of the per-lambda curvature.
    """
    if p.m != 2:
        raise ValueError("scalarized_iht requires a biobjective problem")
    x0, out = np.zeros(p.n), []
    for lam in np.asarray(lambda_grid, dtype=float):
        sp = scalarize(p, float(lam))
        cfg_lam = replace(cfg, L=1.1 * float(sp.lipschitz[0]))
        x, _ = moiht(sp, x0, s, cfg_lam)
        out.append(x)
    return out
