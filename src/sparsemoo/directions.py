"""Stationarity measures for cardinality-constrained multi-objective problems.

Three nested notions are computed here, all as optimal values of strongly
convex min-max direction subproblems:

* ``theta_subspace`` — steepest common descent restricted to a fixed index
  set ``J`` (optionally for a subset ``I`` of objectives).
* ``theta_feasible`` — steepest descent over the cone of feasible directions
  at ``x``; zero value is the Pareto-stationarity test.
* ``theta_L`` — proximal subproblem with curvature ``L`` over directions
  that keep ``x + d`` feasible; zero value is the L-stationarity test.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_SUPPORTS,
    CapacityError,
    SupportSet,
    check_budget,
    is_feasible,
    l0_norm,
    support,
)
from .simplex_qp import DirectionSolution, solve_simplex_qp

# Enumerations up to _CACHE_LIMIT rows are built once and cached; larger ones
# stream in blocks of _CHUNK rows.
_CHUNK = 131_072
_CACHE_LIMIT = 100_000


@dataclass(frozen=True)
class SparseDirectionSolution:
    """Optimal direction of a sparsity-constrained subproblem.

    ``d`` is full length and satisfies ``x + d`` feasible for the queried
    point; ``support`` is the index set attaining the optimum (lexicographic
    first among ties) and ``lam`` the optimal simplex weights on it.
    """

    d: np.ndarray
    support: SupportSet
    theta: float
    lam: np.ndarray


def _index_rows(combos, count: int, k: int) -> np.ndarray:
    """The next ``count`` k-subsets from ``combos`` as a (count, k) array."""
    flat = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp, count=count * k)
    return flat.reshape(count, k)


@functools.lru_cache(maxsize=64)
def _all_supports(n: int, k: int) -> np.ndarray:
    arr = _index_rows(itertools.combinations(range(n), k), math.comb(n, k), k)
    arr.setflags(write=False)
    return arr


def _support_chunks(n: int, k: int):
    """Every size-k subset of range(n), lexicographic, as (N, k) row blocks.

    Raises :class:`CapacityError` when there are more than ``MAX_SUPPORTS``.
    For k = 0 the single empty subset is one row of width zero.
    """
    total = math.comb(n, k)
    if total > MAX_SUPPORTS:
        raise CapacityError(
            f"enumerating {total} supports exceeds the cap {MAX_SUPPORTS}; reduce n or s"
        )
    if total <= _CACHE_LIMIT:
        yield _all_supports(n, k)
        return
    combos = itertools.combinations(range(n), k)
    for start in range(0, total, _CHUNK):
        yield _index_rows(combos, min(_CHUNK, total - start), k)


def _thetas(grads, K, L, B) -> np.ndarray:
    """Optimal value of the on-support subproblem for each row of ``K``.

    Row i solves ``min_d max_j grads_j[K_i]^T d + B[j, i] + (L/2)||d||^2``
    through its simplex dual: closed form for m <= 2, one
    :func:`solve_simplex_qp` per row otherwise.
    """
    m = grads.shape[0]
    if m == 1:
        G = grads[0][K]
        return B[0] - np.einsum("ij,ij->i", G, G) / (2.0 * L)
    if m == 2:
        b1, b2 = B
        G1 = grads[0][K]
        G2 = grads[1][K]
        U = G1 - G2
        uu = np.einsum("ij,ij->i", U, U)
        g2u = np.einsum("ij,ij->i", G2, U)
        g22 = np.einsum("ij,ij->i", G2, G2)
        safe = np.where(uu > 0.0, uu, 1.0)
        t_int = np.clip((L * (b1 - b2) - g2u) / safe, 0.0, 1.0)
        t_flat = np.where(b1 > b2, 1.0, np.where(b1 < b2, 0.0, 0.5))
        t = np.where(uu > 0.0, t_int, t_flat)
        q = (t * t * uu + 2.0 * t * g2u + g22) / (2.0 * L) - (t * b1 + (1.0 - t) * b2)
        return -q
    return np.array([solve_simplex_qp(grads[:, row].T, b=b, L=L).theta
                     for row, b in zip(K, B.T)])


def _best_support(grads, n: int, chunks, L, offsets) -> SupportSet:
    """Lexicographically first row of ``chunks`` minimizing :func:`_thetas`.

    ``offsets(K)`` gives the (m, N) affine offsets for a block ``K``.
    """
    best_theta, best_K = np.inf, None
    for K in chunks:
        thetas = _thetas(grads, K, L, offsets(K))
        i = int(np.argmin(thetas))
        if thetas[i] < best_theta:
            best_theta, best_K = float(thetas[i]), K[i]
    return SupportSet(tuple(int(v) for v in best_K), n)


def _as_support(J, n: int) -> SupportSet:
    if isinstance(J, SupportSet):
        if J.n != n:
            raise ValueError(f"support set over dimension {J.n}, expected {n}")
        return J
    return SupportSet.from_iterable(J, n)


def theta_subspace(p, x, J, I=None) -> DirectionSolution:
    """Steepest common descent value/direction restricted to the set ``J``.

    Solves ``min_d max_{j in I} grad_j^T d + 0.5 ||d||^2`` subject to
    ``d = 0`` off ``J`` and returns the full-length direction.  ``I`` is an
    iterable of 0-based objective indices; ``None`` means all objectives.
    """
    x = np.asarray(x, dtype=float)
    J = _as_support(J, p.n)
    if I is None:
        I = range(p.m)
    I = sorted(set(int(j) for j in I))
    if not I:
        raise ValueError("objective subset I must be nonempty")
    if any(not 0 <= j < p.m for j in I):
        raise ValueError(f"objective indices out of range [0, {p.m})")
    return _subspace_direction(np.asarray(p.gradient(x), dtype=float), I, J.as_array())


def _subspace_direction(grads, I, cols) -> DirectionSolution:
    """``theta_subspace`` on already evaluated gradients (objectives ``I``, columns ``cols``)."""
    G = grads[np.ix_(I, cols)].T  # (|J|, |I|)
    sol = solve_simplex_qp(G, b=None, L=1.0)
    d_full = np.zeros(grads.shape[1])
    d_full[cols] = sol.d
    # d = 0 is feasible with zero offsets, so the true value is <= 0; any
    # positive residue is floating point noise.
    return DirectionSolution(d=d_full, lam=sol.lam, theta=min(sol.theta, 0.0))


def theta_feasible(p, x, s) -> SparseDirectionSolution:
    """Pareto-stationarity measure: steepest feasible descent at ``x``.

    A direction v is feasible at x exactly when x + t v stays in Omega for
    small t > 0, i.e. v adds at most ``s - ||x||_0`` fresh nonzeros.  Every
    such v has its support contained in some super support set J of x, and
    conversely every d supported on such a J is feasible; so the problem
    reduces to the minimum of ``theta_subspace`` over all J in J(x).
    """
    x = np.asarray(x, dtype=float)
    s = check_budget(s, p.n)
    if not is_feasible(x, s):
        raise ValueError(f"point with {l0_norm(x)} nonzeros is infeasible for s={s}")
    base = support(x)
    k = base.size
    free = np.setdiff1d(np.arange(p.n), base)
    grads = np.asarray(p.gradient(x), dtype=float)

    def with_base(E):
        rows = np.broadcast_to(base, (E.shape[0], k))
        return np.sort(np.concatenate([rows, free[E]], axis=1), axis=1)

    chunks = (with_base(E) for E in _support_chunks(free.size, s - k))
    best_J = _best_support(grads, p.n, chunks, 1.0, lambda K: np.zeros((p.m, K.shape[0])))
    sol = _subspace_direction(grads, range(p.m), best_J.as_array())
    return SparseDirectionSolution(d=sol.d, support=best_J, theta=sol.theta, lam=sol.lam)


def theta_L(p, x, s, L) -> SparseDirectionSolution:
    """Proximal stationarity measure with curvature ``L``.

    Globally solves ``min max_j grad_j^T d + (L/2)||d||^2`` over directions
    with ``x + d`` feasible, by enumerating every size-s support K of the
    landing point: off K the move is pinned to ``d = -x``, contributing the
    affine offsets ``b_j = grad_j^T c + (L/2)||c||^2``; on K the remaining
    strongly convex min-max is solved exactly.  The minimum over K is the
    global optimum; the lexicographically first minimizer is returned.
    """
    x = np.asarray(x, dtype=float)
    s = check_budget(s, p.n)
    if L <= 0 or not np.isfinite(L):
        raise ValueError(f"curvature L must be positive and finite, got {L}")
    if not is_feasible(x, s):
        raise ValueError(f"point with {l0_norm(x)} nonzeros is infeasible for s={s}")
    grads = np.asarray(p.gradient(x), dtype=float)
    X2 = float(x @ x)
    P = grads @ x  # (m,)

    def offsets(K):
        xK = x[K]
        c2 = X2 - np.einsum("ij,ij->i", xK, xK)  # ||x_{complement}||^2 per support
        return np.stack([
            -(P[j] - np.einsum("ij,ij->i", grads[j][K], xK)) + 0.5 * L * c2
            for j in range(p.m)
        ])

    best_K = _best_support(grads, p.n, _support_chunks(p.n, s), L, offsets)
    cols = best_K.as_array()
    comp = list(best_K.complement())
    d_full = np.zeros(p.n)
    d_full[comp] = -x[comp]
    b = grads @ d_full + 0.5 * L * float(d_full @ d_full)
    sol = solve_simplex_qp(grads[:, cols].T, b=b, L=L)
    d_full[cols] = sol.d
    # d = 0 is feasible, so the true optimum is <= 0 regardless of K.
    theta = min(sol.theta, 0.0)
    assert is_feasible(x + d_full, s)
    return SparseDirectionSolution(d=d_full, support=best_K, theta=theta, lam=sol.lam)


def is_L_stationary(p, x, s, L, eps: float = 1e-7) -> bool:
    """True iff ``theta_L(p, x, s, L) > -eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return theta_L(p, x, s, L).theta > -eps


def is_pareto_stationary(p, x, s, eps: float = 1e-7) -> bool:
    """True iff ``theta_feasible(p, x, s) > -eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return theta_feasible(p, x, s).theta > -eps
