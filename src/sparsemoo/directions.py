"""Stationarity measures for cardinality-constrained multi-objective problems.

Three nested notions are computed here, all as optimal values of strongly
convex min-max direction subproblems:

* ``theta_subspace`` — steepest common descent restricted to a fixed index
  set ``J`` (optionally for a subset ``I`` of objectives).
* ``theta_feasible`` — steepest descent over the cone of feasible directions
  at ``x``; zero value is the Pareto-stationarity test.
* ``theta_L`` — proximal subproblem with curvature ``L`` over directions
  that keep ``x + d`` feasible; zero value is the L-stationarity test.

The last two minimize an on-support value over size-s supports.  With one
objective the value separates by coordinate, and ``theta_L`` first tries
hard thresholding (:func:`_hard_threshold`): the top s of a per-coordinate
score, proven the unique minimizer by the gap to the next one.  Otherwise
one kernel (:func:`_best_support`) finds the lexicographically first
minimizer.  Whenever there is more than one candidate, a Lagrangian bound
first tries to prove one the unique minimizer with one simplex-QP solve
(:func:`_certify`), starting from the iterate's own support, which
consecutive MOIHT iterates mostly keep.  When it cannot, past
:func:`_screen_min` candidates the same bound (:func:`_screen`) fixes
coordinates in or out of every minimizer.  Then the supports left are
streamed from :func:`sparsemoo.core.superset_blocks` (which caps them at
``MAX_SUPPORTS``) and scored, in the same order and by the same
arithmetic.  The three proofs (hard thresholding,
certificate, screen) clear one rounding margin, :func:`_margin`.  In every
case the result is bit-identical to scoring every support.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    STATIONARITY_EPS,
    SupportSet,
    as_support,
    check_number,
    check_point,
    is_feasible,
    superset_blocks,
    support,
)
from .simplex_qp import DirectionSolution, solve_simplex_qp

# The empty index set: theta_L's search fixes no coordinate.
_NO_INDICES = np.empty(0, dtype=np.intp)
_NO_INDICES.setflags(write=False)


def _screen_min(m: int) -> int:
    """Searches over more than this many supports are screened when the
    certificate declines; it is the screen's threshold only, since
    :func:`_certify` is tried on every search with more than one candidate.

    With m <= 2 objectives every support is scored in closed form, and below
    2,000 of them the screen costs more than scoring them all.  With m >= 3
    each support costs one simplex-QP solve, so the screen always pays.
    """
    return 2_000 if m <= 2 else 0


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


def _scores(grads, x, L, K) -> np.ndarray:
    """Optimal value of the on-support subproblem at ``x`` for each row of ``K``.

    Off row i the move is pinned to ``d = -x``, which adds the affine
    offsets ``b_j = grad_j^T c + (L/2)||c||^2`` (``c = -x`` off the row);
    row i then solves ``min_d max_j grads_j[K_i]^T d + b_j + (L/2)||d||^2``
    through its simplex dual: closed form for m <= 2, one
    :func:`solve_simplex_qp` per row otherwise.
    """
    m = grads.shape[0]
    GK = [g[K] for g in grads]  # gathered once, for the offsets and the values
    xK = x[K]
    c2 = x.dot(x) - np.einsum("ij,ij->i", xK, xK)  # ||x_{complement}||^2 per support
    P = grads.dot(x)  # (m,)
    half = 0.5 * L * c2
    B = [-(P[j] - np.einsum("ij,ij->i", G, xK)) + half for j, G in enumerate(GK)]
    if m == 1:
        G = GK[0]
        return B[0] - np.einsum("ij,ij->i", G, G) / (2.0 * L)
    if m == 2:
        b1, b2 = B
        G1, G2 = GK
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
                     for row, b in zip(K, np.stack(B).T)])


@functools.lru_cache(maxsize=8)
def _lambda_grid(m: int) -> np.ndarray:
    """Simplex lattice of dual weights, one row each.

    ``[[1]]`` for m = 1, 33 weights for m = 2 and ``C(m + 3, 4)`` for
    m >= 3, where the screen pays one simplex-QP solve per distinct top-s
    set of a weight.
    """
    D = 32 if m <= 2 else 4
    # stars and bars: m - 1 bar positions among D + m - 1 slots
    rows = [np.diff((-1, *bars, D + m - 1)) - 1
            for bars in itertools.combinations(range(D + m - 1), m - 1)]
    grid = np.array(rows, dtype=float) / D
    grid.setflags(write=False)
    return grid


def _margin(grads, x, L, value) -> float:
    """The rounding margin a bound must clear above ``value`` to decide:
    ``1e-9 (A.|x| + L x.x + A.A / L + |value|)`` with ``A_i = max_j |grad_ji|``,
    relative to what enters bounds and values.  A non-finite gradient makes
    it NaN or inf, so no bound clears it."""
    A = np.abs(grads[0]) if grads.shape[0] == 1 else np.abs(grads).max(axis=0)
    return 1e-9 * float(A.dot(np.abs(x)) + L * x.dot(x) + A.dot(A) / L + abs(value))


def _screen(grads, x, L, fixed, free, k):
    """Shrink the search for size-k subsets E of ``free`` (rows ``fixed ∪ E``).

    For dual weights lam and ``g = lam @ grads``, every support K has
    ``theta(K) >= S - sum_{i in K} r_i`` with ``w = -g x + (L/2) x^2``,
    ``r = (L/2)(x - g/L)^2`` and ``S = sum w`` (the subproblem separates by
    coordinate once lam is fixed).  Maximized over the lattice of
    :func:`_lambda_grid`, this bounds from below every support that contains
    coordinate i (``S - r_i - top_{k-1}(r without i)``) and every one that
    leaves it out (``S - top_k(r without i)``).  The incumbent U is the best
    :func:`_scores` value over the top-k sets of the lattice.  A coordinate
    whose "in" bound exceeds U plus :func:`_margin` is in no minimizer and
    is dropped; one whose "out" bound does is in every minimizer and joins
    ``fixed``.  Returns the new ``(fixed, free, k)``.
    """
    G = _lambda_grid(grads.shape[0]) @ grads  # (P, n)
    R = 0.5 * L * (x - G / L) ** 2
    S = (0.5 * L * float(x @ x) - G @ x - R[:, fixed].sum(axis=1))[:, None]
    Rf = R[:, free]
    # T[:, j] is the sum of the j largest r over free; a coordinate whose r
    # reaches the k-th largest is counted among the top k (ties give equal sums)
    Rs = -np.sort(-Rf, axis=1)
    T = np.zeros((Rf.shape[0], free.size + 1))
    np.cumsum(Rs, axis=1, out=T[:, 1:])
    top_k = Rf >= Rs[:, [k - 1]]
    lb_in = np.where(top_k, S - T[:, [k]], S - Rf - T[:, [k - 1]]).max(axis=0)
    lb_out = np.where(top_k, S - T[:, [k + 1]] + Rf, S - T[:, [k]]).max(axis=0)

    E = free[np.argpartition(-Rf, k - 1, axis=1)[:, :k]]
    top = np.sort(np.concatenate([np.broadcast_to(fixed, (E.shape[0], fixed.size)), E], axis=1))
    top = np.array(sorted(set(map(tuple, top.tolist()))), dtype=np.intp)
    U = float(np.min(_scores(grads, x, L, top)))
    tol = _margin(grads, x, L, U)
    keep_in = lb_out > U + tol
    keep_free = ~keep_in & ~(lb_in > U + tol)
    fixed = np.sort(np.concatenate([fixed, free[keep_in]]))
    return fixed, free[keep_free], k - int(keep_in.sum())


def _hard_threshold(grads, x, L, s):
    """The support of one objective's hard-thresholding step, when it is
    provably the search's answer, else None.

    With one objective the subproblem separates by coordinate, so
    ``theta(K) = S - sum_{i in K} r_i`` holds exactly (see :func:`_screen`,
    lam = 1) and the top s of r form a minimizer: the support of
    ``x - g/L`` hard-thresholded to s entries (Beck & Eldar).  When the s-th
    largest r exceeds the (s+1)-th by more than :func:`_margin`, every other
    support is worse by that gap in exact arithmetic, more than the
    rounding of any two :func:`_scores` values; so the top s
    is also the unique float argmin that scoring every support returns
    (each score's rounding is a few ulps per coordinate of the magnitudes
    in the margin, far below 1e-9 of them for any n a search can reach).
    Returns ``(support, None)`` as :func:`_best_support` does.  With
    m >= 2 or on a near tie it declines; a non-finite gradient makes the
    margin non-finite, and the comparison declines too.  Needs ``s < n``,
    which :func:`theta_L` has checked.
    """
    n = x.size
    if grads.shape[0] != 1:
        return None
    g = grads[0]
    r = 0.5 * L * (x - g / L) ** 2
    order = np.argsort(-r)
    theta = 0.5 * L * x.dot(x) - g.dot(x) - r[order[:s]].sum()
    if not r[order[s - 1]] - r[order[s]] > _margin(grads, x, L, theta):
        return None
    return SupportSet._from_sorted(np.sort(order[:s]), n), None


def _pinned_qp(grads, x, L, cols):
    """The move pinned to ``-x`` off ``cols`` (zero on it) and the simplex-QP
    solution on ``cols``: the final solve of :func:`theta_L`."""
    d = -x
    d[cols] = 0.0
    b = grads.dot(d) + 0.5 * L * d.dot(d)
    return d, solve_simplex_qp(grads[:, cols].T, b=b, L=L)


def _top_k(grads, x, L, fixed, free, k, lam):
    """The top k of r over ``free`` at weights ``lam`` (see :func:`_screen`),
    sorted, and a lower bound on theta over every other ``fixed ∪ E``: the
    best other E swaps the k-th largest r for the (k+1)-th."""
    g = lam.dot(grads)
    r = 0.5 * L * (x - g / L) ** 2
    rf = r[free]
    order = np.argsort(-rf)
    rs = rf[order]
    S = 0.5 * L * x.dot(x) - g.dot(x) - r[fixed].sum()
    return np.sort(free[order[:k]]), S - rs[:k - 1].sum() - rs[k]


def _certify(grads, x, L, fixed, free, k):
    """The support ``fixed ∪ E`` (E a size-k subset of ``free``) and its
    pinned solve ``(d, sol)`` if it is proven the unique minimizer, else None.

    The first candidate E is the iterate's own support, the coordinates of
    ``free`` where x is nonzero, when there are exactly k of them:
    consecutive MOIHT iterates mostly keep their support.  Otherwise it is
    the top k of r at uniform weights.  Its pinned solve gives the value U
    and weights lam.  If E is again the top k at lam and :func:`_top_k`'s
    bound there exceeds U by :func:`_margin`, every other support is worse.
    If another set is the top k at lam, that set is tried once in turn.
    """
    m = grads.shape[0]
    E = free[np.flatnonzero(x[free])]
    if E.size != k:
        E = _top_k(grads, x, L, fixed, free, k, np.full(m, 1.0 / m))[0]
    for _ in range(2):  # the candidate, then at most one re-pick
        K = np.sort(np.concatenate([fixed, E])) if fixed.size else E
        d, sol = _pinned_qp(grads, x, L, K)
        top, bound = _top_k(grads, x, L, fixed, free, k, sol.lam)
        if not np.array_equal(top, E):
            E = top
            continue
        proven = bound > sol.theta + _margin(grads, x, L, sol.theta)
        return (SupportSet._from_sorted(K, x.size), (d, sol)) if proven else None
    return None


@functools.lru_cache(maxsize=64)
def _arange(n: int) -> np.ndarray:
    """``range(n)`` as a read-only ``intp`` array: ``free`` when nothing is fixed."""
    arr = np.arange(n, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def _best_support(grads, x, L, s, fixed):
    """Lexicographically first size-s superset of ``fixed`` minimizing
    :func:`_scores`, and the pinned solve on it when the certificate found it.

    Whenever there is more than one candidate, :func:`_certify` first tries
    to prove one support the unique minimizer with a single simplex-QP solve
    (two when it re-picks), starting from the iterate's own support, and
    returns it with that solve ``(d, sol)``.  When it declines past
    :func:`_screen_min` candidates, :func:`_screen` narrows them.  The rows
    left are scored in lexicographic order, so the returned support is the
    one a full enumeration returns, and the solve is None.  Raises
    :class:`CapacityError` when more than ``MAX_SUPPORTS`` rows are left to
    score.
    """
    n = x.size
    if fixed.size:
        is_free = np.ones(n, dtype=bool)
        is_free[fixed] = False
        free = np.flatnonzero(is_free)
    else:
        free = _arange(n)
    k = s - fixed.size
    total = math.comb(free.size, k)
    if total > 1:  # a single candidate (k = 0, or all of free) needs no proof
        certified = _certify(grads, x, L, fixed, free, k)
        if certified is not None:
            return certified
        if total > _screen_min(grads.shape[0]):
            fixed, free, k = _screen(grads, x, L, fixed, free, k)
    best_theta, best_K = np.inf, None
    for K in superset_blocks(fixed, free, k):
        thetas = _scores(grads, x, L, K)
        i = int(np.argmin(thetas))
        if thetas[i] < best_theta:
            best_theta, best_K = thetas[i], K[i]
    if best_K is None:  # every score is NaN, which a non-finite gradient makes
        raise ValueError("non-finite inputs to the direction subproblem")
    return SupportSet(tuple(best_K.tolist()), n), None


def theta_subspace(p, x, J, I=None, *, grads=None) -> DirectionSolution:
    """Steepest common descent value/direction restricted to the set ``J``.

    Solves ``min_d max_{j in I} grad_j^T d + 0.5 ||d||^2`` subject to
    ``d = 0`` off ``J`` and returns the full-length direction.  ``I`` is an
    iterable of 0-based objective indices; ``None`` means all objectives.

    ``grads``, when given, must be ``p.gradient(x)``'s own output (or a
    copy of its bits), as :class:`sparsemoo.sfsd.ArchiveEntry` keeps it:
    the oracle is then not called again.  The result is the same.
    """
    J = as_support(J, p.n)
    if I is not None:
        I = sorted(set(int(j) for j in I))
        if not I:
            raise ValueError("objective subset I must be nonempty")
        if any(not 0 <= j < p.m for j in I):
            raise ValueError(f"objective indices out of range [0, {p.m})")
    if grads is None:
        grads = p.gradient(np.asarray(x, dtype=float))
    grads = np.asarray(grads, dtype=float)
    return _subspace_direction(grads, I, J.as_array())


def _subspace_direction(grads, I, cols) -> DirectionSolution:
    """``theta_subspace`` on already evaluated gradients (objectives ``I``, columns ``cols``).

    The gather is ``take``, whose C-ordered copy transposes to the same
    layout, and so the same BLAS path and the same bits, as an ``np.ix_``
    gather; ``grads[:, cols]`` would not.  When ``cols`` is every
    coordinate (mospd's case) a C-ordered ``grads`` has that layout
    already, so neither the column gather nor the scatter back is made.
    """
    n = grads.shape[1]
    rows = grads if I is None else grads.take(I, axis=0)
    every = cols.size == n and rows.flags.c_contiguous
    if not every:
        rows = rows.take(cols, axis=1)
    sol = solve_simplex_qp(rows.T, b=None, L=1.0)  # (|J|, |I|) columns
    if every:
        d_full = sol.d
    else:
        d_full = np.zeros(n)
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
    x, s = check_point(x, s, p.n)
    grads = np.asarray(p.gradient(x), dtype=float)
    # theta_L's search at the origin (zero offsets), L = 1, support of x forced in
    best_J = _best_support(grads, np.zeros(p.n), 1.0, s, support(x))[0]
    sol = _subspace_direction(grads, None, best_J.as_array())
    return SparseDirectionSolution(d=sol.d, support=best_J, theta=sol.theta, lam=sol.lam)


def theta_L(p, x, s, L) -> SparseDirectionSolution:
    """Proximal stationarity measure with curvature ``L``.

    Globally solves ``min max_j grad_j^T d + (L/2)||d||^2`` over directions
    with ``x + d`` feasible, by minimizing over the size-s supports K of the
    landing point: off K the move is pinned to ``d = -x``, contributing the
    affine offsets ``b_j = grad_j^T c + (L/2)||c||^2``; on K the remaining
    strongly convex min-max is solved exactly.  The minimum over K is the
    global optimum; the lexicographically first minimizer is returned.  A
    Lagrangian bound first tries to certify one support optimal, starting
    from the support of ``x``; when it cannot, past :func:`_screen_min`
    supports it rules coordinates in or out, and the supports that can
    still attain the minimum are scored.  A certified support's QP solve is
    the final solve, the same call on the same arrays.  With one objective
    (the scalarized baseline) the search is first settled by hard
    thresholding ``x - g/L``, whenever the s-th and (s+1)-th largest
    ``(L/2)(x_i - g_i/L)^2`` are further apart than the rounding margin;
    the final solve is again the same call.
    """
    x, s = check_point(x, s, p.n)
    check_number("L", L, 0, open_low=True)
    grads = np.asarray(p.gradient(x), dtype=float)
    best_K, solved = _hard_threshold(grads, x, L, s) or _best_support(grads, x, L, s, _NO_INDICES)
    cols = best_K.as_array()
    d_full, sol = solved or _pinned_qp(grads, x, L, cols)
    d_full[cols] = sol.d
    # d = 0 is feasible, so the true optimum is <= 0 regardless of K.
    theta = min(sol.theta, 0.0)
    assert is_feasible(x + d_full, s)
    return SparseDirectionSolution(d=d_full, support=best_K, theta=theta, lam=sol.lam)


def is_L_stationary(p, x, s, L, eps: float = STATIONARITY_EPS) -> bool:
    """True iff ``theta_L(p, x, s, L) > -eps``."""
    check_number("eps", eps, 0, open_low=True)
    return theta_L(p, x, s, L).theta > -eps


def is_pareto_stationary(p, x, s, eps: float = STATIONARITY_EPS) -> bool:
    """True iff ``theta_feasible(p, x, s) > -eps``."""
    check_number("eps", eps, 0, open_low=True)
    return theta_feasible(p, x, s).theta > -eps
