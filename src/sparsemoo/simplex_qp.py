"""Exact solver for the min-max direction subproblem via its simplex dual.

The primal problem over a free coordinate block is

    min_d  max_j ( g_j^T d + b_j ) + (L/2) ||d||^2

with columns ``g_j`` collected in ``G`` and affine offsets ``b_j`` coming
from coordinates whose value is fixed.  Its Lagrangian dual is the simplex
QP

    min_{lambda in Delta_m}  q(lambda) = (1/(2L)) ||G lambda||^2 - b^T lambda

and the primal optimum is recovered as ``d = -(1/L) G lambda*`` with value
``theta = -q(lambda*)``.  Two objectives have a closed form; beyond that a
finite active-set method on the dual adds or drops one weight per step, in
the style of Wolfe's nearest-point algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pricing tolerance of the active-set method, relative to max|H| + max|b|.
_TOL = 1e-13


@dataclass(frozen=True)
class DirectionSolution:
    """Optimal direction, simplex weights and min-max value of one subproblem.

    ``d`` spans whatever coordinate block the caller handed in: the free
    block for :func:`solve_simplex_qp`, the full space for the wrappers in
    :mod:`sparsemoo.directions`.
    """

    d: np.ndarray
    lam: np.ndarray
    theta: float


# The helpers below use ndarray.dot, the BLAS call ``@`` makes with less
# dispatch, and keep float64 scalars, which round as Python floats would.
def _primal_value(G, b, L, d):
    if b is not None:
        return (G.T.dot(d) + b).max() + 0.5 * L * d.dot(d)
    # (v + zeros).max() for m <= 2 without the arrays: a NaN wins as in
    # numpy's max, and + 0.0 turns a -0.0 maximum into +0.0 as the zeros did
    v = G.T.dot(d).tolist()
    top = v[0]
    if len(v) == 2 and not (top >= v[1] or top != top):
        top = v[1]
    return (top + 0.0) + 0.5 * L * d.dot(d)


def _dual_value(Gl, b, lam, L):
    # q(lam) from the product Gl = G @ lam the direction is built from
    return Gl.dot(Gl) / (2.0 * L) - (0.0 if b is None else b.dot(lam))


def _solve_m2(G, b, L):
    # 1-D quadratic in t = lambda_1 on [0, 1]; lambda = (t, 1 - t).  b None
    # is zero offsets: L * (0 - 0) is +0.0 for the finite L > 0 checked.
    g1, g2 = G[:, 0], G[:, 1]
    u = g1 - g2
    uu = u.dot(u)
    g2u = g2.dot(u)
    if uu > 0.0:
        t = min(1.0, max(0.0, ((0.0 if b is None else L * (b[0] - b[1])) - g2u) / uu))
    elif b is None:
        t = 0.5
    elif b[0] > b[1]:
        t = 1.0
    elif b[0] < b[1]:
        t = 0.0
    else:
        t = 0.5
    return np.array([t, 1.0 - t])


def _solve_active_set(H, b):
    # Primal active-set method: each pass either moves toward the minimizer
    # of q on the current face (dropping the first index that reaches 0) or,
    # at a face optimum, adds the index with the most negative reduced
    # gradient.  Every add strictly lowers q, so no face repeats.
    m = b.size
    scale = np.abs(H).max() + np.abs(b).max()
    H, b = H / scale, b / scale
    lam = np.zeros(m)
    face = [int(np.argmin(0.5 * np.diag(H) - b))]
    lam[face] = 1.0
    at_optimum = True
    for _ in range(4 << m):  # guard only: there are 2^m - 1 faces
        if at_optimum:
            grad = H @ lam - b
            reduced = grad - float(lam @ grad)
            reduced[face] = np.inf
            j = int(np.argmin(reduced))
            if reduced[j] >= -_TOL:
                break
            face.append(j)
        k = len(face)
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = H[np.ix_(face, face)]
        kkt[k, k] = 0.0
        rhs = np.append(b[face], 1.0)
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        # One step of iterative refinement recovers the digits the SVD
        # solve loses on faces where H is large and nearly flat.
        sol += np.linalg.lstsq(kkt, rhs - kkt @ sol, rcond=None)[0]
        res = (rhs - kkt @ sol)[:k]
        if np.abs(res).max() > _TOL * (1.0 + np.abs(sol).max()):
            # Inconsistent KKT system: H is flat along the residual and q
            # falls linearly along it, so move to the boundary.
            step, limit = res / np.abs(res).max(), np.inf
        else:
            step, limit = sol[:k] - lam[face], 1.0
        ratios = np.full(k, np.inf)
        neg = step < 0.0
        ratios[neg] = lam[face][neg] / -step[neg]
        i = int(np.argmin(ratios))
        t = min(limit, ratios[i])
        lam[face] = np.maximum(lam[face] + t * step, 0.0)
        at_optimum = t == limit
        if not at_optimum:
            lam[face[i]] = 0.0
            del face[i]
    return lam / lam.sum()


def solve_simplex_qp(G: np.ndarray, b: np.ndarray | None = None, L: float = 1.0) -> DirectionSolution:
    """Globally minimize ``max_j (g_j^T d + b_j) + (L/2)||d||^2`` over ``d``.

    Parameters
    ----------
    G : (k, m) array
        One column per objective: the gradients restricted to the free
        coordinates (``k`` may be 0 when every coordinate is fixed).
    b : (m,) array, optional
        Affine offsets from the fixed coordinates; defaults to zero.  A
        given ``b`` is checked for shape and finiteness.  With ``None`` and
        m <= 2 no zero array is built or added: the closed form and the
        value drop the zero terms, which changes no bit (the value's
        ``+ 0.0`` still turns a -0.0 into +0.0).  The all-zero ``G`` case
        and m >= 3 use an explicit zero ``b``.
    L : float
        Curvature of the quadratic term, strictly positive.

    When ``G`` is all zero, ``d = 0``, ``theta = max b`` and ``lam`` is
    uniform over the indices attaining ``max b`` (uniform over all of them
    when ``b`` is constant), which is dual optimal.  Otherwise the dual is
    solved exactly: in closed form for m <= 2 and by a finite
    active-set method for m >= 3.  The latter stops at a face optimum where
    no other weight has a reduced gradient below ``-1e-13 * (max|H| +
    max|b|)``, ``H = G^T G / L``, which bounds the Frank-Wolfe gap of the
    dual by the same amount.  The weak-duality gap must stay within
    ``1e-7 max(1, |theta|)`` or the rounding scale ``1e-13 (max|H| + max|b|)``.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim < 2:
        G = np.atleast_2d(G)
    if G.ndim != 2:
        raise ValueError("G must be a (k, m) matrix of gradient columns")
    m = G.shape[1]
    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise ValueError(f"b must have shape ({m},), got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("non-finite inputs to the direction subproblem")
    if m < 1:
        raise ValueError("need at least one objective column")
    # max|G| is NaN or inf exactly when G is not finite, and 0 when it is all zero
    top_G = np.abs(G).max() if G.size else 0.0
    if not math.isfinite(top_G) or not math.isfinite(L):
        raise ValueError("non-finite inputs to the direction subproblem")
    if L <= 0:
        raise ValueError(f"curvature L must be positive, got {L}")
    if b is None and (top_G == 0.0 or m > 2):
        b = np.zeros(m)  # finite by construction: only G and L are scanned

    if top_G == 0.0:
        # Degenerate all-zero gradients: d = 0 and q(lam) = -b^T lam, so the
        # dual optimum spreads its weight evenly over the largest offsets.
        top = b == b.max()
        lam = top / top.sum()
        d = np.zeros(G.shape[0])
        return DirectionSolution(d=d, lam=lam, theta=float(b.max()))

    if m == 1:
        lam = np.ones(1)
    elif m == 2:
        lam = _solve_m2(G, b, L)
    else:
        lam = _solve_active_set((G.T @ G) / L, b)

    Gl = G.dot(lam)
    d = Gl / -L  # -Gl / L: negation is exact, so either side may carry it
    theta = float(_primal_value(G, b, L, d))
    if __debug__:
        # Weak duality sandwich; equality certifies global optimality.  Rounding
        # in either value grows with max|H| + max|b|, so a gap within _TOL of
        # that scale passes too (its scale is computed only when needed).
        gap = theta + _dual_value(Gl, b, lam, L)
        assert gap <= 1e-7 * max(1.0, abs(theta)) or gap <= _TOL * (
            np.abs(G.T @ G).max() / L + (0.0 if b is None else np.abs(b).max())), (
            f"duality gap {gap}")
    return DirectionSolution(d=d, lam=lam, theta=theta)
