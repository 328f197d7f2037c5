"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: dual problems are
minimized on a dense weight grid, sparse subproblems by explicit support
enumeration, gradients by central differences, areas by Monte Carlo.  The
plain references at the end restate a hot loop or oracle in its direct form,
so that the library's leaner version can be held to the same bytes.
"""

import itertools
import math

import numpy as np

from sparsemoo import project_sparse, theta_subspace
from sparsemoo.solvers import MAX_HALVINGS


def grid_theta_m2(G, b=None, L=1.0, step=1e-4):
    """Brute-force the biobjective dual on a lambda grid; returns (theta, lam1)."""
    G = np.asarray(G, dtype=float)
    b = np.zeros(2) if b is None else np.asarray(b, dtype=float)
    ts = np.arange(0.0, 1.0 + step / 2, step)
    combos = np.outer(G[:, 0], ts) + np.outer(G[:, 1], 1.0 - ts)  # (k, T)
    q = (combos * combos).sum(axis=0) / (2.0 * L) - (ts * b[0] + (1.0 - ts) * b[1])
    i = int(np.argmin(q))
    return -float(q[i]), float(ts[i])


def face_theta(G, b=None, L=1.0):
    """Exact simplex-QP value ``theta = -min q`` by enumerating all 2^m - 1 faces.

    The optimal weights are a stationary point of q on the affine hull of
    their own support, so solving each face's KKT system (least squares when
    it is singular) and keeping the best feasible solution is exact.
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[1]
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    H = (G.T @ G) / L
    scale = np.abs(H).max() + np.abs(b).max()  # conditions the KKT solves
    Hs, bs = H / scale, b / scale
    best_q = np.inf
    for size in range(1, m + 1):
        for face in itertools.combinations(range(m), size):
            idx = list(face)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = Hs[np.ix_(idx, idx)]
            kkt[size, size] = 0.0
            sol = np.linalg.lstsq(kkt, np.append(bs[idx], 1.0), rcond=None)[0]
            if np.any(sol[:size] < -1e-10) or sol[:size].sum() <= 0.0:
                continue
            lam = np.zeros(m)
            lam[idx] = np.clip(sol[:size], 0.0, None)
            lam /= lam.sum()
            best_q = min(best_q, lam @ H @ lam / 2.0 - float(b @ lam))
    return -float(best_q)


def scaled_gap(G, b, L, lam):
    """Frank-Wolfe gap of the simplex dual at ``lam`` over ``max|H| + max|b|``."""
    H = (G.T @ G) / L
    grad = H @ lam - b
    return (float(lam @ grad) - float(grad.min())) / (np.abs(H).max() + np.abs(b).max())


def grid_theta_m1(g, b=0.0, L=1.0):
    g = np.asarray(g, dtype=float)
    return float(b) - float(g @ g) / (2.0 * L)


def enum_theta_L(p, x, s, L, step=1e-4):
    """Support enumeration with grid inner solves; global minimum of the
    proximal subproblem for m <= 2."""
    x = np.asarray(x, dtype=float)
    grads = np.asarray(p.gradient(x), dtype=float)
    best = np.inf
    for K in itertools.combinations(range(p.n), s):
        K = list(K)
        comp = [i for i in range(p.n) if i not in K]
        c = np.zeros(p.n)
        c[comp] = -x[comp]
        b = grads @ c + 0.5 * L * float(c @ c)
        Gk = grads[:, K].T
        if p.m == 1:
            theta = grid_theta_m1(Gk[:, 0], b[0], L)
        else:
            theta, _ = grid_theta_m2(Gk, b, L, step)
        best = min(best, theta)
    return min(best, 0.0)


def enum_theta_feasible(p, x, s, step=1e-4):
    """Minimum of the subspace measure over all super supports (m <= 2)."""
    x = np.asarray(x, dtype=float)
    grads = np.asarray(p.gradient(x), dtype=float)
    nz = [i for i in range(p.n) if abs(x[i]) > 1e-12]
    free = [i for i in range(p.n) if i not in nz]
    best = np.inf
    for extra in itertools.combinations(free, s - len(nz)):
        J = sorted(nz + list(extra))
        Gj = grads[:, J].T
        if p.m == 1:
            theta = grid_theta_m1(Gj[:, 0], 0.0, 1.0)
        else:
            theta, _ = grid_theta_m2(Gj, None, 1.0, step)
        best = min(best, theta)
    return min(best, 0.0)


def nondominated_indices(points):
    """Indices of the rows no other row dominates, by pairwise comparison."""
    rows = [tuple(float(v) for v in r) for r in points]

    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    return [i for i, b in enumerate(rows) if not any(dominates(a, b) for a in rows)]


def fd_gradient(p, x, rel_step=1e-6):
    """Central finite differences with per-coordinate step 1e-6 * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((p.m, x.size))
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        out[:, i] = (np.asarray(p.evaluate(x + e)) - np.asarray(p.evaluate(x - e))) / (2 * h)
    return out


def mc_hypervolume(front, ref_point, n_samples=10_000_000, seed=0, chunk=1_000_000):
    """Monte Carlo estimate of the dominated area and its standard error."""
    F = np.asarray(front, dtype=float)
    r = np.asarray(ref_point, dtype=float)
    F = F[np.all(F < r, axis=1)]
    if F.shape[0] == 0:
        return 0.0, 0.0
    lo = F.min(axis=0)
    area = float(np.prod(r - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n_samples:
        k = min(chunk, n_samples - done)
        pts = lo + (r - lo) * rng.random((k, 2))
        dominated = np.zeros(k, dtype=bool)
        for row in F:
            dominated |= np.all(pts >= row, axis=1)
        hits += int(dominated.sum())
        done += k
    frac = hits / n_samples
    est = frac * area
    sigma = area * math.sqrt(max(frac * (1 - frac), 1e-12) / n_samples)
    return est, sigma


def iht_trajectory(p, x0, s, L, eps, max_iter=10_000):
    """Hard-thresholded gradient iteration for a single-objective problem.

    Stops at the first point that is a fixpoint within the L-stationarity
    measure, mirroring the scalar reduction z = proj(x - grad/L).
    """
    x = np.asarray(x0, dtype=float).copy()
    traj = [x.copy()]
    for _ in range(max_iter):
        g = np.asarray(p.gradient(x), dtype=float)[0]
        z = project_sparse(x - g / L, s)
        d = z - x
        theta = float(g @ d) + 0.5 * L * float(d @ d)
        if theta > -eps:
            break
        x = z
        traj.append(x.copy())
    return traj


def reference_mosd(p, x0, J, eps, cfg):
    """Steepest common descent on ``J`` as a plain loop.

    Every Armijo search evaluates ``f(x)`` afresh before trying the steps
    ``alpha0 * delta^h``, h = 0..MAX_HALVINGS; stops when the subspace
    measure exceeds ``-eps``, a search fails or ``cfg.max_iter`` runs out.
    """
    x = np.asarray(x0, dtype=float).copy()
    arm = cfg.armijo
    for _ in range(cfg.max_iter):
        sol = theta_subspace(p, x, J)
        if sol.theta > -eps:
            break
        fx = np.asarray(p.evaluate(x), dtype=float)
        a, alpha = arm.alpha0, 0.0
        for _ in range(MAX_HALVINGS + 1):
            fc = np.asarray(p.evaluate(x + a * sol.d), dtype=float)
            if np.all(fc <= fx + arm.gamma * a * sol.theta):
                alpha = a
                break
            a *= arm.delta
        if alpha == 0.0:
            break
        x = x + alpha * sol.d
    return x


def reference_logistic_values(R, t, w):
    """Mean logistic loss (through ``np.mean``) and ``0.5 ||w||^2``."""
    margins = t * (R @ w)
    return np.array([float(np.mean(np.logaddexp(0.0, -margins))), 0.5 * float(w @ w)])
