"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: dual problems are
minimized on a dense weight grid, sparse subproblems by explicit support
enumeration, gradients by central differences, areas by Monte Carlo.  The
plain references at the end restate a hot loop or oracle in its direct form,
so that the library's leaner version can be held to the same bytes.
"""

import itertools
import math
import numbers

import numpy as np

from sparsemoo import (MultiObjectiveProblem, SupportSet, core, logistic_problem, project_sparse,
                       sfsd, support)
from sparsemoo.core import DataError, check_point, dominates, l0_norm
from sparsemoo.sfsd import DEDUPE_TOL
from sparsemoo.simplex_qp import DirectionSolution, _solve_active_set
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
        x, y = pts[:, 0], pts[:, 1]
        for a, b in F:
            dominated |= (x >= a) & (y >= b)
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
        sol = reference_theta_subspace(p, x, J)
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


# The arithmetic below is the direct ``@`` / ``float()`` form the library's
# oracles, simplex QP and support search were first written in.  The library
# now spells the same operations more cheaply; these keep it to the same bytes.

def reference_quadratic(inst):
    """The oracles of a :class:`QuadraticInstance` in ``@`` / ``float()`` form."""
    Q1, Q2, c1, c2 = inst.Q1, inst.Q2, inst.c1, inst.c2

    def ev(x):
        return np.array([
            0.5 * float(x @ (Q1 @ x)) - float(c1 @ x),
            0.5 * float(x @ (Q2 @ x)) - float(c2 @ x),
        ])

    def grad(x):
        return np.array([Q1 @ x - c1, Q2 @ x - c2])

    return MultiObjectiveProblem(n=inst.n, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.array([inst.kappa, inst.kappa]))


def reference_example():
    """The worked 2-D instance's oracles in ``@`` / ``float()`` form."""
    a1, a2 = np.array([3.0, 2.5]), np.array([1.0, 0.5])

    def ev(x):
        return np.array([0.5 * float((x - a1) @ (x - a1)), 0.5 * float((x - a2) @ (x - a2))])

    def grad(x):
        return np.array([x - a1, x - a2])

    return MultiObjectiveProblem(n=2, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.array([1.0, 1.0]))


def reference_logistic(R, t):
    """The logistic-regression oracles in ``@`` / ``float()`` form."""
    from scipy.special import expit

    R, t = np.asarray(R, dtype=float), np.asarray(t, dtype=float)
    N = R.shape[0]

    def ev(w):
        margins = t * (R @ w)
        return np.array([float(np.logaddexp(0.0, -margins).sum() / N), 0.5 * float(w @ w)])

    def grad(w):
        margins = t * (R @ w)
        return np.array([-(R.T @ (t * expit(-margins))) / N, w])

    return MultiObjectiveProblem(n=R.shape[1], m=2, evaluate=ev, gradient=grad,
                                 lipschitz=logistic_problem(R, t).lipschitz)


def reference_logistic_slope(R, t, w, d):
    """The loss slope of the logistic ``line`` model in ``@`` form."""
    from scipy.special import expit

    R, t = np.asarray(R, dtype=float), np.asarray(t, dtype=float)
    return float(-((t * expit(-(t * (R @ w)))) @ (R @ d)) / R.shape[0])


def reference_penalized(p, y, tau):
    """``f_j(x) + (tau/2)||x - y||^2`` in ``@`` / ``float()`` form."""
    y = np.asarray(y, dtype=float)

    def ev(x):
        diff = x - y
        return np.asarray(p.evaluate(x), dtype=float) + 0.5 * tau * float(diff @ diff)

    def grad(x):
        return np.asarray(p.gradient(x), dtype=float) + tau * (x - y)

    return MultiObjectiveProblem(n=p.n, m=p.m, evaluate=ev, gradient=grad,
                                 lipschitz=p.lipschitz + tau)


def _reference_solve_m2(G, b, L):
    g1, g2 = G[:, 0], G[:, 1]
    u = g1 - g2
    uu = float(u @ u)
    g2u = float(g2 @ u)
    if uu > 0.0:
        t = min(1.0, max(0.0, (L * (b[0] - b[1]) - g2u) / uu))
    elif b[0] > b[1]:
        t = 1.0
    elif b[0] < b[1]:
        t = 0.0
    else:
        t = 0.5
    return np.array([t, 1.0 - t])


def reference_solve_simplex_qp(G, b=None, L=1.0):
    """:func:`solve_simplex_qp` with its input checks as two scans of ``G``
    (``isfinite``, then ``any``) and its m <= 2 arithmetic in ``@`` /
    ``float()`` form; m >= 3 shares the library's active-set method."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.ndim != 2:
        raise ValueError("G must be a (k, m) matrix of gradient columns")
    m = G.shape[1]
    if b is None:
        b = np.zeros(m)
    else:
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise ValueError(f"b must have shape ({m},), got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("non-finite inputs to the direction subproblem")
    if m < 1:
        raise ValueError("need at least one objective column")
    if not np.isfinite(G).all() or not math.isfinite(L):
        raise ValueError("non-finite inputs to the direction subproblem")
    if L <= 0:
        raise ValueError(f"curvature L must be positive, got {L}")
    if not G.any():
        top = b == b.max()
        return DirectionSolution(d=np.zeros(G.shape[0]), lam=top / top.sum(),
                                 theta=float(b.max()))
    if m == 1:
        lam = np.ones(1)
    elif m == 2:
        lam = _reference_solve_m2(G, b, L)
    else:
        lam = _solve_active_set((G.T @ G) / L, b)
    d = -(G @ lam) / L
    theta = float((G.T @ d + b).max() + 0.5 * L * float(d @ d))
    return DirectionSolution(d=d, lam=lam, theta=theta)


def reference_theta_subspace(p, x, J, I=None):
    """:func:`theta_subspace` with an ``np.ix_`` gather and the reference QP."""
    grads = np.asarray(p.gradient(np.asarray(x, dtype=float)), dtype=float)
    cols = np.array(J.indices, dtype=np.intp)
    rows = grads.take(cols, axis=1) if I is None else grads[np.ix_(sorted(set(I)), cols)]
    sol = reference_solve_simplex_qp(rows.T, None, 1.0)
    d = np.zeros(p.n)
    d[cols] = sol.d
    return DirectionSolution(d=d, lam=sol.lam, theta=min(sol.theta, 0.0))


def reference_scores(grads, x, L, K):
    """The on-support value at ``x`` of each row of ``K``, each objective's
    columns gathered separately for the offsets and for the values."""
    xK = x[K]
    c2 = float(x @ x) - np.einsum("ij,ij->i", xK, xK)
    P = grads @ x
    B = np.stack([-(P[j] - np.einsum("ij,ij->i", grads[j][K], xK)) + 0.5 * L * c2
                  for j in range(grads.shape[0])])
    m = grads.shape[0]
    if m == 1:
        G = grads[0][K]
        return B[0] - np.einsum("ij,ij->i", G, G) / (2.0 * L)
    if m == 2:
        b1, b2 = B
        G1, G2 = grads[0][K], grads[1][K]
        U = G1 - G2
        uu = np.einsum("ij,ij->i", U, U)
        g2u = np.einsum("ij,ij->i", G2, U)
        g22 = np.einsum("ij,ij->i", G2, G2)
        safe = np.where(uu > 0.0, uu, 1.0)
        t_int = np.clip((L * (b1 - b2) - g2u) / safe, 0.0, 1.0)
        t_flat = np.where(b1 > b2, 1.0, np.where(b1 < b2, 0.0, 0.5))
        t = np.where(uu > 0.0, t_int, t_flat)
        return -((t * t * uu + 2.0 * t * g2u + g22) / (2.0 * L) - (t * b1 + (1.0 - t) * b2))
    return np.array([reference_solve_simplex_qp(grads[:, row].T, b=b, L=L).theta
                     for row, b in zip(K, B.T)])


def reference_best_support(grads, x, L, s, fixed):
    """Score every size-s superset of ``fixed`` at once with
    :func:`reference_scores`; the lexicographically first minimizer."""
    n = x.size
    fixed = np.asarray(fixed, dtype=np.intp)
    free = np.array([i for i in range(n) if i not in set(fixed.tolist())], dtype=np.intp)
    k = s - fixed.size
    E = np.array(list(itertools.combinations(range(free.size), k)), dtype=np.intp)
    E = E.reshape(math.comb(free.size, k), k)
    K = np.sort(np.concatenate([np.broadcast_to(fixed, (E.shape[0], fixed.size)), free[E]],
                               axis=1), axis=1)
    thetas = reference_scores(grads, x, L, K)
    return SupportSet(tuple(int(v) for v in K[int(np.argmin(thetas))]), n)


def reference_super_supports(x, s):
    """:func:`super_supports` as first written: supp(x) completed by every
    ``itertools.combinations`` of the other indices, with its own cap and a
    final sort."""
    x, s = check_point(x, s, np.size(x))
    n = x.size
    base = set(int(i) for i in support(x))
    free = [i for i in range(n) if i not in base]
    count = math.comb(len(free), s - len(base))
    if count > core.MAX_SUPPORTS:
        raise core.CapacityError(f"{count} super support sets exceed the cap")
    sets = [SupportSet(tuple(sorted(base.union(extra))), n)
            for extra in itertools.combinations(free, s - len(base))]
    sets.sort()
    return sets


def reference_theta_L(p, x, s, L):
    """:func:`theta_L` by :func:`reference_best_support`, the pinned move
    built over the indices outside the best support, and the reference QP."""
    x = np.asarray(x, dtype=float)
    grads = np.asarray(p.gradient(x), dtype=float)
    best_K = reference_best_support(grads, x, L, s, [])
    cols = np.array(best_K.indices, dtype=np.intp)
    comp = [i for i in range(p.n) if i not in best_K.indices]
    d = np.zeros(p.n)
    d[comp] = -x[comp]
    b = grads @ d + 0.5 * L * float(d @ d)
    sol = reference_solve_simplex_qp(grads[:, cols].T, b=b, L=L)
    d[cols] = sol.d
    return best_K, min(sol.theta, 0.0), d, sol.lam


def reference_theta_feasible(p, x, s):
    """:func:`theta_feasible` by :func:`reference_best_support` at the origin."""
    x = np.asarray(x, dtype=float)
    grads = np.asarray(p.gradient(x), dtype=float)
    best_J = reference_best_support(grads, np.zeros(p.n), 1.0, s, support(x))
    sol = reference_theta_subspace(p, x, best_J)
    return best_J, sol.theta, sol.d, sol.lam


def reference_armijo(p, x, d, theta, cfg, fx=None):
    """The Armijo search over every objective as a plain loop over
    ``alpha0 * delta^h``: returns ``(a, x + a d, f(x + a d))`` or
    ``(0.0, None, None)``."""
    fx = np.asarray(p.evaluate(x) if fx is None else fx, dtype=float)
    a = cfg.armijo.alpha0
    for _ in range(MAX_HALVINGS + 1):
        cand = x + a * d
        fc = np.asarray(p.evaluate(cand), dtype=float)
        if np.all(fc <= fx + cfg.armijo.gamma * a * theta):
            return a, cand, fc
        a *= cfg.armijo.delta
    return 0.0, None, None


def reference_assign_super_support(p, x, s, cfg):
    """:func:`assign_super_support` on the reference search and line search."""
    x, s = check_point(x, s, p.n)
    for _ in range(1000):
        if l0_norm(x) == s:
            break
        _, theta, d, _ = reference_theta_feasible(p, x, s)
        if theta > -cfg.eps:
            break
        alpha = reference_armijo(p, x, d, theta, cfg)[0]
        if alpha == 0.0:
            break
        x = x + alpha * d
    taken = set(int(i) for i in support(x))
    fill = [i for i in range(p.n) if i not in taken][: s - len(taken)]
    return x, SupportSet(tuple(sorted(taken.union(fill))), p.n)


def reference_check_number(name, value, low, high=math.inf, *, integer=False, open_low=False):
    """:func:`check_number` as the chain of ``numbers`` type tests alone."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or not (low < value if open_low else low <= value) or not value < high):
        lower = f"{'>' if open_low else '>='} {low}"
        bounds = lower if high == math.inf else f"{lower} and < {high}"
        raise DataError(f"{name} must be {'an integer' if integer else 'a finite number'} "
                        f"{bounds}, got {value!r}")
    return value


class ReferenceArchive:
    """The per-key archive as entry lists only, rebuilding each key's point
    and objective arrays on every insert: the rule
    :class:`sparsemoo.sfsd.ParetoArchive` keeps with its stored arrays."""

    def __init__(self):
        self._groups: dict = {}

    def keys(self):
        return sorted(self._groups)

    def group(self, J) -> list:
        return list(self._groups.get(J, ()))

    def entries(self) -> list:
        return [e for J in self.keys() for e in self._groups[J]]

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())

    def contains(self, entry) -> bool:
        return entry in self._groups.get(entry.J, ())

    def copy(self) -> "ReferenceArchive":
        dup = ReferenceArchive()
        dup._groups = {J: list(g) for J, g in self._groups.items()}
        return dup

    def remove(self, entry):
        group = self._groups.get(entry.J, [])
        if entry in group:
            group.remove(entry)
            if not group:
                del self._groups[entry.J]

    def insert(self, entry, skip_if_dominated: bool = False):
        group = self._groups.get(entry.J, [])
        if group:
            X = np.array([m.x for m in group])
            dup = np.flatnonzero(np.max(np.abs(X - entry.x), axis=1) <= DEDUPE_TOL)
            if dup.size:
                return group[int(dup[0])]
            F = np.array([m.fvals for m in group])
            if dominates(F, entry.fvals).any():
                assert skip_if_dominated, "inserted a dominated point"
                return entry
            kept = [m for m, gone in zip(group, dominates(entry.fvals, F)) if not gone]
        else:
            kept = []
        kept.append(entry)
        self._groups[entry.J] = kept
        return entry


def archive_bytes(archive):
    """Every key with the shape and bytes of its ``(X, F)`` arrays, keys in
    order: equal for two archives exactly when they hold the same points and
    objective vectors, entry for entry, in the same order."""
    return tuple((J.indices, X.shape, X.tobytes(), F.tobytes())
                 for J in archive.keys() for X, F in [archive.arrays(J)])


def reference_sfsd_run(p, archive0, s, cfg, budget, *, explore_spacing):
    """Phase two as one interleaved loop: each sweep visits every entry of
    every key, key after key, and the sweeps stop at the first one that
    leaves the whole archive's bytes unchanged (or after ``budget``); then
    the library's closing refinement."""
    work = archive0.copy()
    prev = archive_bytes(work)
    for _ in range(budget):
        for entry in work.entries():
            if work.contains(entry):
                sfsd._process_entry(p, work, entry, cfg, explore_spacing)
        cur = archive_bytes(work)
        if cur == prev:
            break
        prev = cur
    sfsd._refine_archive(p, work, cfg)
    return work
