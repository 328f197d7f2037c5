"""Front-quality metrics and performance profiles.

Fronts are plain ``(k, m)`` arrays of objective vectors.  The spread
formulas follow the standard derivative-free multi-objective benchmarking
definitions; both are spelled out in the docstrings since conventions vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import filter_nondominated

PURITY_TOL = 1e-9


@dataclass(frozen=True)
class ProfileCurve:
    """Nondecreasing step curve rho(tau) for one solver.

    ``taus`` are ratio breakpoints >= 1; ``rhos`` the fraction of problems
    solved within that factor of the per-problem best.  Failures never enter
    the numerator, so the final plateau counts solved problems only.
    """

    solver: str
    taus: np.ndarray
    rhos: np.ndarray


def _as_front(front) -> np.ndarray:
    F = np.asarray(front, dtype=float)
    if F.size == 0:
        return F.reshape(0, 2 if F.ndim < 2 else F.shape[-1])
    F = np.atleast_2d(F)
    if not np.isfinite(F).all():
        raise ValueError("fronts must contain finite values only")
    return F


def build_reference_front(fronts) -> np.ndarray:
    """Union of fronts with dominated rows removed and exact duplicates merged.

    Rows come back lexicographically sorted.
    """
    stacked = [_as_front(f) for f in fronts if _as_front(f).size]
    if not stacked:
        return np.empty((0, 0))
    m = stacked[0].shape[1]
    if any(f.shape[1] != m for f in stacked):
        raise ValueError("fronts disagree on the number of objectives")
    allrows = np.unique(np.vstack(stacked), axis=0)
    return allrows[filter_nondominated(allrows)]


def purity(front, reference) -> float:
    """Fraction of front rows present in the reference within 1e-9 (inf-norm).

    An empty front scores 0.
    """
    F = _as_front(front)
    ref = _as_front(reference)
    if ref.shape[0] == 0:
        raise ValueError("reference front must be nonempty")
    if F.shape[0] == 0:
        return 0.0
    hits = 0
    for row in F:
        if np.min(np.max(np.abs(ref - row), axis=1)) <= PURITY_TOL:
            hits += 1
    return hits / F.shape[0]


def _spread_inputs(front, reference, min_rows):
    """``(F, lo, hi)`` for a spread metric: the front and the reference rows
    with lexicographically smallest / largest first objective.  ``None``
    (the metric is +inf) when the front has fewer than ``min_rows`` rows.
    """
    F = _as_front(front)
    ref = _as_front(reference)
    if ref.shape[0] == 0:
        raise ValueError("reference front must be nonempty")
    if F.shape[0] < min_rows:
        return None
    if F.shape[1] != 2 or ref.shape[1] != 2:
        raise ValueError("spread metrics are defined for two objectives")
    order = np.lexsort(ref.T[::-1])  # by f1, then f2
    return F, ref[order[0]], ref[order[-1]]


def gamma_spread(front, reference) -> float:
    """Largest coordinate hole in the front (biobjective).

    The front is augmented with the reference extreme points and sorted by
    the first objective; the value is the maximum over objectives of the
    maximum absolute gap between consecutive rows.  Empty front -> +inf.
    """
    inputs = _spread_inputs(front, reference, 1)
    if inputs is None:
        return float("inf")
    F, lo, hi = inputs
    aug = np.unique(np.vstack([F, lo[None, :], hi[None, :]]), axis=0)
    aug = aug[np.lexsort(aug.T[::-1])]
    if aug.shape[0] < 2:
        return 0.0
    gaps = np.abs(np.diff(aug, axis=0))
    return float(gaps.max())


def delta_spread(front, reference) -> float:
    """Gap-uniformity measure of a biobjective front.

    With the front sorted by the first objective, consecutive Euclidean
    distances d_1..d_{N-1}, boundary distances d_0/d_N to the reference
    extremes and mean gap dbar, the value is

        (d_0 + d_N + sum_i |d_i - dbar|) / (d_0 + d_N + (N - 1) dbar).

    Fronts with fewer than two points give +inf.
    """
    inputs = _spread_inputs(front, reference, 2)
    if inputs is None:
        return float("inf")
    F, lo, hi = inputs
    F = F[np.lexsort(F.T[::-1])]
    d0 = float(np.linalg.norm(F[0] - lo))
    dN = float(np.linalg.norm(F[-1] - hi))
    gaps = np.linalg.norm(np.diff(F, axis=0), axis=1)  # N - 1 of them
    dbar = float(gaps.mean())
    denom = d0 + dN + gaps.size * dbar
    num = d0 + dN + float(np.abs(gaps - dbar).sum())
    if denom == 0.0:
        return 0.0
    return num / denom


def rescale_logistic_objectives(fronts):
    """Spread preprocessing for logistic fronts: log10 on f2, then joint
    min-max rescaling of both objectives to [0, 1].

    The ranges are computed over all supplied fronts together so that every
    front (and the reference) is transformed consistently.  f2 is clipped
    below at 1e-12 before the logarithm (the zero solution has f2 = 0).
    """
    Fs = [_as_front(f).copy() for f in fronts]
    for F in Fs:
        if F.shape[1] != 2:
            raise ValueError("logistic rescaling expects two objectives")
        F[:, 1] = np.log10(np.clip(F[:, 1], 1e-12, None))
    stacked = np.vstack([F for F in Fs if F.size])
    lo = stacked.min(axis=0)
    span = stacked.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return [(F - lo) / span for F in Fs]


def hypervolume_2d(front, ref_point) -> float:
    """Area dominated by a biobjective front and bounded by ``ref_point``.

    Rows not strictly below the reference point in every coordinate are
    ignored; dominated rows are filtered internally.  Rectangle sweep over
    the front sorted by the first objective.
    """
    F = _as_front(front)
    r = np.asarray(ref_point, dtype=float)
    if F.shape[0] == 0:
        return 0.0
    if F.shape[1] != 2 or r.shape != (2,):
        raise ValueError("hypervolume_2d expects two objectives")
    F = F[np.all(F < r, axis=1)]
    if F.shape[0] == 0:
        return 0.0
    F = F[filter_nondominated(F)]
    F = F[np.lexsort(F.T[::-1])]
    right = np.append(F[1:, 0], r[0])
    return float(np.sum((right - F[:, 0]) * (r[1] - F[:, 1])))


def hypervolume_reference_point(reference) -> np.ndarray:
    """Hypervolume reference point ``max + 0.1 (max - min)`` per objective.

    An objective whose range is 0 uses ``max + 0.1 max(|max|, 1)``.  The
    point lies beyond the reference front whatever the objectives' signs.
    """
    F = _as_front(reference)
    hi, lo = F.max(axis=0), F.min(axis=0)
    span = hi - lo
    flat = np.maximum(np.abs(hi), 1.0)
    return hi + 0.1 * np.where(span > 0, span, flat)


def performance_profiles(values, higher_is_better: bool = False,
                         solvers=None) -> list:
    """Dolan-More profile curves from a problems-by-solvers value matrix.

    ``values`` may contain NaN for failures; every defined entry must be
    strictly positive.  With ``higher_is_better`` the entries are inverted
    first, then per-problem ratios to the row best are accumulated into one
    nondecreasing curve per solver.  The denominator is always the total
    number of problems, so curves plateau at the solved fraction.
    """
    V = np.asarray(values, dtype=float)
    if V.ndim != 2:
        raise ValueError("values must be a problems-by-solvers matrix")
    n_prob, n_solv = V.shape
    defined = ~np.isnan(V)
    if np.any(V[defined] <= 0.0):
        raise ValueError("profile values must be strictly positive where defined")
    if solvers is None:
        solvers = [f"solver_{j}" for j in range(n_solv)]
    if len(solvers) != n_solv:
        raise ValueError("solver name count does not match the matrix width")
    W = 1.0 / V if higher_is_better else V.copy()
    row_best = np.full(n_prob, np.nan)
    solvable = defined.any(axis=1)
    row_best[solvable] = np.nanmin(W[solvable], axis=1)
    with np.errstate(invalid="ignore"):
        ratios = W / row_best[:, None]
    curves = []
    for j, name in enumerate(solvers):
        r = ratios[:, j]
        r = r[np.isfinite(r)]
        taus = np.unique(np.concatenate([[1.0], r]))
        rhos = np.array([(r <= t).sum() / n_prob for t in taus])
        curves.append(ProfileCurve(solver=str(name), taus=taus, rhos=rhos))
    return curves
