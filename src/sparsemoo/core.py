"""Shared vocabulary: points, supports, dominance, problem oracles, sparse projection.

Everything downstream works on a feasible set of the form
``{x in R^n : ||x||_0 <= s}`` (vectors with at most ``s`` nonzero entries),
here always called ``Omega``; :func:`check_point` validates a point of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Components with |x_i| <= ZERO_TOL are read as zero when building supports.
# The threshold is an implementation choice for floating point robustness.
ZERO_TOL = 1e-12

# Cap on enumerated supports or super support sets; beyond it CapacityError.
MAX_SUPPORTS = 2_000_000

# Default stationarity tolerance: a measure above -STATIONARITY_EPS counts
# as stationary (SolverConfig.eps and the is_*_stationary tests).
STATIONARITY_EPS = 1e-7

# u = 2^-53, the relative rounding error of one float64 operation.  Each
# line model (MultiObjectiveProblem.line) derives a bound on its rounding in
# units of u and returns LINE_SAFETY times it: the derivations take libm's
# and BLAS's accuracy on trust, and a bound about 1e3 times above any
# rounding seen still lies far below the objective changes a line search
# decides on, so the factor costs next to no skipped trials.
UNIT_ROUNDOFF = 2.0 ** -53
LINE_SAFETY = 1024.0


class CapacityError(RuntimeError):
    """A support enumeration would exceed ``MAX_SUPPORTS``."""


class DataError(ValueError):
    """An input failed validation: a setting, a dataset cell or label, a file."""


def check_number(name, value, low, high=math.inf, *, integer=False, open_low=False):
    """Return ``value`` if it is a finite number (an integer with ``integer``; never a
    ``bool``) with ``low <= value < high`` (``low < value`` with ``open_low``);
    otherwise raise :class:`DataError` naming ``name``."""
    kind = type(value)  # an exact int or float in range passes before the generic tests
    if ((kind is int or (kind is float and not integer and math.isfinite(value)))
            and (low < value if open_low else low <= value) and value < high):
        return value
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or not (low < value if open_low else low <= value) or not value < high):
        lower = f"{'>' if open_low else '>='} {low}"
        bounds = lower if high == math.inf else f"{lower} and < {high}"
        raise DataError(f"{name} must be {'an integer' if integer else 'a finite number'} "
                        f"{bounds}, got {value!r}")
    return value


def _nonzero(x) -> np.ndarray:
    """Mask of the components of ``x`` read as nonzero, ``|x_i| > ZERO_TOL``."""
    return np.abs(np.asarray(x, dtype=float)) > ZERO_TOL


def support(x: np.ndarray) -> np.ndarray:
    """Indices of the nonzero components of ``x`` (0-based, sorted)."""
    return np.flatnonzero(_nonzero(x))


def l0_norm(x: np.ndarray) -> int:
    """Number of nonzero components of ``x``."""
    return int(np.count_nonzero(_nonzero(x)))


def check_budget(s: int, n: int) -> int:
    """Validate a cardinality bound ``1 <= s < n`` and return it as int."""
    return int(check_number("s", s, 1, n, integer=True))


def is_feasible(x: np.ndarray, s: int) -> bool:
    """True iff ``x`` has at most ``s`` nonzero components."""
    return l0_norm(x) <= s


def check_point(x: np.ndarray, s: int, n: int):
    """Return ``(x as a float array, s)``; ``ValueError`` unless ``x`` in R^n lies in Omega."""
    x = np.asarray(x, dtype=float)
    s = check_budget(s, n)
    if not is_feasible(x, s):
        raise ValueError(f"point with {l0_norm(x)} nonzeros is infeasible for s={s}")
    return x, s


@dataclass(frozen=True, order=True)
class SupportSet:
    """An ordered index set over ``{0, ..., n-1}``.

    Indices are kept 0-based internally; serialized output (CSV columns)
    uses 1-based indices.  Instances are immutable and hashable, so they can
    key archives.
    """

    indices: tuple
    n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) > self.n:
            raise ValueError("support set larger than ambient dimension")
        if any(not 0 <= i < self.n for i in idx):
            raise ValueError(f"indices must lie in [0, {self.n}), got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")

    @classmethod
    def from_iterable(cls, indices: Iterable[int], n: int) -> "SupportSet":
        return cls(tuple(sorted(set(int(i) for i in indices))), n)

    @classmethod
    def _from_sorted(cls, arr: np.ndarray, n: int) -> "SupportSet":
        """The set of ``arr``, unchecked: ``arr`` must be a 1-D ``intp`` array
        of sorted, distinct indices in ``[0, n)`` that nothing else writes.
        It is made read-only and becomes :meth:`as_array`'s cached array."""
        arr.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "indices", tuple(arr.tolist()))
        object.__setattr__(out, "n", n)
        out.__dict__["_index_array"] = arr
        return out

    @functools.cached_property
    def _index_array(self) -> np.ndarray:
        arr = np.array(self.indices, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    def as_array(self) -> np.ndarray:
        """The indices as a read-only ``intp`` array, built once per set."""
        return self._index_array

    def contains_support_of(self, x: np.ndarray) -> bool:
        """True iff every index of :func:`support` ``(x)`` is in the set."""
        outside = _nonzero(x).ravel()
        idx = self.as_array()
        outside[idx[idx < outside.size]] = False
        return not outside.any()

    def to_1based(self) -> tuple:
        return tuple(i + 1 for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def as_support(J, n: int) -> SupportSet:
    """``J`` (a :class:`SupportSet` over n, or indices) as a SupportSet over n."""
    if isinstance(J, SupportSet):
        if J.n != n:
            raise ValueError(f"support set over dimension {J.n}, expected {n}")
        return J
    return SupportSet.from_iterable(J, n)


@dataclass(frozen=True)
class MultiObjectiveProblem:
    """Oracle for a continuously differentiable vector objective.

    Parameters
    ----------
    n : int
        Dimension of the variable space.
    m : int
        Number of objectives.
    evaluate : callable
        ``x -> (m,) array`` of objective values.
    gradient : callable
        ``x -> (m, n) array``; row ``j`` is the gradient of objective ``j``.
    lipschitz : (m,) array
        Per-objective gradient Lipschitz constants, all positive.
    line : callable or None
        Optional model of the objectives along a line, used only to skip
        line-search trials that ``evaluate`` would reject anyway.
        ``line(x, d)`` returns four length-``m`` sequences of floats
        ``(slope, lo, hi, err)`` such that for every step ``a`` in
        ``[0, 1]`` and every objective ``j``::

            a*slope[j] + a*a*lo[j]/2 - err[j]
                <= evaluate(x + a*d)[j] - evaluate(x)[j]
                <= a*slope[j] + a*a*hi[j]/2 + err[j]

        Both ``evaluate`` values are the oracle's floating-point outputs
        (``x + a*d`` rounded as numpy rounds it) and the inequalities hold
        in exact arithmetic on the returned floats, so ``err[j]`` bounds the
        rounding of both evaluations and of the model itself.  ``err[j]``
        is also at least ``8 * UNIT_ROUNDOFF`` times ``|evaluate(z)[j]|``
        at ``x`` and at every such trial point ``z``, so a wrapper that adds
        a term to ``f_j`` can charge the rounding of that sum to it.
        ``None`` (the default) runs every search on the oracle alone, and
        every result is the same either way.
    """

    n: int
    m: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: np.ndarray
    line: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def __post_init__(self):
        lip = np.asarray(self.lipschitz, dtype=float)
        lip.setflags(write=False)
        object.__setattr__(self, "lipschitz", lip)
        if lip.shape != (self.m,):
            raise ValueError(f"lipschitz must have shape ({self.m},), got {lip.shape}")
        if not np.all(lip > 0):
            raise ValueError("Lipschitz constants must be positive")


def dominates(u, v):
    """True iff ``u <= v`` componentwise and ``u != v`` (strict partial order).

    The order is applied along the last axis and broadcast over the leading
    ones: for a ``(k, m)`` array ``F`` and a vector ``f``, ``dominates(F, f)``
    is the row mask ``[dominates(r, f) for r in F]`` and ``dominates(f, F)``
    marks the rows that ``f`` dominates.  Two vectors give a ``bool``.
    Raises ``ValueError`` when the last axes differ in length.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != v.shape[-1:]:
        raise ValueError(f"objective vectors differ in length: {u.shape} vs {v.shape}")
    out = (u <= v).all(axis=-1) & (u < v).any(axis=-1)
    return bool(out) if out.ndim == 0 else out


def filter_nondominated(points) -> np.ndarray:
    """Indices of objective vectors not dominated by any other vector.

    Exact duplicates are all retained (they do not dominate each other).
    """
    F = np.asarray(points, dtype=float)
    if F.size == 0:
        return np.array([], dtype=int)
    F = np.atleast_2d(F)
    return np.flatnonzero([not dominates(F, f).any() for f in F])


def project_sparse(x: np.ndarray, s: int) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``{z : ||z||_0 <= s}``.

    Keeps the ``s`` largest-magnitude entries and zeroes the rest.  Ties in
    magnitude are broken by keeping the smaller index, which makes repeated
    runs reproducible.
    """
    x = np.asarray(x, dtype=float)
    s = check_budget(s, x.size)
    # Stable sort on -|x|: equal magnitudes keep their original index order.
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def super_supports(x: np.ndarray, s: int) -> list:
    """All super support sets at ``x``: index sets ``J`` with supp(x) ⊆ J, |J| = s.

    Returned in lexicographic order; there are ``C(n - ||x||_0, s - ||x||_0)``
    of them, and exactly one when ``||x||_0 == s``.  Raises
    :class:`CapacityError` when there are more than ``MAX_SUPPORTS``.
    """
    x, s = check_point(x, s, np.size(x))
    n = x.size
    base = support(x)
    k = base.size
    count = math.comb(n - k, s - k)
    if count > MAX_SUPPORTS:
        raise CapacityError(
            f"{count} super support sets exceed the cap {MAX_SUPPORTS}; reduce n or s"
        )
    base_set = set(int(i) for i in base)
    free = [i for i in range(n) if i not in base_set]
    sets = [
        SupportSet(tuple(sorted(base_set.union(extra))), n)
        for extra in itertools.combinations(free, s - k)
    ]
    sets.sort()
    return sets
