"""Front approximation over per-support archives.

Phase one turns multi-start solver outputs into (point, super support)
pairs; phase two sweeps the archive with common and partial descent steps,
comparing points only within the same support key so each subspace develops
its own mutually nondominated slice of the front.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MultiObjectiveProblem,
    SupportSet,
    check_budget,
    check_number,
    check_point,
    dominates,
    filter_nondominated,
    is_feasible,
    l0_norm,
    project_sparse,
    support,
)
from .directions import theta_feasible, theta_subspace
from .solvers import (
    STEP_SLACK,
    SolverConfig,
    armijo_common,
    backtrack,
    default_config,
    default_lambda_grid,
    mohyb,
    moiht,
    mosd,
    mospd,
    positive_root,
    scalarized_iht,
)

# Steps are only attempted when the descent certificate clears this bar;
# below it a direction is numerically indistinguishable from stationarity.
THETA_TOL = 1e-10
DEDUPE_TOL = 1e-10
# sfsd_run's closing refinement drives every entry to theta_subspace > -FINAL_EPS.
FINAL_EPS = 1e-4
# Default relative spacing floor of sfsd_run's exploration (explore_spacing).
EXPLORE_SPACING = 5e-3
# Default number of phase-one starts (the CLI's --n-starts, a manifest's n_starts).
N_STARTS = 10

# Phase-one strategies, in the order the CLI lists them.
STRATEGIES = ("moiht", "mospd", "mohyb", "scalarized")
# The strategies whose phase one ignores ``seed``, ``n_starts`` and ``box``:
# their fronts are the same for every seed.
SEED_INDEPENDENT = ("scalarized",)


@dataclass(frozen=True, eq=False)
class ArchiveEntry:
    """One archive row: a point, its super support key both stored immutably,
    the cached objective vector and, once :meth:`gradient` is asked, the
    cached gradients.

    ``fvals`` must be ``p.evaluate(x)`` itself, not a recomputation that may
    round differently: the common descent step hands it to Armijo as
    ``f(x)`` instead of evaluating the objectives again.  Likewise
    :meth:`gradient` keeps ``p.gradient(x)``'s own output, which the
    direction subproblems take instead of calling the oracle again.  So an
    entry belongs to one problem: the one whose oracles made ``fvals`` and
    are handed to :meth:`gradient`.
    """

    x: np.ndarray
    J: SupportSet
    fvals: np.ndarray
    grads: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        f = np.asarray(self.fvals, dtype=float).copy()
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fvals", f)
        assert self.J.contains_support_of(x), "point leaves its support key"

    def gradient(self, p: MultiObjectiveProblem) -> np.ndarray:
        """``p.gradient(x)``, evaluated on the first call and kept read-only
        (a copy of the oracle's output, the same bits) for the later ones."""
        if self.grads is None:
            g = np.array(p.gradient(self.x), dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "grads", g)
        return self.grads


# The record of a key the archive does not hold.
_NO_RECORD = ((), None, None)


class ParetoArchive:
    """Entries grouped by super support key, mutually nondominated per key.

    Each key holds one immutable record ``(entries, X, F)``: its entries as
    a tuple and, as read-only arrays, their points and objective vectors as
    rows in the same order (:meth:`arrays`).  Every change replaces the
    key's whole record (:meth:`_set`) instead of writing into it, so
    :meth:`copy` shares the records and :meth:`group` hands out a snapshot.
    """

    def __init__(self):
        self._keys: dict = {}

    @classmethod
    def from_entries(cls, entries) -> "ParetoArchive":
        """Build an archive, dropping per-key dominated entries and duplicates."""
        archive = cls()
        grouped: dict = {}
        for e in entries:
            grouped.setdefault(e.J, []).append(e)
        for J in sorted(grouped):
            group = grouped[J]
            F = np.array([e.fvals for e in group])
            keep = set(filter_nondominated(F).tolist())
            for i, e in enumerate(group):
                if i in keep:
                    archive.insert(e, skip_if_dominated=True)
        return archive

    def keys(self):
        return sorted(self._keys)

    def group(self, J: SupportSet) -> tuple:
        """Key ``J``'s entries in insertion order; later changes leave it as it is."""
        return self._keys.get(J, _NO_RECORD)[0]

    def arrays(self, J: SupportSet) -> tuple:
        """Key ``J``'s read-only ``(X, F)``: row i is entry i of :meth:`group`."""
        return self._keys[J][1:]

    def entries(self) -> list:
        out = []
        for J in self.keys():
            out.extend(self._keys[J][0])
        return out

    def __len__(self) -> int:
        return sum(len(r[0]) for r in self._keys.values())

    def contains(self, entry: ArchiveEntry) -> bool:
        # entries compare by identity (eq=False), so ``in`` is an identity scan
        return entry in self._keys.get(entry.J, _NO_RECORD)[0]

    def copy(self) -> "ParetoArchive":
        dup = ParetoArchive()
        dup._keys = dict(self._keys)
        return dup

    def _set(self, J: SupportSet, group: tuple, X: np.ndarray, F: np.ndarray):
        """Make ``(group, X, F)`` key ``J``'s record, read-only; an empty group drops ``J``."""
        if group:
            X.setflags(write=False)
            F.setflags(write=False)
            self._keys[J] = (group, X, F)
        else:
            del self._keys[J]

    def remove(self, entry: ArchiveEntry):
        group = self.group(entry.J)
        if entry in group:
            i = group.index(entry)
            X, F = self.arrays(entry.J)
            self._set(entry.J, group[:i] + group[i + 1:],
                      np.delete(X, i, axis=0), np.delete(F, i, axis=0))

    def insert(self, entry: ArchiveEntry, skip_if_dominated: bool = False) -> ArchiveEntry:
        """Evict key mates strictly dominated by ``entry``, then add it.

        A point coinciding with an existing mate within ``DEDUPE_TOL``
        (infinity norm) is not re-added; the existing entry is returned as
        the canonical one.  With ``skip_if_dominated`` the entry is dropped
        when a mate dominates it (used outside the literal sweep rule);
        without it a dominated entry breaks the sweep rule and fails an
        ``assert`` (under ``python -O`` it is dropped).
        """
        J = entry.J
        record = self._keys.get(J)
        if record is None:
            self._set(J, (entry,), entry.x[None, :], entry.fvals[None, :])
            return entry
        group, X, F = record
        dup = np.flatnonzero((np.abs(X - entry.x) <= DEDUPE_TOL).all(axis=1))
        if dup.size:
            return group[int(dup[0])]
        if dominates(F, entry.fvals).any():
            assert skip_if_dominated, "inserted a dominated point"
            return entry
        gone = dominates(entry.fvals, F)
        if gone.any():
            keep = ~gone
            group = tuple(itertools.compress(group, keep.tolist()))
            X, F = X[keep], F[keep]
        self._set(J, group + (entry,), np.concatenate((X, entry.x[None, :])),
                  np.concatenate((F, entry.fvals[None, :])))
        return entry

    def check_invariants(self):
        """Audit per-key mutual nondomination and duplicate-freeness, and
        that each key's arrays hold its entries' bytes."""
        for J, (group, Xa, Fa) in self._keys.items():
            F = np.array([e.fvals for e in group])
            X = np.array([e.x for e in group])
            assert (Xa.shape, Fa.shape) == (X.shape, F.shape) and (
                Xa.tobytes() == X.tobytes() and Fa.tobytes() == F.tobytes()), (
                f"stale arrays in {J}")
            # every row against every row, in blocks of rows that keep each
            # (rows, k, m) comparison near 2^20 cells on large keys
            step = max(1, (1 << 20) // F.size)
            for i in range(0, len(group), step):
                assert not dominates(F[i:i + step, None, :], F[None, :, :]).any(), (
                    f"dominated pair in {J}")
            for e in group:
                # every mate lies farther than DEDUPE_TOL; e itself is at 0
                far = (np.abs(X - e.x) > DEDUPE_TOL).any(axis=1)
                assert np.count_nonzero(far) == len(group) - 1, f"duplicate in {J}"


def crowding_distance(fvals) -> np.ndarray:
    """Per-point crowding distances of a set of objective vectors.

    For each objective the points are sorted; boundary points get infinity
    and interior points accumulate (next - prev) / (max - min).  Objectives
    with zero range contribute nothing.
    """
    F = np.atleast_2d(np.asarray(fvals, dtype=float))
    if F.shape[0] < 1:
        raise ValueError("need at least one objective vector")
    n, m = F.shape
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        col = F[order, j]
        span = col[-1] - col[0]
        if n > 2 and span > 0:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
    return dist


def assign_super_support(p: MultiObjectiveProblem, x: np.ndarray, s: int,
                         cfg: SolverConfig | None = None):
    """Attach a super support set to ``x``, descending first if it can move.

    A full-support point has a unique super support.  Otherwise, while the
    feasible-descent measure is below ``-cfg.eps``, one Armijo step along
    the steepest feasible direction is taken (which may activate new
    coordinates); once stationary with spare room, the support is completed
    with the smallest unused indices.  Returns ``(point, SupportSet)``.
    """
    x, s = check_point(x, s, p.n)
    cfg = cfg if cfg is not None else default_config(p)
    for _ in range(1000):
        if l0_norm(x) == s:
            break  # the support is the only super support
        sol = theta_feasible(p, x, s)
        if sol.theta > -cfg.eps:
            break
        alpha = armijo_common(p, x, sol.d, sol.theta, None, cfg)
        if alpha == 0.0:
            break
        x = x + alpha * sol.d
    taken = set(int(i) for i in support(x))
    fill = [i for i in range(p.n) if i not in taken][: s - len(taken)]
    return x, SupportSet(tuple(sorted(taken.union(fill))), p.n)


def solve_starts(p: MultiObjectiveProblem, s: int, strategy: str, n_starts: int,
                 seed: int, box, cfg: SolverConfig, deadline: float | None = None):
    """Multi-start a single-point solver; returns ``(points, iteration_counts)``.

    ``n_starts`` points are sampled uniformly from the cube ``box = (lo, hi)``
    with ``lo < hi`` (as ``lo + (hi - lo) * u``), projected onto the sparsity
    set and handed to the chosen solver.  A point's iteration
    count is moiht's iterations, mospd's outer iterations or the moiht
    stage's iterations of mohyb.

    ``strategy='scalarized'`` instead runs the deterministic trade-off grid
    of ``2n`` weights from the zero start; ``n_starts``/``seed``/``box``
    are ignored for it (it is in :data:`SEED_INDEPENDENT`) and its counts
    are ``None``.  ``n_starts`` must be an integer ``>= 1`` and ``seed``
    one ``>= 0`` for every strategy.

    With ``deadline`` (a ``time.monotonic()`` stamp) no new start is
    processed past the deadline; results are otherwise deterministic.
    """
    s = check_budget(s, p.n)
    check_number("n_starts", n_starts, 1, integer=True)
    check_number("seed", seed, 0, integer=True)
    if strategy in SEED_INDEPENDENT:
        points = scalarized_iht(p, s, default_lambda_grid(p.n), cfg)
        return points, [None] * len(points)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown initialization strategy {strategy!r}")
    lo, hi = box
    lo = float(check_number("box lo", lo, -np.inf))
    hi = float(check_number("box hi", hi, lo, open_low=True))
    rng = np.random.default_rng(seed)
    starts = lo + (hi - lo) * rng.random((n_starts, p.n))
    points, counts = [], []
    for start in starts:
        if deadline is not None and time.monotonic() > deadline:
            break
        x0 = project_sparse(start, s)
        if strategy == "moiht":
            x, trace = moiht(p, x0, s, cfg)
            counts.append(len(trace.iterates) - 1)
        elif strategy == "mospd":
            x, info = mospd(p, x0, s, cfg)
            counts.append(info["outer_iterations"])
        else:
            x, info = mohyb(p, x0, s, cfg)
            counts.append(info["moiht_iterations"])
        points.append(x)
    return points, counts


def initialize(p: MultiObjectiveProblem, s: int, strategy: str, n_starts: int,
               seed: int, box, cfg: SolverConfig | None = None,
               deadline: float | None = None) -> ParetoArchive:
    """Phase one: multi-start a single-point solver and archive the results.

    The starts are solved by :func:`solve_starts` (same arguments).  Each
    output is assigned a super support and per-key dominated entries are
    filtered out.  Entries with non-finite objective values are dropped;
    the archive may come out empty.
    """
    cfg = cfg if cfg is not None else default_config(p)
    points, _ = solve_starts(p, s, strategy, n_starts, seed, box, cfg, deadline)
    entries = []
    for x in points:
        if not np.all(np.isfinite(x)):
            continue
        fx = np.asarray(p.evaluate(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            continue
        # x itself comes back when no step is taken (full support, say): fx holds
        x_new, J = assign_super_support(p, x, s, cfg)
        entries.append(ArchiveEntry(x=x_new, J=J, fvals=fx if x_new is x else p.evaluate(x_new)))
    return ParetoArchive.from_entries(entries)


def _objective_subsets(m: int):
    """Nonempty proper subsets of {0..m-1}: increasing cardinality, lex order."""
    for size in range(1, m):
        yield from itertools.combinations(range(m), size)


def _explore_allowed(work: ParetoArchive, entry: ArchiveEntry) -> bool:
    dist = crowding_distance(work.arrays(entry.J)[1])
    d = dist[work.group(entry.J).index(entry)]
    if not np.isfinite(d):
        return True  # boundary points always explored
    # Threshold over the finite distances (the boundary infinities would
    # make any mean infinite).  Points at or below the bar are skipped: on
    # symmetric fronts all interior distances tie, and exploring ties would
    # double the archive every sweep.
    return d > float(np.mean(dist[np.isfinite(dist)])) + 1e-12


def _exploration_step(p, work: ParetoArchive, z_entry: ArchiveEntry, d: np.ndarray,
                      cfg: SolverConfig, spacing: float):
    """Largest alpha0*delta^h step beating every key mate on some objective.

    The key mates are the entries of ``work`` under ``z_entry.J``.

    With ``spacing > 0`` a candidate is also rejected when its objective
    vector lands within ``spacing`` of some mate's, measured per objective
    relative to the key's current objective ranges; this saturates the
    otherwise unbounded dyadic fill-in of the front.  Returns
    ``(alpha, point, fvals)`` or ``(0.0, None, None)`` when every candidate
    fails (the step is then skipped entirely).

    When z is one of the mates, with a ``p.line`` model the search ends at
    the first step the model proves lands within ``spacing`` of z itself
    (:func:`_spacing_floor`): every smaller step does too.  The result is
    the same as without the model.
    """
    mate_F = work.arrays(z_entry.J)[1]
    if spacing > 0.0 and mate_F.shape[0] > 1:
        scale = mate_F.max(axis=0) - mate_F.min(axis=0)
        scale[scale <= 0.0] = np.inf  # flat objective: no spacing constraint
    else:
        scale = None

    def accept(a, fc):
        return (fc < mate_F).any(axis=1).all() and (
            scale is None or not (np.abs(fc - mate_F) / scale <= spacing).all(axis=1).any())

    floor = 0.0
    if scale is not None and p.line is not None and work.contains(z_entry):
        floor = _spacing_floor(p.line(z_entry.x, d), scale.tolist(), spacing)
    return backtrack(p, z_entry.x, d, cfg, accept, (floor, math.inf))


def _spacing_floor(model, scale, spacing: float) -> float:
    """A step below which every candidate lands within ``spacing`` of z, or 0.

    ``model = (s, lo, hi, e)`` is ``p.line(z, d)``, so for ``a <= 1``
    ``|f_j(z + a d) - f_j(z)| <= B_j(a) = a |s_j| + a^2 M_j / 2 + e_j`` with
    ``M_j = max(|lo_j|, |hi_j|)``, and ``B_j`` grows with ``a``.  The
    spacing test divides the rounded difference by ``scale_j`` and compares
    with ``spacing``, so it rejects the candidate once
    ``(1 + u) B_j(a) <= spacing * scale_j`` for every objective with a
    finite scale (flat ones only need ``B_j`` finite).  Per objective that
    holds up to the root of ``B_j(a) = S_j = spacing * scale_j``, computed
    only when ``e_j <= S_j / 2`` so that the root moves at most twice as
    much, relatively, as ``S_j`` or ``e_j`` do; ``STEP_SLACK`` covers that
    and the ``(1 + u)``.
    """
    floor = math.inf
    for s, lo, hi, e, sc in zip(*model, scale):
        M = max(abs(lo), abs(hi))
        if not abs(s) + M + e < math.inf:
            return 0.0  # no finite bound: the candidate's values are unknown
        if sc == math.inf:
            continue
        S = spacing * sc
        if not e <= 0.5 * S:
            return 0.0
        root = positive_root(M, abs(s), S - e)
        if math.isnan(root):
            return 0.0
        floor = min(floor, root)
    return floor * (1.0 - STEP_SLACK)


def sfsd_run(p: MultiObjectiveProblem, archive0: ParetoArchive, s: int,
             cfg: SolverConfig, budget: int, *, explore_spacing: float = EXPLORE_SPACING,
             deadline: float | None = None) -> ParetoArchive:
    """Phase two: front steepest descent over per-support archives.

    A key is swept until a sweep leaves its points' bytes unchanged; the
    sweeps stop when no key is left, after ``budget`` of them or past
    ``deadline`` (``time.monotonic()``).  Per entry still present in the
    working archive: a common descent step in its subspace (Armijo on the
    ``theta_subspace`` direction when the measure is negative), insertion of
    the new point with eviction of strictly dominated key mates; then, for
    each proper objective subset with a negative partial measure and while
    the point survives, an exploration step accepted when the candidate
    beats every key mate on some objective.  Exploration is skipped for
    interior points whose crowding distance is not above the mean of the
    key's finite distances; boundary points are always explored.

    ``explore_spacing`` keeps exploration from tiling the front at ever
    finer resolution: candidates landing within that relative distance of
    an existing mate (per objective, scaled by the key's objective ranges)
    are rejected, so the archive saturates.  0 restores the literal acceptance rule.

    After the sweeps a refinement pass drives every surviving entry to
    subspace stationarity within ``FINAL_EPS`` (1e-4) and re-filters each
    key, so final entries satisfy the subspace optimality test at that
    tolerance.  ``budget`` must be an integer ``>= 0`` and
    ``explore_spacing`` a finite number ``>= 0``; anything else raises
    ``ValueError``.
    """
    s = check_budget(s, p.n)
    check_number("budget", budget, 0, integer=True)
    check_number("explore_spacing", explore_spacing, 0)
    work = archive0.copy()
    active = work.keys()  # keys never interact: a sweep changing nothing ends its key
    for _ in range(budget):
        if not active or deadline is not None and time.monotonic() > deadline:
            break
        active = [J for J in active if _sweep_key(p, work, J, cfg, explore_spacing)]
    _refine_archive(p, work, cfg)
    if __debug__:
        work.check_invariants()
        assert all(is_feasible(e.x, s) for e in work.entries())
    return work


def _sweep_key(p, work: ParetoArchive, J, cfg: SolverConfig, explore_spacing: float) -> bool:
    """Sweep key ``J``'s entries still present, in order; True if its points' bytes changed."""
    before = work.arrays(J)[0].tobytes()  # rows of J.n floats: equal bytes, equal shape
    for entry in work.group(J):
        if work.contains(entry):  # else evicted earlier in this sweep
            _process_entry(p, work, entry, cfg, explore_spacing)
    return work.arrays(J)[0].tobytes() != before


def _process_entry(p, work: ParetoArchive, entry: ArchiveEntry, cfg: SolverConfig,
                   explore_spacing: float):
    # each entry's gradient is evaluated once, for its common step on every
    # sweep and for its exploration steps
    sol = theta_subspace(p, entry.x, entry.J, grads=entry.gradient(p))
    alpha = 0.0
    if sol.theta < -THETA_TOL:
        alpha = armijo_common(p, entry.x, sol.d, sol.theta, None, cfg, fx=entry.fvals)
    if alpha > 0.0:
        z = entry.x + alpha * sol.d
        fz = np.asarray(p.evaluate(z), dtype=float)
        assert np.all(fz <= entry.fvals), "common step increased an objective"
        z_entry = work.insert(ArchiveEntry(x=z, J=entry.J, fvals=fz))
    else:
        z_entry = entry
    if not work.contains(z_entry):
        return
    if not _explore_allowed(work, z_entry):
        return
    for I in _objective_subsets(p.m):
        if not work.contains(z_entry):
            break
        solI = theta_subspace(p, z_entry.x, entry.J, I, grads=z_entry.gradient(p))
        if solI.theta >= -THETA_TOL:
            continue
        alpha_I, cand, fc = _exploration_step(p, work, z_entry, solI.d, cfg, explore_spacing)
        if alpha_I == 0.0:
            continue
        work.insert(ArchiveEntry(x=cand, J=entry.J, fvals=fc))


def _refine_archive(p, work: ParetoArchive, cfg: SolverConfig):
    for entry in work.entries():
        if not work.contains(entry):
            continue
        x_new = mosd(p, entry.x, entry.J, FINAL_EPS, cfg, entry.fvals, grads=entry.grads)
        if x_new.tobytes() == entry.x.tobytes():
            continue  # already stationary, or no step passes Armijo
        work.remove(entry)
        work.insert(
            ArchiveEntry(x=x_new, J=entry.J, fvals=p.evaluate(x_new)),
            skip_if_dominated=True,
        )
