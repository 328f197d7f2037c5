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
from dataclasses import dataclass

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

# Phase-one strategies, in the order the CLI lists them.
STRATEGIES = ("moiht", "mospd", "mohyb", "scalarized")
# The strategies whose phase one ignores ``seed``, ``n_starts`` and ``box``:
# their fronts are the same for every seed.
SEED_INDEPENDENT = ("scalarized",)


@dataclass(frozen=True, eq=False)
class ArchiveEntry:
    """One archive row: a point, its super support key both stored immutably,
    and the cached objective vector.

    ``fvals`` must be ``p.evaluate(x)`` itself, not a recomputation that may
    round differently: the common descent step hands it to Armijo as
    ``f(x)`` instead of evaluating the objectives again.
    """

    x: np.ndarray
    J: SupportSet
    fvals: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        f = np.asarray(self.fvals, dtype=float).copy()
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fvals", f)
        assert self.J.contains_support_of(x), "point leaves its support key"


class ParetoArchive:
    """Entries grouped by super support key, mutually nondominated per key."""

    def __init__(self):
        self._groups: dict = {}

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
        return sorted(self._groups)

    def group(self, J: SupportSet) -> list:
        return list(self._groups.get(J, ()))

    def entries(self) -> list:
        out = []
        for J in self.keys():
            out.extend(self._groups[J])
        return out

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())

    def contains(self, entry: ArchiveEntry) -> bool:
        # entries compare by identity (eq=False), so ``in`` is an identity scan
        return entry in self._groups.get(entry.J, ())

    def copy(self) -> "ParetoArchive":
        dup = ParetoArchive()
        dup._groups = {J: list(g) for J, g in self._groups.items()}
        return dup

    def state(self) -> tuple:
        """Exact byte-level snapshot used for no-change detection."""
        return tuple(
            (J.indices, tuple(e.x.tobytes() for e in self._groups[J]))
            for J in self.keys()
        )

    def remove(self, entry: ArchiveEntry):
        group = self._groups.get(entry.J, [])
        if entry in group:
            group.remove(entry)
            if not group:
                del self._groups[entry.J]

    def insert(self, entry: ArchiveEntry, skip_if_dominated: bool = False) -> ArchiveEntry:
        """Evict key mates strictly dominated by ``entry``, then add it.

        A point coinciding with an existing mate within ``DEDUPE_TOL``
        (infinity norm) is not re-added; the existing entry is returned as
        the canonical one.  With ``skip_if_dominated`` the entry is dropped
        when a mate dominates it (used outside the literal sweep rule);
        without it a dominated entry breaks the sweep rule and fails an
        ``assert`` (under ``python -O`` it is dropped).
        """
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

    def check_invariants(self):
        """Audit per-key mutual nondomination and duplicate-freeness."""
        for J, group in self._groups.items():
            F = np.array([e.fvals for e in group])
            X = np.array([e.x for e in group])
            for e in group:
                assert not dominates(F, e.fvals).any(), f"dominated pair in {J}"
                # every mate lies farther than DEDUPE_TOL; e itself is at 0
                far = np.max(np.abs(X - e.x), axis=1) > DEDUPE_TOL
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
    are ``None``.

    With ``deadline`` (a ``time.monotonic()`` stamp) no new start is
    processed past the deadline; results are otherwise deterministic.
    """
    s = check_budget(s, p.n)
    check_number("n_starts", n_starts, 1, integer=True)
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


def _explore_allowed(group, entry: ArchiveEntry) -> bool:
    dist = crowding_distance(np.array([e.fvals for e in group]))
    d = dist[group.index(entry)]
    if not np.isfinite(d):
        return True  # boundary points always explored
    # Threshold over the finite distances (the boundary infinities would
    # make any mean infinite).  Points at or below the bar are skipped: on
    # symmetric fronts all interior distances tie, and exploring ties would
    # double the archive every sweep.
    return d > float(np.mean(dist[np.isfinite(dist)])) + 1e-12


def _exploration_step(p, z_entry: ArchiveEntry, d: np.ndarray, mates,
                      cfg: SolverConfig, spacing: float):
    """Largest alpha0*delta^h step beating every key mate on some objective.

    With ``spacing > 0`` a candidate is also rejected when its objective
    vector lands within ``spacing`` of some mate's, measured per objective
    relative to the key's current objective ranges; this saturates the
    otherwise unbounded dyadic fill-in of the front.  Returns
    ``(alpha, point, fvals)`` or ``(0.0, None, None)`` when every candidate
    fails (the step is then skipped entirely).

    z is one of the mates, so with a ``p.line`` model the search ends at
    the first step the model proves lands within ``spacing`` of z itself
    (:func:`_spacing_floor`): every smaller step does too.  The result is
    the same as without the model.
    """
    mate_F = np.array([m.fvals for m in mates])
    if spacing > 0.0 and mate_F.shape[0] > 1:
        scale = mate_F.max(axis=0) - mate_F.min(axis=0)
        scale[scale <= 0.0] = np.inf  # flat objective: no spacing constraint
    else:
        scale = None

    def accept(a, fc):
        return (fc < mate_F).any(axis=1).all() and (
            scale is None or not (np.abs(fc - mate_F) / scale <= spacing).all(axis=1).any())

    floor = 0.0
    # entries compare by identity (eq=False), so ``in`` finds z itself
    if scale is not None and p.line is not None and z_entry in mates:
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

    Runs up to ``budget`` sweeps.  Per entry still present in the working
    archive: a common descent step in its subspace (Armijo on the
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
    are rejected, so the archive saturates and the no-change detection can
    stop early.  0 restores the literal acceptance rule.

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
    prev = work.state()
    for _ in range(budget):
        if deadline is not None and time.monotonic() > deadline:
            break
        for entry in work.entries():
            if not work.contains(entry):
                continue  # evicted earlier in this sweep
            _process_entry(p, work, entry, cfg, explore_spacing)
        cur = work.state()
        if cur == prev:
            break
        prev = cur
    _refine_archive(p, work, cfg)
    if __debug__:
        work.check_invariants()
        assert all(is_feasible(e.x, s) for e in work.entries())
    return work


def _process_entry(p, work: ParetoArchive, entry: ArchiveEntry, cfg: SolverConfig,
                   explore_spacing: float):
    sol = theta_subspace(p, entry.x, entry.J)
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
    if not _explore_allowed(work.group(entry.J), z_entry):
        return
    for I in _objective_subsets(p.m):
        if not work.contains(z_entry):
            break
        solI = theta_subspace(p, z_entry.x, entry.J, I)
        if solI.theta >= -THETA_TOL:
            continue
        alpha_I, cand, fc = _exploration_step(
            p, z_entry, solI.d, work.group(entry.J), cfg, explore_spacing
        )
        if alpha_I == 0.0:
            continue
        work.insert(ArchiveEntry(x=cand, J=entry.J, fvals=fc))


def _refine_archive(p, work: ParetoArchive, cfg: SolverConfig):
    for entry in work.entries():
        if not work.contains(entry):
            continue
        x_new = mosd(p, entry.x, entry.J, FINAL_EPS, cfg, entry.fvals)
        if x_new.tobytes() == entry.x.tobytes():
            continue  # already stationary, or no step passes Armijo
        work.remove(entry)
        work.insert(
            ArchiveEntry(x=x_new, J=entry.J, fvals=p.evaluate(x_new)),
            skip_if_dominated=True,
        )
