import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (
    MultiObjectiveProblem,
    SolverConfig,
    SupportSet,
    crowding_distance,
    default_config,
    filter_nondominated,
    generate_quadratic,
    initialize,
    is_feasible,
    project_sparse,
    sfsd_run,
    super_supports,
    theta_subspace,
)
from sparsemoo import sfsd
from sparsemoo.sfsd import DEDUPE_TOL, ArchiveEntry, ParetoArchive, assign_super_support

from oracles import ReferenceArchive, archive_bytes


def entry(p, x, J):
    x = np.asarray(x, dtype=float)
    return ArchiveEntry(x=x, J=J, fvals=p.evaluate(x))


def plant(arch, J, group):
    """Set key ``J`` of ``arch`` to ``group`` as it stands, checks bypassed:
    one record of the entries and the ``(X, F)`` arrays built from them."""
    arch._keys[J] = (tuple(group), np.array([e.x for e in group]),
                     np.array([e.fvals for e in group]))


def two_target_problem(a, b):
    """f1 = 0.5 ||x - a||^2, f2 = 0.5 ||x - b||^2."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def ev(x):
        return np.array([0.5 * (x - a).dot(x - a), 0.5 * (x - b).dot(x - b)])

    def grad(x):
        return np.array([x - a, x - b])

    return MultiObjectiveProblem(n=a.size, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.ones(2))


def settled_and_moving_keys():
    """Two targets that agree on the first coordinate and not on the second:
    key (0,) holds the point both minimize, stationary from the start; key
    (1,) holds one end of a segment of the front, which sweeps fill in."""
    p = two_target_problem([1.5, 3.0, 0.0], [1.5, 1.0, 0.0])
    still, moving = SupportSet((0,), 3), SupportSet((1,), 3)
    arch = ParetoArchive.from_entries([entry(p, [1.5, 0.0, 0.0], still),
                                       entry(p, [0.0, 3.0, 0.0], moving)])
    return p, arch, still, moving


def count_visits(monkeypatch):
    """Count ``_process_entry`` calls per support key."""
    visits = {}
    process = sfsd._process_entry

    def counted(p, work, e, *args):
        visits[e.J] = visits.get(e.J, 0) + 1
        return process(p, work, e, *args)

    monkeypatch.setattr(sfsd, "_process_entry", counted)
    return visits


def twin_objective_problem(a, n):
    """f1 = f2 = 0.5 ||x - a||^2: every partial measure coincides."""
    a = np.asarray(a, dtype=float)

    def ev(x):
        v = 0.5 * float((x - a) @ (x - a))
        return np.array([v, v])

    def grad(x):
        return np.stack([x - a, x - a])

    return MultiObjectiveProblem(n=n, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.array([1.0, 1.0]))


class TestCrowding:
    def test_three_point_front(self):
        d = crowding_distance([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        assert d[0] == np.inf and d[2] == np.inf
        assert d[1] == pytest.approx(2.0)

    def test_single_point(self):
        assert crowding_distance([(1.0, 2.0)])[0] == np.inf

    def test_two_points(self):
        d = crowding_distance([(0.0, 1.0), (1.0, 0.0)])
        assert np.all(np.isinf(d))

    def test_degenerate_objective_contributes_zero(self):
        d = crowding_distance([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
        assert d[1] == pytest.approx(1.0)  # only the first objective counts


class TestFilterNondominated:
    def test_mixed(self):
        idx = filter_nondominated([(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
        assert idx.tolist() == [0, 1]

    def test_all_identical_retained(self):
        idx = filter_nondominated([(1.0, 1.0)] * 3)
        assert idx.tolist() == [0, 1, 2]

    def test_chain_retained(self):
        idx = filter_nondominated([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
        assert idx.tolist() == [0, 1, 2]

    def test_empty(self):
        assert filter_nondominated([]).size == 0


class TestAssignSuperSupport:
    def test_full_support_unique(self, example_problem):
        x, J = assign_super_support(example_problem, np.array([2.0, 0.0]), 1)
        np.testing.assert_array_equal(x, [2.0, 0.0])
        assert J.indices == (0,)

    def test_descent_activates_coordinate(self, example_problem):
        x, J = assign_super_support(example_problem, np.zeros(2), 1)
        assert J.indices == (0,)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)  # one Armijo step

    def test_stationary_incomplete_support_completed(self):
        p = MultiObjectiveProblem(
            n=4, m=2,
            evaluate=lambda x: np.zeros(2),
            gradient=lambda x: np.zeros((2, 4)),
            lipschitz=np.ones(2),
        )
        x, J = assign_super_support(p, np.zeros(4), 2)
        np.testing.assert_array_equal(x, np.zeros(4))
        assert J.indices == (0, 1)

    def test_infeasible_rejected(self, example_problem):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            assign_super_support(example_problem, np.array([1.0, 1.0]), 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(0, n - 1), st.integers(0, 2**16),
        st.booleans())))
    def test_first_super_support_of_its_point(self, case):
        # a zero gradient leaves the start stationary, so its support is completed
        n, s, nonzeros, seed, flat = case
        p = generate_quadratic(n, 10.0, seed).problem()
        if flat:
            p = replace(p, gradient=lambda x: np.zeros((2, n)))
        start = np.random.default_rng(seed).normal(size=n)
        start = project_sparse(start, min(nonzeros, s)) if nonzeros else np.zeros(n)
        x, J = assign_super_support(p, start, s)
        assert J == super_supports(x, s)[0]


class TestArchive:
    def test_insert_evicts_dominated_mates(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        arch = ParetoArchive()
        worse = entry(p, [0.5, 0.0], J)
        arch.insert(worse)
        better = entry(p, [1.0, 0.0], J)  # improves both objectives
        arch.insert(better)
        group = arch.group(J)
        assert len(group) == 1 and group[0] is better

    def test_duplicate_returns_canonical(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        arch = ParetoArchive()
        first = arch.insert(entry(p, [2.0, 0.0], J))
        second = arch.insert(entry(p, [2.0, 0.0 + 1e-12], J))
        assert second is first
        assert len(arch) == 1

    def test_keys_never_mix(self, example_problem):
        p = example_problem
        arch = ParetoArchive()
        # mutually dominating values under different keys both survive
        arch.insert(entry(p, [2.0, 0.0], SupportSet((0,), 2)))
        arch.insert(entry(p, [0.0, 0.5], SupportSet((1,), 2)))
        assert len(arch) == 2
        assert len(arch.keys()) == 2

    def test_from_entries_filters_per_key(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        dominated = entry(p, [0.5, 0.0], J)  # worse on both objectives
        good = entry(p, [1.0, 0.0], J)
        arch = ParetoArchive.from_entries([dominated, good])
        assert [e is good for e in arch.group(J)] == [True]

    def test_membership_and_removal_by_identity(self, example_problem):
        J = SupportSet((0,), 2)
        arch = ParetoArchive()
        member = arch.insert(entry(example_problem, [2.0, 0.0], J))
        twin = ArchiveEntry(x=member.x, J=member.J, fvals=member.fvals)
        assert twin is not member
        assert (twin.x.tobytes(), twin.fvals.tobytes()) == (member.x.tobytes(),
                                                          member.fvals.tobytes())
        assert arch.contains(member) and not arch.contains(twin)
        arch.remove(twin)  # not a member: nothing changes
        assert [e is member for e in arch.group(J)] == [True]
        dup = arch.copy()
        dup.remove(member)
        assert len(dup) == 0 and dup.keys() == []
        assert arch.contains(member)  # the copy's groups are its own

    def test_dominated_insert_fails_sweep_rule(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        arch = ParetoArchive()
        better = arch.insert(entry(p, [1.0, 0.0], J))
        worse = entry(p, [0.5, 0.0], J)  # dominated by its key mate
        with pytest.raises(AssertionError, match="inserted a dominated point"):
            arch.insert(worse)
        assert arch.group(J) == (better,)
        assert arch.insert(worse, skip_if_dominated=True) is worse
        assert arch.group(J) == (better,)

    def test_audit_flags_dominated_pair_and_duplicate(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        arch = ParetoArchive()
        plant(arch, J, [entry(p, [1.5, 0.0], J), entry(p, [2.5, 0.0], J)])
        arch.check_invariants()  # a nondominated, duplicate-free group passes
        plant(arch, J, [entry(p, [1.5, 0.0], J), entry(p, [0.5, 0.0], J)])
        with pytest.raises(AssertionError, match="dominated pair"):
            arch.check_invariants()
        plant(arch, J, [entry(p, [1.5, 0.0], J), entry(p, [1.5, 0.0], J)])
        with pytest.raises(AssertionError, match="duplicate"):
            arch.check_invariants()

    def test_audit_flags_dominated_pair_in_a_large_key(self):
        # 1,000 rows: the pairwise test runs in blocks of rows, and a pair
        # with its dominating row in the last block is still found
        J = SupportSet((0,), 2)
        k = 1000
        group = [ArchiveEntry(x=np.array([float(i), 0.0]), J=J,
                              fvals=np.array([i / k, 1.0 - i / k])) for i in range(k)]
        arch = ParetoArchive()
        plant(arch, J, group)
        arch.check_invariants()
        better = ArchiveEntry(x=np.array([-1.0, 0.0]), J=J, fvals=group[3].fvals - 1e-3)
        plant(arch, J, group + [better])
        with pytest.raises(AssertionError, match="dominated pair"):
            arch.check_invariants()

    def test_audit_flags_stale_arrays(self, example_problem):
        p = example_problem
        J = SupportSet((0,), 2)
        a, b = entry(p, [1.5, 0.0], J), entry(p, [2.5, 0.0], J)
        arch = ParetoArchive()
        plant(arch, J, [a, b])
        arch._keys[J] = ((b, a), *arch.arrays(J))  # same rows, other order
        with pytest.raises(AssertionError, match="stale arrays"):
            arch.check_invariants()
        plant(arch, J, [a])
        arch._keys[J] = ((a, b), *arch.arrays(J))  # a row the arrays lack
        with pytest.raises(AssertionError, match="stale arrays"):
            arch.check_invariants()


# one archive operation: (kind, pick, skip_if_dominated, how a new entry relates
# to a present one)
ARCHIVE_OPS = st.lists(
    st.tuples(st.sampled_from(["insert"] * 4 + ["remove", "copy"]), st.integers(0, 1 << 20),
              st.booleans(), st.sampled_from(["fresh", "dup", "dominated", "dominating", "tie"])),
    min_size=1, max_size=40)
ARCHIVE_KEYS = (SupportSet((0, 1), 3), SupportSet((1, 2), 3))


def planted_entry(rng, m, kind, present):
    """A new entry: fresh, within DEDUPE_TOL of a present one, dominated by
    one, dominating one, or with one's objective vector on another point."""
    J = ARCHIVE_KEYS[int(rng.integers(2))]
    if kind == "fresh" or not present:
        base = None
    else:
        base = present[int(rng.integers(len(present)))]
        J = base.J
    cols = list(J.indices)
    x = np.zeros(3)
    x[cols] = rng.uniform(-1.0, 1.0, len(cols))
    f = rng.uniform(0.0, 1.0, m)
    if kind == "dup" and base is not None:
        x = base.x.copy()
        x[cols] += rng.uniform(-0.5, 0.5, len(cols)) * DEDUPE_TOL
    elif kind == "dominated" and base is not None:
        f = base.fvals + rng.uniform(0.0, 0.1, m) * (rng.random(m) < 0.7)
    elif kind == "dominating" and base is not None:
        f = base.fvals - rng.uniform(0.0, 0.1, m) * (rng.random(m) < 0.7)
    elif kind == "tie" and base is not None:
        f = base.fvals.copy()
    return ArchiveEntry(x=x, J=J, fvals=f)


def assert_same_archive(arch, ref):
    assert arch.keys() == ref.keys() and len(arch) == len(ref)
    assert all(a is b for a, b in zip(arch.entries(), ref.entries(), strict=True))
    for J in ref.keys():
        group = ref.group(J)
        assert all(a is b for a, b in zip(arch.group(J), group, strict=True))
        X, F = arch.arrays(J)
        assert X.shape == (len(group), 3) and F.shape == (len(group), group[0].fvals.size)
        assert X.tobytes() == np.array([e.x for e in group]).tobytes()
        assert F.tobytes() == np.array([e.fvals for e in group]).tobytes()
        assert not X.flags.writeable and not F.flags.writeable


class TestArchiveArrays:
    """The array-backed archive against the list-only reference archive."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([2, 3]), ops=ARCHIVE_OPS, seed=st.integers(0, 2**32 - 1))
    def test_matches_list_archive(self, m, ops, seed):
        rng = np.random.default_rng(seed)
        pairs = [(ParetoArchive(), ReferenceArchive())]
        for kind, pick, skip, relation in ops:
            arch, ref = pairs[-1]
            if kind == "copy":
                pairs.append((arch.copy(), ref.copy()))
                continue
            present = ref.entries()
            # what group() and arrays() hand out is a snapshot that the
            # next operation leaves as it is
            handed = [(arch.group(J), *arch.arrays(J)) for J in arch.keys()]
            seen = [(list(g), X.tobytes(), F.tobytes()) for g, X, F in handed]
            if kind == "remove":
                e = (present[pick % len(present)] if present and pick % 4
                     else planted_entry(rng, m, "fresh", present))  # or a non-member
                arch.remove(e)
                ref.remove(e)
            else:
                e = planted_entry(rng, m, relation, present)
                try:
                    want = ref.insert(e, skip_if_dominated=skip)
                except AssertionError:
                    # the sweep rule's guard: both refuse, and neither changes
                    with pytest.raises(AssertionError, match="inserted a dominated point"):
                        arch.insert(e, skip_if_dominated=skip)
                else:
                    assert arch.insert(e, skip_if_dominated=skip) is want
            assert_same_archive(arch, ref)
            assert all(type(g) is tuple for g, _, _ in handed)
            assert [(list(g), X.tobytes(), F.tobytes()) for g, X, F in handed] == seen
        for arch, ref in pairs:  # a copy's changes never reach its source
            assert_same_archive(arch, ref)
            arch.check_invariants()


class TestInitialize:
    def test_deterministic_given_seed(self, example_problem):
        kw = dict(strategy="moiht", n_starts=4, seed=42, box=(-2.0, 2.0),
                  cfg=SolverConfig(L=1.01))
        a = initialize(example_problem, 1, **kw)
        b = initialize(example_problem, 1, **kw)
        assert archive_bytes(a) == archive_bytes(b)  # byte-identical archives

    def test_entries_are_assigned_and_feasible(self, example_problem):
        arch = initialize(example_problem, 1, "mohyb", 6, 0, (-2.0, 2.0),
                          SolverConfig(L=1.01))
        assert len(arch) >= 1
        for e in arch.entries():
            assert is_feasible(e.x, 1)
            assert len(e.J) == 1
            assert e.J.contains_support_of(e.x)

    def test_scalarized_strategy(self, example_problem):
        arch = initialize(example_problem, 1, "scalarized", 1, 0, (-2.0, 2.0),
                          SolverConfig(L=1.01))
        assert len(arch) >= 1
        # the trade-off grid from the zero start lands on the first axis
        assert arch.keys() == [SupportSet((0,), 2)]

    def test_unknown_strategy(self, example_problem):
        with pytest.raises(ValueError):
            initialize(example_problem, 1, "annealing", 2, 0, (-2.0, 2.0))

    def test_nonfinite_outputs_dropped(self):
        bad = MultiObjectiveProblem(
            n=2, m=2,
            evaluate=lambda x: np.array([np.nan, np.nan]),
            gradient=lambda x: np.zeros((2, 2)),
            lipschitz=np.ones(2),
        )
        arch = initialize(bad, 1, "moiht", 3, 0, (-1.0, 1.0), SolverConfig(L=1.1))
        assert len(arch) == 0

    def test_n_starts_validation(self, example_problem):
        with pytest.raises(ValueError):
            initialize(example_problem, 1, "moiht", 0, 0, (-2.0, 2.0))

    def test_full_support_outputs_evaluated_once(self, example_problem, monkeypatch):
        # a full-support output is its own super support: the objectives taken
        # for the finiteness check are its cached fvals, bit for bit
        seen = []

        def ev(x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return example_problem.evaluate(x)

        p = MultiObjectiveProblem(n=2, m=2, evaluate=ev, gradient=example_problem.gradient,
                                  lipschitz=example_problem.lipschitz)
        points = [np.array([2.0, 0.0]), np.array([0.0, 1.5]), np.array([1.25, 0.0])]
        monkeypatch.setattr(sfsd, "solve_starts", lambda *args: (points, [0] * len(points)))
        arch = initialize(p, 1, "moiht", len(points), 0, (-2.0, 2.0), SolverConfig(L=1.01))
        assert sorted(seen) == sorted(x.tobytes() for x in points)
        for e in arch.entries():
            assert e.fvals.tobytes() == example_problem.evaluate(e.x).tobytes()


class TestSfsdRun:
    def test_example_spans_both_segments(self, example_problem):
        p = example_problem
        arch = ParetoArchive.from_entries([
            entry(p, [2.0, 0.0], SupportSet((0,), 2)),
            entry(p, [0.0, 1.0], SupportSet((1,), 2)),
        ])
        out = sfsd_run(p, arch, 1, SolverConfig(L=1.01), budget=20)
        assert out.keys() == [SupportSet((0,), 2), SupportSet((1,), 2)]
        for J in out.keys():
            group = out.group(J)
            assert len(group) >= 10
            for e in group:
                assert theta_subspace(p, e.x, J).theta >= -1e-6
            f1s = sorted(float(e.fvals[0]) for e in group)
            gaps = np.diff(f1s)
            assert gaps.size == 0 or gaps.max() <= 0.5

    def test_stationary_singleton_unchanged(self):
        a = np.array([1.5, 0.0, 0.0])
        p = twin_objective_problem(a, 3)
        J = SupportSet((0,), 3)
        arch = ParetoArchive.from_entries([entry(p, [1.5, 0.0, 0.0], J)])
        out = sfsd_run(p, arch, 1, SolverConfig(L=1.1), budget=5)
        assert archive_bytes(out) == archive_bytes(arch)

    def test_outputs_feasible_and_on_keys(self, quadratic_factory):
        p = quadratic_factory(n=6, kappa=10.0, seed=7)
        cfg = SolverConfig(L=11.0)
        arch = initialize(p, 3, "moiht", 6, 1, (-2.0, 2.0), cfg)
        out = sfsd_run(p, arch, 3, cfg, budget=5)
        assert len(out) >= len(arch)
        for e in out.entries():
            assert is_feasible(e.x, 3)
            assert e.J.contains_support_of(e.x)
            assert theta_subspace(p, e.x, e.J).theta >= -1e-4
        out.check_invariants()

    def test_refinement_reuses_cached_values(self, example_problem):
        # budget 0: only the closing refinement runs; it starts mosd from each
        # entry's cached fvals and keeps an entry it cannot move as it is
        seen = []

        def ev(x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return example_problem.evaluate(x)

        p = MultiObjectiveProblem(n=2, m=2, evaluate=ev, gradient=example_problem.gradient,
                                  lipschitz=example_problem.lipschitz)
        J0, J1 = SupportSet((0,), 2), SupportSet((1,), 2)
        moving, still = entry(p, [0.2, 0.0], J0), entry(p, [0.0, 1.0], J1)
        seen.clear()
        out = sfsd_run(p, ParetoArchive.from_entries([moving, still]), 1,
                       SolverConfig(L=1.0), budget=0)
        assert moving.x.tobytes() not in seen and still.x.tobytes() not in seen
        assert out.group(J1)[0] is still
        assert not out.contains(moving)
        assert theta_subspace(p, out.group(J0)[0].x, J0).theta > -1e-4

    def test_sweep_key_detects_change(self):
        # _sweep_key reports whether its sweep changed the key's points; a key
        # it reports unchanged stays unchanged on the next sweep too
        p, arch, still, moving = settled_and_moving_keys()
        cfg = SolverConfig(L=1.1)
        before = archive_bytes(arch)
        assert not sfsd._sweep_key(p, arch, still, cfg, 0.02)
        assert archive_bytes(arch) == before
        for _ in range(20):
            before = archive_bytes(arch)
            if not sfsd._sweep_key(p, arch, moving, cfg, 0.02):
                break
            assert archive_bytes(arch) != before
        else:
            pytest.fail("the moving key did not settle in 20 sweeps")
        assert archive_bytes(arch) == before and len(arch.group(moving)) > 10
        assert not sfsd._sweep_key(p, arch, moving, cfg, 0.02)
        assert archive_bytes(arch) == before

    def test_settled_key_is_swept_once(self, monkeypatch):
        # the stationary key's first sweep changes nothing, so it is not
        # swept again, while the other key is swept on every sweep
        p, arch, still, moving = settled_and_moving_keys()
        visits = count_visits(monkeypatch)
        out = sfsd_run(p, arch, 1, SolverConfig(L=1.1), budget=6)
        assert visits[still] == 1
        assert visits[moving] > 6 and len(out.group(moving)) > 10
        assert out.group(still) == arch.group(still)

    def test_past_deadline_runs_no_sweep(self, example_problem, monkeypatch):
        p = example_problem
        arch = ParetoArchive.from_entries([entry(p, [0.2, 0.0], SupportSet((0,), 2)),
                                           entry(p, [0.0, 1.0], SupportSet((1,), 2))])
        cfg = SolverConfig(L=1.01)
        visits = count_visits(monkeypatch)
        out = sfsd_run(p, arch, 1, cfg, budget=5, deadline=time.monotonic() - 1.0)
        assert visits == {}
        assert archive_bytes(out) == archive_bytes(sfsd_run(p, arch, 1, cfg, budget=0))
        # without the deadline the same run sweeps and moves
        assert archive_bytes(sfsd_run(p, arch, 1, cfg, budget=5)) != archive_bytes(out)

    def test_refinement_reuses_cached_gradients(self, quadratic_factory, monkeypatch):
        # the closing refinement hands mosd the gradients an entry holds: no
        # gradient call at such a start, and the same front as when mosd
        # evaluates them itself
        base = quadratic_factory(n=6, kappa=10.0, seed=7)
        calls = []
        p = replace(base, gradient=lambda x: calls.append(x.tobytes()) or base.gradient(x))
        cfg = SolverConfig(L=11.0)
        arch = initialize(p, 3, "moiht", 6, 1, (-2.0, 2.0), cfg)
        mosd, held = sfsd.mosd, []

        def recorded(p, x0, J, eps, cfg, fx=None, *, grads=None):
            before = len(calls)
            out = mosd(p, x0, J, eps, cfg, fx, grads=grads)
            if grads is not None:
                held.append((x0.tobytes(), calls[before:]))
            return out

        monkeypatch.setattr(sfsd, "mosd", recorded)
        lean = archive_bytes(sfsd_run(p, arch, 3, cfg, budget=3))
        assert len(held) > 3 and all(x0 not in made for x0, made in held)
        monkeypatch.setattr(sfsd, "mosd", lambda *args, grads=None: mosd(*args))
        assert archive_bytes(sfsd_run(p, arch, 3, cfg, budget=3)) == lean

    def test_budget_zero_only_refines(self, example_problem):
        p = example_problem
        arch = ParetoArchive.from_entries([
            entry(p, [2.0, 0.0], SupportSet((0,), 2)),
        ])
        out = sfsd_run(p, arch, 1, SolverConfig(L=1.01), budget=0)
        assert archive_bytes(out) == archive_bytes(arch)

    def test_monotone_common_steps_recorded(self, quadratic_factory):
        # objective vectors along common-descent insertions never increase:
        # guarded by an assert inside the sweep, so a run is the check
        p = quadratic_factory(n=5, kappa=5.0, seed=9)
        cfg = SolverConfig(L=5.5)
        arch = initialize(p, 2, "moiht", 5, 3, (-2.0, 2.0), cfg)
        out = sfsd_run(p, arch, 2, cfg, budget=4)
        assert len(out) >= 1


class TestUserOracles:
    def test_list_valued_oracles_run_a_front(self):
        # every oracle output passes through np.asarray, so a problem whose
        # evaluate and gradient return Python lists gives the same front
        p = generate_quadratic(6, 10.0, 3).problem()
        lists = MultiObjectiveProblem(
            n=6, m=2, evaluate=lambda x: p.evaluate(x).tolist(),
            gradient=lambda x: p.gradient(x).tolist(), lipschitz=p.lipschitz)
        cfg = default_config(p)
        for strategy in ("moiht", "mospd", "mohyb", "scalarized"):
            fronts = []
            for q in (p, lists):
                archive = initialize(q, 2, strategy, 3, 0, (-1.0, 1.0), cfg)
                front = sfsd_run(q, archive, 2, cfg, 2)
                fronts.append([(e.J, e.x.tobytes(), e.fvals.tobytes()) for e in front.entries()])
            assert fronts[0] == fronts[1] and fronts[0]
