import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemoo import (
    CapacityError,
    DataError,
    MultiObjectiveProblem,
    ParetoArchive,
    SolverConfig,
    SupportSet,
    dominates,
    example_biobjective,
    filter_nondominated,
    generate_quadratic,
    is_L_stationary,
    is_pareto_stationary,
    l0_norm,
    moiht,
    mospd,
    project_sparse,
    sfsd_run,
    super_supports,
    theta_feasible,
    theta_L,
)
from sparsemoo import cli, core
from sparsemoo.core import check_number, superset_blocks
from sparsemoo.problems import check_instance_entry
from sparsemoo.sfsd import solve_starts

from oracles import nondominated_indices, reference_check_number, reference_super_supports

# Small integer fronts: few values per objective, so ties, duplicates and
# dominated rows are all common.
fronts = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), max_size=8),
        st.lists(st.integers(-2, 2), min_size=m, max_size=m),
    ).map(lambda Ff: (np.array(Ff[0], dtype=float).reshape(-1, m), Ff[1]))
)


class TestDominates:
    def test_one_strict_one_equal(self):
        assert dominates((1, 2), (1, 3))

    def test_equality_excluded(self):
        assert not dominates((1, 2), (1, 2))

    def test_incomparable(self):
        assert not dominates((1, 3), (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            dominates(np.zeros((3, 2)), (1, 2, 3))

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
    def test_irreflexive(self, u):
        assert not dominates(u, u)

    @settings(max_examples=200)
    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.tuples(*[st.lists(st.integers(-3, 3), min_size=m, max_size=m)] * 3)
        )
    )
    def test_transitive(self, triple):
        u, v, w = triple
        if dominates(u, v) and dominates(v, w):
            assert dominates(u, w)

    @settings(max_examples=200)
    @given(fronts)
    def test_rowwise_matches_pairwise(self, front):
        F, f = front
        assert dominates(F, f).tolist() == [dominates(r, f) for r in F]
        assert dominates(f, F).tolist() == [dominates(f, r) for r in F]


class TestFilterNondominated:
    @settings(max_examples=200)
    @given(fronts)
    def test_matches_bruteforce(self, front):
        F, _ = front
        assert filter_nondominated(F).tolist() == nondominated_indices(F)


class TestProjectSparse:
    def test_keep_two_largest(self):
        np.testing.assert_array_equal(project_sparse(np.array([3.0, 1.0, 2.0]), 2),
                                      [3.0, 0.0, 2.0])

    def test_tie_break_keeps_smaller_index(self):
        np.testing.assert_array_equal(project_sparse(np.array([1.0, -1.0, 0.0]), 1),
                                      [1.0, 0.0, 0.0])

    def test_already_feasible(self):
        np.testing.assert_array_equal(project_sparse(np.zeros(2), 1), [0.0, 0.0])

    def test_idempotent_and_norm_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=7)
            s = int(rng.integers(1, 7))
            px = project_sparse(x, s)
            np.testing.assert_array_equal(project_sparse(px, s), px)
            assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-15

    def test_projection_optimality_by_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            x = rng.normal(size=n)
            px = project_sparse(x, s)
            best = np.linalg.norm(x - px)
            for keep in itertools.combinations(range(n), s):
                z = np.zeros(n)
                z[list(keep)] = x[list(keep)]
                assert best <= np.linalg.norm(x - z) + 1e-12

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            project_sparse(np.ones(3), 0)
        with pytest.raises(ValueError):
            project_sparse(np.ones(3), 3)


class TestSuperSupports:
    def test_partial_support(self):
        sets = super_supports(np.array([1.0, 0.0, 0.0]), 2)
        assert [S.indices for S in sets] == [(0, 1), (0, 2)]

    def test_full_support_is_singleton(self):
        sets = super_supports(np.array([1.0, 2.0, 0.0]), 2)
        assert [S.indices for S in sets] == [(0, 1)]

    def test_zero_point(self):
        sets = super_supports(np.zeros(2), 1)
        assert [S.indices for S in sets] == [(0,), (1,)]

    def test_count_formula(self):
        import math

        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            k = int(rng.integers(0, s + 1))
            x = np.zeros(n)
            idx = rng.choice(n, size=k, replace=False)
            x[idx] = rng.normal(size=k) + 3.0
            sets = super_supports(x, s)
            assert len(sets) == math.comb(n - k, s - k)
            assert sets == sorted(sets)
            assert all(len(S) == s for S in sets)

    def test_infeasible_point_rejected(self):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            super_supports(np.array([1.0, 2.0, 3.0]), 2)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            super_supports(np.zeros(30), 15)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_matches_reference(self, case):
        n, s, mask = case
        x = np.where(mask, np.arange(1.0, n + 1.0), 0.0)
        x = project_sparse(x, s) if np.count_nonzero(x) > s else x
        assert super_supports(x, s) == reference_super_supports(x, s)

    def test_cap_is_the_reference_cap(self, monkeypatch):
        # the origin has C(6, 3) = 20 super support sets at s = 3
        monkeypatch.setattr(core, "MAX_SUPPORTS", 20)
        assert super_supports(np.zeros(6), 3) == reference_super_supports(np.zeros(6), 3)
        monkeypatch.setattr(core, "MAX_SUPPORTS", 19)
        for build in (super_supports, reference_super_supports):
            with pytest.raises(CapacityError):
                build(np.zeros(6), 3)


@st.composite
def superset_cases(draw):
    """Disjoint sorted ``fixed`` and ``free`` over range(n), and a k <= |free|."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    n_fixed = draw(st.integers(0, n))
    n_free = draw(st.integers(0, n - n_fixed))
    fixed, free = sorted(order[:n_fixed]), sorted(order[n_fixed:n_fixed + n_free])
    return fixed, free, draw(st.integers(0, n_free))


class TestSupersetBlocks:
    @settings(max_examples=300, deadline=None)
    @given(superset_cases(), st.sampled_from([1, 3, core._CHUNK]))
    def test_rows_match_itertools(self, case, chunk):
        fixed, free, k = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK", chunk)
            blocks = list(superset_blocks(np.array(fixed, dtype=np.intp),
                                          np.array(free, dtype=np.intp), k))
        want = sorted(tuple(sorted(fixed + list(E))) for E in itertools.combinations(free, k))
        assert [tuple(row) for block in blocks for row in block.tolist()] == want
        assert [block.shape[0] for block in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        assert 1 <= blocks[-1].shape[0] <= chunk
        for block in blocks:
            assert block.dtype == np.intp and block.flags.c_contiguous
            assert block.shape[1] == len(fixed) + k

    def test_cap_before_the_first_block(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SUPPORTS", 9)
        assert len(next(superset_blocks([0], np.arange(1, 10), 1))) == 9
        with pytest.raises(CapacityError, match="10 supports exceed the cap 9"):
            next(superset_blocks([], np.arange(10), 1))


class TestSupportSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupportSet((1, 1), 3)
        with pytest.raises(ValueError):
            SupportSet((0, 3), 3)
        with pytest.raises(ValueError):
            SupportSet((2, 0), 3)

    def test_immutable_and_ordered(self):
        S = SupportSet((0, 2), 4)
        with pytest.raises(AttributeError):
            S.indices = (1,)
        assert SupportSet((0, 1), 4) < SupportSet((0, 2), 4) < SupportSet((1, 2), 4)
        assert S.to_1based() == (1, 3)

    def test_hashable_key(self):
        d = {SupportSet((0, 1), 3): "a"}
        assert d[SupportSet((0, 1), 3)] == "a"


class TestProblemOracle:
    def test_lipschitz_validation(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(
                n=2, m=1,
                evaluate=lambda x: np.array([0.0]),
                gradient=lambda x: np.zeros((1, 2)),
                lipschitz=np.array([0.0]),
            )

    def test_l0_norm_tolerance(self):
        assert l0_norm(np.array([1e-13, 1.0, 0.0])) == 1


class TestCheckNumber:
    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.floats(-10, 20), st.integers(-10, 20),
                        st.integers(-10**400, 10**400), st.booleans()),
        low=st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.just(-math.inf)),
        width=st.one_of(st.floats(0, 10), st.just(math.inf)),
        integer=st.booleans(),
        open_low=st.booleans(),
    )
    def test_returns_in_range_values_and_rejects_the_rest(self, value, low, width,
                                                          integer, open_low):
        high = max(low, 0) + width
        kind_ok = type(value) is int or (
            not integer and type(value) is float and value - value == 0.0)
        ok = kind_ok and (value > low if open_low else value >= low) and value < high
        if ok:
            assert check_number("knob", value, low, high, integer=integer,
                                open_low=open_low) is value
        else:
            with pytest.raises(DataError, match="^knob must be"):
                check_number("knob", value, low, high, integer=integer, open_low=open_low)


    @settings(max_examples=500, deadline=None)
    # the edges of the exact-type path: infinite bounds, -0.0, NaN, int vs float
    @example(value=-math.inf, low=-math.inf, high=math.inf, integer=False, open_low=False)
    @example(value=-0.0, low=0, high=1, integer=False, open_low=True)
    @example(value=math.nan, low=-math.inf, high=math.inf, integer=False, open_low=False)
    @example(value=2.0, low=0, high=5, integer=True, open_low=False)
    @given(
        value=st.one_of(
            st.integers(-10, 20), st.integers(-10**400, 10**400), st.booleans(),
            st.floats(), st.floats(-10, 20),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
            # numpy scalars: none is an exact int or float, though float64 subclasses float
            st.integers(-10, 20).map(np.int64), st.integers(-10, 20).map(np.int8),
            st.integers(0, 20).map(np.uint16), st.booleans().map(np.bool_),
            st.floats().map(np.float64), st.floats(-10, 20).map(np.float64),
            st.floats(width=32).map(np.float32)),
        low=st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.just(-math.inf)),
        high=st.one_of(st.integers(-5, 20), st.floats(-5, 20), st.just(math.inf)),
        integer=st.booleans(),
        open_low=st.booleans(),
    )
    def test_matches_the_reference_rule(self, value, low, high, integer, open_low):
        def outcome(check):
            try:
                out = check("knob", value, low, high, integer=integer, open_low=open_low)
            except DataError as err:
                return "raised", str(err)
            assert out is value
            return "returned", None

        assert outcome(check_number) == outcome(reference_check_number)


def _load_manifest(**fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps({"instances": [{"type": "example4", "s": 1}], **fields}))
        return cli._load_manifest(path)[0]


_P = example_biobjective()
_X0 = np.zeros(2)
_CFG = SolverConfig(L=1.1)


def _entry(**fields):
    return check_instance_entry({"n": 4, "kappa": 10.0, "s": 2, "seed": 0, **fields}, "q.json:")


# (name in the message, integer setting, call with the value under test)
GUARDED = [
    ("s", True, lambda v: project_sparse(np.ones(3), v)),
    ("s", True, lambda v: theta_L(_P, _X0, v, 1.1)),
    ("n", True, lambda v: generate_quadratic(v, 10.0, 0)),
    ("kappa", False, lambda v: generate_quadratic(4, v, 0)),
    ("L", False, lambda v: theta_L(_P, _X0, 1, v)),
    ("eps", False, lambda v: is_L_stationary(_P, _X0, 1, 1.1, eps=v)),
    ("eps", False, lambda v: is_pareto_stationary(_P, _X0, 1, eps=v)),
    ("s", True, lambda v: sfsd_run(_P, ParetoArchive(), v, _CFG, 0)),
    ("s", True, lambda v: solve_starts(_P, v, "scalarized", 1, 0, (-2.0, 2.0), _CFG)),
    ("s", True, lambda v: moiht(_P, _X0, v, _CFG)),
    ("tau0", False, lambda v: SolverConfig(L=1.1, tau0=v)),
    ("s", True, lambda v: mospd(_P, _X0, v, _CFG)),
    ("s", True, lambda v: theta_feasible(_P, _X0, v)),
    ("L", False, lambda v: SolverConfig(L=v)),
    ("eps", False, lambda v: SolverConfig(L=1.1, eps=v)),
    ("max_iter", True, lambda v: SolverConfig(L=1.1, max_iter=v)),
    ("n_starts", True, lambda v: solve_starts(_P, 1, "moiht", v, 0, (-2.0, 2.0), _CFG)),
    ("box lo", False, lambda v: solve_starts(_P, 1, "moiht", 1, 0, (v, 2.0), _CFG)),
    ("box hi", False, lambda v: solve_starts(_P, 1, "moiht", 1, 0, (-2.0, v), _CFG)),
    ("budget", True, lambda v: sfsd_run(_P, ParetoArchive(), 1, _CFG, v)),
    ("explore_spacing", False,
     lambda v: sfsd_run(_P, ParetoArchive(), 1, _CFG, 0, explore_spacing=v)),
    ("--wallclock", False, lambda v: cli._deadlines(v)),
    ("q.json: 'n'", True, lambda v: _entry(n=v)),
    ("q.json: 's'", True, lambda v: _entry(s=v)),
    ("q.json: 'kappa'", False, lambda v: _entry(kappa=v)),
    ("q.json: 'seed'", True, lambda v: _entry(seed=v)),
    ("manifest 'seed'", True, lambda v: _load_manifest(seed=v)),
    ("manifest 'n_starts'", True, lambda v: _load_manifest(n_starts=v)),
    ("manifest 'sfsd_budget'", True, lambda v: _load_manifest(sfsd_budget=v)),
    ("manifest 'solver_budget'", True, lambda v: _load_manifest(solver_budget=v)),
    ("manifest 'run_seeds[0]'", True, lambda v: _load_manifest(run_seeds=[v])),
    ("manifest 'instances[0].kappa'", False,
     lambda v: _load_manifest(instances=[{"n": 4, "kappa": v, "s": 2}])),
    ("q.json: 'type'", False, lambda v: _entry(type=v)),
    ("seed", True, lambda v: solve_starts(_P, 1, "scalarized", 1, v, (-2.0, 2.0), _CFG)),
]


@pytest.mark.parametrize("name, integer, call", GUARDED,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(GUARDED)])
def test_every_guarded_setting_rejects_nonfinite_bool_and_fraction(name, integer, call):
    for value in [math.nan, math.inf, -math.inf, True] + ([2.5] if integer else []):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be")):
            call(value)
