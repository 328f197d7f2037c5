import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (
    CapacityError,
    MultiObjectiveProblem,
    SupportSet,
    dominates,
    filter_nondominated,
    l0_norm,
    project_sparse,
    super_supports,
)

from oracles import nondominated_indices

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
        assert S.complement() == (1, 3)

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
