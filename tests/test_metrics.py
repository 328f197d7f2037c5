import numpy as np
import pytest

from sparsemoo import (
    build_reference_front,
    delta_spread,
    gamma_spread,
    hypervolume_2d,
    performance_profiles,
    purity,
    rescale_logistic_objectives,
)

from sparsemoo.metrics import hypervolume_reference_point

from oracles import mc_hypervolume


class TestReferenceFront:
    def test_union_keeps_incomparable(self):
        ref = build_reference_front([np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]])])
        assert ref.shape == (2, 2)

    def test_dominated_removed(self):
        ref = build_reference_front([np.array([[1.0, 2.0]]), np.array([[1.0, 3.0]])])
        np.testing.assert_array_equal(ref, [[1.0, 2.0]])

    def test_exact_duplicates_merged(self):
        ref = build_reference_front([np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])])
        assert ref.shape == (1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_reference_front([np.ones((1, 2)), np.ones((1, 3))])


class TestPurity:
    def test_full_overlap(self):
        assert purity([(1.0, 1.0)], [(1.0, 1.0), (0.0, 2.0)]) == 1.0

    def test_no_overlap(self):
        assert purity([(2.0, 2.0)], [(1.0, 1.0)]) == 0.0

    def test_half(self):
        assert purity([(1.0, 1.0), (5.0, 5.0)], [(1.0, 1.0), (0.0, 2.0)]) == 0.5

    def test_self_purity_one(self):
        rng = np.random.default_rng(0)
        ref = np.sort(rng.random((6, 2)), axis=0)
        assert purity(ref, ref) == 1.0

    def test_empty_front_scores_zero(self):
        assert purity(np.empty((0, 2)), [(1.0, 1.0)]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            purity([(1.0, 1.0)], np.empty((0, 2)))


class TestGammaSpread:
    def test_hand_example(self):
        front = [(0.0, 2.0), (1.0, 1.0), (3.0, 0.0)]
        assert gamma_spread(front, front) == pytest.approx(2.0)

    def test_single_point_equal_to_extremes(self):
        assert gamma_spread([(1.0, 1.0)], [(1.0, 1.0)]) == 0.0

    def test_equispaced_grid_step(self):
        front = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
        assert gamma_spread(front, front) == pytest.approx(1.0)

    def test_empty_front_sentinel(self):
        assert gamma_spread(np.empty((0, 2)), [(0.0, 1.0), (1.0, 0.0)]) == np.inf

    def test_row_order_invariant(self):
        rng = np.random.default_rng(1)
        pts = np.column_stack([np.sort(rng.random(5)), -np.sort(-rng.random(5))])
        ref = pts[[0, -1]]
        perm = rng.permutation(5)
        assert gamma_spread(pts, ref) == pytest.approx(gamma_spread(pts[perm], ref))


class TestDeltaSpread:
    def test_equidistant_with_offset_extremes(self):
        # three uniform points, reference extremes one equal gap beyond each
        # end: d0 = dN = dbar gives (2 dbar) / (4 dbar) = 0.5
        front = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        ref = [(0.0, 4.0), (4.0, 0.0)]
        assert delta_spread(front, ref) == pytest.approx(0.5)

    def test_perfectly_uniform_zero(self):
        front = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
        assert delta_spread(front, front) == 0.0

    def test_single_point_sentinel(self):
        assert delta_spread([(1.0, 1.0)], [(0.0, 2.0), (2.0, 0.0)]) == np.inf

    def test_row_order_invariant(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([np.sort(rng.random(6)), -np.sort(-rng.random(6))])
        ref = pts[[0, -1]]
        perm = rng.permutation(6)
        assert delta_spread(pts, ref) == pytest.approx(delta_spread(pts[perm], ref))


class TestLogisticRescaling:
    def test_log_and_minmax(self):
        front = np.array([[1.0, 1.0], [2.0, 100.0]])
        (out,) = rescale_logistic_objectives([front])
        np.testing.assert_allclose(out, [[0.0, 0.0], [1.0, 1.0]])

    def test_zero_f2_clipped(self):
        front = np.array([[1.0, 0.0], [2.0, 1.0]])
        (out,) = rescale_logistic_objectives([front])
        assert np.all(np.isfinite(out))

    def test_joint_ranges(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[1.0, 10.0]])
        ra, rb = rescale_logistic_objectives([a, b])
        np.testing.assert_allclose(ra, [[0.0, 0.0]])
        np.testing.assert_allclose(rb, [[1.0, 1.0]])


class TestHypervolume:
    def test_staircase(self):
        hv = hypervolume_2d([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0))
        assert hv == pytest.approx(6.0)

    def test_empty_front(self):
        assert hypervolume_2d(np.empty((0, 2)), (1.0, 1.0)) == 0.0

    def test_single_rectangle(self):
        assert hypervolume_2d([(1.0, 1.0)], (2.0, 2.0)) == pytest.approx(1.0)

    def test_rows_outside_reference_ignored(self):
        hv = hypervolume_2d([(1.0, 1.0), (5.0, 0.0)], (2.0, 2.0))
        assert hv == pytest.approx(1.0)

    def test_monotone_under_nondominated_insertion(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.random((6, 2)) * 2
            base = hypervolume_2d(pts, (3.0, 3.0))
            extra = np.vstack([pts, rng.random((1, 2)) * 2])
            assert hypervolume_2d(extra, (3.0, 3.0)) >= base - 1e-12

    def test_monte_carlo_agreement_small(self):
        rng = np.random.default_rng(4)
        f1 = np.sort(rng.random(5)) * 3
        f2 = np.sort(rng.random(5))[::-1] * 3
        front = np.column_stack([f1, f2])
        ref = (3.5, 3.5)
        exact = hypervolume_2d(front, ref)
        est, sigma = mc_hypervolume(front, ref, n_samples=300_000, seed=0)
        assert abs(exact - est) <= 3 * sigma + 1e-9

    def test_reference_point_flat_objective(self):
        # zero range: max + 0.1 * max(|max|, 1)
        np.testing.assert_allclose(hypervolume_reference_point([[0.5, -3.0]]), [0.6, -2.7])
        np.testing.assert_allclose(hypervolume_reference_point([[2.0, 1.0], [1.0, 1.0]]),
                                   [2.1, 1.1])


class TestProfiles:
    def test_times_hand_example(self):
        curves = performance_profiles(np.array([[1.0, 2.0], [2.0, 2.0]]))
        c1, c2 = curves
        assert c1.rhos[np.searchsorted(c1.taus, 1.0)] == 1.0
        assert c2.rhos[np.searchsorted(c2.taus, 1.0)] == 0.5
        assert c2.rhos[np.searchsorted(c2.taus, 2.0)] == 1.0

    def test_single_solver(self):
        (curve,) = performance_profiles(np.array([[3.0], [5.0]]))
        np.testing.assert_array_equal(curve.taus, [1.0])
        np.testing.assert_array_equal(curve.rhos, [1.0])

    def test_inversion_rule(self):
        curves = performance_profiles(np.array([[1.0, 0.5]]), higher_is_better=True)
        c1, c2 = curves
        assert c1.rhos[np.searchsorted(c1.taus, 1.0)] == 1.0
        assert c2.rhos[np.searchsorted(c2.taus, 2.0)] == 1.0
        assert c2.rhos[np.searchsorted(c2.taus, 1.0)] == 0.0

    def test_failures_never_counted(self):
        curves = performance_profiles(np.array([[1.0, np.nan], [1.0, 2.0]]))
        c2 = curves[1]
        assert c2.rhos[-1] == 0.5  # plateau counts solved problems only

    def test_curves_nondecreasing_bounded(self):
        rng = np.random.default_rng(5)
        V = rng.uniform(0.5, 4.0, size=(8, 3))
        V[rng.random((8, 3)) < 0.2] = np.nan
        for curve in performance_profiles(V):
            assert np.all(np.diff(curve.rhos) >= 0)
            assert np.all(curve.rhos <= 1.0)
            assert np.all(curve.taus >= 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            performance_profiles(np.array([[1.0, -2.0]]))
        with pytest.raises(ValueError):
            performance_profiles(np.array([[0.0, 1.0]]))
