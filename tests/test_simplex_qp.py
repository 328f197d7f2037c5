import numpy as np
import pytest

from sparsemoo import solve_simplex_qp

from oracles import face_theta, grid_theta_m2, reference_solve_simplex_qp, scaled_gap


def random_instance(rng, k, m, with_offsets=True):
    G = rng.normal(size=(k, m)) * rng.uniform(0.5, 3.0)
    b = rng.normal(size=m) if with_offsets else np.zeros(m)
    L = float(rng.uniform(0.2, 5.0))
    return G, b, L


class TestExamples:
    def test_symmetric_gradients_midpoint(self):
        sol = solve_simplex_qp(np.array([[1.0, 0.0], [0.0, 1.0]]), L=1.0)
        np.testing.assert_allclose(sol.lam, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.d, [-0.5, -0.5], atol=1e-12)
        assert sol.theta == pytest.approx(-0.25, abs=1e-12)

    def test_single_objective(self):
        sol = solve_simplex_qp(np.array([[2.0], [0.0]]), L=1.0)
        np.testing.assert_allclose(sol.d, [-2.0, 0.0], atol=1e-12)
        assert sol.theta == pytest.approx(-2.0, abs=1e-12)

    def test_grid_derived_case(self):
        # frozen from the lambda-grid oracle (step 1e-4)
        G = np.array([[2.0, -1.0], [0.0, 1.0]])
        theta_grid, lam_grid = grid_theta_m2(G)
        sol = solve_simplex_qp(G, L=1.0)
        assert sol.theta == pytest.approx(-0.2, abs=1e-9)
        assert theta_grid == pytest.approx(-0.2, abs=1e-6)
        np.testing.assert_allclose(sol.lam, [0.4, 0.6], atol=1e-9)
        assert lam_grid == pytest.approx(0.4, abs=1e-4)
        np.testing.assert_allclose(sol.d, [-0.2, -0.6], atol=1e-9)


class TestSolutionInvariants:
    def test_lambda_and_direction_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 7))
            G, b, L = random_instance(rng, k, m)
            sol = solve_simplex_qp(G, b, L)
            assert np.all(sol.lam >= -1e-12)
            assert abs(sol.lam.sum() - 1.0) <= 1e-9
            np.testing.assert_allclose(sol.d, -(G @ sol.lam) / L, atol=1e-9)
            primal = np.max(G.T @ sol.d + b) + 0.5 * L * float(sol.d @ sol.d)
            assert sol.theta == pytest.approx(primal, abs=1e-8)

    def test_vertex_and_origin_bounds(self):
        # each simplex vertex is dual feasible, so it lower-bounds theta;
        # d = 0 is primal feasible, so max_j b_j upper-bounds it
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            G, b, L = random_instance(rng, 4, m)
            sol = solve_simplex_qp(G, b, L)
            cols = np.einsum("ij,ij->j", G, G)
            assert sol.theta >= np.max(b - cols / (2 * L)) - 1e-9
            assert sol.theta <= np.max(b) + 1e-10

    def test_zero_offsets_nonpositive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            G, _, L = random_instance(rng, 3, m, with_offsets=False)
            assert solve_simplex_qp(G, None, L).theta <= 1e-12

    def test_curvature_scaling(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            G, _, L = random_instance(rng, 4, m, with_offsets=False)
            c = float(rng.uniform(0.5, 4.0))
            base = solve_simplex_qp(G, None, L)
            scaled = solve_simplex_qp(G, None, c * L)
            assert scaled.theta == pytest.approx(base.theta / c, abs=1e-8)
            np.testing.assert_allclose(scaled.d, base.d / c, atol=1e-8)

    def test_grid_agreement_m2(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            G, b, L = random_instance(rng, int(rng.integers(1, 6)), 2)
            sol = solve_simplex_qp(G, b, L)
            theta_grid, _ = grid_theta_m2(G, b, L)
            assert sol.theta == pytest.approx(theta_grid, abs=1e-6)

    def test_duality_gap_m3_m4(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            m = int(rng.integers(3, 5))
            G, b, L = random_instance(rng, int(rng.integers(1, 6)), m)
            sol = solve_simplex_qp(G, b, L)
            Gl = G @ sol.lam
            dual = -(float(Gl @ Gl) / (2 * L) - float(b @ sol.lam))
            assert abs(sol.theta - dual) <= 1e-9
        # gradients scaled over seven decades: the certificate is relative
        # to the scale of H and b, not absolute
        for _ in range(300):
            m = int(rng.integers(3, 5))
            G, b, L = random_instance(rng, int(rng.integers(1, 6)), m)
            G = G * 10.0 ** rng.uniform(-3.0, 4.0)
            sol = solve_simplex_qp(G, b, L)
            assert scaled_gap(G, b, L, sol.lam) <= 1e-12

    def test_face_oracle_m3_m4(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            m = int(rng.integers(3, 5))
            G, b, L = random_instance(rng, int(rng.integers(1, 6)), m,
                                      with_offsets=bool(rng.integers(0, 4)))
            theta = face_theta(G, b, L)
            assert solve_simplex_qp(G, b, L).theta == pytest.approx(theta, rel=1e-12, abs=1e-12)

    def test_face_oracle_m5_to_m8(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = int(rng.integers(5, 9))
            G, b, L = random_instance(rng, int(rng.integers(1, 7)), m,
                                      with_offsets=bool(rng.integers(0, 4)))
            theta = face_theta(G, b, L)
            sol = solve_simplex_qp(G, b, L)
            assert sol.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
            assert scaled_gap(G, b, L, sol.lam) <= 1e-12


class TestEdgeCases:
    def test_degenerate_zero_matrix(self):
        # with G = 0 the dual is max_lam b^T lam: all weight on argmax b
        b = np.array([1.0, 3.0, 2.0, -1.0])
        sol = solve_simplex_qp(np.zeros((3, 4)), b, 2.0)
        np.testing.assert_array_equal(sol.d, np.zeros(3))
        np.testing.assert_array_equal(sol.lam, [0.0, 1.0, 0.0, 0.0])
        assert sol.theta == 3.0
        assert float(b @ sol.lam) == sol.theta  # -q(lam) = theta: dual optimal

    def test_degenerate_zero_matrix_ties(self):
        # ties in max b share the weight; constant b keeps uniform weights
        sol = solve_simplex_qp(np.zeros((2, 3)), np.array([2.0, 0.0, 2.0]))
        np.testing.assert_array_equal(sol.lam, [0.5, 0.0, 0.5])
        assert sol.theta == 2.0
        sol = solve_simplex_qp(np.zeros((2, 3)))
        assert sol.lam.tobytes() == np.full(3, 1.0 / 3.0).tobytes()
        assert sol.theta == 0.0
        sol = solve_simplex_qp(np.zeros((3, 2)), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(sol.lam, [1.0, 0.0])
        assert sol.theta == 1.0

    def test_large_rank_one_gradients(self):
        # |H| ~ 1.6e8 with the optimum on a 2-face where G lambda ~ 0: a
        # plain SVD solve of the face KKT system leaves a gap of 5e-7,
        # above the duality sandwich's 1e-7 * max(1, |theta|)
        G = np.array([[-6750.685897330336, 18001.97561277428, 10045.697056087969]])
        b = np.array([-1.2116360835163504, -0.02296686031789293, -0.00879144060955676])
        L = 2.0562635806402554
        sol = solve_simplex_qp(G, b, L)
        np.testing.assert_array_equal(sol.lam == 0.0, [False, True, False])
        assert sol.theta == pytest.approx(face_theta(G, b, L), abs=1e-7)
        assert scaled_gap(G, b, L, sol.lam) <= 1e-15

    @pytest.mark.parametrize("G, b", [
        ([[1e5, -2e5]], [1.0, -1.0]),
        ([[1e5, -2e5, 1e5]], [1.0, -1.0, 0.5]),
    ])
    def test_large_gradients_pass_the_sandwich(self, G, b):
        # max|H| = 4e10: the primal-dual gaps (1.6e-6 for m = 2, 4.9e-7 for
        # m = 3) exceed 1e-7 * max(1, |theta|) but are rounding, about
        # 4e-17 * (max|H| + max|b|)
        G, b = np.array(G), np.array(b)
        sol = solve_simplex_qp(G, b)
        assert sol.theta == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert scaled_gap(G, b, 1.0, sol.lam) <= 1e-15

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_simplex_qp(np.array([[np.nan], [1.0]]))
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((2, 1)), np.array([np.inf]))
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((2, 1)), None, -1.0)
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((2, 1)), None, np.inf)
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((2, 2)), np.array([0.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((2, 2)), np.zeros(3), 1.0)


class TestInputContract:
    """The checks of ``solve_simplex_qp`` against their two-scan reference:
    the same errors for non-finite inputs, the same branch for all-zero,
    empty and 1-D gradient matrices."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["G", "b", "L"])
    def test_non_finite_input_raises_the_same_error(self, bad, where):
        G, b, L = np.ones((3, 2)), np.zeros(2), 1.0
        if where == "G":
            G[1, 0] = bad
        elif where == "b":
            b[1] = bad
        else:
            L = bad
        with pytest.raises(ValueError) as lib:
            solve_simplex_qp(G, b, L)
        with pytest.raises(ValueError) as ref:
            reference_solve_simplex_qp(G, b, L)
        assert str(lib.value) == str(ref.value) == "non-finite inputs to the direction subproblem"

    @pytest.mark.parametrize("G", [
        np.full((3, 2), -0.0), np.array([[0.0, -0.0, 0.0]]), np.zeros((0, 2)),
        np.zeros((0, 3)), np.array([1.5, -2.0]), np.array([-0.0, 0.0, -0.0]), np.array(2.0),
    ], ids=["minus-zeros", "mixed-zeros", "k0-m2", "k0-m3", "1d", "1d-zeros", "0d"])
    @pytest.mark.parametrize("with_b", [False, True])
    def test_degenerate_shapes_take_the_same_branch(self, G, with_b):
        m = np.atleast_2d(G).shape[1]
        b = np.linspace(-1.0, 1.0, m)[::-1].copy() if with_b else None
        lib, ref = solve_simplex_qp(G, b, 2.0), reference_solve_simplex_qp(G, b, 2.0)
        assert lib.d.shape == ref.d.shape
        assert lib.d.tobytes() == ref.d.tobytes() and lib.lam.tobytes() == ref.lam.tobytes()
        assert np.float64(lib.theta).tobytes() == np.float64(ref.theta).tobytes()
