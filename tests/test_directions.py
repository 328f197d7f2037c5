import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (
    CapacityError,
    MultiObjectiveProblem,
    SupportSet,
    default_config,
    generate_quadratic,
    is_L_stationary,
    is_pareto_stationary,
    project_sparse,
    super_supports,
    theta_L,
    theta_feasible,
    theta_subspace,
)

from sparsemoo.sfsd import solve_starts

from conftest import single_objective_quadratic, stacked_quadratics
from oracles import enum_theta_L, enum_theta_feasible, scaled_gap


# an inf gradient entry times a zero coordinate of x warns in a dot product
# before the search rejects the gradient
INF_GRADIENT = pytest.param(np.inf, marks=pytest.mark.filterwarnings(
    "ignore:invalid value encountered in dot:RuntimeWarning"))


def zero_gradient_problem(n=3, m=2):
    return MultiObjectiveProblem(
        n=n, m=m,
        evaluate=lambda x: np.zeros(m),
        gradient=lambda x: np.zeros((m, n)),
        lipschitz=np.ones(m),
    )


class TestThetaSubspace:
    def test_example_clipped_weight(self, example_problem):
        # gradients (-3,-2) and (-1,0); unconstrained minimizer lies at
        # lambda < 0 and clips to the second vertex
        sol = theta_subspace(example_problem, np.array([0.0, 0.5]), SupportSet((0, 1), 2))
        np.testing.assert_allclose(sol.lam, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(sol.d, [1.0, 0.0], atol=1e-12)
        assert sol.theta == pytest.approx(-0.5, abs=1e-12)

    def test_zero_gradients(self):
        sol = theta_subspace(zero_gradient_problem(), np.zeros(3), SupportSet((0, 2), 3))
        np.testing.assert_array_equal(sol.d, np.zeros(3))
        assert sol.theta == 0.0

    def test_example_restricted_balance(self, example_problem):
        # restricted gradients -1 and 1 balance at the midpoint weight
        sol = theta_subspace(example_problem, np.array([2.0, 0.0]), SupportSet((0,), 2))
        np.testing.assert_allclose(sol.lam, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.d, np.zeros(2), atol=1e-12)
        assert sol.theta == pytest.approx(0.0, abs=1e-15)

    def test_direction_zero_off_support(self, quadratic_factory):
        p = quadratic_factory(n=6)
        sol = theta_subspace(p, np.zeros(6), SupportSet((1, 4), 6))
        assert sol.d[0] == 0.0 and sol.d[2] == 0.0 and sol.d[3] == 0.0 and sol.d[5] == 0.0

    def test_empty_objective_subset_rejected(self, example_problem):
        with pytest.raises(ValueError):
            theta_subspace(example_problem, np.zeros(2), SupportSet((0,), 2), I=[])

    def test_objective_subset(self, example_problem):
        # single-objective subsets reduce to -||g_J||^2 / 2
        x = np.array([0.0, 1.0])
        sol = theta_subspace(example_problem, x, SupportSet((1,), 2), I=[0])
        assert sol.theta == pytest.approx(-0.5 * (1.0 - 2.5) ** 2, abs=1e-12)

    def test_all_objectives_match_the_explicit_subset_bytes(self, quadratic_factory):
        # I = None gathers the columns with take, I = range(m) with np.ix_;
        # both give a C-ordered block, so the transposed matrix the QP gets
        # has one layout and every BLAS product rounds the same way
        rng = np.random.default_rng(11)
        problems = [quadratic_factory(n=10, kappa=kappa, seed=i)
                    for i, kappa in enumerate((1.0, 10.0, 100.0))]
        problems += [conditioned_problem(8, m, 10.0, m) for m in (1, 3, 4)]
        for p in problems:
            for _ in range(40):
                size = int(rng.integers(1, p.n + 1))
                J = SupportSet.from_iterable(rng.choice(p.n, size, replace=False), p.n)
                x = np.zeros(p.n)
                x[list(J.indices)] = rng.uniform(-2.0, 2.0, size)
                every = theta_subspace(p, x, J)
                listed = theta_subspace(p, x, J, I=range(p.m))
                assert every.d.tobytes() == listed.d.tobytes()
                assert every.lam.tobytes() == listed.lam.tobytes()
                assert np.float64(every.theta).tobytes() == np.float64(listed.theta).tobytes()


class TestThetaFeasible:
    def test_stationary_full_support(self, example_problem):
        sol = theta_feasible(example_problem, np.array([2.0, 0.0]), 1)
        assert sol.theta == pytest.approx(0.0, abs=1e-15)
        assert sol.support.indices == (0,)

    def test_origin_picks_first_axis(self, example_problem):
        sol = theta_feasible(example_problem, np.zeros(2), 1)
        assert sol.theta == pytest.approx(-0.5, abs=1e-12)
        assert sol.support.indices == (0,)
        np.testing.assert_allclose(sol.d, [1.0, 0.0], atol=1e-12)

    def test_zero_gradients(self):
        sol = theta_feasible(zero_gradient_problem(), np.zeros(3), 2)
        assert sol.theta == 0.0

    def test_matches_enumeration_oracle(self, quadratic_factory):
        rng = np.random.default_rng(11)
        for seed in range(6):
            p = quadratic_factory(n=6, kappa=5.0, seed=seed)
            x = project_sparse(rng.normal(size=6), 3)
            sol = theta_feasible(p, x, 3)
            assert sol.theta == pytest.approx(enum_theta_feasible(p, x, 3), abs=1e-6)

    def test_theta_below_every_superset_value(self, quadratic_factory):
        p = quadratic_factory(n=6, kappa=3.0, seed=4)
        x = project_sparse(np.array([1.0, -2.0, 0.0, 0.0, 0.0, 0.0]), 3)
        sol = theta_feasible(p, x, 3)
        for J in super_supports(x, 3):
            assert sol.theta <= theta_subspace(p, x, J).theta + 1e-12
        attained = theta_subspace(p, x, sol.support).theta
        assert sol.theta == pytest.approx(attained, abs=1e-12)

    def test_infeasible_rejected(self, example_problem):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            theta_feasible(example_problem, np.array([1.0, 1.0]), 1)

    def test_one_gradient_per_call(self, quadratic_factory):
        p = quadratic_factory(n=8, kappa=10.0, seed=3)
        calls = []

        def gradient(x):
            calls.append(1)
            return p.gradient(x)

        counted = dataclasses.replace(p, gradient=gradient)
        x = project_sparse(np.arange(1.0, 9.0), 2)
        for s in (2, 3, 5):
            calls.clear()
            sol = theta_feasible(counted, x, s)
            assert len(calls) == 1
            # the final solve reuses the gradients bit for bit
            ref = theta_subspace(p, x, sol.support)
            assert sol.theta == ref.theta
            assert sol.d.tobytes() == ref.d.tobytes()


class TestThetaL:
    def test_example_stationary(self, example_problem):
        sol = theta_L(example_problem, np.array([2.0, 0.0]), 1, 1.01)
        assert sol.theta >= -1e-12

    def test_example_high_curvature_stationary(self, example_problem):
        sol = theta_L(example_problem, np.array([0.0, 0.5]), 1, 2.0)
        assert sol.theta >= -1e-12

    def test_example_low_curvature_escape(self, example_problem):
        # support {1} with the second coordinate pinned to -0.5 goes negative
        sol = theta_L(example_problem, np.array([0.0, 0.5]), 1, 0.75)
        assert sol.theta == pytest.approx(-0.5729166666666666, abs=1e-9)
        assert sol.theta == pytest.approx(
            enum_theta_L(example_problem, np.array([0.0, 0.5]), 1, 0.75), abs=1e-6
        )
        assert sol.support.indices == (0,)
        np.testing.assert_allclose(sol.d, [4.0 / 3.0, -0.5], atol=1e-9)

    def test_landing_point_feasible(self, quadratic_factory):
        rng = np.random.default_rng(12)
        p = quadratic_factory(n=7, kappa=10.0, seed=1)
        for _ in range(10):
            x = project_sparse(rng.normal(size=7), 3)
            sol = theta_L(p, x, 3, 11.0)
            z = x + sol.d
            assert np.count_nonzero(z) <= 3
            assert sol.theta <= 0.0

    def test_matches_enumeration_oracle(self, quadratic_factory):
        rng = np.random.default_rng(13)
        for seed in range(5):
            p = quadratic_factory(n=6, kappa=8.0, seed=seed)
            x = project_sparse(rng.normal(size=6) * 2, 3)
            L = float(rng.uniform(1.0, 12.0))
            sol = theta_L(p, x, 3, L)
            assert sol.theta == pytest.approx(enum_theta_L(p, x, 3, L), abs=1e-6)

    def test_m1_reduction_matches_hard_threshold(self):
        # minimizing z of the scalar subproblem is the projected gradient step
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            p = single_objective_quadratic(rng.normal(size=n) * 2)
            x = project_sparse(rng.normal(size=n), s)
            L = float(rng.uniform(1.05, 3.0))
            sol = theta_L(p, x, s, L)
            g = p.gradient(x)[0]
            z_oracle = project_sparse(x - g / L, s)
            np.testing.assert_allclose(x + sol.d, z_oracle, atol=1e-8)

    def test_continuity_probe(self, quadratic_factory):
        p = quadratic_factory(n=6, kappa=4.0, seed=2)
        rng = np.random.default_rng(15)
        x = project_sparse(rng.normal(size=6), 3)
        mask = np.abs(x) > 0
        h = rng.normal(size=6) * 0.1
        h[~mask] = 0.0  # perturb within the same support
        base = theta_L(p, x, 3, 5.0).theta
        gaps = []
        for k in range(4):
            gaps.append(abs(theta_L(p, x + h / 2**k / 1.0, 3, 5.0).theta - base))
        gaps = gaps[::-1]  # smallest perturbation first
        for small, big in zip(gaps, gaps[1:]):
            assert small <= big + 1e-12
        assert gaps[0] <= gaps[-1]

    def test_lexicographic_tie_break(self):
        # symmetric gradients make every singleton support equally optimal
        p = MultiObjectiveProblem(
            n=3, m=1,
            evaluate=lambda x: np.array([float(np.sum(x))]),
            gradient=lambda x: np.ones((1, 3)),
            lipschitz=np.array([1.0]),
        )
        sol = theta_L(p, np.zeros(3), 1, 2.0)
        assert sol.support.indices == (0,)

    def test_capacity_error(self):
        p = zero_gradient_problem(n=30, m=2)
        with pytest.raises(CapacityError):
            theta_L(p, np.zeros(30), 15, 1.0)

    @pytest.mark.parametrize("n", [6, 20])  # all supports scored, or the certificate
    @pytest.mark.parametrize("bad", [np.nan, INF_GRADIENT])
    def test_non_finite_gradient_rejected(self, n, bad):
        p = generate_quadratic(n, 10.0, 0).problem()

        def gradient(x):
            g = p.gradient(x)
            g[1, 3] = bad
            return g

        broken = dataclasses.replace(p, gradient=gradient)
        x = project_sparse(np.random.default_rng(0).normal(size=n), 3)
        for call in (lambda: theta_L(broken, x, 3, 11.0), lambda: theta_feasible(broken, x, 3)):
            with pytest.raises(ValueError, match="non-finite inputs"):
                call()

    def test_invalid_inputs(self, example_problem):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            theta_L(example_problem, np.array([1.0, 1.0]), 1, 1.0)  # infeasible
        with pytest.raises(ValueError):
            theta_L(example_problem, np.array([1.0, 0.0]), 1, 0.0)  # bad L


def _simplex_grid_theta(grads, x, K, L, step):
    """Barycentric-grid minimum of the dual on one support (any m)."""
    m = grads.shape[0]
    comp = [i for i in range(x.size) if i not in K]
    c = np.zeros(x.size)
    c[comp] = -x[comp]
    b = grads @ c + 0.5 * L * float(c @ c)
    G = grads[:, list(K)].T
    ticks = int(round(1.0 / step))
    axes = np.meshgrid(*[np.arange(ticks + 1)] * (m - 1), indexing="ij")
    combos = np.stack([a.ravel() for a in axes], axis=1)
    combos = combos[combos.sum(axis=1) <= ticks]
    lam = np.column_stack([combos, ticks - combos.sum(axis=1)]) / ticks
    Gl = lam @ G.T
    q = np.einsum("ij,ij->i", Gl, Gl) / (2 * L) - lam @ b
    return -float(q.min())


class TestThreeObjectives:
    def make_problem(self, n=5, seed=0, m=3):
        rng = np.random.default_rng(seed)
        A = [rng.normal(size=(n, n)) for _ in range(m)]
        Qs = [a @ a.T + np.eye(n) for a in A]
        cs = [rng.normal(size=n) for _ in range(m)]
        lip = np.array([np.linalg.eigvalsh(Q).max() for Q in Qs])

        def ev(x):
            return np.array([0.5 * x @ (Q @ x) - c @ x for Q, c in zip(Qs, cs)])

        def grad(x):
            return np.stack([Q @ x - c for Q, c in zip(Qs, cs)])

        return MultiObjectiveProblem(n=n, m=m, evaluate=ev, gradient=grad,
                                     lipschitz=lip)

    def test_theta_l_loop_path_matches_grid(self):
        import itertools

        p = self.make_problem()
        rng = np.random.default_rng(1)
        x = project_sparse(rng.normal(size=5), 2)
        L = 1.1 * float(p.lipschitz.max())
        sol = theta_L(p, x, 2, L)
        grads = np.asarray(p.gradient(x), dtype=float)
        best = min(
            _simplex_grid_theta(grads, x, K, L, 2e-3)
            for K in itertools.combinations(range(5), 2)
        )
        assert sol.theta == pytest.approx(min(best, 0.0), abs=1e-4)
        assert np.count_nonzero(x + sol.d) <= 2

    def test_theta_feasible_loop_path(self):
        p = self.make_problem(seed=2)
        x = np.zeros(5)
        sol = theta_feasible(p, x, 2)
        # minimum over supports never exceeds any single subspace value
        for J in super_supports(x, 2):
            assert sol.theta <= theta_subspace(p, x, J).theta + 1e-12


class TestStreamedEnumeration:
    """Supports stream in blocks of ``core._CHUNK`` rows; the choice of
    support (the lexicographically first minimizer) must not change with
    the block size."""

    def cases(self):
        for m in (1, 2, 3):
            yield TestThreeObjectives().make_problem(n=6, seed=m, m=m), 3
        # every singleton support ties; the first must win across chunks
        yield MultiObjectiveProblem(
            n=7, m=1,
            evaluate=lambda x: np.array([float(np.sum(x))]),
            gradient=lambda x: np.ones((1, 7)),
            lipschitz=np.array([1.0]),
        ), 1

    def results(self, p, s):
        rng = np.random.default_rng(p.n * 10 + p.m)
        L = 1.1 * float(p.lipschitz.max()) + 1.0
        points = [np.zeros(p.n), project_sparse(rng.normal(size=p.n), s),
                  project_sparse(rng.normal(size=p.n), s - 1 or 1)]
        out = []
        for x in points:  # the second point has full support (k = s)
            for sol in (theta_L(p, x, s, L), theta_feasible(p, x, s)):
                out.append((sol.support.indices, sol.theta, sol.d.tobytes()))
        return out

    def test_small_blocks_match_one_block(self, monkeypatch):
        import sparsemoo.core as core

        whole = [self.results(p, s) for p, s in self.cases()]
        monkeypatch.setattr(core, "_CHUNK", 3)
        streamed = [self.results(p, s) for p, s in self.cases()]
        assert streamed == whole
        assert whole[-1][0][0] == (0,)  # tie instance, theta_L at the origin


def conditioned_problem(n, m, kappa, seed):
    """m quadratics ``0.5 x^T Q_j x - c_j^T x`` with eigenvalues on [1, kappa]."""
    rng = np.random.default_rng(seed)
    Qs, cs = [], []
    for _ in range(m):
        R, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Qs.append((R * np.geomspace(1.0, kappa, n)) @ R.T)
        cs.append(rng.uniform(-1.0, 1.0, size=n))
    return MultiObjectiveProblem(
        n=n, m=m,
        evaluate=lambda x: np.array([0.5 * x @ (Q @ x) - c @ x for Q, c in zip(Qs, cs)]),
        gradient=lambda x: np.stack([Q @ x - c for Q, c in zip(Qs, cs)]),
        lipschitz=np.full(m, float(kappa)),
    )


def near_tie_problem(m, gap=1e-14):
    """``f_j(x) = 0.5 ||x - a / j||^2``, j = 1..m, n = 8: at the origin r ranks
    the coordinates by |a| at every weight, and the 3rd and 4th largest |a|
    are ``gap`` apart relative to each other, by default far below the
    bound's margin."""
    a = np.array([3.0, 0.5, 1.0, -2.0, 0.25, -1.0 - gap, 0.75, 0.1])
    return MultiObjectiveProblem(
        n=8, m=m,
        evaluate=lambda x: np.array([0.5 * (x - a / j) @ (x - a / j) for j in range(1, m + 1)]),
        gradient=lambda x: np.stack([x - a / j for j in range(1, m + 1)]),
        lipschitz=np.ones(m),
    )


class TestScreenedSearch:
    """Past ``_screen_min(m)`` candidates a Lagrangian bound fixes
    coordinates before any support is scored; support, theta, d and lambda
    must be the ones that scoring every support gives."""

    def cases(self):
        for m, n, s in ((1, 12, 5), (2, 12, 5), (3, 8, 4), (4, 7, 3)):
            for kappa in (1.0, 10.0, 1000.0):
                yield conditioned_problem(n, m, kappa, seed=m), s
        # every support ties: the lexicographically first must win
        for m in (1, 2):
            yield MultiObjectiveProblem(
                n=8, m=m,
                evaluate=lambda x, m=m: np.full(m, float(np.sum(x))),
                gradient=lambda x, m=m: np.ones((m, 8)),
                lipschitz=np.ones(m),
            ), 3
        for m in (1, 2, 3):
            yield zero_gradient_problem(n=8, m=m), 3
        for kappa in (1.0, 10.0, 100.0):
            for s in (2, 4, 7):
                yield stacked_quadratics(10, 3, 0, kappa), s
        for m in (1, 2):
            yield near_tie_problem(m), 3

    def results(self, p, s):
        rng = np.random.default_rng(p.n * 10 + p.m)
        L = 1.1 * float(p.lipschitz.max())
        tiny = project_sparse(rng.normal(size=p.n), s)
        tiny[tiny == 0.0] = rng.normal(size=p.n)[tiny == 0.0] * 1e-13
        points = [np.zeros(p.n), project_sparse(rng.normal(size=p.n) * 2, max(s // 2, 1)),
                  project_sparse(rng.normal(size=p.n), s), tiny]
        out = []
        for x in points:
            for sol in (theta_L(p, x, s, L), theta_feasible(p, x, s)):
                out.append((sol.support.indices, sol.theta, sol.d.tobytes(), sol.lam.tobytes()))
        return out

    def test_screened_matches_full(self, monkeypatch):
        import sparsemoo.directions as directions

        default = [self.results(p, s) for p, s in self.cases()]
        # every support scored: no screen, no certificate, no hard threshold
        monkeypatch.setattr(directions, "_screen_min", lambda m: 10**18)
        monkeypatch.setattr(directions, "_certify", lambda *args: None)
        monkeypatch.setattr(directions, "_hard_threshold", lambda *args: None)
        full = [self.results(p, s) for p, s in self.cases()]
        monkeypatch.undo()
        monkeypatch.setattr(directions, "_screen_min", lambda m: 0)
        screened = [self.results(p, s) for p, s in self.cases()]
        assert screened == full
        assert default == full
        # tie instances at the origin: theta_L and theta_feasible pick (0, 1, 2)
        assert full[12][0][0] == full[12][1][0] == (0, 1, 2)
        assert full[13][0][0] == full[13][1][0] == (0, 1, 2)

    def count_screens(self, monkeypatch):
        import sparsemoo.directions as directions

        screens = []
        real = directions._screen

        def counting(grads, *args):
            screens.append(grads.shape[0])
            return real(grads, *args)

        monkeypatch.setattr(directions, "_screen", counting)
        return screens

    def count_fallbacks(self, monkeypatch):
        import sparsemoo.directions as directions

        fallbacks = []
        real = directions._best_support

        def counting(grads, *args):
            fallbacks.append(grads.shape[0])
            return real(grads, *args)

        monkeypatch.setattr(directions, "_best_support", counting)
        return fallbacks

    def screen_calls(self):
        x = project_sparse(np.random.default_rng(3).normal(size=10), 3)
        theta_L(stacked_quadratics(10, 3, 0), x, 3, 11.0)
        theta_L(generate_quadratic(10, 10.0, 0).problem(), x, 3, 11.0)

    def test_three_objectives_screen_by_default(self, monkeypatch):
        # one simplex-QP solve per support: with m >= 3 every search past a
        # single candidate is screened, with m <= 2 only past 2,000 (the
        # certificate declined, so the screen runs where it is tried)
        import sparsemoo.directions as directions

        screens = self.count_screens(monkeypatch)
        monkeypatch.setattr(directions, "_certify", lambda *args: None)
        self.screen_calls()
        assert screens == [3]

    def test_certificate_skips_the_screen(self, monkeypatch):
        # the same calls: the m = 3 search is settled by the certificate
        screens = self.count_screens(monkeypatch)
        self.screen_calls()
        assert screens == []

    def test_near_ties_reach_the_fallback(self, monkeypatch):
        # the certificate tried on every search must decline near ties
        import sparsemoo.directions as directions

        screens = self.count_screens(monkeypatch)
        monkeypatch.setattr(directions, "_screen_min", lambda m: 0)
        for m in (1, 2):
            p = near_tie_problem(m)
            theta_L(p, np.zeros(8), 3, 1.1)
            theta_feasible(p, np.zeros(8), 3)
        assert screens == [1, 1, 2, 2]

    @pytest.mark.parametrize("gap, settled", [(0.0, False), (1e-14, False), (1e-6, True)])
    def test_one_objective_certificate_declines_near_ties(self, monkeypatch, gap, settled):
        # r = a^2 / 2 at the origin: its 3rd and 4th largest values are an
        # exact tie, a tie within the rounding margin, or apart by 1e-6
        import sparsemoo.directions as directions

        p = near_tie_problem(1, gap)
        fallbacks = self.count_fallbacks(monkeypatch)
        sol = theta_L(p, np.zeros(8), 3, 1.1)
        assert len(fallbacks) == (0 if settled else 1)
        assert sol.support.indices == ((0, 3, 5) if gap else (0, 2, 3))
        monkeypatch.setattr(directions, "_hard_threshold", lambda *args: None)
        full = theta_L(p, np.zeros(8), 3, 1.1)
        assert (sol.support, sol.theta, sol.d.tobytes(), sol.lam.tobytes()) == \
            (full.support, full.theta, full.d.tobytes(), full.lam.tobytes())

    def test_all_ties_reach_the_fallback(self, monkeypatch):
        # every r ties: the enumeration's lexicographic rule picks (0, 1, 2)
        p = MultiObjectiveProblem(n=8, m=1, evaluate=lambda x: np.array([float(np.sum(x))]),
                                  gradient=lambda x: np.ones((1, 8)), lipschitz=np.ones(1))
        fallbacks = self.count_fallbacks(monkeypatch)
        assert theta_L(p, np.zeros(8), 3, 2.0).support.indices == (0, 1, 2)
        assert fallbacks == [1]

    @pytest.mark.parametrize("bad", [np.nan, INF_GRADIENT])
    def test_one_objective_non_finite_gradient_rejected(self, monkeypatch, bad):
        g = np.linspace(1.0, 2.0, 8)[None, :]
        g[0, 5] = bad
        p = MultiObjectiveProblem(n=8, m=1, evaluate=lambda x: np.zeros(1),
                                  gradient=lambda x: g.copy(), lipschitz=np.ones(1))
        fallbacks = self.count_fallbacks(monkeypatch)
        with pytest.raises(ValueError, match="non-finite inputs"):
            theta_L(p, np.zeros(8), 3, 1.1)
        assert fallbacks == [1]

    @pytest.mark.parametrize("n, s", [(20, 5), (10, 5)])
    def test_hard_threshold_settles_scalarized_searches(self, monkeypatch, n, s):
        # every search of the scalarized baseline has one objective
        import sparsemoo.solvers as solvers

        p = generate_quadratic(n, 10.0, 0).problem()
        fallbacks = self.count_fallbacks(monkeypatch)
        calls = []
        real = solvers.theta_L

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solvers, "theta_L", counting)
        solve_starts(p, s, "scalarized", 1, 0, (-2.0, 2.0), default_config(p))
        assert len(calls) > 100
        assert len(fallbacks) <= 0.01 * len(calls)

    def test_ill_conditioned_certificate(self):
        # kappa = 1000 puts |H| near 7e6; the dual weights must still meet a
        # Frank-Wolfe gap relative to that scale
        p, s = conditioned_problem(8, 3, 1000.0, seed=3), 4
        rng = np.random.default_rng(p.n * 10 + p.m)
        rng.normal(size=p.n), rng.normal(size=p.n)  # the draws of results()' tiny point
        x = project_sparse(rng.normal(size=p.n) * 2, 2)
        sol = theta_feasible(p, x, s)
        G = np.asarray(p.gradient(x), dtype=float)[:, sol.support.as_array()].T
        assert scaled_gap(G, np.zeros(p.m), 1.0, sol.lam) <= 1e-12

    def score_calls(self, monkeypatch):
        import sparsemoo.directions as directions

        p = generate_quadratic(20, 10.0, 0).problem()
        x = project_sparse(np.random.default_rng(0).normal(size=20), 5)
        L = 1.1 * float(p.lipschitz.max())
        rows = []
        real = directions._scores

        def counting(grads, x, L, K):
            rows.append(K.shape[0])
            return real(grads, x, L, K)

        monkeypatch.setattr(directions, "_scores", counting)
        calls = [lambda: theta_L(p, x, 5, L), lambda: theta_L(p, np.zeros(20), 5, L),
                 lambda: theta_feasible(p, np.zeros(20), 5)]
        for call in calls:
            rows.clear()
            call()
            yield sum(rows)

    def test_scores_few_supports(self, monkeypatch):
        # C(20, 5) = 15,504 supports; with the certificate declined the bound
        # leaves a handful to score
        import sparsemoo.directions as directions

        monkeypatch.setattr(directions, "_certify", lambda *args: None)
        for scored in self.score_calls(monkeypatch):
            assert 0 < scored <= 50

    def test_certificate_scores_no_support(self, monkeypatch):
        # at x one pinned solve settles the search.  At the origin the two
        # objectives pull apart: the optimal support is not the top k of r at
        # its own weights, so no weight proves it and the fallback runs
        screens = self.count_screens(monkeypatch)
        at_x, *at_origin = self.score_calls(monkeypatch)
        assert at_x == 0
        assert all(at_origin) and screens == [2, 2]

    @pytest.mark.parametrize("strategy, n_starts, share", [("moiht", 3, 0.9),
                                                            ("scalarized", 1, 0.99)])
    def test_certificate_settles_most_searches(self, monkeypatch, strategy, n_starts, share):
        import sparsemoo.solvers as solvers

        p = generate_quadratic(20, 10.0, 0).problem()
        screens = self.count_screens(monkeypatch)
        calls = []
        real = solvers.theta_L

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solvers, "theta_L", counting)
        solve_starts(p, 5, strategy, n_starts, 0, (-2.0, 2.0), default_config(p))
        assert len(calls) > 100
        assert len(calls) - len(screens) >= share * len(calls)

    def test_certificate_settles_small_searches(self, monkeypatch):
        # C(10, 5) = 252 supports, below the screen's threshold: the
        # certificate, tried from the iterate's own support, settles most
        # MOIHT steps before any support is scored
        import sparsemoo.directions as directions
        import sparsemoo.solvers as solvers

        p = generate_quadratic(10, 10.0, 0).problem()
        scored, calls = [], []
        real_scores, real_theta_L = directions._scores, solvers.theta_L

        def counting_scores(*args):
            scored[-1] = True
            return real_scores(*args)

        def counting_theta_L(*args):
            scored.append(False)
            return real_theta_L(*args)

        monkeypatch.setattr(directions, "_scores", counting_scores)
        monkeypatch.setattr(solvers, "theta_L", counting_theta_L)
        solve_starts(p, 5, "moiht", 3, 0, (-2.0, 2.0), default_config(p))
        assert len(scored) > 100
        assert sum(scored) <= 0.1 * len(scored)

    def test_searched_supports_equal_checked_ones(self):
        # the hard threshold (one objective) and the certificate (two) build
        # their SupportSet unchecked from the index array they hold
        x = project_sparse(np.random.default_rng(0).normal(size=20), 5)
        for p in (single_objective_quadratic(np.arange(20.0)),
                  generate_quadratic(20, 10.0, 0).problem()):
            K = theta_L(p, x, 5, 1.1 * float(p.lipschitz.max())).support
            assert "_index_array" in vars(K)  # the search's array, not one built from indices
            checked = SupportSet(K.indices, 20)
            assert K == checked and hash(K) == hash(checked)
            assert all(type(i) is int for i in K.indices)
            arr = K.as_array()
            assert arr.dtype == np.intp and not arr.flags.writeable
            np.testing.assert_array_equal(arr, checked.as_array())


@st.composite
def gridded_search(draw):
    """Gradients and a point on a coarse integer grid scaled by 10^j, so
    that exact and near ties between supports are common."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    s = draw(st.integers(1, n - 1))
    scale = 10.0 ** draw(st.integers(-3, 4))
    cells = st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)
    grads = np.array(draw(cells), dtype=float).reshape(m, n) * scale
    x = project_sparse(np.array(draw(cells)[:n], dtype=float) * scale, s)
    L = draw(st.sampled_from([0.5, 1.0, 1.1, 3.0]))
    return grads, x, s, L


@settings(max_examples=300, deadline=None)
@given(gridded_search())
def test_certified_matches_full_enumeration(search):
    import sparsemoo.directions as directions

    grads, x, s, L = search
    m, n = grads.shape
    p = MultiObjectiveProblem(n=n, m=m, evaluate=lambda x: np.zeros(m),
                              gradient=lambda x: grads.copy(), lipschitz=np.ones(m))

    def results():
        return [(sol.support.indices, sol.theta, sol.d.tobytes(), sol.lam.tobytes())
                for sol in (theta_L(p, x, s, L), theta_feasible(p, x, s))]

    # a function-scoped monkeypatch fixture would outlive the examples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(directions, "_screen_min", lambda m: 10**18)
        mp.setattr(directions, "_certify", lambda *args: None)
        mp.setattr(directions, "_hard_threshold", lambda *args: None)
        full = results()
        mp.undo()
        mp.setattr(directions, "_screen_min", lambda m: 0)  # certificate on every search
        assert results() == full


class TestStationarityTests:
    def test_examples(self, example_problem):
        assert is_L_stationary(example_problem, np.array([2.0, 0.0]), 1, 1.01, 1e-7)
        assert not is_L_stationary(example_problem, np.array([0.0, 0.5]), 1, 0.75, 1e-7)
        assert is_pareto_stationary(example_problem, np.array([2.0, 0.0]), 1)
        assert not is_pareto_stationary(example_problem, np.zeros(2), 1)

    def test_zero_gradient_point(self):
        p = zero_gradient_problem()
        assert is_L_stationary(p, np.zeros(3), 2, 5.0, 1e-7)
        assert is_pareto_stationary(p, np.zeros(3), 2, 1e-7)

    def test_eps_validation(self, example_problem):
        with pytest.raises(ValueError):
            is_L_stationary(example_problem, np.zeros(2), 1, 1.0, eps=0.0)

    def test_implication_chain_small(self, quadratic_factory):
        # L-stationary => Pareto-stationary => subspace-stationary at the
        # attaining super support
        rng = np.random.default_rng(16)
        checked = 0
        for seed in range(4):
            p = quadratic_factory(n=6, kappa=10.0, seed=seed)
            for _ in range(20):
                x = project_sparse(rng.normal(size=6) * 2, 3)
                if theta_L(p, x, 3, 11.0).theta >= -1e-9:
                    sol = theta_feasible(p, x, 3)
                    assert sol.theta >= -1e-6
                    checked += 1
                sol = theta_feasible(p, x, 3)
                if sol.theta >= -1e-9:
                    assert theta_subspace(p, x, sol.support).theta >= -1e-6
        assert checked >= 0  # random points are rarely stationary; chain holds
