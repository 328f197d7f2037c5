from dataclasses import replace

import numpy as np
import pytest

from sparsemoo import (
    MultiObjectiveProblem,
    SolverConfig,
    SupportSet,
    armijo_common,
    default_config,
    default_lambda_grid,
    generate_quadratic,
    is_L_stationary,
    logistic_problem,
    mohyb,
    moiht,
    mosd,
    mospd,
    project_sparse,
    scalarize,
    scalarized_iht,
    theta_L,
    theta_subspace,
)
from sparsemoo.sfsd import assign_super_support
from sparsemoo.solvers import PENALTY_SCHEDULE, _penalized

from conftest import single_objective_quadratic
from oracles import iht_trajectory, reference_mosd


def recording(p):
    """``p`` whose ``evaluate`` logs the bytes of every point it is called at."""
    seen = []

    def ev(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return p.evaluate(x)

    return replace(p, evaluate=ev), seen


def random_descent_cases(seed, count=8):
    """``(problem, x0, J)`` triples: quadratic, penalized and logistic problems,
    each started away from subspace stationarity."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(60, 6))
    t = np.where(rng.random(60) > 0.5, 1.0, -1.0)
    logit = logistic_problem(R, t)
    cases = []
    for i in range(count):
        quad = generate_quadratic(6, float(rng.choice([1.0, 10.0, 100.0])), i).problem()
        pen = _penalized(quad, rng.uniform(-1.0, 1.0, 6), float(rng.uniform(0.5, 5.0)))
        for p in (quad, pen, logit):
            size = int(rng.integers(2, 7))
            J = SupportSet.from_iterable(rng.choice(6, size, replace=False), 6)
            x0 = np.zeros(6)
            x0[list(J.indices)] = rng.uniform(-2.0, 2.0, size)
            cases.append((p, x0, J))
    return cases


class TestMoiht:
    def test_stationary_start_zero_steps(self, example_problem):
        cfg = SolverConfig(L=1.01)
        x, trace = moiht(example_problem, np.array([2.0, 0.0]), 1, cfg)
        np.testing.assert_array_equal(x, [2.0, 0.0])
        assert trace.status == "converged"
        assert len(trace.iterates) == 1  # no update steps

    def test_descent_run_postconditions(self, example_problem):
        cfg = SolverConfig(L=1.01)
        x0 = np.array([0.0, 2.5])
        x, trace = moiht(example_problem, x0, 1, cfg)
        assert trace.status == "converged"
        assert theta_L(example_problem, x, 1, 1.01).theta >= -1e-7
        assert np.all(example_problem.evaluate(x) <= example_problem.evaluate(x0))

    def test_m1_first_iterate_is_projected_gradient_step(self):
        p = single_objective_quadratic(np.array([3.0, 1.0, 2.0]))
        cfg = SolverConfig(L=1.1, max_iter=1)
        _, trace = moiht(p, np.zeros(3), 2, cfg)
        first = trace.iterates[1][0]
        np.testing.assert_allclose(
            first, project_sparse(np.array([3.0, 1.0, 2.0]) / 1.1, 2), atol=1e-12
        )
        np.testing.assert_allclose(first, [30.0 / 11.0, 0.0, 20.0 / 11.0], atol=1e-12)

    def test_descent_lemma_on_trace(self, quadratic_factory):
        p = quadratic_factory(n=6, kappa=10.0, seed=3)
        cfg = default_config(p)  # L = 11
        rng = np.random.default_rng(17)
        x0 = project_sparse(rng.uniform(-2, 2, size=6), 3)
        _, trace = moiht(p, x0, 3, cfg)
        assert trace.status == "converged"
        for (xa, fa, _), (xb, fb, _) in zip(trace.iterates, trace.iterates[1:]):
            step = np.linalg.norm(xa - xb) ** 2
            bound = 0.5 * step * (cfg.L - p.lipschitz)
            assert np.all(fa - fb >= bound - 1e-9)
            assert np.count_nonzero(xb) <= 3

    def test_budget_not_hit_on_small_quadratics(self, quadratic_factory):
        rng = np.random.default_rng(18)
        for seed in range(5):
            p = quadratic_factory(n=8, kappa=10.0, seed=seed)
            x0 = project_sparse(rng.uniform(-2, 2, size=8), 4)
            _, trace = moiht(p, x0, 4, default_config(p))
            assert trace.status == "converged"
            assert len(trace.iterates) - 1 < 10_000

    def test_infeasible_start_rejected(self, example_problem):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            moiht(example_problem, np.array([1.0, 1.0]), 1, SolverConfig(L=1.01))

    def test_low_curvature_warns(self, example_problem):
        with pytest.warns(UserWarning, match="Lipschitz"):
            moiht(example_problem, np.array([2.0, 0.0]), 1, SolverConfig(L=0.5))


class TestArmijo:
    def test_full_step_accepted(self):
        p = single_objective_quadratic(np.zeros(1))
        cfg = SolverConfig(L=1.0)
        alpha = armijo_common(p, np.array([1.0]), np.array([-1.0]), -0.5, cfg=cfg)
        assert alpha == 1.0

    def test_nonnegative_theta_rejected(self, example_problem):
        cfg = SolverConfig(L=1.0)
        with pytest.raises(ValueError):
            armijo_common(example_problem, np.zeros(2), np.ones(2), 0.0, cfg=cfg)

    def test_quartic_needs_one_halving(self):
        def ev(x):
            return np.array([float(x[0] ** 4)])

        def grad(x):
            return np.array([[4.0 * x[0] ** 3]])

        p = MultiObjectiveProblem(n=1, m=1, evaluate=ev, gradient=grad,
                                  lipschitz=np.array([1.0]))
        cfg = SolverConfig(L=1.0)
        # from x=1 along d=-2: full step lands at f(-1)=1 (no decrease),
        # half step lands at f(0)=0
        alpha = armijo_common(p, np.array([1.0]), np.array([-2.0]), -1.0, cfg=cfg)
        assert alpha == 0.5
        assert ev(np.array([1.0 - 2.0]))[0] > ev(np.array([1.0]))[0] - 1e-4
        assert ev(np.array([1.0 - 1.0]))[0] <= ev(np.array([1.0]))[0] - 1e-4 * 0.5

    def test_failure_returns_zero(self):
        # a gradient oracle lying about descent makes every step fail
        def ev(x):
            return np.array([float(x[0])])

        def grad(x):
            return np.array([[1.0]])

        p = MultiObjectiveProblem(n=1, m=1, evaluate=ev, gradient=grad,
                                  lipschitz=np.array([1.0]))
        cfg = SolverConfig(L=1.0)
        alpha = armijo_common(p, np.zeros(1), np.array([1.0]), -1.0, cfg=cfg)
        assert alpha == 0.0


class TestArmijoKnownValues:
    """``fx`` hands Armijo the ``f(x)`` its caller already holds."""

    def cases(self):
        for p, x, J in random_descent_cases(21):
            sol = theta_subspace(p, x, J)
            if sol.theta < -1e-10:
                yield p, x, sol

    def test_same_step_with_and_without_fx(self):
        count = 0
        for p, x, sol in self.cases():
            cfg = default_config(p)
            plain = armijo_common(p, x, sol.d, sol.theta, cfg=cfg)
            known = armijo_common(p, x, sol.d, sol.theta, cfg=cfg, fx=p.evaluate(x))
            assert np.float64(known).tobytes() == np.float64(plain).tobytes()
            count += 1
        assert count >= 12

    def test_known_fx_is_not_evaluated_again(self):
        for p, x, sol in self.cases():
            cfg = default_config(p)
            rp, seen = recording(p)
            armijo_common(rp, x, sol.d, sol.theta, cfg=cfg)
            plain = list(seen)
            seen.clear()
            armijo_common(rp, x, sol.d, sol.theta, cfg=cfg, fx=p.evaluate(x))
            # the plain search evaluates f(x) first, then the same trials
            assert plain[0] == x.tobytes()
            assert seen == plain[1:]
            assert x.tobytes() not in seen

    def test_fx_of_the_wrong_shape_rejected(self, example_problem):
        cfg = SolverConfig(L=1.0)
        x, d = np.array([0.0, 0.5]), np.array([1.0, 0.0])
        for fx in (np.zeros(3), np.zeros((2, 1)), np.zeros(1), 0.0):
            with pytest.raises(ValueError, match="fx"):
                armijo_common(example_problem, x, d, -0.5, cfg=cfg, fx=fx)

    def test_fx_is_keyword_only(self, example_problem):
        cfg = SolverConfig(L=1.0)
        with pytest.raises(TypeError):
            armijo_common(example_problem, np.zeros(2), np.ones(2), -0.5, np.zeros(2), cfg=cfg)


class TestMosd:
    def test_matches_the_plain_loop_bytes(self):
        for p, x0, J in random_descent_cases(22):
            cfg = replace(default_config(p), max_iter=300)
            for eps in (1e-4, 1e-7):
                out = mosd(p, x0, J, eps, cfg)
                assert out.tobytes() == reference_mosd(p, x0, J, eps, cfg).tobytes()

    def test_evaluates_once_at_x0_plus_once_per_trial(self):
        # once at x0, then at most once per trial of the plain loop: the line
        # models skip trials they prove rejected, never an accepted one
        searches, skipped, cases = 0, 0, random_descent_cases(23)
        for p, x0, J in cases:
            cfg = replace(default_config(p), max_iter=300)
            rp, seen = recording(p)
            out = mosd(rp, x0, J, 1e-7, cfg)
            lean = list(seen)
            seen.clear()
            reference_mosd(rp, x0, J, 1e-7, cfg)
            # the plain loop re-evaluates each accepted trial point as f(x)
            # of the next search, right after the trial itself
            trials = [pt for i, pt in enumerate(seen) if i == 0 or pt != seen[i - 1]]
            accepted = {pt for i, pt in enumerate(seen) if i and pt == seen[i - 1]}
            accepted |= {out.tobytes()} - {x0.tobytes()}
            assert lean[0] == trials[0] == x0.tobytes()
            assert len(set(lean)) == len(lean)  # no point is evaluated twice
            rest = iter(trials[1:])
            assert all(pt in rest for pt in lean[1:])  # in the plain loop's order
            assert accepted <= set(lean)
            searches += len(seen) - len(trials) + 1
            skipped += len(trials) - len(lean)
        assert searches > 3 * len(cases)
        assert skipped > searches  # the line models skip trials

    def test_given_fx_spares_the_start_evaluation(self):
        for p, x0, J in random_descent_cases(24, count=3):
            cfg = replace(default_config(p), max_iter=300)
            rp, seen = recording(p)
            out = mosd(rp, x0, J, 1e-7, cfg)
            lean = list(seen)
            seen.clear()
            given = mosd(rp, x0, J, 1e-7, cfg, np.asarray(p.evaluate(x0), dtype=float))
            assert given.tobytes() == out.tobytes()
            assert lean[0] == x0.tobytes() and seen == lean[1:]

    def test_given_grads_spare_the_start_gradient(self):
        for p, x0, J in random_descent_cases(24, count=3):
            cfg = replace(default_config(p), max_iter=300)
            seen = []
            rp = replace(p, gradient=lambda x: seen.append(x.tobytes()) or p.gradient(x))
            out = mosd(rp, x0, J, 1e-7, cfg)
            lean = list(seen)
            seen.clear()
            given = mosd(rp, x0, J, 1e-7, cfg, grads=p.gradient(x0))
            assert given.tobytes() == out.tobytes()
            assert lean[0] == x0.tobytes() and seen == lean[1:]

    def test_stationary_start_unchanged(self, example_problem):
        cfg = SolverConfig(L=1.0)
        x = mosd(example_problem, np.array([2.0, 0.0]), SupportSet((0,), 2), 1e-7, cfg)
        np.testing.assert_array_equal(x, [2.0, 0.0])

    def test_fixed_support_descent(self, example_problem):
        cfg = SolverConfig(L=1.0)
        seen = []
        base_grad = example_problem.gradient

        def recording_grad(x):
            seen.append(x.copy())
            return base_grad(x)

        p = MultiObjectiveProblem(
            n=2, m=2, evaluate=example_problem.evaluate,
            gradient=recording_grad, lipschitz=example_problem.lipschitz,
        )
        out = mosd(p, np.array([0.2, 0.0]), SupportSet((0,), 2), 1e-7, cfg)
        assert theta_subspace(example_problem, out, SupportSet((0,), 2)).theta >= -1e-7
        assert out[1] == 0.0
        assert all(x[1] == 0.0 for x in seen)  # off-support stays bit-exact zero

    def test_full_space_biobjective(self, quadratic_factory):
        p = quadratic_factory(n=5, kappa=3.0, seed=6)
        cfg = default_config(p)
        out = mosd(p, np.zeros(5), SupportSet(tuple(range(5)), 5), 1e-7, cfg)
        assert theta_subspace(p, out, SupportSet(tuple(range(5)), 5)).theta >= -1e-7

    def test_support_violation_rejected(self, example_problem):
        with pytest.raises(ValueError):
            mosd(example_problem, np.array([1.0, 1.0]), SupportSet((0,), 2), 1e-7,
                 SolverConfig(L=1.0))


class TestMospd:
    def test_xy_gap_and_feasibility(self, example_problem):
        cfg = SolverConfig(L=1.01)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)
        y, info = mospd(example_problem, x0, 1, cfg)
        assert info["status"] == "converged"
        assert info["xy_gap"] <= 1e-3
        assert np.linalg.norm(info["x_unprojected"] - y) <= 1e-3
        assert np.count_nonzero(y) <= 1

    def test_large_tau0_binds_to_start(self, example_problem):
        cfg = SolverConfig(L=1.01, tau0=100.0)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)  # -> (2, 0)
        y, _ = mospd(example_problem, x0, 1, cfg)
        axis_projections = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        assert min(np.linalg.norm(y - a) for a in axis_projections) <= 0.5

    def test_small_tau0_reaches_subspace_stationarity(self, example_problem):
        cfg = SolverConfig(L=1.01, tau0=1.0)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)
        y, _ = mospd(example_problem, x0, 1, cfg)
        _, J = assign_super_support(example_problem, y, 1, default_config(example_problem))
        assert theta_subspace(example_problem, y, J).theta >= -1e-4

    def test_infeasible_start_rejected(self, example_problem):
        with pytest.raises(ValueError, match="nonzeros is infeasible"):
            mospd(example_problem, np.array([1.0, 1.0]), 1, SolverConfig(L=1.01))

    @pytest.mark.parametrize("family", sorted(PENALTY_SCHEDULE))
    def test_penalty_schedule_of_family(self, example_problem, family):
        # tau starts at cfg.tau0 and grows by the family's factor once per
        # outer step that does not converge
        cfg = SolverConfig(L=1.01, tau0=0.5, family=family)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)
        _, info = mospd(example_problem, x0, 1, cfg)
        assert info["status"] == "converged" and info["outer_iterations"] > 1
        growth = PENALTY_SCHEDULE[cfg.family][0]
        assert info["tau_final"] == pytest.approx(
            cfg.tau0 * growth ** (info["outer_iterations"] - 1))


class TestMohyb:
    def test_l_stationary_when_converged(self, example_problem):
        cfg = SolverConfig(L=1.01, tau0=1.0)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)
        x, info = mohyb(example_problem, x0, 1, cfg)
        assert info["status"] == "converged"
        assert is_L_stationary(example_problem, x, 1, 1.01, 1e-7)
        assert np.count_nonzero(x) <= 1  # lands on an axis

    def test_large_tau0_still_l_stationary(self, example_problem):
        cfg = SolverConfig(L=1.01, tau0=100.0)
        x0 = project_sparse(np.array([2.0, 2.0]), 1)
        x, _ = mohyb(example_problem, x0, 1, cfg)
        assert is_L_stationary(example_problem, x, 1, 1.01, 1e-7)


class TestScalarizedIht:
    def test_unit_tradeoff_fixpoint(self, example_problem):
        cfg = SolverConfig(L=2.2)
        pts = scalarized_iht(example_problem, 1, [1.0], cfg)
        np.testing.assert_allclose(pts[0], [2.0, 0.0], atol=1e-3)
        # one-step fixpoint check on the combined objective at (2, 0)
        sp = scalarize(example_problem, 1.0)
        g = sp.gradient(np.array([2.0, 0.0]))[0]
        z = project_sparse(np.array([2.0, 0.0]) - g / 2.2, 1)
        np.testing.assert_array_equal(z, [2.0, 0.0])

    def test_zero_weight_reduces_to_first_objective(self, example_problem):
        cfg = SolverConfig(L=1.1)
        pts = scalarized_iht(example_problem, 1, [0.0], cfg)
        p1 = single_objective_quadratic(np.array([3.0, 2.5]))
        x_oracle, _ = moiht(p1, np.zeros(2), 1, SolverConfig(L=1.1))
        np.testing.assert_allclose(pts[0], x_oracle, atol=1e-12)

    def test_grid_values(self):
        grid = default_lambda_grid(3)
        expected = [2.0 ** (i + 0.5) for i in range(-3, 3)]
        np.testing.assert_allclose(grid, expected, rtol=0)
        assert grid.size == 6

    def test_trajectory_matches_hard_threshold_oracle(self, example_problem):
        cfg = SolverConfig(L=1.0, eps=1e-7)
        lam = 0.7
        sp = scalarize(example_problem, lam)
        L = 1.1 * float(sp.lipschitz[0])
        _, trace = moiht(sp, np.zeros(2), 1, replace(cfg, L=L))
        oracle = iht_trajectory(sp, np.zeros(2), 1, L, 1e-7)
        assert len(trace.iterates) == len(oracle)
        for (x, _, _), z in zip(trace.iterates, oracle):
            np.testing.assert_allclose(x, z, atol=1e-10)

    def test_requires_two_objectives(self):
        p = single_objective_quadratic(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            scalarized_iht(p, 1, [1.0], SolverConfig(L=1.1))


class TestConfigs:
    def test_default_config_families(self, example_problem):
        q = default_config(example_problem, family="quadratic")
        assert q.L == pytest.approx(1.1)
        assert q.family == "quadratic"
        assert default_config(example_problem, family="logistic").family == "logistic"
        with pytest.raises(ValueError, match="family"):
            default_config(example_problem, family="other")

    def test_default_config_settings(self, example_problem):
        cfg = default_config(example_problem, "logistic", eps=1e-9, max_iter=7, tau0=2.0)
        assert (cfg.eps, cfg.max_iter, cfg.tau0, cfg.family) == (1e-9, 7, 2.0, "logistic")
        kept = default_config(example_problem)
        assert (kept.eps, kept.max_iter, kept.tau0) == (1e-7, 10_000, 1.0)
        with pytest.raises(ValueError, match="tau0"):
            default_config(example_problem, tau0=0.0)
        with pytest.raises(TypeError):
            default_config(example_problem, L=3.0)  # only family, eps, max_iter, tau0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(L=0.0)
        with pytest.raises(ValueError):
            SolverConfig(L=1.0, eps=-1.0)
        with pytest.raises(ValueError, match="unknown problem family 'other'"):
            SolverConfig(L=1.0, family="other")
        with pytest.raises(TypeError):
            SolverConfig(L=1.0, alpha0=2.0)  # the Armijo constants are not settings
        arm = SolverConfig.armijo
        assert (arm.alpha0, arm.delta, arm.gamma) == (1.0, 0.5, 1e-4)
        assert SolverConfig(L=1.0).armijo is arm
