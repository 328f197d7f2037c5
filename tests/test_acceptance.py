"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything is seeded and deterministic.
"""

import time
from pathlib import Path

import numpy as np

from sparsemoo import (
    SupportSet,
    build_reference_front,
    default_config,
    generate_quadratic,
    example_biobjective,
    initialize,
    is_pareto_stationary,
    load_dataset,
    logistic_problem,
    moiht,
    mohyb,
    mosd,
    performance_profiles,
    project_sparse,
    purity,
    hypervolume_2d,
    sfsd_run,
    solve_simplex_qp,
    support,
    theta_L,
    theta_feasible,
    theta_subspace,
)
from sparsemoo.sfsd import filter_nondominated

from oracles import grid_theta_m2, iht_trajectory, mc_hypervolume

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def chain_problems():
    """Ten random biobjective quadratics with n <= 8, s <= 4, kappa in {1, 10}."""
    combos = []
    for seed in range(10):
        n = (6, 7, 8)[seed % 3]
        s = (2, 3, 4)[seed % 3]
        kappa = (1.0, 10.0)[seed % 2]
        combos.append((generate_quadratic(n, kappa, seed).problem(), n, s, kappa))
    return combos


def test_criterion_1_example_l_stationarity_map():
    start = time.monotonic()
    p = example_biobjective()
    global_grid = [np.array([t, 0.0]) for t in np.linspace(1.0, 3.0, 101)]
    local_grid = [np.array([0.0, t]) for t in np.linspace(0.5, 2.5, 101)]
    eps = 1e-7

    stationary = {}
    l_stationary = {}
    for L in (0.75, 1.01, 1.25, 2.0):
        flags = []
        for x in global_grid + local_grid:
            sol = theta_L(p, x, 1, L)
            assert sol.theta <= 1e-12
            flags.append(sol.theta > -eps)
        l_stationary[L] = flags
    for x in global_grid + local_grid:
        stationary[x.tobytes()] = is_pareto_stationary(p, x, 1, eps)

    n_global = len(global_grid)
    # L just above the Lipschitz constants: the condition is necessary for
    # (global) Pareto optimality, so the whole global segment passes
    ok_101 = all(l_stationary[1.01][:n_global])
    # large L: every Pareto-stationary grid point on both axes passes
    ok_20 = all(
        l_stationary[2.0][i]
        for i, x in enumerate(global_grid + local_grid)
        if stationary[x.tobytes()]
    )
    # small L: some global optima fail the test
    ok_075 = not all(l_stationary[0.75][:n_global])
    elapsed = time.monotonic() - start
    report(
        1,
        ok_101 and ok_20 and ok_075 and elapsed < 5.0,
        f"example L-stationarity map over 202 grid points x 4 L values "
        f"({elapsed:.2f}s): necessary at L=1.01, universal at L=2.0, "
        f"violated for some global optimum at L=0.75",
    )


def test_criterion_2_implication_chain():
    rng = np.random.default_rng(100)
    points = []
    for p, n, s, kappa in chain_problems():
        L = 1.1 * kappa
        for _ in range(20):
            points.append((p, project_sparse(rng.uniform(-2, 2, n), s), s, L))
        # tightly converged points exercise the chain non-vacuously
        for _ in range(3):
            x0 = project_sparse(rng.uniform(-2, 2, n), s)
            x, _ = moiht(p, x0, s, default_config(p, eps=1e-11, max_iter=50_000))
            points.append((p, x, s, L))
    assert len(points) >= 230
    violations = 0
    antecedents = 0
    for p, x, s, L in points:
        if theta_L(p, x, s, L).theta >= -1e-9:
            antecedents += 1
            sol = theta_feasible(p, x, s)
            if sol.theta < -1e-6:
                violations += 1
            if theta_subspace(p, x, sol.support).theta < -1e-6:
                violations += 1
        sol = theta_feasible(p, x, s)
        if sol.theta >= -1e-9:
            if theta_subspace(p, x, sol.support).theta < -1e-6:
                violations += 1
    report(
        2,
        violations == 0 and antecedents >= 20,
        f"implication chain on {len(points)} feasible points "
        f"({antecedents} L-stationary antecedents): {violations} violations",
    )


def test_criterion_3_moiht_descent_lemma():
    traces = []
    rng = np.random.default_rng(200)
    for p, n, s, kappa in chain_problems():
        cfg = default_config(p)
        for _ in range(2):
            x0 = project_sparse(rng.uniform(-2, 2, n), s)
            _, trace = moiht(p, x0, s, cfg)
            traces.append((p, cfg, trace))
    ex = example_biobjective()
    cfg = default_config(ex, eps=1e-9)
    for x0 in (np.array([0.0, 2.5]), np.array([0.0, -1.5]), np.array([2.5, 0.0])):
        _, trace = moiht(ex, x0, 1, cfg)
        traces.append((ex, cfg, trace))

    steps = 0
    violations = 0
    for p, cfg, trace in traces:
        for (xa, fa, _), (xb, fb, _) in zip(trace.iterates, trace.iterates[1:]):
            steps += 1
            bound = 0.5 * float(np.linalg.norm(xa - xb) ** 2) * (cfg.L - p.lipschitz)
            if not np.all(fa - fb >= bound - 1e-9):
                violations += 1
    report(
        3,
        violations == 0 and steps > 50,
        f"descent lemma on {steps} recorded hard-thresholding steps "
        f"across {len(traces)} runs: {violations} violations",
    )


def test_criterion_4_m1_oracle_equivalence():
    rng = np.random.default_rng(300)
    worst_gap = 0.0
    for case in range(50):
        n = int(rng.integers(3, 11))
        s = int(rng.integers(1, n))
        kappa = float(rng.choice([1.0, 5.0, 10.0]))
        inst = generate_quadratic(n, kappa, int(rng.integers(0, 10_000)))

        def ev(x, Q=inst.Q1, c=inst.c1):
            return np.array([0.5 * float(x @ (Q @ x)) - float(c @ x)])

        def grad(x, Q=inst.Q1, c=inst.c1):
            return (Q @ x - c)[None, :]

        from sparsemoo import MultiObjectiveProblem, SolverConfig

        p1 = MultiObjectiveProblem(n=n, m=1, evaluate=ev, gradient=grad,
                                   lipschitz=np.array([kappa]))
        L = 1.1 * kappa
        x0 = project_sparse(rng.uniform(-2, 2, n), s)
        _, trace = moiht(p1, x0, s, SolverConfig(L=L, eps=1e-7))
        oracle = iht_trajectory(p1, x0, s, L, 1e-7)
        assert len(trace.iterates) == len(oracle), f"case {case}: length mismatch"
        for (x, _, _), z in zip(trace.iterates, oracle):
            worst_gap = max(worst_gap, float(np.max(np.abs(x - z))))
    report(
        4,
        worst_gap <= 1e-10,
        f"m=1 trajectories equal the hard-thresholded gradient iteration on "
        f"50 instances (worst per-iterate gap {worst_gap:.2e})",
    )


def test_criterion_5_dual_solver_correctness():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        G = rng.normal(size=(k, 2))
        b = rng.normal(size=2)
        L = float(rng.uniform(0.8, 3.0))
        sol = solve_simplex_qp(G, b, L)
        theta_grid, _ = grid_theta_m2(G, b, L, step=1e-4)
        worst = max(worst, abs(sol.theta - theta_grid))
    worst_gap = 0.0
    for _ in range(300):
        m = int(rng.integers(3, 5))
        k = int(rng.integers(1, 6))
        G = rng.normal(size=(k, m))
        b = rng.normal(size=m)
        L = float(rng.uniform(0.5, 4.0))
        sol = solve_simplex_qp(G, b, L)
        Gl = G @ sol.lam
        dual = float(b @ sol.lam) - float(Gl @ Gl) / (2 * L)
        worst_gap = max(worst_gap, abs(sol.theta - dual))
    report(
        5,
        worst <= 1e-6 and worst_gap <= 1e-9,
        f"dual solver vs lambda-grid on 1000 biobjective instances "
        f"(worst |dtheta| {worst:.2e}) and active-set duality gap on "
        f"300 m<=4 instances (worst {worst_gap:.2e})",
    )


def test_criterion_6_sfsd_convergence_surrogate():
    start = time.monotonic()
    runs = 0
    bad_theta = 0
    bad_dom = 0
    bad_feas = 0
    for kappa in (1.0, 10.0, 100.0):
        for s in (2, 5, 8):
            for seed in (0, 1, 2):
                p = generate_quadratic(10, kappa, seed).problem()
                cfg = default_config(p, max_iter=3000)
                for strategy in ("moiht", "mospd", "mohyb"):
                    arch = initialize(p, s, strategy, 10, seed, (-2.0, 2.0), cfg)
                    out = sfsd_run(p, arch, s, cfg, 6, explore_spacing=0.02)
                    runs += 1
                    out.check_invariants()
                    for e in out.entries():
                        if theta_subspace(p, e.x, e.J).theta < -1e-4:
                            bad_theta += 1
                        if np.count_nonzero(e.x) > s:
                            bad_feas += 1
                    for J in out.keys():
                        F = np.array([e.fvals for e in out.group(J)])
                        if len(filter_nondominated(F)) != F.shape[0]:
                            bad_dom += 1
    elapsed = time.monotonic() - start
    report(
        6,
        runs == 81 and bad_theta == 0 and bad_dom == 0 and bad_feas == 0
        and elapsed < 600.0,
        f"{runs} front runs on the n=10 desk grid in {elapsed:.0f}s: "
        f"{bad_theta} stationarity, {bad_dom} domination, "
        f"{bad_feas} feasibility violations",
    )


def test_criterion_7_metrics_oracles():
    rng = np.random.default_rng(500)
    worst_sigma_ratio = 0.0
    for _ in range(20):
        k = int(rng.integers(3, 11))
        f1 = np.sort(rng.random(k)) * 3.0
        f2 = np.sort(rng.random(k))[::-1] * 3.0
        front = np.column_stack([f1, f2])
        ref = (3.5, 3.5)
        exact = hypervolume_2d(front, ref)
        est, sigma = mc_hypervolume(front, ref, n_samples=10_000_000,
                                    seed=int(rng.integers(0, 1000)))
        worst_sigma_ratio = max(worst_sigma_ratio, abs(exact - est) / max(sigma, 1e-15))
    hand_ok = (
        purity([(1.0, 1.0)], [(1.0, 1.0), (0.0, 2.0)]) == 1.0
        and purity([(2.0, 2.0)], [(1.0, 1.0)]) == 0.0
        and purity([(1.0, 1.0), (5.0, 5.0)], [(1.0, 1.0), (0.0, 2.0)]) == 0.5
    )
    c1, c2 = performance_profiles(np.array([[1.0, 2.0], [2.0, 2.0]]))
    prof_ok = (
        c1.rhos[np.searchsorted(c1.taus, 1.0)] == 1.0
        and c2.rhos[np.searchsorted(c2.taus, 1.0)] == 0.5
        and c2.rhos[np.searchsorted(c2.taus, 2.0)] == 1.0
    )
    i1, i2 = performance_profiles(np.array([[1.0, 0.5]]), higher_is_better=True)
    prof_ok = prof_ok and i1.rhos[0] == 1.0 and i2.rhos[-1] == 1.0
    report(
        7,
        worst_sigma_ratio <= 3.0 and hand_ok and prof_ok,
        f"hypervolume sweep within 3 sigma of 1e7-sample Monte Carlo on 20 "
        f"fronts (worst {worst_sigma_ratio:.2f} sigma); purity and profile "
        f"hand examples exact",
    )


def test_criterion_8_front_phase_improves_multistart():
    wins = 0
    details = []
    for seed in range(5):
        p = generate_quadratic(10, 10.0, seed).problem()
        s = 5
        cfg = default_config(p, max_iter=3000)
        n_starts = 10

        # multi-start + per-point fixed-support refinement + filter
        rng = np.random.default_rng(seed)
        starts = -2.0 + 4.0 * rng.random((n_starts, 10))
        pts = []
        for row in starts:
            x, _ = mohyb(p, project_sparse(row, s), s, cfg)
            sup = support(x)
            if sup.size:
                x = mosd(p, x, SupportSet(tuple(int(i) for i in sup), 10), cfg.eps, cfg)
            pts.append(x)
        F_ms = np.array([p.evaluate(x) for x in pts])
        F_ms = F_ms[filter_nondominated(F_ms)]

        # two-phase front run from the same seed
        arch = initialize(p, s, "mohyb", n_starts, seed, (-2.0, 2.0), cfg)
        out = sfsd_run(p, arch, s, cfg, 8, explore_spacing=0.02)
        F_sfsd = np.array([e.fvals for e in out.entries()])
        F_sfsd = F_sfsd[filter_nondominated(F_sfsd)]

        reference = build_reference_front([F_ms, F_sfsd])
        pur_ms = purity(F_ms, reference)
        pur_sfsd = purity(F_sfsd, reference)
        details.append(f"{pur_sfsd:.3f}>={pur_ms:.3f}")
        if pur_sfsd >= pur_ms - 1e-12:
            wins += 1
    report(
        8,
        wins >= 4,
        f"front phase matches or beats refined multi-start purity on "
        f"{wins}/5 instances ({', '.join(details)})",
    )


def test_criterion_9_logistic_backend():
    from oracles import fd_gradient

    worst_rel = 0.0
    worst_lip = 0.0
    rng = np.random.default_rng(600)
    for fname in ("synth_screen_a.csv", "synth_margin_b.csv"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            R, t = load_dataset(DATA_DIR / fname, "y")
        assert R.shape[0] <= 300 and R.shape[1] <= 30
        p = logistic_problem(R, t)
        for _ in range(10):
            w = rng.normal(size=R.shape[1])
            g = p.gradient(w)
            fd = fd_gradient(p, w)
            denom = np.maximum(np.abs(fd), 1e-3)
            worst_rel = max(worst_rel, float(np.max(np.abs(g - fd) / denom)))
        oracle = float(np.linalg.eigvalsh(R.T @ R).max()) / R.shape[0]
        worst_lip = max(worst_lip, abs(float(p.lipschitz[0]) - oracle))
    report(
        9,
        worst_rel <= 1e-5 and worst_lip <= 1e-6,
        f"logistic gradients match finite differences (worst rel err "
        f"{worst_rel:.2e}) and cached loss curvature matches the dense "
        f"eigenvalue oracle (worst gap {worst_lip:.2e}) on 2 bundled datasets",
    )
