"""The hot path against its direct ``@`` / ``float()`` form, byte for byte.

The oracles, the simplex QP, the support search and the line searches use
``ndarray.dot``, float64 scalars and cached index arrays where they were
first written with ``@`` and ``float()``.  Both spell the same IEEE
operations on the same operands, so every result must match the references
in ``oracles.py`` to the last bit: on seeded random cases with n from 2 to
60, points stored contiguously and strided, and m = 1, 2 and 3 objectives.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (
    SupportSet,
    default_config,
    example_biobjective,
    generate_quadratic,
    logistic_problem,
    mosd,
    project_sparse,
    solve_simplex_qp,
    theta_feasible,
    theta_L,
    theta_subspace,
)
from sparsemoo.directions import _all_supports, _scores
from sparsemoo.sfsd import assign_super_support
from sparsemoo.solvers import _penalized, armijo_step

from conftest import stacked_quadratics
from oracles import (
    reference_armijo,
    reference_assign_super_support,
    reference_example,
    reference_logistic,
    reference_logistic_slope,
    reference_mosd,
    reference_penalized,
    reference_quadratic,
    reference_scores,
    reference_solve_simplex_qp,
    reference_theta_feasible,
    reference_theta_L,
    reference_theta_subspace,
)

SIZES = (2, 3, 5, 10, 17, 25, 33, 60)


def same(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def layouts(rng, n):
    """One random point stored four ways: contiguous, every second and every
    third entry of a longer array, and a column of a C-ordered matrix."""
    x = rng.normal(size=n) * rng.uniform(0.1, 3.0)
    long2, long3, mat = np.zeros(2 * n), np.zeros(3 * n), np.zeros((n, 4))
    long2[::2], long3[::3], mat[:, 1] = x, x, x
    return [x, long2[::2], long3[::3], mat[:, 1]]


def problem_pairs(rng, sizes=SIZES):
    """``(library problem, reference problem)`` pairs: quadratics with both
    oracle forms, penalized quadratics, logistic regression, and m = 1 and
    m = 3 problems shared by both sides (only the solver arithmetic differs)."""
    for n in sizes:
        inst = generate_quadratic(n, float(rng.choice([1.0, 10.0, 100.0])), int(rng.integers(100)))
        lib, ref = inst.problem(), reference_quadratic(inst)
        yield lib, ref
        y, tau = rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.5, 5.0))
        yield _penalized(lib, y, tau), reference_penalized(ref, y, tau)
        N = int(rng.integers(20, 80))
        R, t = rng.normal(size=(N, n)), np.where(rng.random(N) > 0.5, 1.0, -1.0)
        yield logistic_problem(R, t), reference_logistic(R, t)
        for m in (1, 3):
            p = stacked_quadratics(n, m, int(rng.integers(100)))
            yield p, p


def sparse_point(rng, n, size):
    x = np.zeros(n)
    x[rng.choice(n, size, replace=False)] = rng.uniform(-2.0, 2.0, size)
    return x


class TestOracles:
    def test_quadratic(self):
        rng = np.random.default_rng(0)
        for n in SIZES:
            for kappa in (1.0, 10.0, 100.0):
                inst = generate_quadratic(n, kappa, int(rng.integers(1000)))
                lib, ref = inst.problem(), reference_quadratic(inst)
                for x in layouts(rng, n):
                    assert same(lib.evaluate(x), ref.evaluate(x))
                    assert same(lib.gradient(x), ref.gradient(x))

    def test_worked_example(self):
        rng = np.random.default_rng(1)
        lib, ref = example_biobjective(), reference_example()
        for _ in range(20):
            for x in layouts(rng, 2):
                assert same(lib.evaluate(x), ref.evaluate(x))
                assert same(lib.gradient(x), ref.gradient(x))

    def test_logistic(self):
        rng = np.random.default_rng(2)
        for n in SIZES:
            N = int(rng.integers(10, 400))
            R, t = rng.normal(size=(N, n)), np.where(rng.random(N) > 0.5, 1.0, -1.0)
            lib, ref = logistic_problem(R, t), reference_logistic(R, t)
            for w in layouts(rng, n):
                assert same(lib.evaluate(w), ref.evaluate(w))
                assert same(lib.gradient(w), ref.gradient(w))

    def test_logistic_interleaved(self):
        # evaluate, gradient and line share the products at their point: calls
        # interleaved across points, layouts and a point changed in place
        # between calls must each return the reference's bytes
        rng = np.random.default_rng(12)
        count = 0
        for n in (2, 5, 17, 60):
            N = int(rng.integers(10, 200))
            R, t = rng.normal(size=(N, n)), np.where(rng.random(N) > 0.5, 1.0, -1.0)
            lib, ref = logistic_problem(R, t), reference_logistic(R, t)
            points = layouts(rng, n) + layouts(rng, n)
            for _ in range(60):
                w = points[int(rng.integers(len(points)))]
                if rng.random() < 0.3:
                    w[int(rng.integers(n))] += rng.normal()  # in place: same object
                call = rng.integers(3)
                if call == 0:
                    assert same(lib.evaluate(w), ref.evaluate(w))
                elif call == 1:
                    assert same(lib.gradient(w), ref.gradient(w))
                else:
                    d = rng.normal(size=n)
                    slope = lib.line(w, d)[0][0]
                    assert same(slope, reference_logistic_slope(R, t, w, d))
                count += 1
        assert count == 240

    def test_penalized(self):
        rng = np.random.default_rng(3)
        for n in SIZES:
            base = generate_quadratic(n, 10.0, int(rng.integers(1000))).problem()
            y, tau = rng.normal(size=n), float(rng.uniform(0.1, 1e3))
            lib, ref = _penalized(base, y, tau), reference_penalized(base, y, tau)
            for x in layouts(rng, n):
                assert same(lib.evaluate(x), ref.evaluate(x))
                assert same(lib.gradient(x), ref.gradient(x))


def qp_cases(rng):
    for m in (1, 2, 3):
        for k in (0, 1, 2, 5, 17, 60):
            for _ in range(6):
                cols = rng.normal(size=(m, k)) * rng.uniform(0.01, 100.0)
                if rng.random() < 0.2 and m > 1:
                    cols[1] = cols[0]  # a flat direction between two objectives
                b = None if rng.random() < 0.4 else rng.normal(size=m)
                L = float(rng.uniform(0.2, 50.0))
                # the library's gathers hand in the transpose of a C-ordered
                # block; a user may hand in a C-ordered (k, m) matrix
                yield cols.T, b, L
                yield np.ascontiguousarray(cols.T), b, L


class TestSimplexQp:
    def test_matches_reference(self):
        count = 0
        for G, b, L in qp_cases(np.random.default_rng(4)):
            lib, ref = solve_simplex_qp(G, b, L), reference_solve_simplex_qp(G, b, L)
            assert same(lib.d, ref.d) and same(lib.lam, ref.lam) and same(lib.theta, ref.theta)
            count += 1
        assert count == 216


# QP columns: entries with both zeros, columns equal, opposite or zero
QP_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, -7.25])


class TestZeroOffsets:
    @settings(max_examples=400, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), k=st.integers(1, 6),
           cells=st.lists(QP_VALUES, min_size=18, max_size=18),
           shape=st.sampled_from(["free", "equal", "opposite", "zero_column", "zero"]),
           L=st.sampled_from([1.0, 0.3, 7.5]))
    def test_none_is_zero_offsets(self, m, k, cells, shape, L):
        # b=None skips the zero array for m <= 2; the bytes stay those of an
        # explicit zero b and of the reference
        G = np.array(cells[:k * m]).reshape(m, k).T.copy()
        if shape == "equal" and m > 1:
            G[:, 1] = G[:, 0]
        elif shape == "opposite" and m > 1:
            G[:, 1] = -G[:, 0]
        elif shape == "zero_column":
            G[:, m - 1] = 0.0
        elif shape == "zero":
            G[:] = 0.0
        for A in (G, np.ascontiguousarray(G.T).T):
            a = solve_simplex_qp(A, None, L)
            for b in (solve_simplex_qp(A, np.zeros(m), L), reference_solve_simplex_qp(A, None, L)):
                assert same(a.d, b.d) and same(a.lam, b.lam) and same(a.theta, b.theta)


class TestDirections:
    def test_theta_subspace(self):
        rng = np.random.default_rng(5)
        count = 0
        for lib, ref in problem_pairs(rng):
            n = lib.n
            for x in layouts(rng, n):
                J = SupportSet.from_iterable(rng.choice(n, int(rng.integers(1, n + 1)),
                                                        replace=False), n)
                for I in (None, *[[j] for j in range(lib.m)], [lib.m - 1, 0]):
                    a, b = theta_subspace(lib, x, J, I), reference_theta_subspace(ref, x, J, I)
                    assert same(a.d, b.d) and same(a.lam, b.lam) and same(a.theta, b.theta)
                    count += 1
        assert count > 500

    def test_theta_subspace_given_gradients(self):
        # grads=p.gradient(x) gives the bytes of the call that evaluates them,
        # on a random key and on every coordinate, for every objective subset
        rng = np.random.default_rng(13)
        count = 0
        for lib, _ in problem_pairs(rng, sizes=(2, 5, 17, 33)):
            n, m = lib.n, lib.m
            subsets = [None] + [I for k in range(1, m + 1)
                                for I in itertools.combinations(range(m), k)]
            for x in layouts(rng, n):
                grads = lib.gradient(x)
                for J in (SupportSet.from_iterable(
                        rng.choice(n, int(rng.integers(1, n + 1)), replace=False), n),
                          SupportSet(tuple(range(n)), n)):
                    for I in subsets:
                        a = theta_subspace(lib, x, J, I)
                        b = theta_subspace(lib, x, J, I, grads=grads)
                        assert same(a.d, b.d) and same(a.lam, b.lam) and same(a.theta, b.theta)
                        count += 1
        assert count > 500

    def test_support_scores(self):
        # every row's value, not only the minimizer the searches return
        rng = np.random.default_rng(11)
        count = 0
        for lib, _ in problem_pairs(rng, sizes=(2, 3, 5, 10, 17, 25)):
            n = lib.n
            for k in sorted({1, min(n - 1, 3), n // 2 if n <= 10 else 2}):
                if lib.m == 3 and n > 10:
                    continue  # one simplex-QP solve per row
                K = _all_supports(n, k)
                for x in layouts(rng, n)[:2] + [np.zeros(n)]:
                    grads = np.asarray(lib.gradient(x), dtype=float)
                    L = 1.1 * float(lib.lipschitz.max())
                    assert same(_scores(grads, x, L, K), reference_scores(grads, x, L, K))
                    count += 1
        assert count > 150

    def test_theta_L(self):
        rng = np.random.default_rng(6)
        count = 0
        for lib, ref in problem_pairs(rng, sizes=(2, 3, 5, 8, 12, 14)):
            n = lib.n
            L = 1.1 * float(lib.lipschitz.max()) * float(rng.choice([1.0, 10.0]))
            for s in sorted({1, n // 2, min(n - 1, 5)}):
                if lib.m == 3 and n > 8 and s > 2:
                    continue  # the reference solves a QP for each of C(n, s) supports
                points = [np.zeros(n), sparse_point(rng, n, s), sparse_point(rng, n, max(s - 1, 1))]
                for x in points + layouts(rng, n)[1:2]:
                    x = project_sparse(x, s)
                    sol = theta_L(lib, x, s, L)
                    K, theta, d, lam = reference_theta_L(ref, x, s, L)
                    assert sol.support == K
                    assert same(sol.theta, theta) and same(sol.d, d) and same(sol.lam, lam)
                    count += 1
        assert count > 200

    def test_theta_feasible_below_full_support(self):
        rng = np.random.default_rng(7)
        count = 0
        for lib, ref in problem_pairs(rng, sizes=(3, 5, 8, 12)):
            n = lib.n
            for s in sorted({2, n - 1}):
                for size in range(s):  # every point has room for s - size fresh nonzeros
                    x = sparse_point(rng, n, size)
                    sol = theta_feasible(lib, x, s)
                    J, theta, d, lam = reference_theta_feasible(ref, x, s)
                    assert sol.support == J
                    assert same(sol.theta, theta) and same(sol.d, d) and same(sol.lam, lam)
                    count += 1
        assert count > 100


class TestLineSearches:
    def test_armijo_step(self):
        rng = np.random.default_rng(8)
        count = 0
        for lib, ref in problem_pairs(rng):
            cfg = default_config(lib)
            for x in layouts(rng, lib.n):
                sol = reference_theta_subspace(ref, x, SupportSet(tuple(range(lib.n)), lib.n))
                if sol.theta >= 0.0:
                    continue
                for fx in (None, np.asarray(ref.evaluate(x), dtype=float)):
                    a = armijo_step(lib, x, sol.d, sol.theta, cfg, fx)
                    b = reference_armijo(ref, x, sol.d, sol.theta, cfg, fx)
                    assert a[0] == b[0] and same(a[1], b[1]) and same(a[2], b[2])
                    count += 1
        assert count > 300

    def test_mosd(self):
        rng = np.random.default_rng(9)
        count = 0
        for lib, ref in problem_pairs(rng):
            cfg = default_config(lib, max_iter=200)
            n = lib.n
            J = SupportSet.from_iterable(rng.choice(n, int(rng.integers(1, n + 1)), replace=False), n)
            x0 = np.zeros(n)
            x0[list(J.indices)] = rng.uniform(-2.0, 2.0, len(J))
            for eps in (1e-4, 1e-7):
                assert same(mosd(lib, x0, J, eps, cfg), reference_mosd(ref, x0, J, eps, cfg))
                count += 1
        assert count == 2 * 5 * len(SIZES)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_assign_super_support_below_full_support(self, m):
        rng = np.random.default_rng(10 + m)
        for n in (4, 7, 10):
            inst = generate_quadratic(n, 10.0, n)
            lib, ref = ((inst.problem(), reference_quadratic(inst)) if m == 2
                        else (stacked_quadratics(n, m, n),) * 2)
            cfg = default_config(lib)
            for s in (2, n - 1):
                for size in range(s):
                    x = sparse_point(rng, n, size)
                    xa, Ja = assign_super_support(lib, x, s, cfg)
                    xb, Jb = reference_assign_super_support(ref, x, s, cfg)
                    assert Ja == Jb and same(xa, xb)
