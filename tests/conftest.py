import numpy as np
import pytest

from sparsemoo import MultiObjectiveProblem, example_biobjective, generate_quadratic


def pytest_configure(config):
    # python -O strips the library asserts these tests rely on: the archive
    # guard, the descent lemma and the duality sandwich.
    if not __debug__:
        raise pytest.UsageError(
            "the sparsemoo tests need assertions: run them without python -O"
        )


@pytest.fixture
def example_problem():
    return example_biobjective()


@pytest.fixture
def quadratic_factory():
    def make(n=6, kappa=10.0, seed=0):
        return generate_quadratic(n, kappa, seed).problem()

    return make


def stacked_quadratics(n, m, seed, kappa=10.0):
    """m quadratics from :func:`generate_quadratic`: ``Q1``, ``Q2`` of ``seed``,
    then of ``seed + 1000`` and so on, each with its linear term."""
    insts = [generate_quadratic(n, kappa, seed + 1000 * j) for j in range((m + 1) // 2)]
    Qs = [Q for inst in insts for Q in (inst.Q1, inst.Q2)][:m]
    cs = [c for inst in insts for c in (inst.c1, inst.c2)][:m]
    return MultiObjectiveProblem(
        n=n, m=m,
        evaluate=lambda x: np.array([0.5 * x @ (Q @ x) - c @ x for Q, c in zip(Qs, cs)]),
        gradient=lambda x: np.stack([Q @ x - c for Q, c in zip(Qs, cs)]),
        lipschitz=np.full(m, float(kappa)),
    )


def single_objective_quadratic(a):
    """f(x) = 0.5 ||x - a||^2 as an m=1 problem."""
    a = np.asarray(a, dtype=float)

    def ev(x):
        return np.array([0.5 * float((x - a) @ (x - a))])

    def grad(x):
        return (x - a)[None, :]

    return MultiObjectiveProblem(
        n=a.size, m=1, evaluate=ev, gradient=grad, lipschitz=np.array([1.0])
    )
