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
