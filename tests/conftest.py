import numpy as np
import pytest

from mopoisson import benchmark_problem, objective, shared_system
from mopoisson.fem import solve_spd


@pytest.fixture
def rng():
    return np.random.default_rng(170381)


@pytest.fixture(scope="session")
def bench():
    """The two-point benchmark problem with lambda = (0.1, 0.1)."""
    return benchmark_problem(0.1, 0.1)


@pytest.fixture(scope="session")
def system_for():
    """Level -> (mesh, stiffness system), shared across the session."""
    return shared_system


@pytest.fixture
def solve_calls(monkeypatch):
    """Records every ``solve_spd`` call the objective layer makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(objective, "solve_spd", counted)
    return calls
