import sys
import threading

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
    """Level -> a new (mesh, stiffness system) pair of that level."""
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


@pytest.fixture
def race():
    """Runs ``work(i)`` on threads ``i = 0..n-1`` that start together and switch every microsecond."""

    def run(work, n=8):
        barrier = threading.Barrier(n)

        def start(i):
            barrier.wait(timeout=30)
            work(i)

        threads = [threading.Thread(target=start, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    return run
