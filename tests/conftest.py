import math

import numpy as np
import pytest

import sparseroll as sr
from sparseroll.riccati import solve_dares

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="session")
def benchmark_model():
    return sr.ExperimentConfig().build_model()


@pytest.fixture(scope="session")
def stationary_benchmark(benchmark_model):
    # Zero initial mean: the closed loop starts in its stationary regime.
    return benchmark_model.with_init(np.zeros(4), benchmark_model.init_cov)


@pytest.fixture(scope="session")
def benchmark_steady(benchmark_model):
    return sr.steady_kalman(benchmark_model)


@pytest.fixture(scope="session")
def scalar_model():
    # Integrator with unit noise; init_cov is the predictive fixed point phi.
    return sr.DiscreteModel(
        a=[[1.0]], b=[[1.0]], c=[[1.0]],
        proc_cov=[[1.0]], meas_cov=[[1.0]],
        init_mean=[0.0], init_cov=[[PHI]],
    )


@pytest.fixture(scope="session")
def mpc_problem():
    """Builds the condensed sparse-MPC problem at the period-1 Riccati terminal, as design does."""
    def build(dm, q_weight, r_weight, horizon):
        (sol,) = solve_dares([sr.RiccatiProblem(dm.a, dm.b, q_weight, np.zeros(dm.b.shape),
                                                r_weight)])
        terminal = sol.cost_matrix
        return sr.build_mpc_problem(dm, q_weight, r_weight, horizon, terminal)
    return build


class Recorder:
    """Wraps a controller for one closed loop and records each step's x_hat, u and delta.

    ``estimates`` (rows, N, n), ``inputs`` (rows, N, q) and ``triggers`` (rows, N) stack
    them by row.
    """

    def __init__(self, controller):
        self.controller = controller
        self._steps = []

    def decide(self, x_hat, k):
        u, delta = self.controller.decide(x_hat, k)
        self._steps.append((x_hat, u, delta))
        return u, delta

    def _stacked(self, i):
        return np.stack([step[i] for step in self._steps], axis=1)

    estimates = property(lambda self: self._stacked(0))
    inputs = property(lambda self: self._stacked(1))
    triggers = property(lambda self: self._stacked(2))


@pytest.fixture(scope="session")
def record():
    """The :class:`Recorder` wrapper: ``record(controller)``."""
    return Recorder


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20240601)))
