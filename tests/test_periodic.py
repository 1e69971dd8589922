import math

import numpy as np
import pytest

import sparseroll as sr
from sparseroll.exceptions import AssumptionViolatedError

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_p1_matches_unlifted_lqg(benchmark_model):
    dm = benchmark_model
    # lifting at p=1 is the exact identity on the problem data
    lift = sr.build_lifted(dm, BENCH.q_weight, BENCH.r_weight, 1)
    assert np.array_equal(lift.a_lift, dm.a) and np.array_equal(lift.b_lift, dm.b)
    assert np.array_equal(lift.q_lift, np.atleast_2d(BENCH.q_weight))
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 1)
    prob = sr.RiccatiProblem(dm.a, dm.b, BENCH.q_weight, np.zeros((4, 1)),
                             BENCH.r_weight, discount=1.0)
    sol = sr.solve_dare(prob)
    assert np.allclose(pol.feedback_gain, sol.gain, rtol=0, atol=1e-12)
    assert np.allclose(pol.cost_matrix, sol.cost_matrix, rtol=1e-12)


def test_scalar_analytic_design(scalar_model):
    pol = sr.design_periodic(scalar_model, [[1.0]], [[1.0]], 1)
    assert abs(pol.cost_matrix[0, 0] - PHI) < 1e-10
    assert abs(pol.feedback_gain[0, 0] + PHI / (PHI + 1.0)) < 1e-10


def test_benchmark_p6_positive_definite(benchmark_model):
    pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, 6)
    assert np.linalg.eigvalsh(pol.cost_matrix).min() > 0.0


def test_design_rejects_pathological_period():
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    with pytest.raises(AssumptionViolatedError):
        sr.design_periodic(dm, np.eye(2), [[1.0]], 2)


def test_gain_first_order_optimality(benchmark_model):
    for p in (1, 3, 6, 2):
        pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        lift = sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        stationarity = (
            (lift.b_lift.T @ pol.cost_matrix @ lift.b_lift + lift.r_lift) @ pol.feedback_gain
            + (lift.b_lift.T @ pol.cost_matrix @ lift.a_lift + lift.s_lift.T)
        )
        assert np.abs(stationarity).max() < 1e-9


def test_policy_carries_its_lifted_system(benchmark_model):
    # the lifted system the gain was designed on, the one its average cost reads
    for p in (1, 3):
        pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        lift = sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        assert pol.lifted.period == p and pol.lifted.d_avg == lift.d_avg
        for name in ("a_lift", "b_lift", "d_lift", "proc_cov_lift", "q_lift", "s_lift", "r_lift"):
            assert np.array_equal(getattr(pol.lifted, name), getattr(lift, name)), name


def test_average_cost_degenerate_terms(scalar_model):
    pol = sr.design_periodic(scalar_model, [[1.0]], [[1.0]], 1)
    cost = sr.periodic_average_cost(pol, err_cov=[[0.0]], theta=0.0)
    expected = np.trace(pol.cost_matrix @ scalar_model.proc_cov)
    assert abs(cost - expected) < 1e-12


def test_average_cost_theta_slope(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    for p in (1, 4):
        pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        c1 = sr.periodic_average_cost(pol, err_cov, theta=0.0)
        c2 = sr.periodic_average_cost(pol, err_cov, theta=0.4)
        assert abs((c2 - c1) - 0.4 / p) < 1e-14


def test_p1_average_cost_is_classic_lqg(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, 1)
    cost = sr.periodic_average_cost(pol, err_cov, theta=0.0)
    classic = (np.trace(pol.cost_matrix @ benchmark_model.proc_cov)
               + np.trace(pol.gain_quadratic @ err_cov))
    assert abs(cost - classic) < 1e-12


def test_average_cost_monte_carlo_cross_check(stationary_benchmark, benchmark_steady):
    # long single-run average against the closed form, stationary start
    dm = stationary_benchmark
    gain, err_cov, _ = benchmark_steady
    p, theta = 2, 0.2
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, p)
    formula = sr.periodic_average_cost(pol, err_cov, theta)

    n_steps = 1_000_000
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    lw = np.linalg.cholesky(dm.proc_cov)
    lv = np.linalg.cholesky(dm.meas_cov)
    lx = np.linalg.cholesky(dm.init_cov)
    w_all = gen.standard_normal((n_steps, 4)) @ lw.T
    v_all = gen.standard_normal((n_steps + 1, 2)) @ lv.T
    a, b, c = dm.a, dm.b, dm.c
    q, r = BENCH.q_weight, BENCH.r_weight
    f = pol.feedback_gain
    igc = np.eye(4) - gain @ c

    x = dm.init_mean + lx @ gen.standard_normal(4)
    xh = dm.init_mean + gain @ (c @ x + v_all[0] - c @ dm.init_mean)
    total = 0.0
    triggers = 0
    for k in range(n_steps):
        if k % p == 0:
            u = f @ xh
            triggers += 1
            total += x @ q @ x + u @ r @ u
        else:
            u = None
            total += x @ q @ x
        x = a @ x + w_all[k] if u is None else a @ x + b @ u + w_all[k]
        pred = a @ xh if u is None else a @ xh + b @ u
        xh = igc @ pred + gain @ (c @ x + v_all[k + 1])
    empirical = total / n_steps + theta * triggers / n_steps
    assert abs(empirical - formula) / formula < 0.01


def test_best_periodic_prefers_dense_when_control_free(rng):
    a = np.array([[1.2]])
    dm = sr.DiscreteModel(a=a, b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]])
    _, err_cov, _ = sr.steady_kalman(dm)
    p_star, cost = sr.best_periodic(dm, [[1.0]], [[1e-6]], {1, 2}, err_cov, theta=0.0)
    assert p_star == 1
    # direct comparison of the two formula values
    costs = {}
    for p in (1, 2):
        pol = sr.design_periodic(dm, [[1.0]], [[1e-6]], p)
        costs[p] = sr.periodic_average_cost(pol, err_cov, 0.0)
    assert costs[1] < costs[2]
    assert abs(cost - costs[1]) < 1e-12


def test_best_periodic_large_theta(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    p_star, _ = sr.best_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                 (1, 2, 3, 6), err_cov, theta=1e6)
    assert p_star == 6


def test_best_periodic_theta_table(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    chosen = [
        sr.best_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                         BENCH.candidates, err_cov, theta)[0]
        for theta in BENCH.theta_grid
    ]
    assert chosen[0] == 1
    assert chosen[-1] == 6
    assert all(b >= a for a, b in zip(chosen, chosen[1:]))
