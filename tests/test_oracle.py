import numpy as np
import pytest

import sparseroll as sr

BENCH = sr.ExperimentConfig()  # the benchmark study


@pytest.fixture(scope="module")
def setup(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [6])[6]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    return dm, pol, err_cov, tables


def test_agreement_with_table_selection(setup, rng):
    dm, pol, err_cov, tables = setup
    for _ in range(30):
        x = rng.standard_normal(4) * rng.uniform(0.05, 2.5)
        res = sr.oracle_select(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                               6, 6, 0.2, x, err_cov)
        sel = sr.select_pattern(tables, x, 0.2)
        assert sel == res.best_pattern
        score = sr.pattern_scores(tables, x, 0.2)[sel]
        assert abs(score - res.best_score) < 1e-8 * max(1.0, abs(res.best_score))


def test_result_invariants(setup):
    dm, pol, err_cov, tables = setup
    res = sr.oracle_select(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                           6, 6, 0.2, np.array([1.0, -1.0, 0.0, 0.0]), err_cov)
    assert len(res.all_scores) == 64
    assert res.best_score == min(res.all_scores.values())
    assert sorted(res.all_scores) == list(range(64))
    ties = [m for m, s in res.all_scores.items() if s == res.best_score]
    assert res.best_pattern == (tables.base if tables.base in ties else min(ties))


def test_two_pattern_closed_form(scalar_model):
    # h=1, p=1, theta=0: actuate iff the quadratic-plus-trace gap is negative
    dm = scalar_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, [[1.0]], [[1.0]], [1])[1]
    pt = pol.cost_matrix[0, 0]
    a = b = q = r = 1.0
    sigma = err_cov[0, 0]
    prior = a * sigma * a + dm.proc_cov[0, 0]
    gain = prior / (prior + dm.meas_cov[0, 0])
    est_noise = gain * prior
    f_gain = -b * pt * a / (b * pt * b + r)
    for x in np.linspace(-3.0, 3.0, 21):
        res = sr.oracle_select(dm, [[1.0]], [[1.0]], pol.cost_matrix, 1, 1, 0.0,
                               np.array([x]), err_cov)
        cost_act = (q * x**2 + q * sigma + r * (f_gain * x) ** 2
                    + pt * (((a + b * f_gain) * x) ** 2 + est_noise) + pt * sigma)
        cost_idle = q * x**2 + q * sigma + pt * ((a * x) ** 2 + est_noise) + pt * sigma
        assert abs(res.all_scores[1] - cost_act) < 1e-10 * max(1.0, abs(cost_act))
        assert abs(res.all_scores[0] - cost_idle) < 1e-10 * max(1.0, abs(cost_idle))
        assert res.best_pattern == (1 if cost_act <= cost_idle else 0)


def test_scaling_moves_toward_more_actuation(setup, rng):
    dm, pol, err_cov, _ = setup
    for _ in range(40):
        x = rng.standard_normal(4) * rng.uniform(0.05, 1.5)
        counts = []
        for c in (1.0, 2.0):
            res = sr.oracle_select(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                                   6, 6, 0.2, c * x, err_cov)
            counts.append(sr.pattern_bits(6)[res.best_pattern].sum())
        assert counts[1] >= counts[0]


def test_closed_loop_matrices_no_feedback(setup):
    dm, _, err_cov, tables = setup
    assert tables.bits[0].sum() == 0
    phi, gamma = sr.closed_loop_matrices(tables, 0)
    a6 = np.linalg.matrix_power(dm.a, 6)
    assert np.allclose(phi, a6, rtol=1e-12)
    expected = np.hstack([np.linalg.matrix_power(dm.a, 5 - j) for j in range(6)])
    assert np.allclose(gamma, expected, rtol=1e-12)


def test_closed_loop_estimate_propagation(setup, rng):
    # one block of filter steps must reduce to phi x + gamma [innovation terms]
    dm, _, err_cov, tables = setup
    gain, _, _ = sr.steady_kalman(dm)
    m = 0b001111
    phi, gamma_map = sr.closed_loop_matrices(tables, m)

    x_hat = rng.standard_normal(4)
    x_true = x_hat + rng.multivariate_normal(np.zeros(4), err_cov)
    est = x_hat
    omegas = []
    x = x_true
    for s in range(6):
        err = x - est
        u = tables.path_gains(m)[s] @ est if tables.bits[m, s] else np.zeros(1)
        w = rng.multivariate_normal(np.zeros(4), dm.proc_cov)
        v = rng.multivariate_normal(np.zeros(2), dm.meas_cov)
        omegas.append(gain @ (dm.c @ (dm.a @ err + w) + v))
        x = dm.a @ x + dm.b @ u + w
        est = sr.kalman_step(est, u, dm.c @ x + v, dm, gain)
    predicted = phi @ x_hat + gamma_map @ np.concatenate(omegas)
    assert np.linalg.norm(predicted - est) < 1e-10 * max(1.0, np.linalg.norm(est))


def test_base_pattern_closed_loop_stable(setup):
    _, _, _, tables = setup
    phi, _ = sr.closed_loop_matrices(tables, tables.base)
    assert np.abs(np.linalg.eigvals(phi)).max() < 1.0


def test_oracle_base_score_matches_lifted_value(setup):
    # exhaustive cost of the base pattern equals the lifted closed form
    dm, pol, err_cov, tables = setup
    lift = sr.build_lifted(dm, BENCH.q_weight, BENCH.r_weight, 6)
    beta1 = (float(np.trace(pol.cost_matrix @ lift.noise_cov_lift))
             + float(np.trace(pol.gain_quadratic @ err_cov)) + lift.d_avg)
    x = np.array([0.7, -0.4, 0.1, 0.2])
    res = sr.oracle_select(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                           6, 6, 0.2, x, err_cov)
    closed = (float(x @ pol.cost_matrix @ x) + float(np.trace(pol.cost_matrix @ err_cov))
              + beta1 + 0.2)
    assert abs(res.all_scores[tables.base] - closed) < 1e-8 * abs(closed)
