import math

import numpy as np

import sparseroll as sr

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_scalar_steady_golden(scalar_model):
    gain, err_cov, prior = sr.steady_kalman(scalar_model)
    assert abs(prior[0, 0] - PHI) < 1e-10
    assert abs(gain[0, 0] - PHI / (PHI + 1.0)) < 1e-10
    assert abs(err_cov[0, 0] - (PHI - 1.0)) < 1e-10


def test_gain_vanishes_with_uninformative_measurements():
    dm = sr.DiscreteModel(a=[[0.9]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1e12]], init_mean=[0.0], init_cov=[[1.0]])
    gain, _, _ = sr.steady_kalman(dm)
    assert abs(gain[0, 0]) < 1e-5


def test_error_covariance_monte_carlo(stationary_benchmark, benchmark_steady):
    dm = stationary_benchmark
    gain, err_cov, _ = benchmark_steady
    n_steps = 100_000
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    lw = np.linalg.cholesky(dm.proc_cov)
    lv = np.linalg.cholesky(dm.meas_cov)
    w_all = gen.standard_normal((n_steps, 4)) @ lw.T
    v_all = gen.standard_normal((n_steps + 1, 2)) @ lv.T
    lx = np.linalg.cholesky(dm.init_cov)
    x = dm.init_mean + lx @ gen.standard_normal(4)

    y0 = dm.c @ x + v_all[0]
    est = sr.kalman_init(dm, y0, gain)
    u = np.zeros(1)
    errors = np.empty((n_steps, 4))
    a, b, c = dm.a, dm.b, dm.c
    for k in range(n_steps):
        errors[k] = x - est
        x = a @ x + w_all[k]
        est = sr.kalman_step(est, u, c @ x + v_all[k + 1], dm, gain)
    sample_cov = np.cov(errors.T, ddof=1)
    # 5% relative agreement wherever the finite-sample noise floor permits it;
    # entries whose own sampling std exceeds that get a 4-sigma allowance
    # (error process decorrelates at rate rho((I-GC)A)^2).
    rho = np.abs(np.linalg.eigvals((np.eye(4) - gain @ dm.c) @ dm.a)).max()
    tau = 1.0 / (1.0 - rho**2)
    diag = np.diag(err_cov)
    sampling_std = np.sqrt((np.outer(diag, diag) + err_cov**2) * 2.0 * tau / n_steps)
    mask = np.abs(err_cov) > 1e-6
    allowance = np.maximum(0.05 * np.abs(err_cov), 4.0 * sampling_std)
    assert np.all(np.abs(sample_cov - err_cov)[mask] < allowance[mask])
    diag_rel = np.abs(np.diag(sample_cov) - diag) / diag
    assert diag_rel.max() < 0.05


def test_kalman_init_examples(benchmark_model, benchmark_steady):
    dm = benchmark_model
    gain = benchmark_steady[0]
    # zero innovation leaves the prior mean untouched
    y0 = dm.c @ dm.init_mean
    est = sr.kalman_init(dm, y0, gain)
    assert np.allclose(est, dm.init_mean)

    # degenerate zero gain ignores the measurement entirely
    est0 = sr.kalman_init(dm, np.array([5.0, -3.0]), np.zeros_like(gain))
    assert np.array_equal(est0, dm.init_mean)

    # triangle bound on the estimate magnitude
    y0 = np.array([2.0, 1.0])
    est1 = sr.kalman_init(dm, y0, gain)
    bound = (np.linalg.norm(dm.init_mean)
             + np.linalg.norm(gain, 2) * np.linalg.norm(y0 - dm.c @ dm.init_mean))
    assert np.linalg.norm(est1) <= bound + 1e-12


def test_zero_innovation_step(benchmark_model, benchmark_steady):
    dm = benchmark_model
    gain = benchmark_steady[0]
    est = sr.kalman_init(dm, dm.c @ dm.init_mean, gain)
    u = np.zeros(1)
    predicted_output = dm.c @ (dm.a @ est)
    nxt = sr.kalman_step(est, u, predicted_output, dm, gain)
    assert np.allclose(nxt, dm.a @ est, atol=1e-14)


def test_noise_free_error_contraction(benchmark_model, benchmark_steady):
    dm = benchmark_model
    gain = benchmark_steady[0]
    x = dm.init_mean + np.array([0.5, -0.2, 0.1, 0.3])
    est = sr.kalman_init(dm, dm.c @ x, gain)
    initial = np.linalg.norm(x - est)
    u = np.zeros(1)
    for _ in range(50):
        x = dm.a @ x
        est = sr.kalman_step(est, u, dm.c @ x, dm, gain)
    assert np.linalg.norm(x - est) < 1e-3 * initial


def test_step_is_linear_in_inputs(benchmark_model, benchmark_steady, rng):
    dm = benchmark_model

    def step(xhat, u, y):
        return sr.kalman_step(xhat, u, y, dm, benchmark_steady[0])

    for _ in range(10):
        x1, x2 = rng.standard_normal((2, 4))
        u1, u2 = rng.standard_normal((2, 1))
        y1, y2 = rng.standard_normal((2, 2))
        combined = step(x1 + x2, u1 + u2, y1 + y2)
        superposed = step(x1, u1, y1) + step(x2, u2, y2) - step(np.zeros(4), np.zeros(1), np.zeros(2))
        assert np.allclose(combined, superposed, atol=1e-12)


def test_innovation_whiteness(stationary_benchmark, benchmark_steady):
    dm = stationary_benchmark
    cfg = sr.ExperimentConfig(horizon_steps=5000, trials=1, seed_base=3,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("periodic",), h=1, p=1)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 2)
    from sparseroll.simulate import PeriodicController

    trace = sr.simulate_trial(cfg, dm, PeriodicController(pol.feedback_gain, 2), 0,
                              steady=benchmark_steady)
    pred = trace.estimates[:-1] @ dm.a.T + trace.inputs[:-1] @ dm.b.T
    innov = trace.outputs[1:] - pred @ dm.c.T
    innov = innov - innov.mean(axis=0)
    n = innov.shape[0]
    scale = innov.std(axis=0, ddof=1)
    for lag in range(1, 6):
        corr = (innov[lag:, :, None] * innov[:-lag, None, :]).mean(axis=0)
        corr /= np.outer(scale, scale)
        assert np.abs(corr).max() < 3.0 / math.sqrt(n - lag)


def test_filter_is_deterministic_function_of_records(benchmark_model, benchmark_steady, rng):
    dm = benchmark_model
    gain = benchmark_steady[0]
    ys = rng.standard_normal((20, 2))
    us = rng.standard_normal((20, 1))

    def run():
        est = sr.kalman_init(dm, ys[0], gain)
        out = [est]
        for k in range(1, 20):
            est = sr.kalman_step(est, us[k - 1], ys[k], dm, gain)
            out.append(est)
        return np.array(out)

    assert np.array_equal(run(), run())
