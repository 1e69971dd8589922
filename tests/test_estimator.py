import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import sparseroll as sr
from sparseroll import cli
from sparseroll.config import load_config
from sparseroll.exceptions import IllConditionedError, NonFiniteError
from sparseroll.riccati import riccati_residual

BENCH = sr.ExperimentConfig()  # the benchmark study
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


def test_innovation_whiteness(stationary_benchmark, benchmark_steady, record):
    dm = stationary_benchmark
    cfg = sr.ExperimentConfig(horizon_steps=5000, trials=1, seed_base=3,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("periodic",), h=1, p=1)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2]
    from sparseroll.simulate import PeriodicController

    rec = record(PeriodicController(pol.feedback_gain[None], np.array([2])))  # one row
    _, _, (states,) = sr.simulate_trials(cfg, dm, rec, [0], steady=benchmark_steady,
                                         keep_states=True)
    (estimates,), (inputs,) = rec.estimates, rec.inputs
    # the loop measures y_k = C x_k + v_k, v_k of the trial's own noise stream
    _, _, v = sr.noise_streams(dm, cfg.seed_base, [0], cfg.horizon_steps)
    outputs = states @ dm.c.T + v[:-1, 0]
    # the filter ran on these outputs: each estimate is the step from the one before
    assert np.allclose(sr.kalman_step(estimates[:-1], inputs[:-1], outputs[1:], dm,
                                      benchmark_steady[0]), estimates[1:], rtol=0, atol=1e-12)
    pred = estimates[:-1] @ dm.a.T + inputs[:-1] @ dm.b.T
    innov = outputs[1:] - pred @ dm.c.T
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


@pytest.mark.parametrize("config", ["benchmark.yaml", "scalar.yaml"])
def test_steady_prior_matches_scipy_dual_dare(config):
    # the filter's prior solves the DARE of the dual problem (A', C', W, 0, V)
    from scipy.linalg import solve_discrete_are

    dm = load_config(CONFIGS / config).build_model()
    gain, err_cov, prior = sr.steady_kalman(dm)
    exact = solve_discrete_are(dm.a.T, dm.c.T, dm.proc_cov, dm.meas_cov)
    assert np.allclose(prior, exact, rtol=1e-8, atol=0.0)
    dual = sr.RiccatiProblem(dm.a.T, dm.c.T, dm.proc_cov, np.zeros(dm.c.T.shape), dm.meas_cov)
    assert riccati_residual(dual, prior) <= 1e-10
    # the gain and posterior are one measurement update at the prior
    innov = dm.c @ prior @ dm.c.T + dm.meas_cov
    assert np.allclose(gain, prior @ dm.c.T @ np.linalg.inv(innov), rtol=1e-10, atol=1e-14)
    assert np.allclose(err_cov, prior - gain @ dm.c @ prior, rtol=1e-10, atol=1e-14)


def test_ill_conditioned_innovation_covariance_fails_typed():
    # the second output is almost noise-free and its state unexcited, so C X C' + V tends to
    # diag(1.13, 1e-13): condition 1.7e13, above COND_LIMIT
    dm = sr.DiscreteModel(a=0.5 * np.eye(2), b=[[1.0], [0.0]], c=np.eye(2),
                          proc_cov=np.diag([1.0, 0.0]), meas_cov=np.diag([1.0, 1e-13]),
                          init_mean=[0.0, 0.0], init_cov=np.eye(2))
    with pytest.raises(IllConditionedError, match=r"^inner inverse condition number 1\.700e\+13 "
                                                  r"exceeds 1\.0e\+12$"):
        sr.steady_kalman(dm)


def test_diverging_filter_covariance_fails_at_its_first_nonfinite_iterate(tmp_path, capsys):
    # with C = 0 the unstable mode's covariance grows by 2.25 a step until its norm
    # overflows, where the relative step finite / inf = 0 would pass the stop test
    model = {"a": [[1.5, 0.0], [0.0, 0.5]], "b": [[1.0], [1.0]], "c": [[0.0, 0.0]],
             "proc_cov": [[1.0, 0.0], [0.0, 1.0]], "meas_cov": [[1.0]],
             "init_mean": [0.0, 0.0], "init_cov": [[1.0, 0.0], [0.0, 1.0]]}
    dm = sr.DiscreteModel(**{key: np.array(value) for key, value in model.items()})
    (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({
        "model": {"source": "matrices-from-file", "file": "model.yaml"},
        "cost": {"q": np.eye(2).tolist(), "r": [[1.0]]}, "methods": ["rollout", "periodic"],
        "rollout": {"h": 2, "p": 1}, "periodic": {"candidates": [1, 2]},
        "sim": {"trials": 2, "horizon_steps": 10, "seed_base": 1}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^Riccati iterate norm is inf/nan at "
                                                 r"iteration 437$"):
            sr.steady_kalman(dm)
        # the same model from a file: (A, C) is not detectable, so `design` rejects it at load
        start = time.perf_counter()
        assert cli.main(["design", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
    assert "(A, C) must be detectable: mode 1.5 is unobservable" in capsys.readouterr().err
