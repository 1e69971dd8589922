import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import sparseroll as sr

BENCH = sr.ExperimentConfig()  # the benchmark study


def scalar_continuous(lam=0.0):
    return sr.ContinuousModel(
        a_cont=[[lam]], b_cont=[[1.0]], d_cont=[[1.0]], c_cont=[[1.0]],
        meas_noise_intensity=[[1.0]],
    )


def random_model(rng, n=3, nu=1, ny=2):
    a = rng.standard_normal((n, n))
    a *= 0.95 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
    m = rng.standard_normal((n, n))
    return sr.DiscreteModel(
        a=a,
        b=rng.standard_normal((n, nu)),
        c=rng.standard_normal((ny, n)),
        proc_cov=m @ m.T + 0.05 * np.eye(n),
        meas_cov=np.eye(ny) * 0.1,
        init_mean=np.zeros(n),
        init_cov=np.eye(n),
    )


def test_discretize_zero_dynamics():
    dm = sr.discretize(scalar_continuous(0.0), 0.1)
    assert abs(dm.a[0, 0] - 1.0) < 1e-14
    assert abs(dm.b[0, 0] - 0.1) < 1e-14
    assert abs(dm.proc_cov[0, 0] - 0.1) < 1e-14
    assert abs(dm.meas_cov[0, 0] - 10.0) < 1e-12


def test_discretize_scalar_closed_form():
    lam, ts = -0.7, 0.3
    dm = sr.discretize(scalar_continuous(lam), ts)
    expected = (np.exp(2 * lam * ts) - 1.0) / (2.0 * lam)
    assert abs(dm.proc_cov[0, 0] - expected) < 1e-14


def test_discretize_benchmark_against_quadrature(benchmark_model):
    cm = sr.build_benchmark_model()
    w = cm.d_cont @ cm.d_cont.T

    def integrand(tau):
        e = expm(cm.a_cont * tau)
        return e @ w @ e.T

    ref, _ = quad_vec(integrand, 0.0, 0.1, epsabs=1e-13, epsrel=1e-13)
    assert np.abs(benchmark_model.proc_cov - ref).max() < 1e-9
    assert np.abs(benchmark_model.a - expm(cm.a_cont * 0.1)).max() < 1e-12


def test_discretize_first_order_consistency():
    cm = sr.build_benchmark_model()
    errs = []
    for ts in (1e-3, 1e-4):
        dm = sr.discretize(cm, ts)
        errs.append(np.linalg.norm(dm.a - np.eye(4), "fro"))
        # second-order remainder of the expansion
        rem = np.linalg.norm(dm.a - np.eye(4) - cm.a_cont * ts, "fro")
        assert rem < 0.5 * np.linalg.norm(cm.a_cont @ cm.a_cont, "fro") * ts**2 * 1.1
    assert 8.0 < errs[0] / errs[1] < 12.0


def test_benchmark_continuous_matrices():
    cm = sr.build_benchmark_model()
    kappa = 2.0 * np.pi**2
    assert abs(cm.a_cont[2, 0] + kappa) < 1e-12
    assert abs(cm.a_cont[2, 0] + 19.7392) < 1e-3
    assert np.array_equal(cm.d_cont, np.array([[0.0], [0.0], [0.4], [0.0]]))
    assert np.array_equal(cm.c_cont, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    assert np.allclose(cm.meas_noise_intensity, 1e-5 * np.eye(2))


def test_build_lifted_identity_at_p1(benchmark_model):
    lift = sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, 1)
    assert np.array_equal(lift.b_lift, benchmark_model.b)
    assert np.array_equal(lift.d_lift, np.eye(4))
    assert np.allclose(lift.q_lift, BENCH.q_weight)
    assert np.allclose(lift.r_lift, BENCH.r_weight)
    assert np.all(lift.s_lift == 0.0)
    assert lift.d_avg == 0.0


def test_build_lifted_scalar_hand_values():
    dm = sr.DiscreteModel(a=[[2.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]])
    lift = sr.build_lifted(dm, [[1.0]], [[1.0]], 2)
    assert abs(lift.b_lift[0, 0] - 2.0) < 1e-14
    assert abs(lift.q_lift[0, 0] - 5.0) < 1e-14
    assert abs(lift.s_lift[0, 0] - 2.0) < 1e-14
    assert abs(lift.r_lift[0, 0] - 2.0) < 1e-14
    assert abs(lift.d_avg - 1.0) < 1e-14
    # brute-force two-step cost expansion: q x0^2 + q x1^2 + r u^2 with
    # x1 = a x0 + b u must equal the lifted quadratic form
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0, u = rng.standard_normal(2)
        direct = x0**2 + (2.0 * x0 + u) ** 2 + u**2
        lifted = (x0 * lift.q_lift[0, 0] * x0 + 2 * x0 * lift.s_lift[0, 0] * u
                  + u * lift.r_lift[0, 0] * u)
        assert abs(direct - lifted) < 1e-12


def test_lifted_step_equivalence(rng):
    dm = random_model(rng)
    for p in range(1, 9):
        lift = sr.build_lifted(dm, np.eye(3), np.eye(1), p)
        x0 = rng.standard_normal(3)
        u0 = rng.standard_normal(1)
        noise = rng.standard_normal((p, 3))
        x = x0.copy()
        for i in range(p):
            u = u0 if i == 0 else np.zeros(1)
            x = dm.a @ x + dm.b @ u + noise[i]
        lifted = lift.a_lift @ x0 + lift.b_lift @ u0 + lift.d_lift @ noise.reshape(-1)
        assert np.linalg.norm(x - lifted) < 1e-10 * max(1.0, np.linalg.norm(x))


def test_d_avg_monotone_in_p(benchmark_model):
    values = [
        sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, p).d_avg
        for p in range(1, 9)
    ]
    assert values[0] == 0.0
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_lifted_symmetry_and_definiteness(rng):
    dm = random_model(rng)
    q = np.eye(3) * 0.5
    r = np.array([[0.3]])
    for p in (2, 5):
        lift = sr.build_lifted(dm, q, r, p)
        for m in (lift.q_lift, lift.r_lift):
            assert np.linalg.norm(m - m.T, "fro") <= 1e-12 * max(1.0, np.linalg.norm(m, "fro"))
        assert np.linalg.eigvalsh(lift.r_lift).min() > 0.0
        expected_block = np.kron(np.eye(p), dm.proc_cov)
        assert np.array_equal(lift.proc_cov_lift, expected_block)


def test_model_validation_errors():
    with pytest.raises(ValueError):
        sr.DiscreteModel(a=[[1.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[-1.0]],
                         meas_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]])
    with pytest.raises(ValueError):
        sr.DiscreteModel(a=[[1.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                         meas_cov=[[-1.0]], init_mean=[0.0], init_cov=[[1.0]])
    with pytest.raises(ValueError):
        sr.DiscreteModel(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)),
                         proc_cov=np.eye(2), meas_cov=[[1.0]],
                         init_mean=[0.0], init_cov=np.eye(2))
    with pytest.raises(ValueError):
        sr.discretize(scalar_continuous(), 0.0)


def test_build_lifted_rejects_bad_params(benchmark_model):
    with pytest.raises(ValueError):
        sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, 0)
