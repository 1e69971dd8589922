import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import sparseroll as sr
from sparseroll.plant import _expm

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


def norm1(m):
    return float(np.abs(m).sum(axis=0).max())


def expm_bound(m):
    # 1e-13 relative in the 1-norm up to ||M||_1 = 1. Above it the bound grows like
    # ||M||_1^2: two backward-stable exponentials differ by about the unit roundoff times
    # the condition number of e^M, which grows with ||M|| (faster than linearly for
    # non-normal M), and each squaring doubles the error of the scaled one. The benchmark's
    # augmented matrices have ||M||_1 = 3.95 and 3.96 (1.2e-16 from scipy measured)
    return 1e-13 * max(1.0, norm1(m)) ** 2


def expm_error(m, reference):
    return norm1(_expm(m) - reference) / norm1(reference)


def test_expm_closed_forms(rng):
    assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))
    cases = [np.diag(d) for d in ([0.01, -0.02], [-3.0, 0.2, 1.5], [20.0, -20.0])]
    expected = [np.diag(np.exp(np.diag(m))) for m in cases]
    for scale in (0.1, 1.0, 3.0):  # nilpotent: the series ends at N^3
        n = np.triu(rng.standard_normal((4, 4)), 1)
        n *= scale / norm1(n)
        cases.append(n)
        expected.append(np.eye(4) + n + n @ n / 2 + n @ n @ n / 6)
    for w in (0.01, 0.5, 1.0, 3.0, 10.0, 30.0):  # rotation generator
        cases.append(np.array([[0.0, -w], [w, 0.0]]))
        expected.append(np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]]))
    for lam in (-5.0, -0.3, 0.4, 2.0, 10.0):  # Jordan block
        cases.append(np.array([[lam, 1.0], [0.0, lam]]))
        expected.append(np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]]))
    for m, ref in zip(cases, expected):
        assert expm_error(m, ref) <= expm_bound(m), m
    # stiff: each of the s = 11 squarings doubles the relative error of e^(M/2^s), so here
    # the error grows like u ||M||_1 / theta_13; 1.6e-13 measured
    stiff = np.diag([-1e4, -1.0, 0.5])
    assert expm_error(stiff, np.diag(np.exp(np.diag(stiff)))) <= 1e-16 * norm1(stiff)


def test_expm_matches_scipy_on_random_matrices(rng):
    # degree 13 from far below theta_13 = 5.37 to past it, with scaling by up to 2^3
    for n in range(1, 9):
        for norm in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 30.0):
            m = rng.standard_normal((n, n))
            m *= norm / norm1(m)
            assert expm_error(m, expm(m)) <= expm_bound(m), (n, norm)


def test_diverging_discretization_fails_typed():
    # under the suite's error::RuntimeWarning an overflow warning would be the error raised;
    # e^1000 overflows in the self-check, e^400 in the process-noise covariance product
    for lam in (1000.0, 400.0):
        with pytest.raises(sr.IllConditionedError):
            sr.discretize(scalar_continuous(lam), 1.0)
    good = dict(a=[[1.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]], meas_cov=[[1.0]],
                init_mean=[0.0], init_cov=[[1.0]])
    for name in ("a", "b", "c", "proc_cov", "meas_cov", "init_cov"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite"):
                sr.DiscreteModel(**{**good, name: [[bad]]})


def test_input_checks_of_huge_matrices_do_not_overflow():
    # the symmetry and definiteness checks scale a matrix to entries <= 1 before any norm;
    # under the suite's error::RuntimeWarning an overflow warning would be the error raised
    dm = sr.discretize(scalar_continuous(300.0), 1.0)  # proc_cov about 6e257
    assert np.isfinite(dm.proc_cov).all() and dm.proc_cov[0, 0] > 1e257
    cfg = sr.ExperimentConfig(q_weight=np.diag([1e200, 1.0, 1.0, 1.0]))
    assert cfg.q_weight[0, 0] == 1e200
    assert np.isfinite(sr.RiccatiProblem([[1.0]], [[1.0]], [[1e300]], [[0.0]], [[1.0]])
                       .state_weight).all()
    # the same relative tests at any scale
    for scale in (1.0, 1e300):
        asym = scale * np.array([[1.0, 0.0], [1e-6, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            sr.DiscreteModel(a=np.eye(2), b=np.ones((2, 1)), c=np.eye(2), proc_cov=np.eye(2),
                             meas_cov=np.eye(2), init_mean=[0.0, 0.0], init_cov=asym)
        with pytest.raises(sr.ConfigError, match="positive semidefinite"):
            sr.ExperimentConfig(q_weight=np.diag([scale, 1.0, 1.0, -1e-6 * scale]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            sr.RiccatiProblem([[1.0]], [[1.0]], [[-scale]], [[0.0]], [[1.0]])


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
    assert np.array_equal(lift.a_lift, benchmark_model.a)
    assert np.array_equal(lift.b_lift, benchmark_model.b)
    assert np.array_equal(lift.noise_cov_lift, benchmark_model.proc_cov)
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
        # the noise of step i reaches the period's end through A^(p-1-i)
        powers = [np.linalg.matrix_power(dm.a, p - 1 - i) for i in range(p)]
        lifted = lift.a_lift @ x0 + lift.b_lift @ u0 + sum(m @ e for m, e in zip(powers, noise))
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
        # the covariance of the lifted noise in its Kronecker form, D (I_p kron W) D'
        d = np.hstack([np.linalg.matrix_power(dm.a, p - 1 - i) for i in range(p)])
        kron_form = d @ np.kron(np.eye(p), dm.proc_cov) @ d.T
        assert np.array_equal(lift.noise_cov_lift, lift.noise_cov_lift.T)
        assert np.allclose(lift.noise_cov_lift, kron_form, rtol=1e-12, atol=1e-14)


def test_build_lifted_memory_independent_of_period(benchmark_model):
    # one pass over the powers: a long period holds a few (n, n) matrices, not (p n)^2 floats
    tracemalloc.start()
    try:
        sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
