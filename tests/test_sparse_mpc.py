from dataclasses import replace

import numpy as np
import pytest

import sparseroll as sr
from sparseroll import simulate, verify
from sparseroll.exceptions import NonConvergenceError
from sparseroll.simulate import SparseMpcController
from sparseroll.sparse_mpc import ZERO_TOL, admm_factor, kkt_residuals, solve_admm

BENCH = sr.ExperimentConfig()  # the benchmark study
THETA = 0.2  # group weight of the benchmark problem's solves


def mpc_objective(prob, u_flat, f, theta):
    """The sparse-MPC objective 0.5 U' H U + f' U + theta sum_i ||u_i||_2 at one stacked U."""
    groups = u_flat.reshape(prob.horizon, prob.group_size)
    penalty = theta * np.linalg.norm(groups, axis=1).sum()
    return float(0.5 * u_flat @ prob.quad_matrix @ u_flat + f @ u_flat + penalty)


@pytest.fixture(scope="module")
def bench_problem(benchmark_model):
    return sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, horizon=30)


def _cold(prob, rows):
    zeros = np.zeros((rows, prob.quad_matrix.shape[0]))
    return zeros, zeros


def _solve(prob, x, theta, tol=1e-8, rho=1.0, warm=None, max_iter=10_000, on_iterate=None):
    """One instance as the batch of one: (z, w, iterations) of its row."""
    warm = _cold(prob, 1) if warm is None else tuple(v[None] for v in warm)
    z, w, iters = solve_admm(prob, np.asarray(x, dtype=float)[None], theta, warm,
                             admm_factor(prob, rho), tol, max_iter, on_iterate)
    return z[0], w[0], int(iters[0])


def _kkt(prob, z, x, theta):
    return float(kkt_residuals(prob, z[None], (prob.lin_matrix @ x)[None], theta)[0])


def test_block_soft_threshold_examples():
    assert np.array_equal(sr.block_soft_threshold([3.0, 4.0], 5.0), np.zeros(2))
    assert np.allclose(sr.block_soft_threshold([3.0, 4.0], 2.5), [1.5, 2.0])
    assert np.array_equal(sr.block_soft_threshold(np.zeros(3), 7.0), np.zeros(3))
    shrunk = sr.block_soft_threshold([3.0, 4.0], 6.0)
    assert shrunk.dtype == float and np.all(shrunk == 0.0)
    with pytest.raises(ValueError):
        sr.block_soft_threshold([1.0], -0.1)

    # a (2, 3, 2) batch shrinks each last-axis block on its own
    v = np.array([[[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]],
                  [[-6.0, 8.0], [1.2, -1.6], [0.0, 5.0]]])
    kappa = 1.0
    out = sr.block_soft_threshold(v, kappa)
    assert out.shape == v.shape
    for block, got in zip(v.reshape(-1, 2), out.reshape(-1, 2)):
        norm = float(np.linalg.norm(block))
        if norm <= kappa:
            assert np.array_equal(got, np.zeros(2))
        else:
            assert np.allclose(got, (1.0 - kappa / norm) * block, rtol=1e-15, atol=0.0)
    assert np.array_equal(out[0, 1], np.zeros(2)) and np.array_equal(out[0, 2], np.zeros(2))
    assert np.array_equal(sr.block_soft_threshold(v, 0.0), v)


def test_terminal_weight_defaults_to_cost_to_go(benchmark_model, bench_problem):
    prob = sr.RiccatiProblem(benchmark_model.a, benchmark_model.b, BENCH.q_weight,
                             np.zeros((4, 1)), BENCH.r_weight, discount=1.0)
    expected = sr.solve_dare(prob).cost_matrix
    assert np.allclose(bench_problem.terminal_weight, expected, rtol=1e-10)


def test_prediction_matrices_consistent(benchmark_model, bench_problem, rng):
    # stacked maps must reproduce a direct rollout of the prediction model
    dm = benchmark_model
    x0 = rng.standard_normal(4)
    u = rng.standard_normal((30, 1))
    states = []
    x = x0
    for i in range(30):
        x = dm.a @ x + dm.b @ u[i]
        states.append(x)
    stacked = bench_problem.phi @ x0 + bench_problem.psi @ u.reshape(-1)
    assert np.allclose(stacked, np.concatenate(states), rtol=1e-12)


def test_zero_theta_matches_direct_solve(bench_problem, rng):
    x = rng.standard_normal(4)
    z, _, iters = _solve(bench_problem, x, 0.0, tol=1e-10)
    direct = np.linalg.solve(bench_problem.quad_matrix, -(bench_problem.lin_matrix @ x))
    assert np.abs(z - direct).max() < 1e-8
    assert iters >= 1


def test_large_theta_gives_zero(bench_problem, rng):
    x = rng.standard_normal(4)
    f = bench_problem.lin_matrix @ x
    big = float(np.abs(f).max()) * 31.0 + 1.0
    z, _, _ = _solve(bench_problem, x, big)
    assert np.all(z == 0.0)


def test_kkt_conditions_on_random_instances(bench_problem, rng):
    for theta in (0.05, 0.2, 0.6):
        for _ in range(5):
            x = rng.standard_normal(4) * rng.uniform(0.2, 3.0)
            z, _, _ = _solve(bench_problem, x, theta, tol=1e-8)
            assert _kkt(bench_problem, z, x, theta) <= 1e-6
            # zero blocks are exact zeros, not small numbers
            norms = np.linalg.norm(z.reshape(30, 1), axis=1)
            assert np.all((norms == 0.0) | (norms > ZERO_TOL))


def _ista_reference(prob, f, theta, n_iter=60_000):
    # slow independent reference: proximal gradient with fixed step 1/L
    lip = float(np.linalg.eigvalsh(prob.quad_matrix).max())
    step = 1.0 / lip
    u = np.zeros(prob.quad_matrix.shape[0])
    hgroups, q = prob.horizon, prob.group_size
    for _ in range(n_iter):
        g = prob.quad_matrix @ u + f
        v = (u - step * g).reshape(hgroups, q)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        scale = np.zeros_like(norms)
        kappa = step * theta
        np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
        u = (scale * v).reshape(-1)
    return u


def test_objective_matches_proximal_gradient_reference(benchmark_model, rng):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, horizon=10)
    theta = 0.3
    x = rng.standard_normal(4) * 2.0
    f = prob.lin_matrix @ x
    z, _, _ = _solve(prob, x, theta, tol=1e-10)
    ref = _ista_reference(prob, f, theta)
    obj_admm = mpc_objective(prob, z, f, theta)
    obj_ref = mpc_objective(prob, ref, f, theta)
    assert abs(obj_admm - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
    assert obj_admm <= obj_ref + 1e-9


def test_objective_monotone_after_burn_in(bench_problem, rng):
    prob = bench_problem
    for _ in range(5):
        x = rng.standard_normal(4) * rng.uniform(0.5, 2.0)
        objs = []
        _, _, iters = _solve(prob, x, THETA, on_iterate=lambda z, f: objs.append(
            mpc_objective(prob, z[0], f[0], THETA)))
        assert len(objs) == iters
        objs = np.asarray(objs)
        burn = min(100, len(objs) // 2)
        increases = np.diff(objs[burn:])
        if increases.size:
            assert increases.max() <= 1e-10


def test_warm_start_reuses_iterates(bench_problem):
    x = np.array([1.0, -1.0, 0.2, 0.1])
    z, w, cold_iters = _solve(bench_problem, x, THETA)
    z_warm, _, warm_iters = _solve(bench_problem, x, THETA, warm=(z, w))
    assert warm_iters <= cold_iters
    assert _kkt(bench_problem, z_warm, x, THETA) <= 1e-8
    assert np.abs(z_warm - z).max() <= 1e-8


def test_nonconvergence_raises(bench_problem):
    with pytest.raises(NonConvergenceError):
        _solve(bench_problem, np.array([1.0, -1.0, 0.2, 0.1]), THETA, max_iter=2)


def _shifted(v, q):
    return np.concatenate([v[:, q:], np.zeros((len(v), q))], axis=1)


def test_admm_rows_independent_of_batch(bench_problem, rng):
    # a row leaves the batch when it converges; alone or batched it follows the same iterates
    factor = admm_factor(bench_problem, 1.0)
    estimates = rng.standard_normal((6, 4)) * np.array([[0.0], [0.05], [0.5], [1.0], [2.0], [4.0]])
    warm = _cold(bench_problem, 6)
    for _ in range(3):
        # the second and third solves start from shifted warm starts, as in the controller
        z, w, iters = solve_admm(bench_problem, estimates, THETA, warm, factor, 1e-8, 10_000)
        assert len(set(iters.tolist())) > 1
        for row, x in enumerate(estimates):
            alone = tuple(v[row:row + 1] for v in warm)
            z1, w1, iters1 = solve_admm(bench_problem, x[None], THETA, alone, factor, 1e-8,
                                        10_000)
            assert iters1[0] == iters[row]
            assert np.array_equal(z1[0], z[row])
            assert np.array_equal(w1[0], w[row])
        warm = tuple(_shifted(v, bench_problem.group_size) for v in (z, w))
        estimates = estimates * 0.9


def test_admm_per_row_theta_matches_scalar_solves(bench_problem, rng):
    # each row with its own theta follows the iterates of its scalar-theta solve
    factor, thetas = admm_factor(bench_problem, 1.0), np.array([0.0, 0.05, 0.2, 0.2, 1.0])
    estimates = rng.standard_normal((5, 4))
    f = estimates @ bench_problem.lin_matrix.T
    z, w, iters = solve_admm(bench_problem, estimates, thetas, _cold(bench_problem, 5), factor,
                             1e-8, 10_000)
    for row, theta in enumerate(thetas):
        z1, w1, iters1 = solve_admm(bench_problem, estimates[row:row + 1], theta,
                                    _cold(bench_problem, 1), factor, 1e-8, 10_000)
        assert iters1[0] == iters[row]
        assert np.array_equal(z1[0], z[row]) and np.array_equal(w1[0], w[row])
        assert kkt_residuals(bench_problem, z1, f[row:row + 1], theta)[0] == \
            kkt_residuals(bench_problem, z, f, thetas)[row]


def test_admm_rejects_negative_theta(bench_problem):
    # theta is checked at the entry of each solve, a scalar and every row of a (T,) theta
    factor, estimates = admm_factor(bench_problem, 1.0), np.ones((2, 4))
    for theta in (-0.1, np.array([0.2, -0.1])):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            solve_admm(bench_problem, estimates, theta, _cold(bench_problem, 2), factor, 1e-8, 10)


def test_admm_nonconvergence_names_first_active_row(bench_problem):
    # row 0 (zero estimate) converges at once; row 1 is the first still running at the cap
    estimates = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.2, 0.1], [2.0, 0.0, 0.0, 1.0]])
    warm = _cold(bench_problem, 3)
    with pytest.raises(NonConvergenceError,
                       match=r"in 2 iterations for trial 1 of the batch") as err:
        solve_admm(bench_problem, estimates, THETA, warm, admm_factor(bench_problem, 1.0),
                   1e-8, 2)
    assert err.value.iterations == 2
    assert np.isfinite(err.value.residual) and err.value.residual > 1e-8
    assert all(np.all(v == 0.0) for v in warm)


def test_admm_penalty_changes_iterations_not_solution(bench_problem):
    # rho steers the ADMM path; the accepted solution is the same optimum within tol
    x = np.array([1.0, -1.0, 0.2, 0.1])
    tol = 1e-8
    solutions, iterations = [], []
    for rho in (1.0, 10.0):
        z, _, iters = _solve(bench_problem, x, THETA, tol=tol, rho=rho)
        assert _kkt(bench_problem, z, x, THETA) <= tol
        solutions.append(z)
        iterations.append(iters)
    assert iterations[0] != iterations[1]
    assert np.abs(solutions[0] - solutions[1]).max() <= tol


def test_config_penalty_reaches_the_solver(benchmark_model):
    # sparse_mpc.penalty is the rho of every solve in a sweep cell
    costs = []
    for rho in (1.0, 10.0):
        cfg = sr.ExperimentConfig(horizon_steps=12, trials=1, seed_base=17,
                                  q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                                  methods=("sparse_mpc",), mpc_penalty=rho, theta_grid=(0.2,))
        (cell,) = sr.theta_sweep(cfg, benchmark_model)
        assert cell.status == "ok"
        costs.append(cell.metrics.avg_control_cost)
    assert costs[0] != costs[1]
    assert abs(costs[0] - costs[1]) <= 1e-6 * costs[0]


def test_controller_step_zero_estimate(benchmark_model, bench_problem):
    est = np.zeros((1, 4))
    controller = SparseMpcController(bench_problem, THETA, admm_factor(bench_problem, 1.0),
                                     1e-8, 10_000)
    (u,), (delta,) = controller.decide(est, 0)
    assert delta == 0
    assert np.all(u == 0.0)


def test_controller_step_theta_zero_triggers(bench_problem, rng):
    est = rng.standard_normal((1, 4))
    controller = SparseMpcController(bench_problem, 0.0, admm_factor(bench_problem, 1.0),
                                     1e-8, 10_000)
    (u,), (delta,) = controller.decide(est, 0)
    assert delta == 1
    assert np.linalg.norm(u) > ZERO_TOL


def test_closed_loop_actuation_rate_interior(benchmark_model, bench_problem):
    cfg = sr.ExperimentConfig(horizon_steps=600, trials=1, seed_base=17,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("sparse_mpc",))
    controller = SparseMpcController(bench_problem, THETA, admm_factor(bench_problem, 1.0),
                                     1e-8, 10_000)
    trace = sr.simulate_trial(cfg, benchmark_model, controller, 0)
    rate = trace.actuation_rate
    assert 0.0 < rate < 1.0
    # trigger/input consistency on the recorded trace
    zero_rows = trace.triggers == 0
    assert np.all(trace.inputs[zero_rows] == 0.0)


def test_kkt_check_builds_one_problem_and_factor(monkeypatch):
    # theta is a solve argument: the design's one problem and one factor, at the configured
    # penalty, serve every theta of the check
    problems, factors, solves = [], [], []
    build, factorise, solve = simulate.build_mpc_problem, simulate.admm_factor, verify.solve_admm
    monkeypatch.setattr(simulate, "build_mpc_problem",
                        lambda *a, **kw: problems.append(a[3]) or build(*a, **kw))
    monkeypatch.setattr(simulate, "admm_factor",
                        lambda *a, **kw: factors.append(a[1]) or factorise(*a, **kw))
    monkeypatch.setattr(verify, "solve_admm",
                        lambda *a, **kw: solves.append(a[4][1]) or solve(*a, **kw))
    cfg = replace(BENCH, mpc_penalty=2.0)
    dm = cfg.build_model()
    check = verify._mpc_kkt_check(cfg, dm, sr.design(cfg, dm, ("sparse_mpc",)), (0.05, 0.2, 0.4))
    assert check.passed, check.detail
    assert problems == [BENCH.mpc_horizon] and factors == [2.0] and solves == [2.0, 2.0]
