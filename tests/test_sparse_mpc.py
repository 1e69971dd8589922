import numpy as np
import pytest

import sparseroll as sr
from sparseroll.exceptions import NonConvergenceError
from sparseroll.simulate import SparseMpcController
from sparseroll.sparse_mpc import ZERO_TOL, admm_factor, mpc_objective, solve_admm

BENCH = sr.ExperimentConfig()  # the benchmark study


@pytest.fixture(scope="module")
def bench_problem(benchmark_model):
    return sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.2)


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


def test_zero_theta_matches_direct_solve(benchmark_model, rng):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.0)
    x = rng.standard_normal(4)
    u_seq, iters = sr.solve_sparse_mpc(prob, x, tol=1e-10)
    direct = np.linalg.solve(prob.quad_matrix, -(prob.lin_matrix @ x))
    assert np.abs(u_seq.reshape(-1) - direct).max() < 1e-8
    assert iters >= 1


def test_large_theta_gives_zero(benchmark_model, rng):
    x = rng.standard_normal(4)
    base = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.0)
    f = base.lin_matrix @ x
    big = float(np.abs(f).max()) * 31.0 + 1.0
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=big)
    u_seq, _ = sr.solve_sparse_mpc(prob, x)
    assert np.all(u_seq == 0.0)


def test_kkt_conditions_on_random_instances(benchmark_model, rng):
    for theta in (0.05, 0.2, 0.6):
        prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                    horizon=30, theta=theta)
        for _ in range(5):
            x = rng.standard_normal(4) * rng.uniform(0.2, 3.0)
            u_seq, _ = sr.solve_sparse_mpc(prob, x, tol=1e-8)
            assert sr.subgradient_residual(prob, u_seq, x) <= 1e-6
            # zero blocks are exact zeros, not small numbers
            norms = np.linalg.norm(u_seq, axis=1)
            assert np.all((norms == 0.0) | (norms > ZERO_TOL))


def _ista_reference(prob, f, n_iter=60_000):
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
        kappa = step * prob.group_weight
        np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
        u = (scale * v).reshape(-1)
    return u


def test_objective_matches_proximal_gradient_reference(benchmark_model, rng):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=10, theta=0.3)
    x = rng.standard_normal(4) * 2.0
    f = prob.lin_matrix @ x
    u_seq, _ = sr.solve_sparse_mpc(prob, x, tol=1e-10)
    ref = _ista_reference(prob, f)
    obj_admm = mpc_objective(prob, u_seq.reshape(-1), f)
    obj_ref = mpc_objective(prob, ref, f)
    assert abs(obj_admm - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
    assert obj_admm <= obj_ref + 1e-9


def test_objective_monotone_after_burn_in(benchmark_model, rng):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.2)
    for _ in range(5):
        x = rng.standard_normal(4) * rng.uniform(0.5, 2.0)
        _, iters, objs = sr.solve_sparse_mpc(prob, x, collect_objective=True)
        objs = np.asarray(objs)
        burn = min(100, len(objs) // 2)
        increases = np.diff(objs[burn:])
        if increases.size:
            assert increases.max() <= 1e-10


def test_warm_start_reuses_iterates(benchmark_model):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.2)
    x = np.array([1.0, -1.0, 0.2, 0.1])
    state = sr.AdmmState(primal=np.zeros(30), auxiliary=np.zeros(30),
                         dual=np.zeros(30), penalty=1.0)
    _, cold_iters = sr.solve_sparse_mpc(prob, x, state=state)
    _, warm_iters = sr.solve_sparse_mpc(prob, x, state=state)
    assert warm_iters <= cold_iters
    assert state.primal_residual < 1e-8 and state.dual_residual < 1e-8


def test_nonconvergence_raises(benchmark_model):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.2)
    with pytest.raises(NonConvergenceError):
        sr.solve_sparse_mpc(prob, np.array([1.0, -1.0, 0.2, 0.1]), max_iter=2)


def _cold(rows, dim):
    return sr.AdmmState(primal=np.zeros((rows, dim)), auxiliary=np.zeros((rows, dim)),
                        dual=np.zeros((rows, dim)), penalty=1.0)


def test_admm_rows_independent_of_batch(bench_problem, rng):
    # a row leaves the batch when it converges; alone or batched it follows the same iterates
    dim = bench_problem.quad_matrix.shape[0]
    factor = admm_factor(bench_problem, 1.0)
    estimates = rng.standard_normal((6, 4)) * np.array([[0.0], [0.05], [0.5], [1.0], [2.0], [4.0]])
    batch = _cold(6, dim)
    for step in range(3):
        # the second and third solves start from shifted warm starts, as in the controller
        start = sr.AdmmState(batch.primal, batch.auxiliary, batch.dual, batch.penalty)
        z, iters = solve_admm(bench_problem, estimates, batch, factor)
        assert len(set(iters.tolist())) > 1
        for row, x in enumerate(estimates):
            alone = sr.AdmmState(start.primal[row:row + 1], start.auxiliary[row:row + 1],
                                 start.dual[row:row + 1], start.penalty)
            z1, iters1 = solve_admm(bench_problem, x[None], alone, factor)
            assert iters1[0] == iters[row]
            assert np.array_equal(z1[0], z[row])
            assert np.array_equal(alone.dual[0], batch.dual[row])
            assert np.array_equal(alone.primal[0], batch.primal[row])
            if step == 0:
                # the public single-instance solver is the batch of one
                u_seq, it = sr.solve_sparse_mpc(bench_problem, x)
                assert it == iters[row] and np.array_equal(u_seq.reshape(-1), z[row])
        batch = batch.shifted(bench_problem.group_size)
        estimates = estimates * 0.9


def test_admm_nonconvergence_names_first_active_row(bench_problem):
    # row 0 (zero estimate) converges at once; row 1 is the first still running at the cap
    dim = bench_problem.quad_matrix.shape[0]
    estimates = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.2, 0.1], [2.0, 0.0, 0.0, 1.0]])
    state = _cold(3, dim)
    with pytest.raises(NonConvergenceError,
                       match=r"in 2 iterations for trial 1 of the batch") as err:
        solve_admm(bench_problem, estimates, state, max_iter=2)
    assert err.value.iterations == 2
    assert np.isfinite(err.value.residual) and err.value.residual > 1e-8
    assert np.all(state.auxiliary == 0.0)


def test_admm_penalty_changes_iterations_not_solution(bench_problem):
    # rho steers the ADMM path; the accepted solution is the same optimum within tol
    x = np.array([1.0, -1.0, 0.2, 0.1])
    tol = 1e-8
    dim = bench_problem.quad_matrix.shape[0]
    solutions, iterations = [], []
    for rho in (1.0, 10.0):
        state = sr.AdmmState(primal=np.zeros(dim), auxiliary=np.zeros(dim),
                             dual=np.zeros(dim), penalty=rho)
        u_seq, iters = sr.solve_sparse_mpc(bench_problem, x, tol=tol, state=state)
        assert sr.subgradient_residual(bench_problem, u_seq, x) <= tol
        solutions.append(u_seq)
        iterations.append(iters)
    assert iterations[0] != iterations[1]
    assert np.abs(solutions[0] - solutions[1]).max() <= tol


def test_config_penalty_reaches_the_solver(benchmark_model):
    # sparse_mpc.penalty is the rho of every solve in a sweep cell
    costs = []
    for rho in (1.0, 10.0):
        cfg = sr.ExperimentConfig(horizon_steps=12, trials=1, seed_base=17,
                                  q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                                  methods=("sparse_mpc",), mpc_penalty=rho)
        (cell,) = sr.theta_sweep(cfg, benchmark_model, [0.2], methods=("sparse_mpc",))
        assert cell.status == "ok"
        costs.append(cell.metrics.avg_control_cost)
    assert costs[0] != costs[1]
    assert abs(costs[0] - costs[1]) <= 1e-6 * costs[0]


def test_controller_step_zero_estimate(benchmark_model, bench_problem, benchmark_steady):
    gain, err_cov, prior = benchmark_steady
    est = sr.EstimatorState(estimate=np.zeros((1, 4)), err_cov=err_cov, gain=gain,
                            prior_cov=prior, step_index=0)
    (u,), (delta,) = SparseMpcController(bench_problem, benchmark_model).decide(est, 0)
    assert delta == 0
    assert np.all(u == 0.0)


def test_controller_step_theta_zero_triggers(benchmark_model, benchmark_steady, rng):
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.0)
    gain, err_cov, prior = benchmark_steady
    est = sr.EstimatorState(estimate=rng.standard_normal((1, 4)), err_cov=err_cov,
                            gain=gain, prior_cov=prior, step_index=0)
    (u,), (delta,) = SparseMpcController(prob, benchmark_model).decide(est, 0)
    assert delta == 1
    assert np.linalg.norm(u) > ZERO_TOL


def test_closed_loop_actuation_rate_interior(benchmark_model):
    cfg = sr.ExperimentConfig(horizon_steps=600, trials=1, seed_base=17,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("sparse_mpc",))
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                horizon=30, theta=0.2)
    trace = sr.simulate_trial(cfg, benchmark_model, SparseMpcController(prob, benchmark_model), 0)
    rate = trace.actuation_rate
    assert 0.0 < rate < 1.0
    # trigger/input consistency on the recorded trace
    zero_rows = trace.triggers == 0
    assert np.all(trace.inputs[zero_rows] == 0.0)
