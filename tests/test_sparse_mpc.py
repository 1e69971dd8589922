from dataclasses import replace

import numpy as np
import pytest

import sparseroll as sr
from sparseroll import simulate, verify
from sparseroll.exceptions import NonConvergenceError
from sparseroll.riccati import solve_dares
from sparseroll.simulate import SparseMpcController
from sparseroll.sparse_mpc import RELAX, ZERO_TOL, _shrink, admm_factor, kkt_residuals, solve_admm

BENCH = sr.ExperimentConfig()  # the benchmark study
THETA = 0.2  # group weight of the benchmark problem's solves


def mpc_objective(prob, u_flat, f, theta):
    """The sparse-MPC objective 0.5 U' H U + f' U + theta sum_i ||u_i||_2 at one stacked U."""
    groups = u_flat.reshape(prob.horizon, prob.group_size)
    penalty = theta * np.linalg.norm(groups, axis=1).sum()
    return float(0.5 * u_flat @ prob.quad_matrix @ u_flat + f @ u_flat + penalty)


@pytest.fixture(scope="module")
def bench_problem(benchmark_model, mpc_problem):
    return mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, horizon=30)


def _cold(prob, rows):
    zeros = np.zeros((rows, prob.quad_matrix.shape[0]))
    return zeros, zeros


def _solve(prob, x, theta, tol=1e-8, rho=1.0, warm=None, max_iter=10_000):
    """One instance as the batch of one: (z, w, iterations) of its row."""
    warm = _cold(prob, 1) if warm is None else tuple(v[None] for v in warm)
    z, w, iters = solve_admm(prob, np.asarray(x, dtype=float)[None], theta, warm,
                             admm_factor(prob, rho), tol, max_iter)
    return z[0], w[0], int(iters[0])


def _kkt(prob, z, x, theta):
    return float(kkt_residuals(prob, z[None], (prob.lin_matrix @ x)[None], theta)[0])


def test_block_soft_threshold_examples():
    assert np.array_equal(_shrink(np.array([3.0, 4.0]), 5.0), np.zeros(2))
    assert np.allclose(_shrink(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])
    assert np.array_equal(_shrink(np.zeros(3), 7.0), np.zeros(3))
    shrunk = _shrink(np.array([3.0, 4.0]), 6.0)
    assert shrunk.dtype == float and np.all(shrunk == 0.0)

    # a (2, 3, 2) batch shrinks each last-axis block on its own
    v = np.array([[[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]],
                  [[-6.0, 8.0], [1.2, -1.6], [0.0, 5.0]]])
    kappa = 1.0
    out = _shrink(v, kappa)
    assert out.shape == v.shape
    for block, got in zip(v.reshape(-1, 2), out.reshape(-1, 2)):
        norm = float(np.linalg.norm(block))
        if norm <= kappa:
            assert np.array_equal(got, np.zeros(2))
        else:
            assert np.allclose(got, (1.0 - kappa / norm) * block, rtol=1e-15, atol=0.0)
    assert np.array_equal(out[0, 1], np.zeros(2)) and np.array_equal(out[0, 2], np.zeros(2))
    assert np.array_equal(_shrink(v, 0.0), v)


def test_terminal_weight_defaults_to_cost_to_go(benchmark_model, bench_problem):
    prob = sr.RiccatiProblem(benchmark_model.a, benchmark_model.b, BENCH.q_weight,
                             np.zeros((4, 1)), BENCH.r_weight)
    expected = solve_dares([prob])[0].cost_matrix
    assert np.allclose(bench_problem.terminal_weight, expected, rtol=1e-10)


def test_prediction_matrices_consistent(benchmark_model, bench_problem, rng):
    # the condensed cost is a direct rollout's: J(U) - J(0) = 0.5 U'HU + (lin_matrix x0)'U
    dm, prob = benchmark_model, bench_problem

    def rollout_cost(u):
        x, cost = x0, 0.0
        for i in range(30):
            x = dm.a @ x + dm.b @ u[i]
            cost += x @ (BENCH.q_weight if i < 29 else prob.terminal_weight) @ x
            cost += u[i] @ BENCH.r_weight @ u[i]
        return cost

    x0 = rng.standard_normal(4)
    u = rng.standard_normal((30, 1))
    condensed = 0.5 * u.ravel() @ prob.quad_matrix @ u.ravel() + (prob.lin_matrix @ x0) @ u.ravel()
    assert np.isclose(rollout_cost(u) - rollout_cost(np.zeros((30, 1))), condensed,
                      rtol=1e-12, atol=0.0)


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


def test_objective_matches_proximal_gradient_reference(benchmark_model, mpc_problem, rng):
    prob = mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, horizon=10)
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
    # the objective along the reference loop's iterates, which are solve_admm's to the byte
    # (test_admm_matches_reference_loop_bit_for_bit)
    prob = bench_problem
    for _ in range(5):
        x = rng.standard_normal(4) * rng.uniform(0.5, 2.0)
        objs = []
        _, _, iters = _reference_admm(prob, x[None], THETA, _cold(prob, 1), admm_factor(prob, 1.0),
                                      1e-8, 10_000, lambda z, f: objs.append(
                                          mpc_objective(prob, z[0], f[0], THETA)))
        assert len(objs) == iters[0] == _solve(prob, x, THETA)[2]
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

    # batches of many widths, drawn from one pool at two offsets, against each row alone
    pool = rng.standard_normal((40, 4)) * np.geomspace(0.01, 4.0, 40)[:, None]
    alone = [solve_admm(bench_problem, x[None], THETA, _cold(bench_problem, 1), factor, 1e-8,
                        10_000) for x in pool]
    for offset in (0, 7):
        for width in (1, 2, 3, 4, 5, 8, 16, 33):
            z, w, iters = solve_admm(bench_problem, pool[offset:offset + width], THETA,
                                     _cold(bench_problem, width), factor, 1e-8, 10_000)
            for i in range(width):
                z1, w1, iters1 = alone[offset + i]
                assert z[i].tobytes() == z1[0].tobytes() and w[i].tobytes() == w1[0].tobytes()
                assert iters[i] == iters1[0]


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


def _masked_shrink(v, kappa):
    """The block shrink with a masked divide: (norm - kappa) / norm where norm > kappa, else 0."""
    norms = np.sqrt(np.add.reduce(v * v, axis=-1))[..., None]
    scale = np.zeros_like(norms)
    np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
    return scale * v


def _reference_admm(prob, estimates, theta, warm, factor, tol, max_iter, on_iterate=None):
    """Reference for solve_admm: the lockstep loop with every residual of every active row."""
    row_norms = lambda v: np.sqrt(np.add.reduce(v * v, axis=-1))  # noqa: E731
    f = np.einsum("...j,ij->...i", np.asarray(estimates, dtype=float), prob.lin_matrix)
    inverse, rho = factor
    n_rows, dim = f.shape
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_rows,))
    kappa = (theta / rho)[:, None, None]
    blocks = (-1, prob.horizon, prob.group_size)
    z_out, w_out = np.empty((n_rows, dim)), np.empty((n_rows, dim))
    iterations = np.zeros(n_rows, dtype=int)
    rows = np.arange(n_rows)
    z, w = warm
    for it in range(1, max_iter + 1):
        u = np.einsum("...j,ij->...i", rho * (z - w) - f, inverse)
        u_relaxed = RELAX * u + (1.0 - RELAX) * z
        v = (u_relaxed + w).reshape(blocks)
        z_old, z = z, _masked_shrink(v, kappa).reshape(len(rows), dim)
        w = w + u_relaxed - z
        primal_res = row_norms(u - z)
        dual_res = rho * row_norms(z - z_old)
        if on_iterate is not None:
            on_iterate(z, f)
        done = (primal_res < tol) & (dual_res < tol)
        if not done.any():
            continue
        done[done] = kkt_residuals(prob, z[done], f[done], theta[done]) <= tol
        if not done.any():
            continue
        finished = rows[done]
        z_out[finished], w_out[finished] = z[done], w[done]
        iterations[finished] = it
        keep = ~done
        rows, f, z, w = rows[keep], f[keep], z[keep], w[keep]
        theta, kappa = theta[keep], kappa[keep]
        if not rows.size:
            break
    else:
        raise NonConvergenceError(
            f"ADMM did not converge in {max_iter} iterations for trial {rows[0]} of the batch "
            f"(primal {primal_res[0]:.3e}, dual {dual_res[0]:.3e})",
            residual=float(max(primal_res[0], dual_res[0])),
            iterations=max_iter,
        )
    return z_out, w_out, iterations


def test_admm_matches_reference_loop_bit_for_bit(bench_problem, rng):
    # the solutions, duals and counts of every row equal the reference loop's bytes
    factor = admm_factor(bench_problem, 1.0)
    estimates = rng.standard_normal((6, 4)) * np.array([[0.0], [0.05], [0.5], [1.0], [2.0], [4.0]])
    for theta in (np.array([0.0, 0.02, 0.2, 0.0, 0.4, 1.0]), THETA):
        warm = _cold(bench_problem, 6)
        for _ in range(3):
            # a cold start, then two shifted warm starts, as in the controller
            z, w, iters = solve_admm(bench_problem, estimates, theta, warm, factor, 1e-8, 10_000)
            z0, w0, iters0 = _reference_admm(bench_problem, estimates, theta, warm, factor,
                                             1e-8, 10_000)
            assert len(set(iters.tolist())) > 1
            assert iters.tobytes() == iters0.tobytes()
            assert z.tobytes() == z0.tobytes() and w.tobytes() == w0.tobytes()
            warm = tuple(_shifted(v, bench_problem.group_size) for v in (z, w))
        estimates = estimates * 0.9


def test_admm_nonconvergence_error_matches_reference_loop(bench_problem):
    estimates = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.2, 0.1], [2.0, 0.0, 0.0, 1.0]])
    thetas = np.array([THETA, 0.0, 0.4])
    args = (estimates, thetas, _cold(bench_problem, 3), admm_factor(bench_problem, 1.0), 1e-8, 2)
    with pytest.raises(NonConvergenceError) as err:
        solve_admm(bench_problem, *args)
    with pytest.raises(NonConvergenceError) as expected:
        _reference_admm(bench_problem, *args)
    assert str(err.value) == str(expected.value)
    assert err.value.residual == expected.value.residual
    assert err.value.iterations == expected.value.iterations == 2


def test_admm_nonconvergence_reports_the_named_row(bench_problem):
    # a row that converges at the cap leaves the batch; the error's residuals are those of the
    # row it names, the same as when that row is solved alone
    factor = admm_factor(bench_problem, 1.0)
    estimates = np.array([[0.1, -0.1, 0.02, 0.01], [2.0, 0.0, 0.0, 1.0]])
    _, _, iters = solve_admm(bench_problem, estimates, THETA, _cold(bench_problem, 2), factor,
                             1e-8, 10_000)
    assert iters[0] < iters[1]
    with pytest.raises(NonConvergenceError, match="for trial 1 of the batch") as batch:
        solve_admm(bench_problem, estimates, THETA, _cold(bench_problem, 2), factor, 1e-8,
                   int(iters[0]))
    with pytest.raises(NonConvergenceError, match="for trial 0 of the batch") as alone:
        solve_admm(bench_problem, estimates[1:], THETA, _cold(bench_problem, 1), factor, 1e-8,
                   int(iters[0]))
    assert batch.value.residual == alone.value.residual > 1e-8
    assert str(batch.value).split("(")[1] == str(alone.value).split("(")[1]


def test_admm_empty_batch(bench_problem):
    z, w, iters = solve_admm(bench_problem, np.zeros((0, 4)), THETA, _cold(bench_problem, 0),
                             admm_factor(bench_problem, 1.0), 1e-8, 50)
    dim = bench_problem.horizon * bench_problem.group_size
    assert z.shape == w.shape == (0, dim) and iters.shape == (0,)


@pytest.mark.parametrize("q", [1, 2])
def test_shrink_matches_masked_form_on_edge_blocks(q, rng):
    # zero and signed-zero blocks, norms at kappa, subnormal, overflowing and NaN blocks: the
    # same bits as the masked divide, signed zeros included, and an overflowed block stays NaN
    tiny, huge = 5e-324, 1e300
    edge = [np.full(q, 0.0), np.full(q, -0.0), np.array([-0.0, 0.0][:q]), np.full(q, 2.0),
            np.array([1.2, -1.6][:q]), np.full(q, tiny), np.array([-tiny, 3 * tiny][:q]),
            np.full(q, huge), np.array([-huge, 1.0][:q]), np.full(q, np.nan),
            np.array([np.nan, 0.0][:q]), np.array([-1e-310, 0.0][:q])]
    blocks = np.concatenate([np.stack(edge), rng.standard_normal((4, q))])
    v = np.stack([blocks, -blocks, blocks * 1e-160])
    at_norm = float(np.sqrt(np.add.reduce(np.full(q, 2.0) ** 2)))  # norms == kappa
    kappas = [0.0, -0.0, at_norm, 1.0, np.inf, np.array([[[0.0]], [[at_norm]], [[0.3]]])]
    with np.errstate(over="ignore", invalid="ignore"):
        for kappa in kappas:
            got = _shrink(v, kappa)
            assert got.tobytes() == _masked_shrink(v, kappa).tobytes()
            assert np.isnan(got[:2, 7]).all() or np.isinf(kappa)


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


def test_config_penalty_reaches_the_solver():
    # sparse_mpc.penalty is the rho of every solve in a sweep cell
    costs = []
    for rho in (1.0, 10.0):
        cfg = sr.ExperimentConfig(horizon_steps=12, trials=1, seed_base=17,
                                  q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                                  methods=("sparse_mpc",), mpc_penalty=rho, theta_grid=(0.2,))
        (cell,) = sr.theta_sweep(cfg)
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


def test_closed_loop_actuation_rate_interior(benchmark_model, bench_problem, record):
    cfg = sr.ExperimentConfig(horizon_steps=600, trials=1, seed_base=17,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("sparse_mpc",))
    controller = SparseMpcController(bench_problem, THETA, admm_factor(bench_problem, 1.0),
                                     1e-8, 10_000)
    rec = record(controller)
    _, (rate,), _ = sr.simulate_trials(cfg, benchmark_model, rec, [0],
                                       sr.steady_kalman(benchmark_model))
    assert 0.0 < rate < 1.0
    assert rate == rec.triggers.mean()
    # trigger/input consistency on the recorded steps
    zero_rows = rec.triggers == 0
    assert np.all(rec.inputs[zero_rows] == 0.0)


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
    check = verify._mpc_kkt_check(cfg, sr.design(cfg, methods=("sparse_mpc",)), (0.05, 0.2, 0.4))
    assert check.passed, check.detail
    assert problems == [BENCH.mpc_horizon] and factors == [2.0] and solves == [2.0, 2.0]


def test_admm_rejects_iteration_cap_below_one(bench_problem):
    factor = admm_factor(bench_problem, 1.0)
    for rows in (1, 0):
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                solve_admm(bench_problem, np.ones((rows, 4)), THETA, _cold(bench_problem, rows),
                           factor, 1e-8, max_iter)


@pytest.mark.parametrize("rho", [0.0, -0.0, -1.0, np.inf, np.nan])
def test_admm_factor_rejects_nonpositive_or_nonfinite_penalty(bench_problem, rho):
    with pytest.raises(ValueError, match="penalty rho must be positive and finite"):
        admm_factor(bench_problem, rho)
