import itertools
from dataclasses import replace

import numpy as np
import pytest

import sparseroll as sr
from sparseroll import simulate, verify
from sparseroll.exceptions import NonConvergenceError
from sparseroll.riccati import solve_dares
from sparseroll.simulate import SparseMpcController
from sparseroll.sparse_mpc import (MAX_CHUNK, RELAX, ZERO_TOL, _project, admm_factor, first_inputs,
                                   kkt_residuals, solve_admm)

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


@pytest.fixture(scope="module")
def two_input_problem(benchmark_model, mpc_problem):
    # the benchmark with a second force, on the other mass (states reordered by symmetry)
    dm = replace(benchmark_model, b=np.hstack([benchmark_model.b, benchmark_model.b[[1, 0, 3, 2]]]))
    return mpc_problem(dm, BENCH.q_weight, 0.1 * np.eye(2), horizon=15)


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


def _prox(v, kappa):
    """The block shrink, the proximal map of kappa * ||.||_2, as v - Pi(v) (Moreau)."""
    return v - _project(v, kappa, np.negative(kappa), np.empty_like(v))


def test_block_soft_threshold_examples():
    assert np.array_equal(_prox(np.array([3.0, 4.0]), 5.0), np.zeros(2))
    assert np.allclose(_prox(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])
    assert np.array_equal(_prox(np.zeros(3), 7.0), np.zeros(3))
    shrunk = _prox(np.array([3.0, 4.0]), 6.0)
    assert shrunk.dtype == float and np.all(shrunk == 0.0)

    # a (2, 3, 2) batch shrinks each last-axis block on its own
    v = np.array([[[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]],
                  [[-6.0, 8.0], [1.2, -1.6], [0.0, 5.0]]])
    kappa = 1.0
    out = _prox(v, kappa)
    assert out.shape == v.shape
    for block, got in zip(v.reshape(-1, 2), out.reshape(-1, 2)):
        norm = float(np.linalg.norm(block))
        if norm <= kappa:
            assert np.array_equal(got, np.zeros(2))
        else:
            assert np.allclose(got, (1.0 - kappa / norm) * block, rtol=1e-15, atol=0.0)
    assert np.array_equal(out[0, 1], np.zeros(2)) and np.array_equal(out[0, 2], np.zeros(2))
    assert np.array_equal(_prox(v, 0.0), v)
    # a block of one is clipped: the shrink moves it by kappa towards 0, or to an exact 0
    scalars = np.array([[-3.0], [-1.0], [-0.5], [0.0], [0.5], [1.0], [3.0]])
    assert np.array_equal(_prox(scalars, 1.0), [[-2.0], [0.0], [0.0], [0.0], [0.0], [0.0], [2.0]])


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


def test_admm_rows_independent_of_batch(bench_problem, two_input_problem, rng):
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

    # batches of many widths up to a sweep's 1000 rows, drawn from one pool at two offsets,
    # against each row alone, for one input and for two: the chunk length and the leaving of
    # passed rows follow the width
    pool = rng.standard_normal((1007, 4)) * np.geomspace(0.01, 4.0, 1007)[:, None]
    thetas = np.resize([THETA, 0.0, 0.02, 1.0], 1007)
    for prob in (bench_problem, two_input_problem):
        factor = admm_factor(prob, 1.0)
        alone = [solve_admm(prob, x[None], theta, _cold(prob, 1), factor, 1e-8, 10_000)
                 for x, theta in zip(pool, thetas)]
        for offset in (0, 7):
            for width in (1, 2, 3, 4, 5, 8, 16, 33, 64, 257, 1000):
                rows = slice(offset, offset + width)
                z, w, iters = solve_admm(prob, pool[rows], thetas[rows], _cold(prob, width),
                                         factor, 1e-8, 10_000)
                for i in range(width):
                    z1, w1, iters1 = alone[offset + i]
                    assert z[i].tobytes() == z1[0].tobytes()
                    assert w[i].tobytes() == w1[0].tobytes()
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


def _masked_project(v, kappa):
    """The projection onto each last-axis block's kappa-ball, with masks: a block of one is
    kappa where v >= kappa, -kappa where v <= -kappa, else v; a longer block is
    kappa v / ||v|| where ||v|| > kappa, else v."""
    kappa = np.broadcast_to(kappa, v.shape[:-1] + (1,))
    if v.shape[-1] == 1:
        return np.where(v >= kappa, kappa, np.where(v <= -kappa, -kappa, v))
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    out = v * 1.0
    over = np.broadcast_to(norms > kappa, v.shape)
    out[over] = (v * np.divide(kappa, norms, out=np.ones_like(norms), where=norms > kappa))[over]
    return out


def _reference_admm(prob, estimates, theta, warm, factor, tol, max_iter, on_iterate=None):
    """Reference for solve_admm: the recurrence one iteration at a time, every residual of
    every active row at every iteration, each row leaving at its first passing iteration."""
    row_norms = lambda v: np.sqrt(np.add.reduce(v * v, axis=-1))  # noqa: E731
    x = np.asarray(estimates, dtype=float)
    f = np.einsum("...j,ij->...i", x, prob.lin_matrix)
    rho = factor.rho
    n_rows, dim = f.shape
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_rows,))
    blocks = (-1, prob.horizon, prob.group_size)
    z_out, w_out = np.empty((n_rows, dim)), np.empty((n_rows, dim))
    iterations = np.zeros(n_rows, dtype=int)
    rows = np.arange(n_rows)
    z, w = warm
    v = z + w
    for it in range(1, max_iter + 1):
        v_new = np.matmul(np.concatenate([w, v, x], axis=1)[:, None], factor.step)[:, 0]
        w_new = _masked_project(v_new.reshape(blocks), (theta / rho)[:, None, None])
        w_new = w_new.reshape(len(rows), dim)
        z_new = v_new - w_new
        u = (v_new - (1.0 - RELAX) * z - w) / RELAX
        primal_res = row_norms(u - z_new)
        dual_res = rho * row_norms(z_new - z)
        z, w, v = z_new, w_new, v_new
        if on_iterate is not None:
            on_iterate(z, f)
        done = (primal_res < tol) & (dual_res < tol)
        if not done.any():
            continue
        done[done] = kkt_residuals(prob, z[done], f[done], theta[done]) <= tol
        if not done.any():
            continue
        finished = rows[done]
        z_out[finished], w_out[finished] = z[done] + 0.0, w[done] + 0.0
        iterations[finished] = it
        keep = ~done
        rows, x, f, z, w, v, theta = (a[keep] for a in (rows, x, f, z, w, v, theta))
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


def test_admm_matches_reference_loop_bit_for_bit(bench_problem, two_input_problem, rng):
    # the solutions, duals and counts of every row equal the reference loop's bytes, for one
    # input and for two
    cut = []
    for prob, theta in itertools.product((bench_problem, two_input_problem),
                                         (np.array([0.0, 0.02, 0.2, 0.0, 0.4, 1.0]), THETA)):
        factor = admm_factor(prob, 1.0)
        estimates = (rng.standard_normal((6, 4))
                     * np.array([[0.0], [0.05], [0.5], [1.0], [2.0], [4.0]]))
        warm = _cold(prob, 6)
        for _ in range(3):
            # a cold start, then two shifted warm starts, as in the controller
            z, w, iters = solve_admm(prob, estimates, theta, warm, factor, 1e-8, 10_000)
            z0, w0, iters0 = _reference_admm(prob, estimates, theta, warm, factor, 1e-8, 10_000)
            assert len(set(iters.tolist())) > 1
            assert iters.tobytes() == iters0.tobytes()
            assert z.tobytes() == z0.tobytes() and w.tobytes() == w0.tobytes()
            # capped at the last row's count, where the last chunk is cut short, it still passes
            z1, w1, iters1 = solve_admm(prob, estimates, theta, warm, factor, 1e-8, iters.max())
            assert iters1.tobytes() == iters.tobytes()
            assert z1.tobytes() == z.tobytes() and w1.tobytes() == w.tobytes()
            cut.append(iters.max() % MAX_CHUNK)
            warm = tuple(_shifted(v, prob.group_size) for v in (z, w))
            estimates = estimates * 0.9
    assert any(cut)


def test_admm_nonconvergence_error_matches_reference_loop(bench_problem):
    estimates = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.2, 0.1], [2.0, 0.0, 0.0, 1.0]])
    thetas = np.array([THETA, 0.0, 0.4])
    _, _, iters = solve_admm(bench_problem, estimates, thetas, _cold(bench_problem, 3),
                             admm_factor(bench_problem, 1.0), 1e-8, 10_000)
    # a cap in the first chunk, one past a chunk's end and one short of the last row's count
    for max_iter in (2, 33, iters.max() - 1):
        args = (estimates, thetas, _cold(bench_problem, 3), admm_factor(bench_problem, 1.0),
                1e-8, max_iter)
        with pytest.raises(NonConvergenceError) as err:
            solve_admm(bench_problem, *args)
        with pytest.raises(NonConvergenceError) as expected:
            _reference_admm(bench_problem, *args)
        assert str(err.value) == str(expected.value)
        assert err.value.residual == expected.value.residual
        assert err.value.iterations == expected.value.iterations == max_iter


def _einsum_admm(prob, estimates, theta, warm, factor, tol, max_iter):
    """The solver this one replaced, as an oracle: over-relaxed scaled ADMM in (z, w), with
    u = (H + rho I)^-1 (rho (z - w) - f) by einsum and the block shrink, every test at every
    iteration."""
    row_norms = lambda v: np.sqrt(np.add.reduce(v * v, axis=-1))  # noqa: E731
    f = np.einsum("...j,ij->...i", np.asarray(estimates, dtype=float), prob.lin_matrix)
    rho = factor.rho
    inverse = np.linalg.inv(prob.quad_matrix + rho * np.eye(prob.quad_matrix.shape[0]))
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
        v = (RELAX * u + (1.0 - RELAX) * z + w).reshape(blocks)
        norms = row_norms(v)[..., None]
        scale = np.zeros_like(norms)
        np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
        z_old, z = z, (scale * v).reshape(len(rows), dim)
        w = v.reshape(len(rows), dim) - z
        done = (row_norms(u - z) < tol) & (rho * row_norms(z - z_old) < tol)
        if done.any():
            done[done] = kkt_residuals(prob, z[done], f[done], theta[done]) <= tol
        finished = rows[done]
        z_out[finished], w_out[finished] = z[done], w[done]
        iterations[finished] = it
        rows, f, z, w, theta, kappa = (a[~done] for a in (rows, f, z, w, theta, kappa))
        if not rows.size:
            return z_out, w_out, iterations
    raise NonConvergenceError("the einsum oracle did not converge", iterations=max_iter)


@pytest.mark.parametrize("q", [1, 2])
def test_admm_matches_einsum_oracle(bench_problem, two_input_problem, q, rng):
    # the recurrence and the solver it replaced take the same iterations to the same zero
    # blocks and triggers, with z and w within 1e-12 of the row's largest entry
    prob = bench_problem if q == 1 else two_input_problem
    factor = admm_factor(prob, 1.0)
    thetas = np.repeat([0.0, 0.02, 0.2, 0.4, 1.0], 8)
    scales = np.tile(np.geomspace(0.05, 4.0, 8), 5)[:, None]
    estimates = rng.standard_normal((len(thetas), 4)) * scales
    warm = _cold(prob, len(thetas))
    for _ in range(4):
        # a cold start, then shifted warm starts, the same for both solvers
        z, w, iters = solve_admm(prob, estimates, thetas, warm, factor, 1e-8, 10_000)
        z0, w0, iters0 = _einsum_admm(prob, estimates, thetas, warm, factor, 1e-8, 10_000)
        assert np.array_equal(iters, iters0)
        assert np.array_equal(z == 0.0, z0 == 0.0)
        for got, ref in ((z, z0), (w, w0)):
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert (np.abs(got - ref) <= 1e-12 * scale).all()
        assert np.array_equal(first_inputs(z, q)[1], first_inputs(z0, q)[1])
        warm = tuple(_shifted(v, q) for v in (z0, w0))
        estimates = estimates * 0.9 + 0.1 * rng.standard_normal(estimates.shape)


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
    # projection has the bits of the masked form, and so has the shrink v - Pi(v).  A zero's
    # sign is compared for q > 1 only: numpy's clip resolves a tie of zeros by its loop
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
            kappa = np.broadcast_to(kappa, v.shape[:-1] + (1,)).copy()
            got = _project(v, kappa, np.negative(kappa), np.empty_like(v))
            ref = _masked_project(v, kappa)
            assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()
            assert (v - got + 0.0).tobytes() == (v - ref + 0.0).tobytes()
            if q > 1:
                assert got.tobytes() == ref.tobytes()
            # a block whose norm overflows projects to 0 and shrinks to itself, the prox to
            # within rounding (the NaN of the scaled shrink is gone), unless the ball is everything
            overflowed = v[:2, 7:9]
            expect = overflowed if np.isfinite(kappa).all() else 0.0 * overflowed
            assert np.array_equal(overflowed - got[:2, 7:9], expect)


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
                        lambda *a, **kw: solves.append(a[4].rho) or solve(*a, **kw))
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
