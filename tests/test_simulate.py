import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

import sparseroll as sr
from sparseroll import simulate
from sparseroll.exceptions import ConfigError, NonConvergenceError, NonFiniteError
from sparseroll.simulate import PeriodicController, SparseMpcController
from sparseroll.sparse_mpc import admm_factor

BENCH = sr.ExperimentConfig()  # the benchmark study


def bench_cfg(**kw):
    base = dict(horizon_steps=600, trials=3, seed_base=123,
                q_weight=BENCH.q_weight, r_weight=BENCH.r_weight, h=6, p=6)
    base.update(kw)
    return sr.ExperimentConfig(**base)


def rollout_policy(dm, theta=0.2, h=6, p=6, forced=None):
    _, err_cov, _ = sr.steady_kalman(dm)
    base = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, p)
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, base.cost_matrix,
                             h, p, err_cov)
    return sr.RolloutPolicy(tables=tables, theta=theta, forced_pattern=forced), base


def test_same_seed_bit_identical(benchmark_model, benchmark_steady):
    cfg = bench_cfg()
    pol, _ = rollout_policy(benchmark_model)
    t1 = sr.simulate_trial(cfg, benchmark_model, pol, 0, steady=benchmark_steady)
    t2 = sr.simulate_trial(cfg, benchmark_model, pol, 0, steady=benchmark_steady)
    for field in ("states", "estimates", "inputs", "triggers", "outputs", "stage_costs"):
        assert np.array_equal(getattr(t1, field), getattr(t2, field))


def test_trigger_input_consistency(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=1)
    pol, _ = rollout_policy(benchmark_model, theta=0.35)
    trace = sr.simulate_trial(cfg, benchmark_model, pol, 1, steady=benchmark_steady)
    idle = trace.triggers == 0
    assert np.all(trace.inputs[idle] == 0.0)
    assert np.all(trace.stage_costs >= 0.0)


def test_zero_noise_matches_linear_recursion(benchmark_model, benchmark_steady):
    # deterministic closed loop equals the matrix recursion with a perfect estimate
    dm = benchmark_model
    cfg = bench_cfg(methods=("periodic",), horizon_steps=120, trials=1)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 1)
    noise = (dm.init_mean.copy(), np.zeros((120, 4)), np.zeros((121, 2)))
    trace = sr.simulate_trial(cfg, dm, PeriodicController(pol.feedback_gain, 1), 0,
                              steady=benchmark_steady, noise=noise)
    closed_loop = dm.a + dm.b @ pol.feedback_gain
    x = dm.init_mean.copy()
    for k in range(120):
        assert np.allclose(trace.states[k], x, atol=1e-10)
        x = closed_loop @ x
    assert np.allclose(trace.estimates, trace.states, atol=1e-9)


def test_metrics_periodic_rate_exact(benchmark_model, benchmark_steady):
    cfg = bench_cfg(methods=("periodic",), trials=2)
    pol = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, 3)
    traces = [
        sr.simulate_trial(cfg, benchmark_model, PeriodicController(pol.feedback_gain, 3), t,
                          steady=benchmark_steady)
        for t in range(2)
    ]
    metrics = sr.estimate_metrics(traces, theta=0.2)
    assert metrics.avg_actuation_rate == 200.0 / 600.0
    assert metrics.total == metrics.avg_control_cost + 0.2 * metrics.avg_actuation_rate


def test_metrics_single_step_cost(benchmark_model, benchmark_steady):
    cfg = sr.ExperimentConfig(horizon_steps=1, trials=1, seed_base=5,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("periodic",))

    class NullController:
        def decide(self, x_hat, k):
            return np.zeros(1), 0

    trace = sr.simulate_trial(cfg, benchmark_model, NullController(), 0,
                              steady=benchmark_steady)
    metrics = sr.estimate_metrics([trace], theta=0.0)
    x0 = trace.states[0]
    assert abs(metrics.avg_control_cost - x0 @ BENCH.q_weight @ x0) < 1e-12


def test_common_random_numbers_across_methods(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=1)
    pol, base = rollout_policy(benchmark_model)
    t_ro = sr.simulate_trial(cfg, benchmark_model, pol, 4, steady=benchmark_steady)
    t_pe = sr.simulate_trial(cfg, benchmark_model,
                             PeriodicController(base.feedback_gain, 6), 4,
                             steady=benchmark_steady)
    assert np.array_equal(t_ro.states[0], t_pe.states[0])
    assert np.array_equal(t_ro.outputs[0], t_pe.outputs[0])
    x0a, wa, va = sr.noise_streams(benchmark_model, cfg.seed_base, 4, cfg.horizon_steps)
    x0b, wb, vb = sr.noise_streams(benchmark_model, cfg.seed_base, 4, cfg.horizon_steps)
    assert np.array_equal(wa, wb) and np.array_equal(va, vb) and np.array_equal(x0a, x0b)


def test_forced_base_pattern_equals_periodic(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=1)
    pol, base = rollout_policy(benchmark_model, forced=1)
    t_ro = sr.simulate_trial(cfg, benchmark_model, pol, 2, steady=benchmark_steady)
    t_pe = sr.simulate_trial(cfg, benchmark_model,
                             PeriodicController(base.feedback_gain, 6), 2,
                             steady=benchmark_steady)
    assert np.array_equal(t_ro.triggers, t_pe.triggers)
    scale = max(1.0, np.abs(t_pe.states).max())
    assert np.abs(t_ro.states - t_pe.states).max() < 1e-9 * scale
    assert np.abs(t_ro.inputs - t_pe.inputs).max() < 1e-9


def test_check_performance_bound_forced_base(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=5)
    pol, base = rollout_policy(benchmark_model, forced=1)
    ro = [sr.simulate_trial(cfg, benchmark_model, pol, t, steady=benchmark_steady)
          for t in range(5)]
    pe = [sr.simulate_trial(cfg, benchmark_model,
                            PeriodicController(base.feedback_gain, 6), t,
                            steady=benchmark_steady)
          for t in range(5)]
    m_ro = sr.estimate_metrics(ro, 0.2)
    m_pe = sr.estimate_metrics(pe, 0.2)
    assert abs(m_ro.total - m_pe.total) < 1e-9
    holds, margin = sr.check_performance_bound(m_ro, m_pe, h=6)
    assert holds and margin >= 1.0 / 6.0 - 1e-9


def test_check_performance_bound_scalar_monte_carlo(scalar_model):
    # small analytic system, lookahead of 4 over a period-2 base policy
    dm = scalar_model
    steady = sr.steady_kalman(dm)
    _, err_cov, _ = steady
    h, p, theta, trials, n_steps = 4, 2, 0.3, 200, 200
    base = sr.design_periodic(dm, [[1.0]], [[1.0]], p)
    tables = sr.build_tables(dm, [[1.0]], [[1.0]], base.cost_matrix, h, p, err_cov)
    cfg = sr.ExperimentConfig(horizon_steps=n_steps, trials=trials, seed_base=55,
                              q_weight=[[1.0]], r_weight=[[1.0]],
                              methods=("rollout",), h=h, p=p)
    ro_traces, pe_traces = [], []
    for t in range(trials):
        pol = sr.RolloutPolicy(tables=tables, theta=theta)
        ro_traces.append(sr.simulate_trial(cfg, dm, pol, t, steady=steady))
        pe_traces.append(sr.simulate_trial(
            cfg, dm, PeriodicController(base.feedback_gain, p), t, steady=steady))
    holds, margin = sr.check_performance_bound(sr.estimate_metrics(ro_traces, theta),
                                      sr.estimate_metrics(pe_traces, theta), h)
    assert holds, f"margin {margin:.4f}"


def test_rollout_runs_in_blocks(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=1)
    pol, _ = rollout_policy(benchmark_model)
    trace = sr.simulate_trial(cfg, benchmark_model, pol, 0, steady=benchmark_steady)
    assert trace.states.shape == (600, 4)
    # within every 6-step block the triggers follow a single pattern
    bits = trace.triggers.reshape(100, 6)
    known = {tuple(bits) for bits in pol.tables.bits.tolist()}
    assert all(tuple(row) in known for row in bits)


def test_mean_square_stability_controls():
    stable = sr.DiscreteModel(a=[[0.9]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                              meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])
    unstable = sr.DiscreteModel(a=[[1.05]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                                meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])

    class Null:
        def decide(self, x_hat, k):
            return np.zeros(1), 0

    for dm, expect in ((stable, True), (unstable, False)):
        cfg = sr.ExperimentConfig(horizon_steps=600, trials=8, seed_base=31,
                                  q_weight=[[1.0]], r_weight=[[1.0]],
                                  methods=("periodic",))
        with np.errstate(over="ignore"):
            traces = [sr.simulate_trial(cfg, dm, Null(), t) for t in range(8)]
        bounded, report = sr.check_mean_square_stability(traces, window_len=50)
        assert bounded is expect, report


def test_nonfinite_state_aborts():
    dm = sr.DiscreteModel(a=[[4.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[1.0], init_cov=[[1.0]])

    class Null:
        def decide(self, x_hat, k):
            return np.zeros(1), 0

    cfg = sr.ExperimentConfig(horizon_steps=600, trials=1, seed_base=2,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        sr.simulate_trial(cfg, dm, Null(), 0)


def test_theta_sweep_isolates_cell_failures():
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    cfg = sr.ExperimentConfig(horizon_steps=20, trials=1, seed_base=1,
                              q_weight=np.eye(2), r_weight=[[1.0]],
                              methods=("periodic",), candidates=(2,), theta_grid=(0.1, 0.2))
    cells = sr.theta_sweep(cfg, dm)
    assert len(cells) == 2
    # a failed design is not shared: every cell that needs it records the failure
    for cell in cells:
        assert cell.status.startswith("error:") and cell.status == cells[0].status
        assert cell.metrics is None


def test_theta_sweep_design_failure_stays_in_its_method():
    # the period-2 design is pathological; the rollout base at p = 1 is designed on its own
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    cfg = sr.ExperimentConfig(horizon_steps=20, trials=2, seed_base=1,
                              q_weight=np.eye(2), r_weight=[[1.0]], theta_grid=(0.1, 0.2),
                              methods=("rollout", "periodic"), h=2, p=1, candidates=(2,))
    cells = sr.theta_sweep(cfg, dm)
    assert [(c.theta, c.method) for c in cells] == [
        (0.1, "rollout"), (0.1, "periodic"), (0.2, "rollout"), (0.2, "periodic")]
    for cell in cells:
        if cell.method == "periodic":
            assert cell.status == "error: pathological sampling: lifting by p=2 breaks " \
                                  "stabilizability" and cell.metrics is None
        else:
            assert cell.status == "ok" and cell.metrics.trials == 2
            assert np.isfinite(cell.metrics.total)


def test_nonfinite_error_names_step_and_trial():
    dm = sr.DiscreteModel(a=[[4.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[1.0], init_cov=[[1.0]])
    cfg = sr.ExperimentConfig(horizon_steps=600, trials=2, seed_base=2,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                   match=r"at step \d+ in trial (5|6)$"):
        sr.simulate_trials(cfg, dm, PeriodicController(np.zeros((1, 1)), 1), [5, 6])


def test_theta_sweep_designs_once_per_call(benchmark_model, monkeypatch):
    # theta-independent designs are shared by the cells of one sweep, not across sweeps
    periods, tables, mpc_problems, factors, controllers = [], [], [], [], []
    design, build = simulate.design_periodic, simulate.build_tables
    build_mpc, factorise = simulate.build_mpc_problem, simulate.admm_factor
    run = simulate.simulate_trials
    monkeypatch.setattr(sr.periodic, "design_periodic",
                        lambda *a, **kw: periods.append(a[3]) or design(*a, **kw))
    monkeypatch.setattr(simulate, "design_periodic",
                        lambda *a, **kw: periods.append(a[3]) or design(*a, **kw))
    monkeypatch.setattr(simulate, "build_tables",
                        lambda *a, **kw: tables.append(a[5]) or build(*a, **kw))
    monkeypatch.setattr(simulate, "build_mpc_problem",
                        lambda *a, **kw: mpc_problems.append(a[3]) or build_mpc(*a, **kw))
    monkeypatch.setattr(simulate, "admm_factor",
                        lambda *a, **kw: factors.append(a[1]) or factorise(*a, **kw))
    monkeypatch.setattr(simulate, "simulate_trials",
                        lambda *a, **kw: controllers.append(a[2]) or run(*a, **kw))
    grid = (0.1, 0.3)
    cfg = bench_cfg(trials=1, horizon_steps=12, theta_grid=grid,
                    methods=("rollout", "sparse_mpc", "periodic"))
    fresh = {(c.theta, c.method): c for theta in grid
             for c in sr.theta_sweep(replace(cfg, theta_grid=(theta,),
                                             methods=("rollout", "sparse_mpc")),
                                     benchmark_model)}
    for _ in range(2):
        for calls in (periods, tables, mpc_problems, factors, controllers):
            calls.clear()
        cells = sr.theta_sweep(cfg, benchmark_model)
        assert all(c.status == "ok" for c in cells)
        # the candidate design of p = 6 is the rollout base: each period is designed once
        assert sorted(periods) == [1, 2, 3, 6] and tables == [6]
        # one condensed problem and one Cholesky factor of H + rho I per sweep
        assert mpc_problems == [30] and factors == [1.0]
    # one closed loop per method, its controller holding the theta of each row
    rollout, mpc, periodic = controllers
    assert isinstance(rollout, sr.RolloutPolicy)
    assert np.array_equal(rollout.theta, np.repeat(grid, cfg.trials))
    assert isinstance(mpc, SparseMpcController)
    assert np.array_equal(mpc.theta, np.repeat(grid, cfg.trials))
    assert isinstance(periodic, PeriodicController) and periodic.gain.shape == (2, 1, 4)
    for cell in cells:
        if cell.method == "periodic":
            continue
        expect = fresh[cell.theta, cell.method]
        assert np.array_equal(cell.metrics.per_trial_cost, expect.metrics.per_trial_cost)
        assert np.array_equal(cell.metrics.per_trial_rate, expect.metrics.per_trial_rate)


def test_theta_sweep_records_admm_nonconvergence(benchmark_model):
    # the batched solver keeps the failure type; the cell status names a trial
    cfg = bench_cfg(trials=3, horizon_steps=12, methods=("sparse_mpc",), mpc_max_iter=2,
                    theta_grid=(0.1, 0.3))
    cells = sr.theta_sweep(cfg, benchmark_model)
    for cell in cells:
        assert cell.metrics is None
        assert re.fullmatch(r"error: ADMM did not converge in 2 iterations for trial [0-2] "
                            r"of the batch \(primal .*, dual .*\)", cell.status), cell.status
    prob = sr.build_mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, 30)
    controller = SparseMpcController(prob, 0.1, admm_factor(prob, 1.0), 1e-8, 2)
    with pytest.raises(NonConvergenceError) as err:
        sr.simulate_trials(cfg, benchmark_model, controller, range(3))
    assert err.value.iterations == 2 and err.value.residual > 0.0


def test_theta_sweep_stacked_cells_match_cells_alone(benchmark_model, monkeypatch):
    # one closed loop per method gives every cell the bits it has alone; a failing cell
    # (non-finite state, ADMM cap) keeps the status it has alone, and the rest their bits
    candidates = simulate.design_candidates

    def overflowing_p3(*args):
        # the p = 3 gain scaled by 1e300 drives the state to inf at its second actuation
        designs = candidates(*args)
        designs[3] = replace(designs[3], feedback_gain=designs[3].feedback_gain * 1e300)
        return designs

    monkeypatch.setattr(simulate, "design_candidates", overflowing_p3)
    # theta = 0.1 picks p = 3 and needs about 60 ADMM iterations; 10 and 25 pick p = 6
    # and need at most about 40
    cfg = bench_cfg(trials=3, horizon_steps=60, theta_grid=(10.0, 0.1, 25.0), mpc_max_iter=50,
                    methods=("rollout", "periodic", "sparse_mpc"))
    with np.errstate(over="ignore", invalid="ignore"):
        cells = sr.theta_sweep(cfg, benchmark_model)
        alone = [c for theta in cfg.theta_grid for c in
                 sr.theta_sweep(replace(cfg, theta_grid=(theta,)), benchmark_model)]
    assert [(c.theta, c.method) for c in cells] == [(c.theta, c.method) for c in alone]
    for cell, ref in zip(cells, alone):
        assert cell.status == ref.status, (cell.theta, cell.method)
        if ref.status == "ok":
            assert np.array_equal(cell.metrics.per_trial_cost, ref.metrics.per_trial_cost)
            assert np.array_equal(cell.metrics.per_trial_rate, ref.metrics.per_trial_rate)
    failed = {(c.theta, c.method): c.status for c in cells if c.status != "ok"}
    assert sorted(failed) == [(0.1, "periodic"), (0.1, "sparse_mpc")]
    assert re.fullmatch(r"error: state became non-finite at step \d+ in trial [0-2]",
                        failed[0.1, "periodic"])
    assert re.fullmatch(r"error: ADMM did not converge in 50 iterations for trial [0-2] of the "
                        r"batch \(primal .*, dual .*\)", failed[0.1, "sparse_mpc"])


def test_theta_sweep_scores_every_cell_in_one_call(benchmark_model, monkeypatch):
    # the rollout rows of all thetas run as one batch and are scored in one call per block,
    # each row at its own theta
    calls, scores = [], sr.rollout.pattern_scores
    monkeypatch.setattr(sr.rollout, "pattern_scores", lambda tables, x, theta: calls.append(
        (len(x), np.array(theta))) or scores(tables, x, theta))
    cfg = bench_cfg(trials=5, horizon_steps=60, theta_grid=(0.02, 0.2, 0.4),
                    methods=("rollout",))
    assert all(c.status == "ok" for c in sr.theta_sweep(cfg, benchmark_model))
    assert len(calls) == cfg.horizon_steps // cfg.h
    for rows, theta in calls:
        assert rows == len(cfg.theta_grid) * cfg.trials
        assert np.array_equal(theta, np.repeat(cfg.theta_grid, cfg.trials))


def test_theta_sweep_batch_composition_invariance(benchmark_model):
    # a trial's result must not depend on which trials share its batch
    cfg = bench_cfg(trials=4, horizon_steps=60, theta_grid=(0.1, 0.3),
                    methods=("rollout", "periodic"))
    first = sr.theta_sweep(cfg, benchmark_model)
    again = sr.theta_sweep(cfg, benchmark_model)
    double = sr.theta_sweep(replace(cfg, trials=8), benchmark_model)
    for a, b, c in zip(first, again, double):
        assert a.theta == b.theta == c.theta and a.method == b.method == c.method
        assert a.status == b.status == c.status == "ok"
        assert np.array_equal(a.metrics.per_trial_cost, b.metrics.per_trial_cost)
        assert np.array_equal(a.metrics.per_trial_rate, b.metrics.per_trial_rate)
        assert np.array_equal(a.metrics.per_trial_cost, c.metrics.per_trial_cost[:4])
        assert np.array_equal(a.metrics.per_trial_rate, c.metrics.per_trial_rate[:4])


def test_single_trial_is_the_batch_of_one(benchmark_model, benchmark_steady):
    cfg = bench_cfg(horizon_steps=60)
    pol, _ = rollout_policy(benchmark_model)
    kept = sr.simulate_trials(cfg, benchmark_model, pol, [3, 7, 9], steady=benchmark_steady,
                              keep_traces=True)
    lean = sr.simulate_trials(cfg, benchmark_model, pol, [3, 7, 9], steady=benchmark_steady)
    for row, trial in enumerate((3, 7, 9)):
        alone = sr.simulate_trial(cfg, benchmark_model, pol, trial, steady=benchmark_steady)
        for name in ("states", "estimates", "inputs", "triggers", "outputs", "stage_costs"):
            assert np.array_equal(getattr(alone, name), getattr(kept[row], name)), name
        assert np.array_equal(alone.stage_costs, lean[row].stage_costs)
        assert np.array_equal(alone.triggers, lean[row].triggers)
        assert lean[row].states is None


def _reference_trial(dm, q_w, r_w, noise, steady, decide):
    """Plain per-trial loop: the textbook stationary filter and plant, one vector at a time.

    ``decide(xhat, k)`` returns (u, delta).
    """
    x, w_seq, v_seq = noise
    a, b, c = dm.a, dm.b, dm.c
    gain = steady[0]
    xhat = dm.init_mean + gain @ (c @ x + v_seq[0] - c @ dm.init_mean)
    costs, triggers = [], []
    for k in range(len(w_seq)):
        u, delta = decide(xhat, k)
        costs.append(x @ q_w @ x + u @ r_w @ u)
        triggers.append(delta)
        x = a @ x + b @ u + w_seq[k]
        y = c @ x + v_seq[k + 1]
        pred = a @ xhat + b @ u
        xhat = pred + gain @ (y - c @ pred)
    return np.array(costs), np.array(triggers)


def _reference_deciders(method, dm, theta):
    """Per-trial decision functions built straight from the design routines."""
    q_w, r_w = BENCH.q_weight, BENCH.r_weight
    if method == "periodic":
        gain = sr.design_periodic(dm, q_w, r_w, 3).feedback_gain

        def make():
            return lambda xhat, k: ((gain @ xhat, 1) if k % 3 == 0 else (np.zeros(1), 0))

        return make, PeriodicController(gain, 3)
    if method == "rollout":
        pol, _ = rollout_policy(dm, theta=theta)

        def make():
            chosen = {}

            def decide(xhat, k):
                if k % 6 == 0:
                    chosen["m"] = sr.select_pattern(pol.tables, xhat, theta)
                m, tau = chosen["m"], k % 6
                if pol.tables.bits[m - 1, tau]:
                    return pol.tables.gain(m, tau) @ xhat, 1
                return np.zeros(1), 0

            return decide

        return make, pol
    prob = sr.build_mpc_problem(dm, q_w, r_w, horizon=30)
    dim, q, rho, relax, tol = prob.quad_matrix.shape[0], prob.group_size, 1.0, 1.5, 1e-8
    factor = sla.cho_factor(prob.quad_matrix + rho * np.eye(dim))

    def kkt(u, f):
        # worst block violation of the subgradient conditions, block by block
        grad = (prob.quad_matrix @ u + f).reshape(-1, q)
        worst = 0.0
        for g, block in zip(grad, u.reshape(-1, q)):
            norm = np.linalg.norm(block)
            if norm == 0.0:
                worst = max(worst, np.linalg.norm(g) - theta)
            else:
                worst = max(worst, np.linalg.norm(g + theta * block / norm))
        return worst

    def make():
        # textbook over-relaxed scaled ADMM for one trial, warm-started by a one-block shift
        warm = {"z": np.zeros(dim), "w": np.zeros(dim)}

        def decide(xhat, k):
            f = prob.lin_matrix @ xhat
            z, w = warm["z"], warm["w"]
            for _ in range(10_000):
                u = sla.cho_solve(factor, rho * (z - w) - f)
                u_relaxed = relax * u + (1.0 - relax) * z
                z_old, z = z, np.zeros(dim)
                for i, block in enumerate((u_relaxed + w).reshape(-1, q)):
                    norm = np.linalg.norm(block)
                    if norm > theta / rho:
                        z[i * q:(i + 1) * q] = (norm - theta / rho) / norm * block
                w = w + u_relaxed - z
                if (np.linalg.norm(u - z) < tol and rho * np.linalg.norm(z - z_old) < tol
                        and kkt(z, f) <= tol):
                    break
            else:
                raise AssertionError("reference ADMM did not converge")
            warm["z"] = np.concatenate([z[q:], np.zeros(q)])
            warm["w"] = np.concatenate([w[q:], np.zeros(q)])
            if np.linalg.norm(z[:q]) > 1e-9:
                return z[:q], 1
            return np.zeros(q), 0

        return decide

    return make, SparseMpcController(prob, theta, admm_factor(prob, rho), tol, 10_000)


@pytest.mark.parametrize("method", ["rollout", "periodic", "sparse_mpc", "periodic-tv",
                                    "rollout-tv"])
@pytest.mark.parametrize("seed_base", [123, 2024])
def test_batched_engine_matches_per_trial_reference(benchmark_model, method, seed_base):
    # the -tv model draws x0 from init_cov = I; the filter still runs at the stationary gain
    method, _, tv = method.partition("-")
    dm = benchmark_model.with_init(benchmark_model.init_mean, np.eye(4)) if tv else benchmark_model
    steady = sr.steady_kalman(benchmark_model)
    cfg = bench_cfg(horizon_steps=36 if method == "sparse_mpc" else 120, seed_base=seed_base)
    make, controller = _reference_deciders(method, benchmark_model, theta=0.2)
    trials = [0, 1, 5]
    traces = sr.simulate_trials(cfg, dm, controller, trials, steady=steady)
    for row, trial in enumerate(trials):
        noise = sr.noise_streams(dm, seed_base, trial, cfg.horizon_steps)
        costs, triggers = _reference_trial(dm, BENCH.q_weight, BENCH.r_weight, noise, steady,
                                           make())
        assert np.array_equal(traces[row].triggers, triggers)
        ref, got = costs.mean(), traces[row].control_cost
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_stability_report_contents(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=3)
    pol, _ = rollout_policy(benchmark_model, theta=0.2)
    traces = [sr.simulate_trial(cfg, benchmark_model, pol, t, steady=benchmark_steady)
              for t in range(3)]
    bounded, report = sr.check_mean_square_stability(traces, window_len=50)
    assert bounded
    assert report.window_means.shape == (12,)
    assert report.slope <= 3.0 * report.slope_stderr


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        bench_cfg(horizon_steps=0)
    with pytest.raises(ConfigError):
        bench_cfg(h=5, p=2)
    with pytest.raises(ConfigError):
        bench_cfg(horizon_steps=601)
    with pytest.raises(ConfigError):
        bench_cfg(methods=("other",))
