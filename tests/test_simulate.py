import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import yaml

import sparseroll as sr
from sparseroll import periodic, simulate
from sparseroll.config import load_config
from sparseroll.exceptions import (AssumptionViolatedError, ConfigError, NonConvergenceError,
                                   NonFiniteError)
from sparseroll.riccati import solve_dares
from sparseroll.simulate import PeriodicController, SparseMpcController
from sparseroll.sparse_mpc import admm_factor

BENCH = sr.ExperimentConfig()  # the benchmark study
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bench_cfg(**kw):
    base = dict(horizon_steps=600, trials=3, seed_base=123,
                q_weight=BENCH.q_weight, r_weight=BENCH.r_weight, h=6, p=6)
    base.update(kw)
    return sr.ExperimentConfig(**base)


def rollout_policy(dm, theta=0.2, h=6, p=6):
    _, err_cov, _ = sr.steady_kalman(dm)
    base = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [p])[p]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, base.cost_matrix,
                             h, p, err_cov)
    return sr.RolloutPolicy(tables=tables, theta=theta), base


def periodic_rows(gain, period, rows=1):
    """A PeriodicController of ``rows`` rows that all apply ``gain`` every ``period`` steps."""
    return PeriodicController(np.repeat(np.asarray(gain)[None], rows, axis=0),
                              np.full(rows, period))


def one_key(dm, seed_base, key, n_steps):
    """The (x0, w, v) of one trial key: column 0 of its batch of one."""
    x0, w, v = sr.noise_streams(dm, seed_base, [key], n_steps)
    return x0[0], w[:, 0], v[:, 0]


def play_base_pattern(monkeypatch):
    """Make every rollout block select the base pattern, which plays the base policy."""
    monkeypatch.setattr(sr.rollout, "select_pattern",
                        lambda tables, x_hat, theta: np.full(len(x_hat), tables.base))


def test_same_seed_bit_identical(benchmark_model, benchmark_steady, record):
    cfg = bench_cfg()
    pol, _ = rollout_policy(benchmark_model)
    runs = []
    for _ in range(2):
        rec = record(pol)
        runs.append((*sr.simulate_trials(cfg, benchmark_model, rec, [0], steady=benchmark_steady,
                                         keep_states=True),
                     rec.estimates, rec.inputs, rec.triggers))
    # cost, rate, states, estimates, inputs and triggers
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()


def test_deterministic_start(tmp_path):
    # a zero initial covariance has no Cholesky factor: every trial starts at the mean exactly,
    # and the rollout and periodic cells run
    model = yaml.safe_load((CONFIGS / "scalar_model.yaml").read_text())
    (tmp_path / "model.yaml").write_text(yaml.safe_dump({**model, "init_mean": [2.5],
                                                         "init_cov": [[0.0]]}))
    raw = yaml.safe_load((CONFIGS / "scalar.yaml").read_text())
    raw["model"]["file"] = "model.yaml"
    raw["sim"] = {"trials": 3, "horizon_steps": 30, "seed_base": 7}
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
    cfg = load_config(tmp_path / "cfg.yaml")
    dm = cfg.build_model()
    x0, _, _ = sr.noise_streams(dm, cfg.seed_base, range(cfg.trials), cfg.horizon_steps)
    assert x0.shape == (cfg.trials, 1)
    for row in x0:
        assert np.array_equal(row, dm.init_mean)
    cells = sr.theta_sweep(cfg)
    assert [c.status for c in cells] == ["ok"] * 4


def test_noise_of_a_key_does_not_depend_on_the_other_keys(benchmark_model, monkeypatch):
    # each key draws from its own generator: key 3 alone is column 1 of keys [1, 3, 7], bit
    # for bit, and one call factors each of the three covariances once
    factored, factor = [], simulate._cov_factor
    monkeypatch.setattr(simulate, "_cov_factor", lambda cov: factored.append(cov) or factor(cov))
    alone = sr.noise_streams(benchmark_model, 123, [3], 50)
    factored.clear()
    batch = sr.noise_streams(benchmark_model, 123, [1, 3, 7], 50)
    assert len(factored) == 3
    assert [a.shape for a in batch] == [(3, 4), (50, 3, 4), (51, 3, 2)]
    assert alone[0][0].tobytes() == batch[0][1].tobytes()
    assert alone[1][:, 0].tobytes() == batch[1][:, 1].tobytes()
    assert alone[2][:, 0].tobytes() == batch[2][:, 1].tobytes()


def test_trigger_input_consistency(benchmark_model, benchmark_steady, record):
    cfg = bench_cfg(trials=1)
    pol, _ = rollout_policy(benchmark_model, theta=0.35)
    rec = record(pol)
    (cost,), (rate,), (states,) = sr.simulate_trials(cfg, benchmark_model, rec, [1],
                                                     steady=benchmark_steady, keep_states=True)
    (triggers,), (inputs,) = rec.triggers, rec.inputs
    idle = triggers == 0
    assert np.all(inputs[idle] == 0.0)
    assert rate == triggers.mean()
    # each step's cost x'Qx + u'Ru is nonnegative, and the engine's cost is their mean
    stage_costs = (np.einsum("ki,ij,kj->k", states, BENCH.q_weight, states)
                   + np.einsum("ki,ij,kj->k", inputs, BENCH.r_weight, inputs))
    assert np.all(stage_costs >= 0.0)
    assert abs(cost - stage_costs.mean()) <= 1e-12 * cost


def test_zero_noise_matches_linear_recursion(benchmark_model, benchmark_steady, record):
    # deterministic closed loop equals the matrix recursion with a perfect estimate
    dm = benchmark_model
    cfg = bench_cfg(methods=("periodic",), horizon_steps=120, trials=1)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [1])[1]
    # the stacked (x0, w, v) realization of the one trial key
    noise = (dm.init_mean[None], np.zeros((120, 1, 4)), np.zeros((121, 1, 2)))
    rec = record(periodic_rows(pol.feedback_gain, 1))
    _, _, (states,) = sr.simulate_trials(cfg, dm, rec, [0], steady=benchmark_steady, noise=noise,
                                         keep_states=True)
    closed_loop = dm.a + dm.b @ pol.feedback_gain
    x = dm.init_mean.copy()
    for k in range(120):
        assert np.allclose(states[k], x, atol=1e-10)
        x = closed_loop @ x
    assert np.allclose(rec.estimates[0], states, atol=1e-9)


def test_metrics_periodic_rate_exact(benchmark_model, benchmark_steady):
    cfg = bench_cfg(methods=("periodic",), trials=2)
    pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [3])[3]
    costs, rates, _ = sr.simulate_trials(cfg, benchmark_model,
                                         periodic_rows(pol.feedback_gain, 3, rows=2), [0, 1],
                                         steady=benchmark_steady)
    assert np.all(rates == 200.0 / 600.0)
    metrics = sr.Metrics.of(costs, rates, theta=0.2)
    assert metrics.avg_actuation_rate == 200.0 / 600.0
    assert metrics.total == metrics.avg_control_cost + 0.2 * metrics.avg_actuation_rate


def test_metrics_single_step_cost(benchmark_model, benchmark_steady):
    cfg = sr.ExperimentConfig(horizon_steps=1, trials=1, seed_base=5,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              methods=("periodic",))

    class NullController:
        def decide(self, x_hat, k):
            return np.zeros((len(x_hat), 1)), 0

    cost, rate, (states,) = sr.simulate_trials(cfg, benchmark_model, NullController(), [0],
                                               steady=benchmark_steady, keep_states=True)
    metrics = sr.Metrics.of(cost, rate, theta=0.0)
    x0 = states[0]
    assert abs(metrics.avg_control_cost - x0 @ BENCH.q_weight @ x0) < 1e-12


def test_common_random_numbers_across_methods(benchmark_model, benchmark_steady, record):
    cfg = bench_cfg(trials=1)
    pol, base = rollout_policy(benchmark_model)
    ro, pe = record(pol), record(periodic_rows(base.feedback_gain, 6))
    _, _, (states_ro,) = sr.simulate_trials(cfg, benchmark_model, ro, [4],
                                            steady=benchmark_steady, keep_states=True)
    _, _, (states_pe,) = sr.simulate_trials(cfg, benchmark_model, pe, [4],
                                            steady=benchmark_steady, keep_states=True)
    assert np.array_equal(states_ro[0], states_pe[0])
    # the first estimate is the filter's start on the first output: both loops measured alike
    assert np.array_equal(ro.estimates[0, 0], pe.estimates[0, 0])
    x0a, wa, va = sr.noise_streams(benchmark_model, cfg.seed_base, [4], cfg.horizon_steps)
    x0b, wb, vb = sr.noise_streams(benchmark_model, cfg.seed_base, [4], cfg.horizon_steps)
    assert np.array_equal(wa, wb) and np.array_equal(va, vb) and np.array_equal(x0a, x0b)


def test_forced_base_pattern_equals_periodic(benchmark_model, benchmark_steady, monkeypatch,
                                             record):
    cfg = bench_cfg(trials=1)
    pol, base = rollout_policy(benchmark_model)
    assert pol.tables.base == 0b100000  # the base pattern
    play_base_pattern(monkeypatch)
    ro, pe = record(pol), record(periodic_rows(base.feedback_gain, 6))
    _, _, states_ro = sr.simulate_trials(cfg, benchmark_model, ro, [2], steady=benchmark_steady,
                                         keep_states=True)
    _, _, states_pe = sr.simulate_trials(cfg, benchmark_model, pe, [2], steady=benchmark_steady,
                                         keep_states=True)
    assert np.array_equal(ro.triggers, pe.triggers)
    scale = max(1.0, np.abs(states_pe).max())
    assert np.abs(states_ro - states_pe).max() < 1e-9 * scale
    assert np.abs(ro.inputs - pe.inputs).max() < 1e-9


def test_check_performance_bound_forced_base(benchmark_model, benchmark_steady, monkeypatch):
    cfg = bench_cfg(trials=5)
    pol, base = rollout_policy(benchmark_model)
    play_base_pattern(monkeypatch)
    costs, rates, _ = sr.simulate_trials(cfg, benchmark_model, pol, range(5),
                                         steady=benchmark_steady)
    m_ro = sr.Metrics.of(costs, rates, 0.2)
    costs, rates, _ = sr.simulate_trials(cfg, benchmark_model,
                                         periodic_rows(base.feedback_gain, 6, rows=5), range(5),
                                         steady=benchmark_steady)
    m_pe = sr.Metrics.of(costs, rates, 0.2)
    assert m_ro.trials == m_pe.trials == 5
    assert abs(m_ro.total - m_pe.total) < 1e-9
    holds, margin = sr.check_performance_bound(m_ro, m_pe, h=6)
    assert holds and margin >= 1.0 / 6.0 - 1e-9


def test_check_performance_bound_scalar_monte_carlo(scalar_model):
    # small analytic system, lookahead of 4 over a period-2 base policy
    dm = scalar_model
    steady = sr.steady_kalman(dm)
    _, err_cov, _ = steady
    h, p, theta, trials, n_steps = 4, 2, 0.3, 200, 200
    base = sr.design_periods(dm, [[1.0]], [[1.0]], [p])[p]
    tables = sr.build_tables(dm, [[1.0]], [[1.0]], base.cost_matrix, h, p, err_cov)
    cfg = sr.ExperimentConfig(horizon_steps=n_steps, trials=trials, seed_base=55,
                              q_weight=[[1.0]], r_weight=[[1.0]],
                              methods=("rollout",), h=h, p=p)
    ro = sr.simulate_trials(cfg, dm, sr.RolloutPolicy(tables=tables, theta=theta),
                            range(trials), steady=steady)
    pe = sr.simulate_trials(cfg, dm, periodic_rows(base.feedback_gain, p, rows=trials),
                            range(trials), steady=steady)
    holds, margin = sr.check_performance_bound(sr.Metrics.of(*ro[:2], theta),
                                               sr.Metrics.of(*pe[:2], theta), h)
    assert holds, f"margin {margin:.4f}"


def test_rollout_runs_in_blocks(benchmark_model, benchmark_steady, record):
    cfg = bench_cfg(trials=1)
    pol, _ = rollout_policy(benchmark_model)
    rec = record(pol)
    _, _, states = sr.simulate_trials(cfg, benchmark_model, rec, [0], steady=benchmark_steady,
                                      keep_states=True)
    assert states.shape == (1, 600, 4)
    # within every 6-step block the triggers follow a single pattern
    bits = rec.triggers.reshape(100, 6)
    known = {tuple(bits) for bits in pol.tables.bits.tolist()}
    assert all(tuple(row) in known for row in bits)


def test_mean_square_stability_controls():
    stable = sr.DiscreteModel(a=[[0.9]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                              meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])
    unstable = sr.DiscreteModel(a=[[1.05]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                                meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])

    class Null:
        def decide(self, x_hat, k):
            return np.zeros((len(x_hat), 1)), 0

    for dm, expect in ((stable, True), (unstable, False)):
        cfg = sr.ExperimentConfig(horizon_steps=600, trials=8, seed_base=31,
                                  q_weight=[[1.0]], r_weight=[[1.0]],
                                  methods=("periodic",))
        with np.errstate(over="ignore"):
            _, _, states = sr.simulate_trials(cfg, dm, Null(), range(8), sr.steady_kalman(dm),
                                              keep_states=True)
        assert states.shape == (8, 600, 1)
        bounded, report = sr.check_mean_square_stability(states, window_len=50)
        assert bounded is expect, report


def test_nonfinite_state_aborts():
    dm = sr.DiscreteModel(a=[[4.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[1.0], init_cov=[[1.0]])

    class Null:
        def decide(self, x_hat, k):
            return np.zeros((len(x_hat), 1)), 0

    cfg = sr.ExperimentConfig(horizon_steps=600, trials=1, seed_base=2,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        sr.simulate_trials(cfg, dm, Null(), [0], sr.steady_kalman(dm), keep_states=True)


def test_theta_sweep_isolates_cell_failures(monkeypatch):
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    cfg = sr.ExperimentConfig(horizon_steps=20, trials=1, seed_base=1,
                              q_weight=np.eye(2), r_weight=[[1.0]],
                              methods=("periodic",), candidates=(2,), theta_grid=(0.1, 0.2))
    # the load gate rejects this model; the design's own gate is under test
    monkeypatch.setattr(sr.ExperimentConfig, "build_model", lambda self: dm)
    cells = sr.theta_sweep(cfg, sr.design(cfg))
    assert len(cells) == 2
    # a failed design is not shared: every cell that needs it records the failure
    for cell in cells:
        assert cell.status.startswith("error:") and cell.status == cells[0].status
        assert cell.metrics is None


def test_theta_sweep_design_failure_stays_in_its_method(monkeypatch):
    # the period-2 design is pathological; the rollout base at p = 1 is designed on its own
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    cfg = sr.ExperimentConfig(horizon_steps=20, trials=2, seed_base=1,
                              q_weight=np.eye(2), r_weight=[[1.0]], theta_grid=(0.1, 0.2),
                              methods=("rollout", "periodic"), h=2, p=1, candidates=(2,))
    monkeypatch.setattr(sr.ExperimentConfig, "build_model", lambda self: dm)  # past the load gate
    cells = sr.theta_sweep(cfg, sr.design(cfg))
    assert [(c.theta, c.method) for c in cells] == [
        (0.1, "rollout"), (0.1, "periodic"), (0.2, "rollout"), (0.2, "periodic")]
    for cell in cells:
        if cell.method == "periodic":
            assert cell.status == ("error: AssumptionViolatedError: pathological sampling at "
                                   "period p=2: mode 1 of A^2 is uncontrollable")
            assert cell.metrics is None
        else:
            assert cell.status == "ok" and cell.metrics.trials == 2
            assert np.isfinite(cell.metrics.total)


def test_design_rollout_base_failure_stays_in_rollout(monkeypatch):
    # only the rollout base's lifted equation overflows (A and B scaled by 1e100, off the
    # candidates; the scaled pair keeps its rank): rollout fails with its own error, and the
    # periodic and sparse-MPC entries, solved in the same stack, have the bits of a design
    # made without rollout
    lift = sr.periodic.build_lifted

    def diverging_p6(dm, q_w, r_w, p):
        lifted = lift(dm, q_w, r_w, p)
        return lifted if p != 6 else replace(lifted, a_lift=1e100 * lifted.a_lift,
                                             b_lift=1e100 * lifted.b_lift)

    monkeypatch.setattr(sr.periodic, "build_lifted", diverging_p6)
    cfg = bench_cfg(candidates=(1, 2, 3), methods=("rollout", "periodic", "sparse_mpc"))
    designed = sr.design(cfg)
    without = sr.design(cfg, methods=("periodic", "sparse_mpc"))
    rollout = designed.methods["rollout"]
    assert isinstance(rollout, NonFiniteError), rollout
    assert str(rollout).startswith("Riccati iterate norm is inf/nan at iteration ")
    assert list(designed["periodic"]) == list(without["periodic"]) == [1, 2, 3]
    for p, pol in designed["periodic"].items():
        ref = without["periodic"][p]
        for name in ("feedback_gain", "cost_matrix", "gain_quadratic"):
            assert getattr(pol, name).tobytes() == getattr(ref, name).tobytes(), (p, name)
    (problem, factor), (ref_problem, ref_factor) = designed["sparse_mpc"], without["sparse_mpc"]
    for name in ("terminal_weight", "quad_matrix", "lin_matrix"):
        assert getattr(problem, name).tobytes() == getattr(ref_problem, name).tobytes(), name
    assert factor.step.tobytes() == ref_factor.step.tobytes() and factor.rho == ref_factor.rho


@pytest.mark.parametrize("name", ["benchmark", "scalar"])
def test_design_stack_keeps_each_equation_solo_bits(name):
    # the MPC terminal, solved in the stack of every lifted equation, is the period-1 Riccati
    # cost matrix of the plain model solved alone, bit for bit, and so is each period's policy
    cfg = load_config(CONFIGS / f"{name}.yaml")
    designed = sr.design(cfg, methods=("rollout", "periodic", "sparse_mpc"))
    dm = designed.model
    (sol,) = solve_dares([sr.RiccatiProblem(dm.a, dm.b, cfg.q_weight, np.zeros(dm.b.shape),
                                            cfg.r_weight)])
    terminal = sol.cost_matrix
    assert designed["sparse_mpc"][0].terminal_weight.tobytes() == terminal.tobytes()
    for p, pol in [*designed["periodic"].items(), (cfg.p, designed["rollout"][0])]:
        alone = sr.design_periods(dm, cfg.q_weight, cfg.r_weight, [p])[p]
        assert pol.cost_matrix.tobytes() == alone.cost_matrix.tobytes(), p
        assert pol.feedback_gain.tobytes() == alone.feedback_gain.tobytes(), p


@pytest.mark.parametrize("path, problems", [
    (CONFIGS / "benchmark.yaml", 4), (CONFIGS / "scalar.yaml", 3),
    (CONFIGS.parent / "perfbench" / "workloads" / "mpc-deep-lookahead.yaml", 5)],
    ids=["benchmark", "scalar", "mpc-deep-lookahead"])
def test_design_solves_each_period_once(monkeypatch, path, problems):
    # one lifted equation per distinct period of the three methods: the MPC terminal is the
    # period-1 equation, solved once even when 1 is also a candidate
    stacks = []
    solve_dares = periodic.solve_dares

    def counted(stack):
        stacks.append(len(stack))
        return solve_dares(stack)

    monkeypatch.setattr(periodic, "solve_dares", counted)
    designed = sr.design(load_config(path), methods=("rollout", "periodic", "sparse_mpc"))
    assert stacks == [problems]
    assert designed["sparse_mpc"][0].terminal_weight is designed["periodic"][1].cost_matrix


def test_unobservable_state_weight_fails_the_mpc_design(monkeypatch):
    # the second mode is stable but unseen by Q: the stabilizing terminal needs (A, Q^1/2)
    # observable, so sparse MPC fails as the periodic designs do
    dm = sr.DiscreteModel(a=np.diag([0.5, 0.9]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2), init_mean=np.zeros(2),
                          init_cov=np.eye(2))
    cfg = sr.ExperimentConfig(q_weight=np.diag([1.0, 0.0]), r_weight=[[1.0]], h=2, p=1,
                              candidates=(1,), methods=("sparse_mpc", "periodic"))
    monkeypatch.setattr(sr.ExperimentConfig, "build_model", lambda self: dm)  # past the load gate
    designed = sr.design(cfg)
    for method in ("sparse_mpc", "periodic"):
        with pytest.raises(AssumptionViolatedError, match="observable"):
            designed[method]


def test_nonfinite_error_names_step_and_trial():
    dm = sr.DiscreteModel(a=[[4.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[1.0], init_cov=[[1.0]])
    cfg = sr.ExperimentConfig(horizon_steps=600, trials=2, seed_base=2,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                   match=r"at step \d+ in trial (5|6)$"):
        sr.simulate_trials(cfg, dm, periodic_rows(np.zeros((1, 1)), 1, rows=2), [5, 6],
                           sr.steady_kalman(dm))


def test_rollout_needs_whole_blocks_alone_and_stacked(benchmark_model, benchmark_steady,
                                                      record):
    # 100 steps are not whole blocks of 6: the engine refuses a rollout policy before the
    # first step, alone or as one part of a multi-method loop
    cfg = bench_cfg(horizon_steps=100, methods=("periodic",))
    pol, base = rollout_policy(benchmark_model)
    periodic = periodic_rows(base.feedback_gain, 6, rows=2)
    stacked = simulate._Stacked([periodic, pol], [2, 2])
    for controller in (pol, stacked):
        with pytest.raises(ValueError, match="^horizon_steps must be a multiple of the block "
                                             "length$"):
            sr.simulate_trials(cfg, benchmark_model, controller, [0, 1, 0, 1],
                               steady=benchmark_steady)
    # whole blocks pass the guard, and each part's rows keep the bits they have alone
    cfg = bench_cfg(horizon_steps=96, methods=("periodic",))
    rec = record(stacked)
    got = sr.simulate_trials(cfg, benchmark_model, rec, [0, 1, 0, 1], steady=benchmark_steady,
                             keep_states=True)
    for controller, rows in ((periodic, slice(0, 2)), (pol, slice(2, 4))):
        alone = record(controller)
        ref = sr.simulate_trials(cfg, benchmark_model, alone, [0, 1], steady=benchmark_steady,
                                 keep_states=True)
        for name, value, expect in zip(("cost", "rate", "states"), got, ref):
            assert value[rows].tobytes() == expect.tobytes(), name
        assert rec.inputs[rows].tobytes() == alone.inputs.tobytes()
        assert rec.triggers[rows].tobytes() == alone.triggers.tobytes()


def test_theta_sweep_designs_once_per_call(monkeypatch):
    # theta-independent designs are shared by the cells of one sweep, not across sweeps
    periods, tables, mpc_problems, factors, controllers = [], [], [], [], []
    lift, build = sr.periodic.build_lifted, simulate.build_tables
    build_mpc, factorise = simulate.build_mpc_problem, simulate.admm_factor
    run = simulate.simulate_trials
    # every periodic design, a candidate or the rollout base, lifts its period once
    monkeypatch.setattr(sr.periodic, "build_lifted",
                        lambda *a, **kw: periods.append(a[3]) or lift(*a, **kw))
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
                                             methods=("rollout", "sparse_mpc")))}
    for _ in range(2):
        for calls in (periods, tables, mpc_problems, factors, controllers):
            calls.clear()
        cells = sr.theta_sweep(cfg)
        assert all(c.status == "ok" for c in cells)
        # the candidate design of p = 6 is the rollout base: each period is designed once
        assert sorted(periods) == [1, 2, 3, 6] and tables == [6]
        # one condensed problem and one inverse of H + rho I per sweep
        assert mpc_problems == [30] and factors == [1.0]
        # one closed loop per sweep
        assert len(controllers) == 1
    # its controller holds one part per method, each part the theta of each of its rows
    rollout, mpc, periodic = controllers[0].parts
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


def test_theta_sweep_records_admm_nonconvergence(benchmark_model, mpc_problem):
    # the batched solver keeps the failure type; the cell status names a trial
    cfg = bench_cfg(trials=3, horizon_steps=12, methods=("sparse_mpc",), mpc_max_iter=2,
                    theta_grid=(0.1, 0.3))
    cells = sr.theta_sweep(cfg)
    for cell in cells:
        assert cell.metrics is None
        assert re.fullmatch(r"error: NonConvergenceError: ADMM did not converge in 2 iterations "
                            r"for trial [0-2] of the batch \(primal .*, dual .*\)",
                            cell.status), cell.status
    prob = mpc_problem(benchmark_model, BENCH.q_weight, BENCH.r_weight, 30)
    controller = SparseMpcController(prob, 0.1, admm_factor(prob, 1.0), 1e-8, 2)
    with pytest.raises(NonConvergenceError) as err:
        sr.simulate_trials(cfg, benchmark_model, controller, range(3),
                           sr.steady_kalman(benchmark_model))
    assert err.value.iterations == 2 and err.value.residual > 0.0


def test_theta_sweep_stacked_cells_match_cells_alone(monkeypatch):
    # one closed loop per sweep gives every cell the bits it has alone; a failing cell
    # (non-finite state, ADMM cap) keeps the status it has alone, and the rest their bits
    design_periods = simulate.design_periods

    def overflowing_p3(*args):
        # the p = 3 gain scaled by 1e300 drives the state to inf at its second actuation
        designs = design_periods(*args)
        if 3 in designs:  # a sweep of rollout or sparse MPC alone designs no p = 3
            designs[3] = replace(designs[3], feedback_gain=designs[3].feedback_gain * 1e300)
        return designs

    monkeypatch.setattr(simulate, "design_periods", overflowing_p3)
    # theta = 0.1 picks p = 3 and needs about 60 ADMM iterations; 10 and 25 pick p = 6
    # and need at most about 40
    cfg = bench_cfg(trials=3, horizon_steps=60, theta_grid=(10.0, 0.1, 25.0), mpc_max_iter=50,
                    methods=("rollout", "periodic", "sparse_mpc"))
    with np.errstate(over="ignore", invalid="ignore"):
        cells = sr.theta_sweep(cfg)
        alone = [c for theta in cfg.theta_grid for c in
                 sr.theta_sweep(replace(cfg, theta_grid=(theta,)))]
    assert [(c.theta, c.method) for c in cells] == [(c.theta, c.method) for c in alone]
    for cell, ref in zip(cells, alone):
        assert cell.status == ref.status, (cell.theta, cell.method)
        if ref.status == "ok":
            assert np.array_equal(cell.metrics.per_trial_cost, ref.metrics.per_trial_cost)
            assert np.array_equal(cell.metrics.per_trial_rate, ref.metrics.per_trial_rate)
    # and every method's cells have the bits and statuses of the same sweep of that method alone
    with np.errstate(over="ignore", invalid="ignore"):
        by_method = {m: sr.theta_sweep(replace(cfg, methods=(m,))) for m in cfg.methods}
    for cell in cells:
        ref = by_method[cell.method][cfg.theta_grid.index(cell.theta)]
        assert (ref.theta, ref.method, ref.status) == (cell.theta, cell.method, cell.status)
        if ref.status == "ok":
            assert np.array_equal(cell.metrics.per_trial_cost, ref.metrics.per_trial_cost)
            assert np.array_equal(cell.metrics.per_trial_rate, ref.metrics.per_trial_rate)
    failed = {(c.theta, c.method): c.status for c in cells if c.status != "ok"}
    assert sorted(failed) == [(0.1, "periodic"), (0.1, "sparse_mpc")]
    assert re.fullmatch(r"error: NonFiniteError: state became non-finite at step \d+ in "
                        r"trial [0-2]", failed[0.1, "periodic"])
    assert re.fullmatch(r"error: NonConvergenceError: ADMM did not converge in 50 iterations "
                        r"for trial [0-2] of the batch \(primal .*, dual .*\)",
                        failed[0.1, "sparse_mpc"])


def test_theta_sweep_scores_every_cell_in_one_call(monkeypatch):
    # the rollout rows of all thetas run as one batch and are scored in one call per block,
    # each row at its own theta; 15 rows x 64 patterns are one chunk of selection
    calls, scores = [], sr.rollout.pattern_scores
    monkeypatch.setattr(sr.rollout, "pattern_scores", lambda tables, x, theta, *patterns: (
        calls.append((len(x), np.array(theta))) or scores(tables, x, theta, *patterns)))
    cfg = bench_cfg(trials=5, horizon_steps=60, theta_grid=(0.02, 0.2, 0.4),
                    methods=("rollout",))
    assert all(c.status == "ok" for c in sr.theta_sweep(cfg))
    assert len(calls) == cfg.horizon_steps // cfg.h
    for rows, theta in calls:
        assert rows == len(cfg.theta_grid) * cfg.trials
        assert np.array_equal(theta, np.repeat(cfg.theta_grid, cfg.trials))


def test_theta_sweep_batch_composition_invariance():
    # a trial's result must not depend on which trials share its batch
    cfg = bench_cfg(trials=4, horizon_steps=60, theta_grid=(0.1, 0.3),
                    methods=("rollout", "periodic"))
    first = sr.theta_sweep(cfg)
    again = sr.theta_sweep(cfg)
    double = sr.theta_sweep(replace(cfg, trials=8))
    for a, b, c in zip(first, again, double):
        assert a.theta == b.theta == c.theta and a.method == b.method == c.method
        assert a.status == b.status == c.status == "ok"
        assert np.array_equal(a.metrics.per_trial_cost, b.metrics.per_trial_cost)
        assert np.array_equal(a.metrics.per_trial_rate, b.metrics.per_trial_rate)
        assert np.array_equal(a.metrics.per_trial_cost, c.metrics.per_trial_cost[:4])
        assert np.array_equal(a.metrics.per_trial_rate, c.metrics.per_trial_rate[:4])


@pytest.mark.parametrize("kept_first", [False, True], ids=["periodic", "rollout+periodic"])
def test_theta_sweep_keeps_the_states_of_the_named_cells(kept_first):
    # the (0.4, periodic) cell is the last block of the loop: its states are those of its
    # controller's rows run alone, also behind a kept cell of the first block, and no other
    # cell keeps states
    grid = (0.02, 0.4)
    cfg = bench_cfg(trials=3, horizon_steps=60, theta_grid=grid, methods=("rollout", "periodic"))
    designed = sr.design(cfg)
    dm, steady = designed.model, designed.steady
    candidates = designed["periodic"]
    p = periodic.cheapest_period(candidates, steady[1], grid[1])[0]
    alone = {(grid[1], "periodic"): periodic_rows(candidates[p].feedback_gain, p, rows=3)}
    if kept_first:
        alone[grid[0], "rollout"] = sr.RolloutPolicy(designed["rollout"][1], grid[0])
    cells = sr.theta_sweep(cfg, designed, keep_states=list(alone))
    assert [cell.status for cell in cells] == ["ok"] * 4
    for cell in cells:
        key = (cell.theta, cell.method)
        if key not in alone:
            assert cell.states is None, key
            continue
        costs, rates, states = sr.simulate_trials(cfg, dm, alone[key], range(3), steady,
                                                  keep_states=True)
        assert cell.states.tobytes() == states.tobytes(), key
        assert cell.metrics.per_trial_cost.tobytes() == costs.tobytes(), key
        assert cell.metrics.per_trial_rate.tobytes() == rates.tobytes(), key


def test_single_trial_is_the_batch_of_one(benchmark_model, benchmark_steady, record):
    cfg = bench_cfg(horizon_steps=60)
    pol, _ = rollout_policy(benchmark_model)
    rec = record(pol)
    kept = sr.simulate_trials(cfg, benchmark_model, rec, [3, 7, 9], steady=benchmark_steady,
                              keep_states=True)
    kept += (rec.estimates, rec.inputs, rec.triggers)
    lean = sr.simulate_trials(cfg, benchmark_model, pol, [3, 7, 9], steady=benchmark_steady)
    assert lean[2].shape == (0, 60, 4)  # a loop that keeps no row records no state
    names = ("cost", "rate", "states", "estimates", "inputs", "triggers")
    for row, trial in enumerate((3, 7, 9)):
        rec = record(pol)
        alone = sr.simulate_trials(cfg, benchmark_model, rec, [trial], steady=benchmark_steady,
                                   keep_states=True)
        alone += (rec.estimates, rec.inputs, rec.triggers)
        for name, value, expect in zip(names, alone, kept):
            assert value[0].tobytes() == expect[row].tobytes(), name
        for name, value, expect in zip(names, alone, lean[:2]):
            assert value[0].tobytes() == expect[row].tobytes(), name


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


def _reference_deciders(method, dm, theta, mpc_problem):
    """Per-trial decision functions built straight from the design routines."""
    q_w, r_w = BENCH.q_weight, BENCH.r_weight
    if method == "periodic":
        gain = sr.design_periods(dm, q_w, r_w, [3])[3].feedback_gain

        def make():
            return lambda xhat, k: ((gain @ xhat, 1) if k % 3 == 0 else (np.zeros(1), 0))

        return make, periodic_rows(gain, 3, rows=3)
    if method == "rollout":
        pol, _ = rollout_policy(dm, theta=theta)

        def make():
            chosen = {}

            def decide(xhat, k):
                if k % 6 == 0:
                    chosen["m"] = sr.select_pattern(pol.tables, xhat, theta)
                m, tau = chosen["m"], k % 6
                if pol.tables.bits[m, tau]:
                    return pol.tables.path_gains(m)[tau] @ xhat, 1
                return np.zeros(1), 0

            return decide

        return make, pol
    prob = mpc_problem(dm, q_w, r_w, horizon=30)
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


@pytest.mark.parametrize("method", ["rollout", "periodic", "sparse_mpc", "periodic-unitcov",
                                    "rollout-unitcov"])
@pytest.mark.parametrize("seed_base", [123, 2024])
def test_batched_engine_matches_per_trial_reference(benchmark_model, mpc_problem, record,
                                                   method, seed_base):
    # the -unitcov model draws x0 from init_cov = I; the filter still runs at the stationary gain
    method, _, unit_cov = method.partition("-")
    dm = (benchmark_model.with_init(benchmark_model.init_mean, np.eye(4)) if unit_cov
          else benchmark_model)
    steady = sr.steady_kalman(benchmark_model)
    cfg = bench_cfg(horizon_steps=36 if method == "sparse_mpc" else 120, seed_base=seed_base)
    make, controller = _reference_deciders(method, benchmark_model, 0.2, mpc_problem)
    trials = [0, 1, 5]
    rec = record(controller)
    got_costs, got_rates, _ = sr.simulate_trials(cfg, dm, rec, trials, steady=steady)
    for row, trial in enumerate(trials):
        noise = one_key(dm, seed_base, trial, cfg.horizon_steps)
        costs, triggers = _reference_trial(dm, BENCH.q_weight, BENCH.r_weight, noise, steady,
                                           make())
        assert np.array_equal(rec.triggers[row], triggers)
        assert got_rates[row] == triggers.mean()
        ref, got = costs.mean(), got_costs[row]
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_stability_report_contents(benchmark_model, benchmark_steady):
    cfg = bench_cfg(trials=3)
    pol, _ = rollout_policy(benchmark_model, theta=0.2)
    _, _, states = sr.simulate_trials(cfg, benchmark_model, pol, range(3),
                                      steady=benchmark_steady, keep_states=True)
    bounded, report = sr.check_mean_square_stability(states, window_len=50)
    assert bounded
    assert report.window_means.shape == (12,)
    assert report.slope <= 3.0 * report.slope_stderr


def test_stability_window_must_be_positive():
    # a zero window used to fail in n_steps // window_len with ZeroDivisionError
    states = np.ones((1, 40, 2))  # one trial of 40 steps
    for window_len in (0, -1):
        with pytest.raises(ValueError, match="window_len must be >= 1"):
            sr.check_mean_square_stability(states, window_len=window_len)
    with pytest.raises(ValueError, match="need at least one trial"):  # was IndexError
        sr.check_mean_square_stability(np.empty((0, 40, 2)), window_len=10)
    assert sr.check_mean_square_stability(states, window_len=10)[0]


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        bench_cfg(horizon_steps=0)
    with pytest.raises(ConfigError):
        bench_cfg(h=5, p=2)
    with pytest.raises(ConfigError):
        bench_cfg(horizon_steps=601)
    with pytest.raises(ConfigError):
        bench_cfg(methods=("other",))
