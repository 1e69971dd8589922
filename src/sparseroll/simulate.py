"""Closed-loop Monte Carlo simulation and trade-off estimation.

One engine runs a batch of trials as a single closed loop over (T, n)
arrays; a single trial is the batch of one.  The per-step order follows the
information structure of the problem: measure, update the estimate, decide
(u, delta), pay the stage cost, then evolve the plant.  Noise is drawn from
counter-based generators keyed on (seed_base, trial), so a trial's result
does not depend on which trials share its batch, and all methods compared
at the same trial index consume identical noise (common random numbers).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import METHODS, ExperimentConfig
from .estimator import kalman_init, kalman_step, row_product, steady_kalman
from .exceptions import NonFiniteError
from .periodic import best_periodic, design_periodic
from .plant import DiscreteModel
from .rollout import RolloutPolicy, build_tables, with_theta
from .sparse_mpc import AdmmState, admm_factor, build_mpc_problem, first_inputs, solve_admm


@dataclass(frozen=True)
class SimTrace:
    """Per-step closed-loop records of one trial.

    A sweep keeps only the stage costs and triggers; the other records are
    filled for :func:`simulate_trial` and ``keep_traces``.
    """

    triggers: np.ndarray
    stage_costs: np.ndarray
    states: np.ndarray | None = None
    estimates: np.ndarray | None = None
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None

    @property
    def control_cost(self) -> float:
        return float(self.stage_costs.mean())

    @property
    def actuation_rate(self) -> float:
        return float(self.triggers.mean())


@dataclass(frozen=True)
class Metrics:
    """Across-trial averages of control cost and actuation rate."""

    avg_control_cost: float
    avg_actuation_rate: float
    total: float
    stderr_control_cost: float
    stderr_rate: float
    theta: float
    per_trial_cost: np.ndarray
    per_trial_rate: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.per_trial_cost)


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


def noise_streams(dm: DiscreteModel, seed_base: int, trial: int, n_steps: int):
    """Deterministic (x0, process, measurement) noise for one trial.

    A counter-based Philox generator keyed on (seed_base, trial) draws the
    initial state, then all process noises, then all measurement noises, so
    the realization depends only on the key, never on scheduling.
    """
    seq = np.random.SeedSequence(entropy=[int(seed_base) & (2**64 - 1), int(trial)])
    gen = np.random.Generator(np.random.Philox(seq))
    lx = _cov_factor(dm.init_cov)
    lw = _cov_factor(dm.proc_cov)
    lv = _cov_factor(dm.meas_cov)
    x0 = dm.init_mean + lx @ gen.standard_normal(dm.n_states)
    w_seq = gen.standard_normal((n_steps, dm.n_states)) @ lw.T
    v_seq = gen.standard_normal((n_steps + 1, dm.n_outputs)) @ lv.T
    return x0, w_seq, v_seq


class PeriodicController:
    """Apply the periodic gain at multiples of the period, zero otherwise."""

    def __init__(self, gain: np.ndarray, period: int):
        self.gain = gain
        self.period = period

    def decide(self, est, k: int):
        if k % self.period == 0:
            return row_product(est.estimate, self.gain), 1
        return np.zeros((len(est.estimate), self.gain.shape[0])), 0


class SparseMpcController:
    """Warm-started receding-horizon sparse MPC with ADMM penalty rho.

    The trials of a batch are solved in lockstep with one Cholesky factor
    (``factor``, made here when not given), and each keeps its own warm
    start, so a trial sees the same solves whatever batch it runs in.
    """

    def __init__(self, problem, dm: DiscreteModel, tol: float = 1e-8, max_iter: int = 10_000,
                 penalty: float = 1.0, factor=None):
        self.problem = problem
        self.dm = dm
        self.tol = tol
        self.max_iter = max_iter
        self.penalty = penalty
        self.factor = admm_factor(problem, penalty) if factor is None else factor
        self._warm: AdmmState | None = None

    def decide(self, est, k: int):
        if k == 0:
            if est.estimate.shape[-1] != self.dm.n_states:
                raise ValueError("estimate dimension does not match the model")
            shape = (len(est.estimate), self.problem.quad_matrix.shape[0])
            self._warm = AdmmState(np.zeros(shape), np.zeros(shape), np.zeros(shape),
                                   self.penalty)
        z, _ = solve_admm(self.problem, est.estimate, self._warm, self.factor, tol=self.tol,
                          max_iter=self.max_iter)
        self._warm = self._warm.shifted(self.problem.group_size)
        return first_inputs(z, self.problem.group_size)


def simulate_trials(cfg: ExperimentConfig, dm: DiscreteModel, controller, trials, steady=None,
                    noise=None, keep_traces: bool = False) -> list[SimTrace]:
    """Run the given trials as one closed loop over (T, n) arrays; one trace per trial.

    ``controller.decide(est, k)`` gets the batched :class:`EstimatorState` and
    returns u (T, q) and delta (T,), or values that broadcast to them.  The
    trial keys select the noise draws unless ``noise`` gives per-trial
    (x0, w_seq, v_seq).  A non-finite state raises :class:`NonFiniteError`.
    """
    trials = tuple(int(t) for t in trials)
    n_steps = cfg.horizon_steps
    if isinstance(controller, RolloutPolicy) and n_steps % controller.tables.horizon != 0:
        raise ValueError("horizon_steps must be a multiple of the block length")
    if noise is None:
        noise = [noise_streams(dm, cfg.seed_base, t, n_steps) for t in trials]
    x0s, w_seqs, v_seqs = zip(*noise)
    x = np.array(x0s, dtype=float)
    w = np.stack(w_seqs, axis=1)                      # (N, T, n)
    v = np.stack(v_seqs, axis=1)                      # (N + 1, T, m)
    y = row_product(x, dm.c) + v[0]
    est = kalman_init(dm, y, steady=steady)

    n_trials = len(trials)
    stage_costs = np.empty((n_trials, n_steps))
    triggers = np.empty((n_trials, n_steps), dtype=np.int8)
    records = {name: np.empty((n_trials, n_steps, dim)) for name, dim in (
        ("states", dm.n_states), ("estimates", dm.n_states),
        ("inputs", dm.n_inputs), ("outputs", dm.n_outputs))} if keep_traces else {}
    for k in range(n_steps):
        u, delta = controller.decide(est, k)
        u = np.asarray(u, dtype=float)
        if u.shape != (n_trials, dm.n_inputs):
            u = np.broadcast_to(u, (n_trials, dm.n_inputs))
        triggers[:, k] = delta
        stage_costs[:, k] = (np.einsum("ti,ij,tj->t", x, cfg.q_weight, x)
                             + np.einsum("ti,ij,tj->t", u, cfg.r_weight, u))
        if records:
            for name, value in (("states", x), ("estimates", est.estimate),
                                ("inputs", u), ("outputs", y)):
                records[name][:, k] = value
        x = row_product(x, dm.a) + row_product(u, dm.b) + w[k]
        if not np.isfinite(x).all():
            bad = trials[int(np.argmin(np.isfinite(x).all(axis=1)))]
            raise NonFiniteError(f"state became non-finite at step {k + 1} in trial {bad}")
        y = row_product(x, dm.c) + v[k + 1]
        est = kalman_step(est, u, y, dm)

    return [SimTrace(triggers=triggers[t], stage_costs=stage_costs[t],
                     **{name: rec[t] for name, rec in records.items()})
            for t in range(n_trials)]


def simulate_trial(cfg: ExperimentConfig, dm: DiscreteModel, controller, seed: int,
                   steady=None, noise=None) -> SimTrace:
    """Run one closed-loop trial: the batch-of-one call of :func:`simulate_trials`.

    ``seed`` is the trial key; ``noise`` may inject an explicit
    (x0, w_seq, v_seq) realization instead.
    """
    return simulate_trials(cfg, dm, controller, [seed], steady=steady,
                           noise=None if noise is None else [noise], keep_traces=True)[0]


def estimate_metrics(traces, theta: float) -> Metrics:
    """Across-trial means and standard errors of cost and actuation rate."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    costs = np.array([t.control_cost for t in traces])
    rates = np.array([t.actuation_rate for t in traces])
    n = len(traces)
    se_c = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    se_r = float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    avg_c = float(costs.mean())
    avg_r = float(rates.mean())
    return Metrics(
        avg_control_cost=avg_c,
        avg_actuation_rate=avg_r,
        total=avg_c + theta * avg_r,
        stderr_control_cost=se_c,
        stderr_rate=se_r,
        theta=theta,
        per_trial_cost=costs,
        per_trial_rate=rates,
    )


def _shared(shared: dict, key, build):
    """``shared[key]``, built on a miss; a build that raises stores nothing."""
    if key not in shared:
        shared[key] = build()
    return shared[key]


def make_controller_factory(method: str, cfg: ExperimentConfig, dm: DiscreteModel, theta: float,
                            steady=None, shared: dict | None = None):
    """Design the controller for one (method, theta) cell.

    Returns (factory, info) where factory() yields a fresh controller for a
    batch of trials and info carries design byproducts (chosen period,
    tables).  ``shared`` is a dict that lives for one sweep: the parts that
    do not depend on theta (periodic designs, the Riccati arrays of the
    rollout tables, the condensed MPC problem and its ADMM factor) are built
    once and reused from it.
    """
    if steady is None:
        steady = steady_kalman(dm)
    _, err_cov, _ = steady
    q_w, r_w = cfg.q_weight, cfg.r_weight
    shared = {} if shared is None else shared

    def design(dm, q_w, r_w, p, alpha=1.0):
        return _shared(shared, ("periodic", p, alpha),
                       lambda: design_periodic(dm, q_w, r_w, p, alpha=alpha))

    if method == "rollout":
        base = design(dm, q_w, r_w, cfg.p, alpha=cfg.alpha)
        tables = with_theta(_shared(shared, ("tables", cfg.h, cfg.p, cfg.alpha), lambda: (
            build_tables(dm, q_w, r_w, base.cost_matrix, cfg.h, cfg.p, theta, cfg.alpha, err_cov)
        )), theta)
        info = {"tables": tables, "base_policy": base, "p": cfg.p, "h": cfg.h}
        return (lambda: RolloutPolicy(tables=tables)), info
    if method == "periodic":
        p_star, formula_cost = best_periodic(dm, q_w, r_w, cfg.candidates, err_cov, theta,
                                             design=design)
        pol = design(dm, q_w, r_w, p_star, alpha=1.0)
        info = {"p": p_star, "formula_cost": formula_cost, "policy": pol}
        return (lambda: PeriodicController(pol.feedback_gain, p_star)), info
    if method == "sparse_mpc":
        def build_mpc():
            problem = build_mpc_problem(dm, q_w, r_w, cfg.mpc_horizon, 0.0)
            return problem, admm_factor(problem, cfg.mpc_penalty)

        problem, factor = _shared(shared, ("mpc", cfg.mpc_horizon, cfg.mpc_penalty), build_mpc)
        problem = replace(problem, group_weight=float(theta))
        info = {"problem": problem}
        return (
            lambda: SparseMpcController(problem, dm, tol=cfg.mpc_tol, max_iter=cfg.mpc_max_iter,
                                        penalty=cfg.mpc_penalty, factor=factor)
        ), info
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SweepCell:
    """One (theta, method) aggregate of a sweep; metrics None on failure."""

    theta: float
    method: str
    metrics: Metrics | None
    status: str = "ok"
    info: dict = field(default_factory=dict, repr=False)


def theta_sweep(cfg: ExperimentConfig, dm: DiscreteModel, theta_grid, methods=METHODS,
                keep_traces: bool = False):
    """Run every enabled method over the theta grid with common random numbers.

    Each cell runs all its trials as one batch.  The noise and the
    theta-independent designs are made once per call and shared by the
    cells.  Per-cell failures are recorded in the returned cells' status and
    the sweep continues.
    """
    cells: list[SweepCell] = []
    steady = steady_kalman(dm)
    shared: dict = {}
    trials = range(cfg.trials)
    for theta in theta_grid:
        for method in methods:
            try:
                factory, info = make_controller_factory(method, cfg, dm, theta, steady=steady,
                                                        shared=shared)
                noise = _shared(shared, "noise", lambda: [
                    noise_streams(dm, cfg.seed_base, t, cfg.horizon_steps) for t in trials])
                traces = simulate_trials(cfg, dm, factory(), trials, steady=steady, noise=noise,
                                         keep_traces=keep_traces)
                metrics = estimate_metrics(traces, theta)
                if keep_traces:
                    info = dict(info, traces=traces)
                cells.append(SweepCell(theta=float(theta), method=method, metrics=metrics,
                                       status="ok", info=info))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                cells.append(SweepCell(theta=float(theta), method=method, metrics=None,
                                       status=f"error: {exc}"))
    return cells


def check_performance_bound(metrics_rollout: Metrics, metrics_periodic: Metrics, h: int):
    """Empirical lookahead performance bound versus the base periodic policy.

    Holds iff total(rollout) <= total(periodic) + 1/h + 3 pooled standard
    errors of the per-trial totals.  Returns (holds, margin).
    """
    theta = metrics_rollout.theta
    tot_ro = metrics_rollout.per_trial_cost + theta * metrics_rollout.per_trial_rate
    tot_pe = metrics_periodic.per_trial_cost + theta * metrics_periodic.per_trial_rate
    se_ro = tot_ro.std(ddof=1) / math.sqrt(len(tot_ro)) if len(tot_ro) > 1 else 0.0
    se_pe = tot_pe.std(ddof=1) / math.sqrt(len(tot_pe)) if len(tot_pe) > 1 else 0.0
    pooled = math.sqrt(se_ro**2 + se_pe**2)
    bound = metrics_periodic.total + 1.0 / h + 3.0 * pooled
    margin = bound - metrics_rollout.total
    return margin >= 0.0, float(margin)


@dataclass(frozen=True)
class StabilityReport:
    window_means: np.ndarray
    slope: float
    slope_stderr: float
    last_window_ratio: float
    bounded: bool


def check_mean_square_stability(traces, window_len: int):
    """Windowed trend test of E||x_k||^2 across trials.

    Bounded iff the last-window mean stays within 1.5x the maximum of the
    middle windows and the fitted slope over windows is not significantly
    positive (slope <= 3 sigma).  Returns (bounded, report).
    """
    traces = list(traces)
    n_steps = traces[0].states.shape[0]
    if n_steps < 4 * window_len:
        raise ValueError("need at least four windows")
    sq = np.mean([np.sum(t.states**2, axis=1) for t in traces], axis=0)
    n_windows = n_steps // window_len
    means = sq[: n_windows * window_len].reshape(n_windows, window_len).mean(axis=1)

    middle = means[1:-1]
    denom = max(float(middle.max()), 1e-300)
    last_ratio = float(means[-1]) / denom
    last_ok = means[-1] <= 1.5 * middle.max()

    idx = np.arange(n_windows, dtype=float)
    x_c = idx - idx.mean()
    sxx = float(x_c @ x_c)
    slope = float(x_c @ means) / sxx
    resid = means - means.mean() - slope * x_c
    dof = max(n_windows - 2, 1)
    slope_se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx)
    slope_ok = slope <= 3.0 * slope_se

    bounded = bool(last_ok and slope_ok)
    report = StabilityReport(
        window_means=means,
        slope=slope,
        slope_stderr=slope_se,
        last_window_ratio=last_ratio,
        bounded=bounded,
    )
    return bounded, report
