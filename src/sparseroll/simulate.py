"""Closed-loop Monte Carlo simulation and trade-off estimation.

One engine runs a batch of rows, such as every (theta, trial) pair of a
sweep method, as a single closed loop over (rows, n) arrays; a single trial
is the batch of one.  The per-step order follows the information structure
of the problem: measure, update the estimate, decide (u, delta), pay the
stage cost, then evolve the plant.  Noise is drawn from counter-based
generators keyed on (seed_base, trial), so a row's result does not depend on
which rows share its batch, and all rows of one trial index consume
identical noise (common random numbers).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .estimator import kalman_init, kalman_step, row_product, steady_kalman
from .exceptions import NonFiniteError
from .periodic import cheapest_period, design_candidates, design_periodic
from .plant import DiscreteModel
from .rollout import RolloutPolicy, build_tables
from .sparse_mpc import admm_factor, build_mpc_problem, first_inputs, solve_admm


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

    @classmethod
    def of(cls, costs: np.ndarray, rates: np.ndarray, theta: float) -> "Metrics":
        """Means and standard errors of the per-trial costs and rates."""
        n = len(costs)
        se_c = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        se_r = float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        avg_c, avg_r = float(costs.mean()), float(rates.mean())
        return cls(avg_control_cost=avg_c, avg_actuation_rate=avg_r, total=avg_c + theta * avg_r,
                   stderr_control_cost=se_c, stderr_rate=se_r, theta=theta,
                   per_trial_cost=costs, per_trial_rate=rates)


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
    """Apply the gain at multiples of the period, zero otherwise; both may be given per row."""

    def __init__(self, gain: np.ndarray, period):
        self.gain = gain
        self.period = period

    def decide(self, x_hat, k: int):
        gain = np.broadcast_to(self.gain, (len(x_hat),) + self.gain.shape[-2:])
        on = np.broadcast_to(k % np.asarray(self.period) == 0, (len(x_hat),))
        return (np.where(on[:, None], np.einsum("tqn,tn->tq", gain, x_hat), 0.0),
                on.astype(np.int8))


class SparseMpcController:
    """Warm-started receding-horizon sparse MPC at group weight theta.

    ``theta`` is one weight or one per row.  ``factor`` is :func:`admm_factor`
    of ``problem``; neither depends on theta, so all rows share them.  The
    rows are solved in lockstep, each with its own (z, w) warm start, so a
    row sees the same solves whatever batch it runs in.
    """

    def __init__(self, problem, theta, factor, tol: float, max_iter: int):
        self.problem = problem
        self.theta = theta
        self.factor = factor
        self.tol = tol
        self.max_iter = max_iter
        self._warm = None

    def decide(self, x_hat, k: int):
        prob = self.problem
        if k == 0:
            if x_hat.shape[-1] != prob.lin_matrix.shape[1]:
                raise ValueError("estimate dimension does not match the model")
            zeros = np.zeros((len(x_hat), prob.quad_matrix.shape[0]))
            self._warm = (zeros, zeros)
        z, w, _ = solve_admm(prob, x_hat, self.theta, self._warm, self.factor, self.tol,
                             self.max_iter)
        # receding horizon: start the next solve from these iterates, one block on
        q = prob.group_size
        self._warm = tuple(np.concatenate([v[:, q:], np.zeros((len(v), q))], axis=1)
                           for v in (z, w))
        return first_inputs(z, q)


def _stacked_noise(dm: DiscreteModel, seed_base: int, keys, n_steps: int):
    """Each key's :func:`noise_streams`, stacked: x0 (K, n), w (N, K, n), v (N+1, K, m)."""
    x0s, w_seqs, v_seqs = zip(*(noise_streams(dm, seed_base, t, n_steps) for t in keys))
    return np.array(x0s), np.stack(w_seqs, axis=1), np.stack(v_seqs, axis=1)


def simulate_trials(cfg: ExperimentConfig, dm: DiscreteModel, controller, trials, steady=None,
                    noise=None, keep_traces=False) -> list[SimTrace]:
    """Run the given rows as one closed loop over (rows, n) arrays; one trace per row.

    ``controller.decide(x_hat, k)`` gets the estimates (rows, n) and returns
    u (rows, q) and delta (rows,), or values that broadcast to them.  The
    filter runs at the gain of ``steady``, the :func:`steady_kalman` triple
    (solved here when not given).  ``trials`` holds each row's trial key;
    rows of one key share its noise draw, or ``noise``, the stacked
    (x0 (K, n), w (N, K, n), v (N+1, K, m)) realization of the K distinct
    keys in ascending order.  The rows selected by ``keep_traces`` (a bool
    or a mask) record full traces.  A non-finite state raises
    :class:`NonFiniteError` naming the step and the row's trial key.
    """
    trials = tuple(int(t) for t in trials)
    n_steps = cfg.horizon_steps
    if isinstance(controller, RolloutPolicy) and n_steps % controller.tables.horizon != 0:
        raise ValueError("horizon_steps must be a multiple of the block length")
    keys, pick = np.unique(trials, return_inverse=True)  # pick: row -> noise column
    x0, w, v = _stacked_noise(dm, cfg.seed_base, keys, n_steps) if noise is None else noise
    x = x0[pick]
    y = row_product(x, dm.c) + v[0, pick]
    gain = (steady_kalman(dm) if steady is None else steady)[0]
    x_hat = kalman_init(dm, y, gain)

    n_rows = len(trials)
    keep = np.broadcast_to(keep_traces, (n_rows,))
    stage_costs = np.empty((n_rows, n_steps))
    triggers = np.empty((n_rows, n_steps), dtype=np.int8)
    records = {name: np.empty((keep.sum(), n_steps, dim)) for name, dim in (
        ("states", dm.n_states), ("estimates", dm.n_states),
        ("inputs", dm.n_inputs), ("outputs", dm.n_outputs))} if keep.any() else {}
    for k in range(n_steps):
        u, delta = controller.decide(x_hat, k)
        u = np.asarray(u, dtype=float)
        if u.shape != (n_rows, dm.n_inputs):
            u = np.broadcast_to(u, (n_rows, dm.n_inputs))
        triggers[:, k] = delta
        stage_costs[:, k] = (np.einsum("ti,ij,tj->t", x, cfg.q_weight, x)
                             + np.einsum("ti,ij,tj->t", u, cfg.r_weight, u))
        if records:
            for name, value in (("states", x), ("estimates", x_hat),
                                ("inputs", u), ("outputs", y)):
                records[name][:, k] = value[keep]
        x = row_product(x, dm.a) + row_product(u, dm.b) + w[k, pick]
        if not np.isfinite(x).all():
            row = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise NonFiniteError(f"state became non-finite at step {k + 1} in trial "
                                 f"{trials[row]}")
        y = row_product(x, dm.c) + v[k + 1, pick]
        x_hat = kalman_step(x_hat, u, y, dm, gain)

    # a kept trace owns its rows, so it does not hold the arrays of the whole batch alive
    slot = np.cumsum(keep) - 1
    return [SimTrace(triggers=triggers[r], stage_costs=stage_costs[r]) if not keep[r] else
            SimTrace(triggers=triggers[r].copy(), stage_costs=stage_costs[r].copy(),
                     **{name: rec[slot[r]] for name, rec in records.items()})
            for r in range(n_rows)]


def simulate_trial(cfg: ExperimentConfig, dm: DiscreteModel, controller, seed: int,
                   steady=None, noise=None) -> SimTrace:
    """Run one closed-loop trial: the batch-of-one call of :func:`simulate_trials`.

    ``seed`` is the trial key; ``noise`` may inject an explicit
    (x0, w_seq, v_seq) realization instead.
    """
    if noise is not None:  # the one realization as a stack of one key
        noise = tuple(np.expand_dims(np.asarray(a, dtype=float), -2) for a in noise)
    return simulate_trials(cfg, dm, controller, [seed], steady=steady, noise=noise,
                           keep_traces=True)[0]


def estimate_metrics(traces, theta: float) -> Metrics:
    """Across-trial means and standard errors of cost and actuation rate."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    return Metrics.of(np.array([t.control_cost for t in traces]),
                      np.array([t.actuation_rate for t in traces]), theta)


@dataclass(frozen=True)
class Design:
    """The theta-independent design of a config: the :func:`steady_kalman` triple and ``methods``.

    ``methods`` maps each designed method to its design or to the exception
    that building it raised: ``periodic`` to ``{p: PeriodicPolicy}``,
    ``rollout`` to (base policy, :class:`RolloutTables`) and ``sparse_mpc``
    to (problem, :func:`admm_factor` at the configured penalty).
    """

    steady: tuple
    methods: dict

    def __getitem__(self, method: str):
        """The design of ``method``; raises the exception that building it raised."""
        entry = self.methods[method]
        if isinstance(entry, Exception):
            raise entry
        return entry


def design(cfg: ExperimentConfig, dm: DiscreteModel, methods=None) -> Design:
    """The filter and the design of each of ``methods`` (by default ``cfg.methods``), made once.

    The rollout base is the periodic candidate of period p when there is one.
    """
    steady = steady_kalman(dm)
    q_w, r_w = cfg.q_weight, cfg.r_weight
    designs = {}

    def rollout():
        candidates = designs.get("periodic")
        base = (candidates[cfg.p] if isinstance(candidates, dict) and cfg.p in candidates
                else design_periodic(dm, q_w, r_w, cfg.p))
        return base, build_tables(dm, q_w, r_w, base.cost_matrix, cfg.h, cfg.p, steady[1])

    def sparse_mpc():
        problem = build_mpc_problem(dm, q_w, r_w, cfg.mpc_horizon)
        return problem, admm_factor(problem, cfg.mpc_penalty)

    # periodic first, since its candidates may hold the rollout base
    builders = {"periodic": lambda: design_candidates(dm, q_w, r_w, cfg.candidates),
                "rollout": rollout, "sparse_mpc": sparse_mpc}
    for method, build in builders.items():
        if method in (cfg.methods if methods is None else methods):
            try:
                designs[method] = build()
            except Exception as exc:  # noqa: BLE001 - a failed design fails what needs it
                designs[method] = exc
    return Design(steady, designs)


_design = design  # the function, under a name that theta_sweep's argument does not hide


@dataclass(frozen=True)
class SweepCell:
    """One (theta, method) aggregate of a sweep; metrics None on failure, traces when kept."""

    theta: float
    method: str
    metrics: Metrics | None
    status: str = "ok"
    traces: list[SimTrace] | None = field(default=None, repr=False)


def theta_sweep(cfg: ExperimentConfig, dm: DiscreteModel, keep_traces=(), design=None):
    """Run every method of ``cfg`` over its theta grid with common random numbers.

    The designs do not depend on theta: ``design`` is the :class:`Design` of
    (at least) ``cfg``'s methods, made here when not given, and the noise of
    every trial is drawn once.  Each method then runs once, row g T + t
    being trial t of theta cell g at that cell's theta.  The (theta, method)
    cells in ``keep_traces`` keep their full traces.  A failure is recorded
    in the status of the cells it affects and the sweep continues: when a
    method's closed loop raises, each of its cells runs alone, for its own
    status.
    """
    if design is None:
        design = _design(cfg, dm)
    steady = design.steady
    grid, n_trials = cfg.theta_grid, cfg.trials

    def run(method, batch):
        # one closed loop over the rows of the cells in batch, split back into cells
        thetas = [grid[i] for i in batch]
        rows_theta = np.repeat(thetas, n_trials)
        if method == "rollout":
            controller = RolloutPolicy(design[method][1], rows_theta)
        elif method == "sparse_mpc":
            problem, factor = design[method]
            controller = SparseMpcController(problem, rows_theta, factor, cfg.mpc_tol,
                                             cfg.mpc_max_iter)
        else:
            candidates = design[method]
            periods = np.repeat([cheapest_period(candidates, steady[1], t)[0] for t in thetas],
                                n_trials)
            controller = PeriodicController(
                np.array([candidates[p].feedback_gain for p in periods]), periods)
        keep = np.repeat([(theta, method) in keep_traces for theta in thetas], n_trials)
        traces = simulate_trials(cfg, dm, controller, list(range(n_trials)) * len(batch),
                                 steady=steady, noise=noise, keep_traces=keep)
        for g, i in enumerate(batch):
            rows = traces[g * n_trials:(g + 1) * n_trials]
            cells[i, method] = SweepCell(float(grid[i]), method, estimate_metrics(rows, grid[i]),
                                         traces=rows if keep[g * n_trials] else None)

    noise = _stacked_noise(dm, cfg.seed_base, range(n_trials), cfg.horizon_steps)
    cells = {}
    for method in cfg.methods:
        batches = [list(range(len(grid)))]            # theta cells that run as one batch
        while batches:
            batch = batches.pop()
            try:
                run(method, batch)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                if len(batch) > 1:
                    batches += [[i] for i in batch]
                else:
                    cells[batch[0], method] = SweepCell(float(grid[batch[0]]), method, None,
                                                        status=f"error: {exc}")
    return [cells[i, method] for i in range(len(grid)) for method in cfg.methods]


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
