"""Closed-loop Monte Carlo simulation and trade-off estimation.

One engine runs a batch of rows, such as every (method, theta, trial) row
of a sweep, as a single closed loop over (rows, n) arrays; a single trial
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
from .periodic import cheapest_period, design_periods, period_policies
from .plant import DiscreteModel
from .rollout import RolloutPolicy, build_tables
from .sparse_mpc import admm_factor, build_mpc_problem, first_inputs, solve_admm


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of per-trial values; 0 for a single trial."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


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
        avg_c, avg_r = float(costs.mean()), float(rates.mean())
        return cls(avg_control_cost=avg_c, avg_actuation_rate=avg_r, total=avg_c + theta * avg_r,
                   stderr_control_cost=_stderr(costs), stderr_rate=_stderr(rates), theta=theta,
                   per_trial_cost=costs, per_trial_rate=rates)


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


def noise_streams(dm: DiscreteModel, seed_base: int, keys, n_steps: int):
    """Deterministic (x0, process, measurement) noise of each trial key, stacked as
    x0 (K, n), w (N, K, n) and v (N+1, K, m).

    A counter-based Philox generator keyed on (seed_base, key) draws the key's initial state,
    then all its process noises, then all its measurement noises, so its realization depends
    only on the key, never on the other keys.  Each covariance is factored once per call.
    """
    lx, lw, lv = (_cov_factor(cov) for cov in (dm.init_cov, dm.proc_cov, dm.meas_cov))

    def draw(key):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed_base, int(key)])))
        return (dm.init_mean + lx @ gen.standard_normal(dm.n_states),
                gen.standard_normal((n_steps, dm.n_states)) @ lw.T,
                gen.standard_normal((n_steps + 1, dm.n_outputs)) @ lv.T)

    x0s, w_seqs, v_seqs = zip(*map(draw, keys))
    return np.array(x0s), np.stack(w_seqs, axis=1), np.stack(v_seqs, axis=1)


class PeriodicController:
    """Apply each row's gain (rows, q, n) at the multiples of its period (rows,), zero otherwise."""

    def __init__(self, gain: np.ndarray, period: np.ndarray):
        self.gain = gain
        self.period = period

    def decide(self, x_hat, k: int):
        on = k % self.period == 0
        return (np.where(on[:, None], np.einsum("tqn,tn->tq", self.gain, x_hat), 0.0),
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


class _Stacked:
    """Controllers of consecutive row blocks, run as one: each ``parts`` entry decides its rows.

    ``sizes`` holds each part's row count; the (u, delta) of the parts are
    concatenated in order.
    """

    def __init__(self, parts, sizes):
        self.parts = tuple(parts)
        ends = np.cumsum(sizes)
        self._rows = [slice(end - size, end) for end, size in zip(ends, sizes)]

    def decide(self, x_hat, k: int):
        u, delta = zip(*(part.decide(x_hat[rows], k)
                         for part, rows in zip(self.parts, self._rows)))
        return np.concatenate(u), np.concatenate(delta)


def simulate_trials(cfg: ExperimentConfig, dm: DiscreteModel, controller, trials, steady,
                    noise=None, keep_states=False):
    """Run the given rows as one closed loop over (rows, n) arrays.

    Returns each row's average stage cost (rows,), its actuation rate (rows,)
    and the states (kept rows, N, n) of the rows that ``keep_states`` (a bool
    or a mask) selects; only a loop that keeps some row records states.

    ``controller.decide(x_hat, k)`` gets the estimates (rows, n) and returns
    float u (rows, q) and delta (rows,).  The filter runs at the gain of
    ``steady``, the :func:`steady_kalman` triple of ``dm``.  ``trials`` holds
    each row's trial key; rows of one key share its noise, ``noise`` or else
    the :func:`noise_streams` of the distinct keys in ascending order.  A
    non-finite state raises :class:`NonFiniteError` naming the step and the
    row's trial key.  A :class:`RolloutPolicy`, alone or as one of a stacked
    controller's ``parts``, needs ``horizon_steps`` to be a multiple of its
    block length.
    """
    trials = tuple(int(t) for t in trials)
    n_steps = cfg.horizon_steps
    if any(isinstance(part, RolloutPolicy) and n_steps % part.tables.horizon != 0
           for part in getattr(controller, "parts", (controller,))):
        raise ValueError("horizon_steps must be a multiple of the block length")
    keys, pick = np.unique(trials, return_inverse=True)  # pick: row -> noise column
    x0, w, v = noise_streams(dm, cfg.seed_base, keys, n_steps) if noise is None else noise
    x = x0[pick]
    y = row_product(x, dm.c) + v[0, pick]
    gain = steady[0]
    x_hat = kalman_init(dm, y, gain)

    n_rows = len(trials)
    keep = np.broadcast_to(keep_states, (n_rows,))
    stage_costs = np.empty((n_rows, n_steps))
    triggers = np.empty((n_rows, n_steps), dtype=np.int8)
    states = np.empty((keep.sum(), n_steps, dm.n_states))
    for k in range(n_steps):
        u, delta = controller.decide(x_hat, k)
        triggers[:, k] = delta
        stage_costs[:, k] = (np.einsum("ti,ij,tj->t", x, cfg.q_weight, x)
                             + np.einsum("ti,ij,tj->t", u, cfg.r_weight, u))
        if len(states):
            states[:, k] = x[keep]
        x = row_product(x, dm.a) + row_product(u, dm.b) + w[k, pick]
        if not np.isfinite(x).all():
            row = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise NonFiniteError(f"state became non-finite at step {k + 1} in trial "
                                 f"{trials[row]}")
        y = row_product(x, dm.c) + v[k + 1, pick]
        x_hat = kalman_step(x_hat, u, y, dm, gain)

    return stage_costs.mean(axis=1), triggers.mean(axis=1), states


@dataclass(frozen=True)
class Design:
    """The theta-independent design of a config: its model, filter and ``methods``.

    ``model`` is the :class:`DiscreteModel` the design was made on and ``steady`` its
    :func:`steady_kalman` triple.  ``methods`` maps each designed method to its design or to
    the exception that building it raised: ``periodic`` to ``{p: PeriodicPolicy}`` (or the
    first failure in ascending candidate p), ``rollout`` to (base policy of period p,
    :class:`RolloutTables`) and ``sparse_mpc`` to (problem, :func:`admm_factor` at the
    configured penalty), whose terminal weight is the period-1 policy's cost matrix.  Every
    policy comes out of one :func:`design_periods` stack.
    """

    model: DiscreteModel
    steady: tuple
    methods: dict

    def __getitem__(self, method: str):
        """The design of ``method``; raises the exception that building it raised."""
        entry = self.methods[method]
        if isinstance(entry, Exception):
            raise entry
        return entry


def design(cfg: ExperimentConfig, methods=None) -> Design:
    """The model, filter and design of each of ``methods`` (by default ``cfg.methods``), made once.

    The model is ``cfg.build_model()``.  Each method reads the policies of its periods in
    ``cfg.method_periods``; the period-1 cost matrix is the sparse-MPC terminal weight.  One
    :func:`design_periods` call designs their union, and a method fails with the first failure
    among its own periods.
    """
    dm = cfg.build_model()
    steady = steady_kalman(dm)
    q_w, r_w = cfg.q_weight, cfg.r_weight
    methods = cfg.methods if methods is None else methods
    periods = cfg.method_periods
    policies = design_periods(dm, q_w, r_w, {p for method in methods for p in periods[method]})

    def rollout(pols):
        return pols[cfg.p], build_tables(dm, q_w, r_w, pols[cfg.p].cost_matrix, cfg.h, cfg.p,
                                         steady[1])

    def sparse_mpc(pols):
        problem = build_mpc_problem(dm, q_w, r_w, cfg.mpc_horizon, pols[1].cost_matrix)
        return problem, admm_factor(problem, cfg.mpc_penalty)

    designs = {}
    builders = {"periodic": lambda pols: pols, "rollout": rollout, "sparse_mpc": sparse_mpc}
    for method, build in builders.items():
        if method in methods:
            try:
                designs[method] = build(period_policies(policies, periods[method]))
            except Exception as exc:  # noqa: BLE001 - a failed design fails what needs it
                designs[method] = exc
    return Design(dm, steady, designs)


@dataclass(frozen=True)
class SweepCell:
    """One (theta, method) aggregate of a sweep; metrics None on failure, states when kept."""

    theta: float
    method: str
    metrics: Metrics | None
    status: str = "ok"
    states: np.ndarray | None = field(default=None, repr=False)


def theta_sweep(cfg: ExperimentConfig, designed: Design | None = None, keep_states=()):
    """Run every method of ``cfg`` over its theta grid with common random numbers.

    The designs do not depend on theta: ``designed`` is the :class:`Design`
    of (at least) ``cfg``'s methods, made here when not given, and the noise
    of every trial is drawn once on its model.  The sweep then runs one
    closed loop: each method's controller takes its own block of rows, row
    g T + t of a block being trial t of theta cell g at that cell's theta.
    The (theta, method) cells in ``keep_states`` keep their states.  A
    failure is recorded in the status of the cells it affects, as
    ``error: <ExceptionType>: <message>``, and the sweep continues: when the
    closed loop raises, each method runs alone, and when a method's loop
    raises, each of its cells runs alone, for its own status.
    """
    if designed is None:
        designed = design(cfg)
    dm, steady = designed.model, designed.steady
    grid, n_trials = cfg.theta_grid, cfg.trials

    def controller(method, part):
        # the controller of one method over the rows of its theta cells in part
        rows_theta = np.repeat([grid[i] for i in part], n_trials)
        if method == "rollout":
            return RolloutPolicy(designed[method][1], rows_theta)
        if method == "sparse_mpc":
            problem, factor = designed[method]
            return SparseMpcController(problem, rows_theta, factor, cfg.mpc_tol,
                                       cfg.mpc_max_iter)
        candidates = designed[method]
        periods = np.repeat([cheapest_period(candidates, steady[1], grid[i])[0] for i in part],
                            n_trials)
        return PeriodicController(np.array([candidates[p].feedback_gain for p in periods]),
                                  periods)

    def run(batch):
        # one closed loop over the rows of every (method, cells) part of batch, split into cells
        loop = _Stacked([controller(method, part) for method, part in batch],
                        [len(part) * n_trials for _, part in batch])
        order = [(method, i) for method, part in batch for i in part]
        keep = np.repeat([(grid[i], method) in keep_states for method, i in order], n_trials)
        costs, rates, states = simulate_trials(cfg, dm, loop, list(range(n_trials)) * len(order),
                                               steady=steady, noise=noise, keep_states=keep)
        kept = iter(states.reshape(-1, n_trials, *states.shape[1:]))  # the kept cells in order
        for g, (method, i) in enumerate(order):
            rows = slice(g * n_trials, (g + 1) * n_trials)
            cells[i, method] = SweepCell(float(grid[i]), method,
                                         Metrics.of(costs[rows], rates[rows], grid[i]),
                                         states=next(kept) if keep[rows.start] else None)

    noise = noise_streams(dm, cfg.seed_base, range(n_trials), cfg.horizon_steps)
    cells = {}
    # (method, theta cells) parts that run as one loop
    batches = [[(method, list(range(len(grid)))) for method in cfg.methods]]
    while batches:
        batch = batches.pop()
        try:
            run(batch)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            (method, part), *others = batch
            if others:
                batches += [[entry] for entry in batch]
            elif len(part) > 1:
                batches += [[(method, [i])] for i in part]
            else:
                cells[part[0], method] = SweepCell(float(grid[part[0]]), method, None,
                                                   status=f"error: {type(exc).__name__}: {exc}")
    return [cells[i, method] for i in range(len(grid)) for method in cfg.methods]


def check_performance_bound(metrics_rollout: Metrics, metrics_periodic: Metrics, h: int):
    """Empirical lookahead performance bound versus the base periodic policy.

    Holds iff total(rollout) <= total(periodic) + 1/h + 3 pooled standard
    errors of the per-trial totals.  Returns (holds, margin).
    """
    theta = metrics_rollout.theta
    tot_ro = metrics_rollout.per_trial_cost + theta * metrics_rollout.per_trial_rate
    tot_pe = metrics_periodic.per_trial_cost + theta * metrics_periodic.per_trial_rate
    pooled = math.sqrt(_stderr(tot_ro)**2 + _stderr(tot_pe)**2)
    bound = metrics_periodic.total + 1.0 / h + 3.0 * pooled
    margin = bound - metrics_rollout.total
    return margin >= 0.0, float(margin)


@dataclass(frozen=True)
class StabilityReport:
    window_means: np.ndarray
    slope: float
    slope_stderr: float


def check_mean_square_stability(states, window_len: int):
    """Windowed trend test of E||x_k||^2 across the trials of ``states`` (T, N, n).

    Bounded iff the last-window mean stays within 1.5x the maximum of the
    middle windows and the fitted slope over windows is not significantly
    positive (slope <= 3 sigma).  Returns (bounded, report).
    """
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    if not len(states):
        raise ValueError("need at least one trial")
    n_steps = states.shape[1]
    if n_steps < 4 * window_len:
        raise ValueError("need at least four windows")
    sq = np.sum(states**2, axis=2).mean(axis=0)
    n_windows = n_steps // window_len
    means = sq[: n_windows * window_len].reshape(n_windows, window_len).mean(axis=1)

    last_ok = means[-1] <= 1.5 * means[1:-1].max()

    idx = np.arange(n_windows, dtype=float)
    x_c = idx - idx.mean()
    sxx = float(x_c @ x_c)
    slope = float(x_c @ means) / sxx
    resid = means - means.mean() - slope * x_c
    dof = max(n_windows - 2, 1)
    slope_se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx)
    slope_ok = slope <= 3.0 * slope_se

    return bool(last_ok and slope_ok), StabilityReport(means, slope, slope_se)
