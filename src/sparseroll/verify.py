"""End-to-end verification suite run by the CLI ``verify`` command.

Each check is independent, reports a pass/fail with a numeric detail, and
is deterministic for a fixed configuration.  Statistical checks use a
3-standard-error margin so Monte Carlo noise cannot flip them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .estimator import row_product, steady_kalman
from .oracle import oracle_picks
from .exceptions import ConfigError
from .periodic import periodic_average_cost
from .plant import ContinuousModel, DiscreteModel, build_benchmark_model
from .riccati import RiccatiProblem, solve_dares
from .rollout import RolloutTables, pattern_scores, select_pattern
from .simulate import (
    Design,
    Metrics,
    PeriodicController,
    check_mean_square_stability,
    check_performance_bound,
    design,
    simulate_trials,
    theta_sweep,
)
from .sparse_mpc import kkt_residuals, solve_admm

GOLDEN_PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Random states at which the oracle check compares the tables with the exhaustive oracle.
ORACLE_DRAWS = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _scalar_dare_check() -> CheckResult:
    (sol,) = solve_dares([RiccatiProblem([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])])
    if isinstance(sol, Exception):
        raise sol
    err = abs(sol.cost_matrix[0, 0] - GOLDEN_PHI)
    gain_err = abs(sol.gain[0, 0] + GOLDEN_PHI / (GOLDEN_PHI + 1.0))
    ok = err < 1e-10 and gain_err < 1e-10
    return CheckResult("scalar_dare", ok, f"|P - phi| = {err:.3e}, gain err = {gain_err:.3e}")


def _scalar_kalman_check() -> CheckResult:
    dm = DiscreteModel(a=[[1.0]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]], meas_cov=[[1.0]],
                       init_mean=[0.0], init_cov=[[1.0]])
    gain, err_cov, prior = steady_kalman(dm)
    e1 = abs(prior[0, 0] - GOLDEN_PHI)
    e2 = abs(gain[0, 0] - GOLDEN_PHI / (GOLDEN_PHI + 1.0))
    e3 = abs(err_cov[0, 0] - (GOLDEN_PHI - 1.0))
    ok = max(e1, e2, e3) < 1e-10
    return CheckResult("scalar_kalman", ok, f"max scalar error = {max(e1, e2, e3):.3e}")


def _noise_quadrature(cm: ContinuousModel, ts: float) -> np.ndarray:
    """int_0^ts e^{A tau} D D' e^{A' tau} dtau by the composite 8-node Gauss-Legendre rule.

    On k panels of width ts / k with ||A ts / k||_1 <= 1, e^{A (j width + delta)} is
    (e^{A width})^j e^{A delta}, all Taylor series, not the Pade exponential under check.
    """
    panels = max(1, math.ceil(float(np.abs(cm.a_cont).sum(axis=0).max()) * ts))
    nodes, weights = np.polynomial.legendre.leggauss(8)  # on [-1, 1]
    m = cm.a_cont * (ts / panels * np.append(0.5 + 0.5 * nodes, 1.0))[:, None, None]
    term = e = np.eye(len(cm.a_cont))  # to e^{A delta} at each node, then e^{A width}
    for k in range(1, 30):  # every ||M||_1 <= 1, so 30 terms are exact to rounding
        term = term @ m / k
        e = e + term
    total, shift = 0.0, np.eye(len(cm.a_cont))
    for _ in range(panels):
        g = shift @ e[:-1] @ cm.d_cont  # e^{A tau} D at the panel's nodes
        total += 0.5 * ts / panels * np.tensordot(weights, g @ g.transpose(0, 2, 1), 1)
        shift = shift @ e[-1]
    return total


def _discretization_check(cfg: ExperimentConfig, designed: Design) -> CheckResult:
    if cfg.model_source != "builtin-benchmark":
        return CheckResult("discretization_quadrature", True, "skipped (file-based model)")
    ref = _noise_quadrature(build_benchmark_model(), cfg.sample_period)
    err = float(np.abs(designed.model.proc_cov - ref).max())
    return CheckResult("discretization_quadrature", err < 1e-9, f"max abs deviation = {err:.3e}")


def base_cost_residual(tables: RolloutTables, base_cost) -> float:
    """Relative Frobenius gap between the base pattern's step-0 cost matrix and ``base_cost``."""
    return float(np.linalg.norm(tables.p0[tables.base] - base_cost, "fro")
                 / np.linalg.norm(base_cost, "fro"))


def _base_cost_identity_check(cfg: ExperimentConfig, designed: Design) -> CheckResult:
    pol, tables = designed["rollout"]
    resid = base_cost_residual(tables, pol.cost_matrix)
    return CheckResult("base_cost_identity", resid < 1e-8, f"relative residual = {resid:.3e}")


def _oracle_agreement_check(cfg: ExperimentConfig, designed: Design) -> CheckResult:
    dm, err_cov = designed.model, designed.steady[1]
    theta = cfg.theta_grid[len(cfg.theta_grid) // 2]
    pol, tables = designed["rollout"]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed_base)))
    xs = [rng.standard_normal(dm.n_states) * rng.uniform(0.05, 2.5) for _ in range(ORACLE_DRAWS)]
    picks, best_scores = oracle_picks(dm, cfg.q_weight, cfg.r_weight, pol.cost_matrix, cfg.h,
                                      cfg.p, theta, xs, err_cov)
    worst = 0.0
    for x, pick, best_score in zip(xs, picks, best_scores):
        sel = select_pattern(tables, x, theta)
        if sel != pick:
            return CheckResult("oracle_agreement", False, f"pattern mismatch {sel} vs {pick}")
        score = pattern_scores(tables, x, theta)[sel]
        worst = max(worst, abs(score - best_score) / max(1e-12, abs(best_score)))
    return CheckResult("oracle_agreement", worst < 1e-8,
                       f"{ORACLE_DRAWS} draws, worst relative score gap = {worst:.3e}")


def _performance_bound_check(cfg: ExperimentConfig, cells) -> CheckResult:
    if isinstance(cells, ConfigError):
        return CheckResult("performance_bound", False, f"ConfigError: {cells}")
    by_key = {(c.theta, c.method): c for c in cells}
    worst_margin = math.inf
    for theta in cfg.theta_grid:
        ro = by_key[(theta, "rollout")]
        pe = by_key[(theta, "periodic")]
        if ro.status != "ok" or pe.status != "ok":
            return CheckResult("performance_bound", False, f"cell failure at theta={theta}")
        holds, margin = check_performance_bound(ro.metrics, pe.metrics, cfg.h)
        worst_margin = min(worst_margin, margin)
        if not holds:
            return CheckResult("performance_bound", False,
                               f"violated at theta={theta} (margin {margin:.4f})")
    return CheckResult("performance_bound", True,
                       f"holds at all {len(cfg.theta_grid)} thetas; worst margin = {worst_margin:.4f}")


def _stability_check(cfg: ExperimentConfig, cells, probe) -> CheckResult:
    window = max(10, cfg.horizon_steps // 12)
    if cfg.horizon_steps < 4 * window:
        return CheckResult("mean_square_stability", False,
                           f"horizon of {cfg.horizon_steps} steps is too short for four "
                           f"windows of {window} steps")
    if isinstance(cells, ConfigError):
        return CheckResult("mean_square_stability", False, f"ConfigError: {cells}")
    by_theta = {c.theta: c for c in cells if c.method == "rollout"}
    for theta in probe:
        cell = by_theta[theta]
        if cell.status != "ok":
            return CheckResult("mean_square_stability", False, f"cell failure at theta={theta}")
        bounded, report = check_mean_square_stability(cell.states, window)
        if not bounded:
            return CheckResult(
                "mean_square_stability", False,
                f"growth trend at theta={theta} (slope {report.slope:.3e})",
            )
    return CheckResult("mean_square_stability", True, f"bounded at thetas {probe}")


def _periodic_formula_check(cfg: ExperimentConfig, designed: Design) -> CheckResult:
    # Stationary start isolates the long-run average from the initial transient; the
    # filter and the designs do not depend on the initial mean.
    dm = designed.model
    dm = dm.with_init(np.zeros(dm.n_states), dm.init_cov)
    steady = designed.steady
    designs = designed["periodic"]
    n = cfg.trials  # one batch: row g n + t is trial t of the g-th candidate period
    gains = np.repeat([pol.feedback_gain for pol in designs.values()], n, axis=0)
    costs, rates, _ = simulate_trials(cfg, dm,
                                      PeriodicController(gains, np.repeat(list(designs), n)),
                                      list(range(n)) * len(designs), steady=steady)
    details = []
    for g, (p, pol) in enumerate(designs.items()):
        formula = periodic_average_cost(pol, steady[1], theta=0.0)
        rows = slice(g * n, (g + 1) * n)
        metrics = Metrics.of(costs[rows], rates[rows], theta=0.0)
        gap = abs(metrics.avg_control_cost - formula)
        limit = 3.0 * max(metrics.stderr_control_cost, 1e-12)
        rate_err = abs(metrics.avg_actuation_rate - 1.0 / p)
        if gap > limit or rate_err > 1.0 / cfg.horizon_steps:
            return CheckResult("periodic_formula_vs_sim", False,
                               f"p={p}: gap {gap:.4e} vs 3se {limit:.4e}, rate err {rate_err:.2e}")
        details.append(f"p={p}: {gap / max(metrics.stderr_control_cost, 1e-12):.2f}se")
    return CheckResult("periodic_formula_vs_sim", True, "; ".join(details))


def _mpc_kkt_check(cfg: ExperimentConfig, designed: Design, thetas) -> CheckResult:
    """KKT residual at 20 fresh states per theta, then the theta=0 solve against the linear one."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed_base + 1)))
    prob, factor = designed["sparse_mpc"]  # the sweep's solver, at the configured penalty
    theta = np.repeat(thetas, 20)  # one batch, each row with its own theta
    n = designed.model.n_states
    xs = np.array([rng.standard_normal(n) * rng.uniform(0.1, 3.0) for _ in theta])
    cold = np.zeros((len(xs), prob.quad_matrix.shape[0]))
    z, _, _ = solve_admm(prob, xs, theta, (cold, cold), factor, cfg.mpc_tol, cfg.mpc_max_iter)
    worst = float(kkt_residuals(prob, z, row_product(xs, prob.lin_matrix), theta).max())
    xs = np.array([rng.standard_normal(n) for _ in range(5)])
    z, _, _ = solve_admm(prob, xs, 0.0, (cold[:5], cold[:5]), factor, 1e-10, cfg.mpc_max_iter)
    direct = [np.linalg.solve(prob.quad_matrix, -(prob.lin_matrix @ x)) for x in xs]
    lin_gap = float(np.abs(z - direct).max())
    return CheckResult("mpc_optimality", worst <= 1e-6 and lin_gap <= 1e-8,
                       f"worst KKT residual = {worst:.3e}, theta=0 gap = {lin_gap:.3e}")


def _ordering_check(cfg: ExperimentConfig, designed: Design, cells) -> CheckResult:
    """Sparse MPC at the middle theta against the first trials of the sweep's rollout cell."""
    if isinstance(cells, ConfigError):
        return CheckResult("tradeoff_ordering", False, f"ConfigError: {cells}")
    theta = cfg.theta_grid[len(cfg.theta_grid) // 2]
    trials = min(cfg.trials, 15)
    (mpc,) = theta_sweep(replace(cfg, trials=trials, theta_grid=(theta,),
                                 methods=("sparse_mpc",)), designed)
    ro = next(c for c in cells if c.theta == theta and c.method == "rollout")
    if ro.status != "ok" or mpc.status != "ok":
        return CheckResult("tradeoff_ordering", False, "cell failure")
    ro = Metrics.of(ro.metrics.per_trial_cost[:trials], ro.metrics.per_trial_rate[:trials], theta)
    mpc = mpc.metrics
    se_cost = 3.0 * math.sqrt(ro.stderr_control_cost**2 + mpc.stderr_control_cost**2)
    se_rate = 3.0 * math.sqrt(ro.stderr_rate**2 + mpc.stderr_rate**2)
    cost_ok = mpc.avg_control_cost <= ro.avg_control_cost + se_cost
    rate_ok = mpc.avg_actuation_rate >= ro.avg_actuation_rate - se_rate
    return CheckResult(
        "tradeoff_ordering", bool(cost_ok and rate_ok),
        f"theta={theta}: mpc cost {mpc.avg_control_cost:.4f} vs rollout "
        f"{ro.avg_control_cost:.4f}; mpc rate {mpc.avg_actuation_rate:.3f} vs "
        f"rollout {ro.avg_actuation_rate:.3f} ({trials} trials)",
    )


def run_verification(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run the full verification suite on one :class:`Design`; one result per check.

    A method whose design failed fails the checks that need it, naming the exception.
    """
    grid = sorted(cfg.theta_grid)
    probe = sorted({grid[0], grid[len(grid) // 2], grid[-1]})
    designed = design(cfg, methods=("rollout", "periodic", "sparse_mpc"))
    try:  # one sweep serves the bound, the stability test at the probe and the ordering
        cells = theta_sweep(replace(cfg, methods=("rollout", "periodic")), designed,
                            keep_states=[(theta, "rollout") for theta in probe])
    except ConfigError as exc:
        cells = exc

    def needs(method, name, check, *args):
        entry = designed.methods[method]
        if isinstance(entry, Exception):
            return CheckResult(name, False, f"{type(entry).__name__}: {entry}")
        return check(cfg, designed, *args)

    return [
        _scalar_dare_check(),
        _scalar_kalman_check(),
        _discretization_check(cfg, designed),
        needs("rollout", "base_cost_identity", _base_cost_identity_check),
        needs("rollout", "oracle_agreement", _oracle_agreement_check),
        _performance_bound_check(cfg, cells),
        _stability_check(cfg, cells, probe),
        needs("periodic", "periodic_formula_vs_sim", _periodic_formula_check),
        needs("sparse_mpc", "mpc_optimality", _mpc_kkt_check,
              [cfg.theta_grid[len(cfg.theta_grid) // 2]]),
        needs("sparse_mpc", "tradeoff_ordering", _ordering_check, cells)
        if "sparse_mpc" in cfg.methods else
        CheckResult("tradeoff_ordering", True, "skipped (sparse_mpc disabled)"),
    ]
