"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria use 3-standard-error margins; deterministic ones use
the stated tolerances.  The closed-loop criteria run the full benchmark
configuration (theta grid 0.02..0.40, 50 trials of 600 steps).
"""

import math
import time

import numpy as np
import pytest
import yaml

import sparseroll as sr
import sparseroll.cli as cli
from sparseroll import verify
from sparseroll.simulate import PeriodicController

THETA_GRID = sr.BENCHMARK_THETA_GRID
TRIALS = sr.BENCHMARK_TRIALS
N_STEPS = sr.BENCHMARK_HORIZON_STEPS


@pytest.fixture(scope="module")
def bench(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    base6 = sr.design_periodic(benchmark_model, sr.BENCHMARK_Q, sr.BENCHMARK_R, 6, alpha=1.0)
    return benchmark_model, benchmark_steady, err_cov, base6


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_base_cost_identity(bench):
    dm, _, err_cov, base6 = bench
    start = time.perf_counter()
    tables = sr.build_tables(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, base6.cost_matrix,
                             6, 6, 0.2, 1.0, err_cov)
    resid = (np.linalg.norm(tables.cost_matrices[0, 0] - base6.cost_matrix, "fro")
             / np.linalg.norm(base6.cost_matrix, "fro"))
    elapsed = time.perf_counter() - start
    assert resid < 1e-8
    assert elapsed < 1.0
    _report("criterion 1 (base-policy cost identity)",
            f"relative residual {resid:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(bench, scalar_model):
    dm, _, err_cov, base6 = bench
    start = time.perf_counter()
    cases = []
    scalar_err = sr.steady_kalman(scalar_model)[1]
    scalar_base = sr.design_periodic(scalar_model, [[1.0]], [[1.0]], 1, alpha=1.0)
    cases.append((scalar_model, [[1.0]], [[1.0]], scalar_base.cost_matrix, 3, 1,
                  scalar_err, 1))
    cases.append((dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, base6.cost_matrix, 6, 6, err_cov, 4))
    base3 = sr.design_periodic(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, 3, alpha=1.0)
    cases.append((dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, base3.cost_matrix, 6, 3, err_cov, 4))

    theta = 0.2
    worst = 0.0
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(1234)))
    for model, q, r, terminal, h, p, sigma, n in cases:
        tables = sr.build_tables(model, q, r, terminal, h, p, theta, 1.0, sigma)
        for _ in range(100):
            x = gen.standard_normal(n) * gen.uniform(0.05, 2.5)
            sel = sr.select_pattern(tables, x, sigma)
            res = sr.oracle_select(model, q, r, terminal, h, p, theta, 1.0, x, sigma)
            assert sel == res.best_pattern
            gap = abs(sr.pattern_score(tables, sel, x, sigma) - res.best_score)
            worst = max(worst, gap / max(1e-12, abs(res.best_score)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    _report("criterion 2 (oracle equivalence)",
            f"3 systems x 100 draws, worst score gap {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def benchmark_sweep(bench):
    dm, _, _, _ = bench
    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=TRIALS, seed_base=20240601,
                              q_weight=sr.BENCHMARK_Q, r_weight=sr.BENCHMARK_R,
                              methods=("rollout",), h=6, p=6,
                              candidates=sr.BENCHMARK_PERIOD_CANDIDATES)
    start = time.perf_counter()
    cells = sr.theta_sweep(cfg, dm, THETA_GRID, methods=("rollout", "periodic"),
                           keep_traces=True)
    elapsed = time.perf_counter() - start
    return cells, elapsed


def test_criterion_3_performance_bound(benchmark_sweep):
    cells, elapsed = benchmark_sweep
    by_key = {(c.theta, c.method): c for c in cells}
    worst_margin = math.inf
    for theta in THETA_GRID:
        ro = by_key[(theta, "rollout")]
        pe = by_key[(theta, "periodic")]
        assert ro.status == "ok" and pe.status == "ok"
        holds, margin = sr.check_performance_bound(ro.metrics, pe.metrics, h=6)
        assert holds, f"bound violated at theta={theta} (margin {margin:.4f})"
        worst_margin = min(worst_margin, margin)
    assert elapsed < 300.0
    _report("criterion 3 (lookahead performance bound)",
            f"{len(THETA_GRID)} thetas x {TRIALS} trials, worst margin "
            f"{worst_margin:.4f}, sweep {elapsed:.0f}s")


def test_criterion_4_periodic_formula_vs_simulation(stationary_benchmark):
    dm = stationary_benchmark
    steady = sr.steady_kalman(dm)
    _, err_cov, _ = steady
    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=TRIALS, seed_base=77,
                              q_weight=sr.BENCHMARK_Q, r_weight=sr.BENCHMARK_R,
                              methods=("periodic",))
    gaps = []
    for p in (1, 2, 3, 6):
        pol = sr.design_periodic(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, p, alpha=1.0)
        lift = sr.build_lifted(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, p, alpha=1.0)
        formula = sr.periodic_average_cost(pol, lift, err_cov, theta=0.0)
        traces = [sr.simulate_trial(cfg, dm, PeriodicController(pol.feedback_gain, p), t,
                                    steady=steady)
                  for t in range(TRIALS)]
        metrics = sr.estimate_metrics(traces, theta=0.0)
        gap = abs(metrics.avg_control_cost - formula)
        assert gap <= 3.0 * metrics.stderr_control_cost, (
            f"p={p}: {gap:.5f} vs 3se={3 * metrics.stderr_control_cost:.5f}"
        )
        assert abs(metrics.avg_actuation_rate - 1.0 / p) <= 1.0 / N_STEPS
        gaps.append(gap / metrics.stderr_control_cost)
    _report("criterion 4 (periodic formula vs simulation)",
            "gaps " + ", ".join(f"p={p}: {g:.2f}se" for p, g in zip((1, 2, 3, 6), gaps)))


def test_criterion_5_mean_square_stability(bench, benchmark_sweep):
    cells, _ = benchmark_sweep
    by_key = {(c.theta, c.method): c for c in cells}
    for theta in (0.02, 0.2, 0.4):
        cell = by_key[(theta, "rollout")]
        bounded, report = sr.check_mean_square_stability(cell.info["traces"], window_len=50)
        assert bounded, f"theta={theta}: slope {report.slope:.3e} +- {report.slope_stderr:.3e}"

    # designed negative control: unstabilized plant must fail the same test
    unstable = sr.DiscreteModel(a=[[1.05]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                                meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])

    class Null:
        def decide(self, est, k):
            return np.zeros(1), 0

    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=10, seed_base=13,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traces = [sr.simulate_trial(cfg, unstable, Null(), t) for t in range(10)]
    bad_bounded, _ = sr.check_mean_square_stability(traces, window_len=50)
    assert not bad_bounded
    _report("criterion 5 (mean-square stability)",
            "bounded at theta in {0.02, 0.2, 0.4}; negative control rejected")


def test_criterion_6_decision_monotonicity(bench):
    dm, _, err_cov, base6 = bench
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(5150)))
    violations = 0
    for _ in range(1000):
        t1 = gen.uniform(0.005, 0.8)
        t2 = t1 + gen.uniform(0.005, 0.8)
        x = gen.standard_normal(4) * gen.uniform(0.02, 3.0)
        tab1 = sr.build_tables(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, base6.cost_matrix,
                               6, 6, t1, 1.0, err_cov)
        tab2 = sr.build_tables(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, base6.cost_matrix,
                               6, 6, t2, 1.0, err_cov)
        c1 = tab1.patterns[sr.select_pattern(tab1, x, err_cov) - 1].actuation_count
        c2 = tab2.patterns[sr.select_pattern(tab2, x, err_cov) - 1].actuation_count
        violations += c2 > c1
    assert violations == 0
    _report("criterion 6 (decision monotonicity in theta)", "1000 draws, 0 violations")


def test_criterion_7_discretization_oracle():
    check = verify._discretization_check(sr.ExperimentConfig())
    assert check.passed, check.detail
    _report("criterion 7 (discretization oracle)", check.detail)


def test_criterion_8_sparse_mpc_optimality(bench):
    dm, _, _, _ = bench
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(31415)))
    worst_kkt = 0.0
    for theta in (0.05, 0.2, 0.4):
        prob = sr.build_mpc_problem(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, 30, theta)
        for _ in range(10):
            x = gen.standard_normal(4) * gen.uniform(0.1, 3.0)
            u_seq, _ = sr.solve_sparse_mpc(prob, x, tol=1e-8)
            worst_kkt = max(worst_kkt, sr.subgradient_residual(prob, u_seq, x))
    assert worst_kkt <= 1e-6

    prob0 = sr.build_mpc_problem(dm, sr.BENCHMARK_Q, sr.BENCHMARK_R, 30, 0.0)
    worst_gap = 0.0
    for _ in range(5):
        x = gen.standard_normal(4)
        u_seq, _ = sr.solve_sparse_mpc(prob0, x, tol=1e-10)
        direct = np.linalg.solve(prob0.quad_matrix, -(prob0.lin_matrix @ x))
        worst_gap = max(worst_gap, float(np.abs(u_seq.reshape(-1) - direct).max()))
    assert worst_gap <= 1e-8
    _report("criterion 8 (sparse-MPC optimality)",
            f"worst KKT {worst_kkt:.2e}, theta=0 gap {worst_gap:.2e}")


def test_criterion_9_sweep_determinism(tmp_path):
    raw = {
        "model": {"source": "builtin-benchmark", "sample_period": 0.1},
        "cost": {"q": "benchmark", "r": "benchmark"},
        "theta": {"grid": [0.1, 0.3]},
        "methods": ["rollout", "periodic", "sparse_mpc"],
        "rollout": {"h": 6, "p": 6, "alpha": 1.0},
        "periodic": {"candidates": [1, 2, 3, 6]},
        "sparse_mpc": {"horizon": 30, "penalty": 1.0, "tol": 1.0e-8, "max_iter": 10000},
        "sim": {"trials": 2, "horizon_steps": 36, "seed_base": 42},
        "output_dir": "results",
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    blobs, first_rows = [], []
    for name, trials in (("r1", "2"), ("r2", "2"), ("r3", "4")):
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--trials", trials]) == 0
        blobs.append((out / "tradeoff.csv").read_bytes()
                     + (out / "pertrial.csv").read_bytes()
                     + (out / "failures.csv").read_bytes())
        pertrial = (out / "pertrial.csv").read_bytes().splitlines()[1:]
        first_rows.append([row for row in pertrial if int(row.split(b",")[2]) < 2])
        assert (out / "failures.csv").read_text() == cli.FAILURES_HEADER + "\n"
    assert blobs[0] == blobs[1]
    assert len(first_rows[0]) == 2 * 3 * 2 and first_rows[0] == first_rows[2]
    _report("criterion 9 (sweep determinism)",
            "byte-identical CSVs across repeats; trials 0-1 byte-identical at 2 and 4 trials")


def test_criterion_10_analytic_scalar_goldens():
    checks = (verify._scalar_dare_check(), verify._scalar_kalman_check())
    for check in checks:
        assert check.passed, check.detail
    _report("criterion 10 (analytic scalar goldens)", "; ".join(c.detail for c in checks))


def test_rollout_rate_monotone_in_theta(benchmark_sweep):
    # actuation rate should not increase with theta (2 pooled standard errors)
    cells, _ = benchmark_sweep
    rates = [(c.theta, c.metrics) for c in cells if c.method == "rollout"]
    rates.sort(key=lambda item: item[0])
    for (_, lo), (_, hi) in zip(rates, rates[1:]):
        pooled = math.sqrt(lo.stderr_rate**2 + hi.stderr_rate**2)
        assert hi.avg_actuation_rate <= lo.avg_actuation_rate + 2.0 * pooled
    _report("rate monotonicity",
            f"rollout rate non-increasing over {len(rates)} thetas (2se)")


def test_figure_orderings(bench, benchmark_sweep):
    # qualitative trade-off orderings at 3-standard-error confidence
    dm, _, _, _ = bench
    theta = 0.2
    cells, _ = benchmark_sweep
    by_key = {(c.theta, c.method): c for c in cells}
    ro_full = by_key[(theta, "rollout")].metrics
    pe_full = by_key[(theta, "periodic")].metrics
    pooled_tot = 3.0 * math.sqrt(
        (ro_full.stderr_control_cost + theta * ro_full.stderr_rate) ** 2
        + (pe_full.stderr_control_cost + theta * pe_full.stderr_rate) ** 2
    )
    assert ro_full.total <= pe_full.total + pooled_tot

    trials = 12
    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=trials, seed_base=20240601,
                              q_weight=sr.BENCHMARK_Q, r_weight=sr.BENCHMARK_R,
                              methods=("rollout",), h=6, p=6)
    cells_small = sr.theta_sweep(cfg, dm, [theta], methods=("rollout", "sparse_mpc"))
    by = {c.method: c.metrics for c in cells_small}
    ro, mpc = by["rollout"], by["sparse_mpc"]
    se_cost = 3.0 * math.sqrt(ro.stderr_control_cost**2 + mpc.stderr_control_cost**2)
    se_rate = 3.0 * math.sqrt(ro.stderr_rate**2 + mpc.stderr_rate**2)
    assert mpc.avg_control_cost <= ro.avg_control_cost + se_cost
    assert mpc.avg_actuation_rate >= ro.avg_actuation_rate - se_rate
    _report("figure orderings",
            f"rollout total {ro_full.total:.3f} <= periodic {pe_full.total:.3f}; "
            f"mpc cost {mpc.avg_control_cost:.3f} / rate {mpc.avg_actuation_rate:.2f} vs "
            f"rollout {ro.avg_control_cost:.3f} / {ro.avg_actuation_rate:.2f}")
