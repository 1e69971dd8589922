"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria use 3-standard-error margins; deterministic ones use
the stated tolerances.  The closed-loop criteria run the full benchmark
configuration (theta grid 0.02..0.40, 50 trials of 600 steps).
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import sparseroll as sr
import sparseroll.cli as cli
from sparseroll import verify
from sparseroll.config import load_config

BENCH = sr.ExperimentConfig()  # the benchmark study
THETA_GRID = BENCH.theta_grid
TRIALS = BENCH.trials
N_STEPS = BENCH.horizon_steps
STABILITY_THETAS = (0.02, 0.2, 0.4)  # criterion 5 reads these cells' traces
SCALAR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "scalar.yaml"


@pytest.fixture(scope="module")
def bench(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    base6 = sr.design_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight, 6)
    return benchmark_model, benchmark_steady, err_cov, base6


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def _check(check, cfg, method, *args):
    """A verify check on the config's model and its design of ``method``, as verify runs it."""
    dm = cfg.build_model()
    return check(cfg, dm, sr.design(cfg, dm, (method,)), *args)


def test_criterion_1_base_cost_identity():
    start = time.perf_counter()
    check = _check(verify._base_cost_identity_check, BENCH, "rollout", False)
    elapsed = time.perf_counter() - start
    assert check.passed, check.detail
    assert elapsed < 1.0
    _report("criterion 1 (base-policy cost identity)", f"{check.detail}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    # the scalar system (h=3, p=1) and the benchmark with p=6 and p=3, all at theta=0.2
    start = time.perf_counter()
    bench = replace(BENCH, theta_grid=(0.2,))
    configs = (replace(load_config(SCALAR_CONFIG), theta_grid=(0.2,)), bench, replace(bench, p=3))
    checks = [_check(verify._oracle_agreement_check, cfg, "rollout") for cfg in configs]
    elapsed = time.perf_counter() - start
    for check in checks:
        assert check.passed, check.detail
    assert elapsed < 30.0
    _report("criterion 2 (oracle equivalence)",
            f"3 systems: {'; '.join(c.detail for c in checks)}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def benchmark_sweep(bench):
    dm, _, _, _ = bench
    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=TRIALS, seed_base=20240601,
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              theta_grid=THETA_GRID, methods=("rollout", "periodic"), h=6, p=6,
                              candidates=BENCH.candidates)
    start = time.perf_counter()
    cells = sr.theta_sweep(cfg, dm, keep_traces=[(theta, "rollout") for theta in STABILITY_THETAS])
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


def test_criterion_4_periodic_formula_vs_simulation():
    # stationary start; each candidate period within 3 SE of its formula, rate within 1/N
    check = _check(verify._periodic_formula_check,
                   replace(BENCH, trials=50, horizon_steps=600, seed_base=77), "periodic")
    assert check.passed, check.detail
    _report("criterion 4 (periodic formula vs simulation)", check.detail)


def test_criterion_5_mean_square_stability(bench, benchmark_sweep):
    cells, _ = benchmark_sweep
    by_key = {(c.theta, c.method): c for c in cells}
    for theta in STABILITY_THETAS:
        cell = by_key[(theta, "rollout")]
        bounded, report = sr.check_mean_square_stability(cell.traces, window_len=50)
        assert bounded, f"theta={theta}: slope {report.slope:.3e} +- {report.slope_stderr:.3e}"

    # designed negative control: unstabilized plant must fail the same test
    unstable = sr.DiscreteModel(a=[[1.05]], b=[[1.0]], c=[[1.0]], proc_cov=[[0.5]],
                                meas_cov=[[0.5]], init_mean=[0.0], init_cov=[[1.0]])

    class Null:
        def decide(self, x_hat, k):
            return np.zeros(1), 0

    cfg = sr.ExperimentConfig(horizon_steps=N_STEPS, trials=10, seed_base=13,
                              q_weight=[[1.0]], r_weight=[[1.0]], methods=("periodic",))
    traces = [sr.simulate_trial(cfg, unstable, Null(), t) for t in range(10)]
    bad_bounded, _ = sr.check_mean_square_stability(traces, window_len=50)
    assert not bad_bounded
    _report("criterion 5 (mean-square stability)",
            "bounded at theta in {0.02, 0.2, 0.4}; negative control rejected")


def test_criterion_6_decision_monotonicity(bench):
    dm, _, err_cov, base6 = bench
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(5150)))
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, base6.cost_matrix,
                             6, 6, err_cov)
    violations = 0
    for _ in range(1000):
        t1 = gen.uniform(0.005, 0.8)
        t2 = t1 + gen.uniform(0.005, 0.8)
        x = gen.standard_normal(4) * gen.uniform(0.02, 3.0)
        c1 = tables.bits[sr.select_pattern(tables, x, t1) - 1].sum()
        c2 = tables.bits[sr.select_pattern(tables, x, t2) - 1].sum()
        violations += c2 > c1
    assert violations == 0
    _report("criterion 6 (decision monotonicity in theta)", "1000 draws, 0 violations")


def test_criterion_7_discretization_oracle():
    cfg = sr.ExperimentConfig()
    check = verify._discretization_check(cfg, cfg.build_model())
    assert check.passed, check.detail
    _report("criterion 7 (discretization oracle)", check.detail)


def test_criterion_8_sparse_mpc_optimality():
    # 20 fresh states at each theta, then the theta=0 solves against the linear solution
    check = _check(verify._mpc_kkt_check, BENCH, "sparse_mpc", (0.05, 0.2, 0.4))
    assert check.passed, check.detail
    _report("criterion 8 (sparse-MPC optimality)", f"theta in (0.05, 0.2, 0.4): {check.detail}")


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
                              q_weight=BENCH.q_weight, r_weight=BENCH.r_weight,
                              theta_grid=(theta,), methods=("rollout", "sparse_mpc"), h=6, p=6)
    cells_small = sr.theta_sweep(cfg, dm)
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
