import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import sparseroll as sr
import sparseroll.cli as cli
from sparseroll import simulate, verify
from sparseroll.config import ExperimentConfig, load_config, parse_config
from sparseroll.exceptions import AssumptionViolatedError, ConfigError

REPO = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = REPO / "configs" / "benchmark.yaml"
SCALAR_CONFIG = REPO / "configs" / "scalar.yaml"
WORKLOADS = sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))


def small_config_dict(**overrides):
    raw = {
        "model": {"source": "builtin-benchmark", "sample_period": 0.1},
        "cost": {"q": "benchmark", "r": "benchmark"},
        "theta": {"grid": [0.1, 0.3]},
        "methods": ["rollout", "periodic"],
        "rollout": {"h": 6, "p": 6, "alpha": 1.0},
        "periodic": {"candidates": [1, 2, 3, 6]},
        "sim": {"trials": 2, "horizon_steps": 60, "seed_base": 99},
        "output_dir": "results",
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in raw:
            raw[key] = {**raw[key], **val}
        else:
            raw[key] = val
    return raw


def write_config(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_shipped_configs_load():
    cfg = load_config(BENCHMARK_CONFIG)
    assert cfg.theta_grid == tuple(round(0.02 * k, 2) for k in range(1, 21))
    assert cfg.methods == ("rollout", "periodic", "sparse_mpc")
    assert cfg.trials == 50 and cfg.horizon_steps == 600
    scalar = load_config(SCALAR_CONFIG)
    assert scalar.build_model().n_states == 1
    # the benchmark workloads spell out rollout.alpha: 1.0
    assert len(WORKLOADS) == 2
    for path in WORKLOADS:
        assert load_config(path).methods[0] == "rollout"


def test_config_round_trip(tmp_path):
    cfg = load_config(BENCHMARK_CONFIG)
    canon = cfg.canonical_dict()
    path = write_config(tmp_path, canon)
    again = load_config(path)
    assert again.canonical_dict() == canon


def test_config_equality_and_hash():
    first, second = load_config(BENCHMARK_CONFIG), load_config(BENCHMARK_CONFIG)
    assert first == second and hash(first) == hash(second)
    other_q = replace(first, q_weight=2.0 * first.q_weight)
    assert other_q != first
    assert replace(first, seed_base=first.seed_base + 1) != first
    assert len({first, second, other_q}) == 2


def test_lookahead_memory_budget_at_load():
    # the estimate rejects a 2^20-pattern design before any table is built
    with pytest.raises(ConfigError, match="MB budget"):
        ExperimentConfig(h=20, p=2, trials=50, horizon_steps=600)
    load_config(BENCHMARK_CONFIG)
    assert ExperimentConfig(h=14, p=7, trials=50, horizon_steps=294).h == 14


def test_config_validation_failures(tmp_path):
    with pytest.raises(ConfigError, match="multiple"):
        parse_config(small_config_dict(rollout={"h": 5, "p": 2}))
    with pytest.raises(ConfigError, match="positive definite"):
        parse_config(small_config_dict(cost={"q": "benchmark", "r": [[0.0]]}))
    with pytest.raises(ConfigError, match="theta"):
        parse_config(small_config_dict(theta={"grid": [0.0, 0.1]}))
    with pytest.raises(ConfigError, match="method"):
        parse_config(small_config_dict(methods=["rollout", "mystery"]))
    with pytest.raises(ConfigError, match="multiple of rollout.h"):
        parse_config(small_config_dict(sim={"trials": 1, "horizon_steps": 61, "seed_base": 1}))
    with pytest.raises(ConfigError, match="4x4"):
        parse_config(small_config_dict(cost={"q": [[1.0]], "r": "benchmark"}))
    with pytest.raises(ConfigError):
        parse_config(small_config_dict(model={"source": "matrices-from-file"}))


MALFORMED = {
    "theta step 0": {"theta": {"start": 0.1, "stop": 0.3, "step": 0}},
    "theta start text": {"theta": {"start": "a", "stop": 0.3, "step": 0.1}},
    "trials text": {"sim": {"trials": "x"}},
    "h text": {"rollout": {"h": "x"}},
    "candidates scalar": {"periodic": {"candidates": 3}},
    "theta nan": {"theta": {"grid": [float("nan")]}},
    "theta inf": {"theta": {"grid": [float("inf")]}},
    "tol nan": {"sparse_mpc": {"tol": float("nan")}},
    "trials fractional": {"sim": {"trials": 1.5}},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_is_a_config_error(tmp_path, capsys, overrides):
    raw = small_config_dict(**overrides)
    raw.update((k, v) for k, v in overrides.items() if k == "theta")  # replace, not merge
    with pytest.raises(ConfigError):
        parse_config(raw)
    path = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_alpha_other_than_one_is_a_config_error(tmp_path, capsys):
    # the long-run average cost is the only criterion; alpha 1.0 still loads
    assert parse_config(small_config_dict(rollout={"alpha": 1})) == parse_config(
        small_config_dict())
    raw = small_config_dict(rollout={"alpha": 0.9})
    with pytest.raises(ConfigError, match="rollout.alpha"):
        parse_config(raw)
    path = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "rollout.alpha" in capsys.readouterr().err


UNKNOWN = {
    "top level": ({"foo": 1}, "'foo'"),
    "misspelt alpha": ({"rollout": {"alpah": 0.5}}, "'rollout.alpah'"),
    "sim": ({"sim": {"trails": 3}}, "'sim.trails'"),
    "model": ({"model": {"sampel_period": 0.2}}, "'model.sampel_period'"),
    "theta": ({"theta": {"start": 0.1, "stop": 0.3, "step": 0.1, "num": 3}}, "'theta.num'"),
}


@pytest.mark.parametrize("overrides,path", UNKNOWN.values(), ids=UNKNOWN.keys())
def test_unknown_key_is_a_config_error(tmp_path, capsys, overrides, path):
    raw = small_config_dict(**overrides)
    raw.update((k, v) for k, v in overrides.items() if k == "theta")  # replace, not merge
    with pytest.raises(ConfigError, match=f"unknown key {path}"):
        parse_config(raw)
    file = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(file), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "design"])
def test_cli_overrides_are_validated(tmp_path, capsys, command):
    code = cli.main([command, "--config", str(SCALAR_CONFIG), "--out", str(tmp_path / "out"),
                     "--trials", "0"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_verify_short_horizon_fails_stability(tmp_path):
    raw = yaml.safe_load(SCALAR_CONFIG.read_text())
    raw["model"]["file"] = str(SCALAR_CONFIG.parent / raw["model"]["file"])
    raw["sim"].update(trials=4, horizon_steps=30)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 5
    checks = {c["name"]: c for c in json.loads((out / "verify_report.json").read_text())["checks"]}
    stability = checks["mean_square_stability"]
    assert not stability["passed"] and "too short" in stability["detail"]


def test_cmd_verify_config_that_cannot_run_rollout(tmp_path):
    # periodic only, with a horizon that is no multiple of h = 6: the rollout checks FAIL
    raw = small_config_dict(methods=["periodic"],
                            sim={"trials": 4, "horizon_steps": 100, "seed_base": 99})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 5
    checks = {c["name"]: c for c in json.loads((out / "verify_report.json").read_text())["checks"]}
    assert len(checks) == 10
    for name in ("performance_bound", "mean_square_stability"):
        assert not checks[name]["passed"]
        assert checks[name]["detail"] == ("ConfigError: sim.horizon_steps must be a multiple "
                                          "of rollout.h")
    assert checks["tradeoff_ordering"]["passed"]  # skipped: sparse_mpc is not enabled


def test_verify_one_sweep_serves_bound_and_stability(monkeypatch):
    # the bound, stability and ordering checks read one rollout/periodic sweep, rollout traces
    # kept at the probe; the ordering check adds only the sparse-MPC cell at the middle theta
    calls = []
    sweep = verify.theta_sweep
    monkeypatch.setattr(verify, "theta_sweep", lambda cfg, dm, keep_traces=(), **kw: calls.append(
        (cfg.methods, list(keep_traces))) or sweep(cfg, dm, keep_traces, **kw))
    cfg = parse_config(small_config_dict(theta={"grid": [0.1, 0.2, 0.3, 0.4]},
                                         methods=["rollout", "periodic", "sparse_mpc"]))
    results = {c.name: c for c in verify.run_verification(cfg)}
    assert len(results) == 10
    probe = [0.1, 0.3, 0.4]
    kept = [(theta, "rollout") for theta in probe]
    assert calls == [(("rollout", "periodic"), kept), (("sparse_mpc",), [])]
    # the same result as a sweep of the rollout cells at the probe thetas alone
    alone = sweep(replace(cfg, theta_grid=probe, methods=("rollout",)), cfg.build_model(),
                  keep_traces=kept)
    assert verify._stability_check(cfg, alone, probe) == results["mean_square_stability"]
    # the ordering reads the first 15 rollout trials of the sweep: the figures of a separate
    # 15-trial sweep of both methods at the middle theta
    small = {c.method: c.metrics for c in sweep(
        replace(cfg, trials=min(cfg.trials, 15), theta_grid=(0.3,),
                methods=("rollout", "sparse_mpc")), cfg.build_model())}
    ro, mpc = small["rollout"], small["sparse_mpc"]
    assert results["tradeoff_ordering"].detail == (
        f"theta=0.3: mpc cost {mpc.avg_control_cost:.4f} vs rollout {ro.avg_control_cost:.4f}; "
        f"mpc rate {mpc.avg_actuation_rate:.3f} vs rollout {ro.avg_actuation_rate:.3f} "
        f"({ro.trials} trials)")


def count_design_calls(monkeypatch):
    """Count model builds and the designs' building blocks; build_lifted by period."""
    counts = Counter()

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key(args)] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "build_model",
                        counted(lambda a: "build_model", ExperimentConfig.build_model))
    modules = [m for name, m in sys.modules.items() if name.startswith("sparseroll")]
    for name, key in (("build_lifted", lambda a: ("build_lifted", a[3])),
                      ("build_tables", lambda a: "build_tables"),
                      ("build_mpc_problem", lambda a: "build_mpc_problem")):
        original = getattr(sr, name)
        wrapper = counted(key, original)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_each_command_designs_once(tmp_path, monkeypatch, capsys):
    # counted from the loaded config on: loading builds one model of its own to validate it
    bench = replace(load_config(BENCHMARK_CONFIG), trials=2)
    scalar = replace(load_config(SCALAR_CONFIG), trials=4)
    path = write_config(tmp_path, small_config_dict(periodic={"candidates": [1, 2]}))
    small = load_config(path)
    counts = count_design_calls(monkeypatch)
    # verify makes one model and one design of all three methods, shared by every check
    cli.cmd_verify(bench, tmp_path)
    assert counts == {"build_model": 1, "build_tables": 1, "build_mpc_problem": 1,
                      **{("build_lifted", p): 1 for p in (1, 2, 3, 6)}}
    # the rollout base of period p = 1 is the candidate design; the negative control builds
    # its own tables
    counts.clear()
    cli.cmd_verify(scalar, tmp_path, corrupt_terminal=True)
    assert counts == {"build_model": 1, "build_tables": 2, "build_mpc_problem": 1,
                      **{("build_lifted", p): 1 for p in (1, 2, 3)}}
    # a rollout base off the candidates is designed once on its own
    for command in (cli.cmd_design, cli.cmd_sweep):
        counts.clear()
        assert command(small, tmp_path) == 0
        assert counts == {"build_model": 1, "build_tables": 1,
                          **{("build_lifted", p): 1 for p in (1, 2, 6)}}, command


def test_verify_design_failure_fails_only_the_checks_that_need_it(monkeypatch):
    # a periodic design that raises fails the periodic checks, naming the exception; the
    # rollout and MPC checks run on their own designs
    def pathological(*args):
        raise AssumptionViolatedError("pathological sampling")

    monkeypatch.setattr(simulate, "design_candidates", pathological)
    cfg = parse_config(small_config_dict(methods=["rollout", "periodic", "sparse_mpc"]))
    results = {c.name: c for c in verify.run_verification(cfg)}
    assert results["periodic_formula_vs_sim"] == verify.CheckResult(
        "periodic_formula_vs_sim", False, "AssumptionViolatedError: pathological sampling")
    assert results["performance_bound"].detail == "cell failure at theta=0.1"
    failed = {name for name, c in results.items() if not c.passed}
    assert failed == {"periodic_formula_vs_sim", "performance_bound"}


def test_cmd_design_report(tmp_path, capsys):
    path = write_config(tmp_path, small_config_dict())
    code = cli.main(["design", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "design_report.txt").read_text()
    assert "0.1336" in report
    assert "base_cost_identity_residual" in report
    assert "cost_matrices_sha256" in report


def test_cmd_design_periodic_table(tmp_path, capsys):
    # each theta row stars the period best_periodic picks; each entry is the closed-form cost
    grid, candidates = [0.02, 0.05, 0.1, 0.2], [6, 3, 2, 1]
    path = write_config(tmp_path, small_config_dict(theta={"grid": grid},
                                                    periodic={"candidates": candidates}))
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "design_report.txt").read_text().splitlines()
    top = lines.index("# Periodic designs: average cost per (theta, p); * marks the argmin")
    header = top + 1 + len(candidates)
    assert lines[header].split() == ["theta"] + [f"p={p}" for p in candidates]
    cfg = load_config(path)
    dm = cfg.build_model()
    _, err_cov, _ = sr.steady_kalman(dm)
    starred = []
    for theta, row in zip(grid, lines[header + 1:header + 1 + len(grid)]):
        first, *entries = row.split()
        assert float(first) == theta and len(entries) == len(candidates)
        for p, entry in zip(candidates, entries):
            pol = sr.design_periodic(dm, cfg.q_weight, cfg.r_weight, p)
            assert entry.rstrip("*") == f"{sr.periodic_average_cost(pol, err_cov, theta):.6f}"
        best, _ = sr.best_periodic(dm, cfg.q_weight, cfg.r_weight, candidates, err_cov, theta)
        assert [p for p, entry in zip(candidates, entries) if entry.endswith("*")] == [best]
        starred.append(best)
    assert starred == [1, 2, 3, 6]


def test_cmd_design_digest_of_benchmark_tables(tmp_path, capsys):
    # the digest hashes every pattern's (h+1, n, n) cost matrices in pattern order
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(BENCHMARK_CONFIG), "--out", str(out)]) == 0
    report = (out / "design_report.txt").read_text()
    assert "patterns = 64\n" in report
    assert ("cost_matrices_sha256 = "
            "88cf014b1535ed7e3a9e2a955652e3c41a15b223e74ad875dfb81ac8b68e7396\n") in report


def test_cmd_design_config_error_exit(tmp_path, capsys):
    path = write_config(tmp_path, small_config_dict(rollout={"h": 5, "p": 2}))
    assert cli.main(["design", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "multiple" in err


def test_cmd_sweep_outputs(tmp_path):
    path = write_config(tmp_path, small_config_dict())
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == cli.TRADEOFF_HEADER
    assert len(lines) == 1 + 2 * 2  # grid x methods
    pertrial = (out / "pertrial.csv").read_text().splitlines()
    assert pertrial[0] == cli.PERTRIAL_HEADER
    assert len(pertrial) == 1 + 2 * 2 * 2  # rows x trials
    failures = (out / "failures.csv").read_text().splitlines()
    assert failures == [cli.FAILURES_HEADER]


def test_cmd_sweep_periodic_rate_exact(tmp_path):
    raw = small_config_dict(methods=["periodic"],
                            theta={"grid": [0.2]},
                            periodic={"candidates": [3]},
                            sim={"trials": 1, "horizon_steps": 60, "seed_base": 4})
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[1] == "periodic"
    assert float(row[3]) == 20.0 / 60.0


def first_trials(pertrial: bytes, k: int) -> list[bytes]:
    """The pertrial.csv rows of trials 0..k-1, in file order."""
    return [row for row in pertrial.splitlines()[1:] if int(row.split(b",")[2]) < k]


def test_cmd_sweep_deterministic_and_batch_invariant(tmp_path):
    raw = small_config_dict(methods=["rollout", "periodic", "sparse_mpc"],
                            sim={"trials": 2, "horizon_steps": 36, "seed_base": 7})
    path = write_config(tmp_path, raw)
    outputs = []
    for name, trials in (("a", "2"), ("b", "2"), ("c", "4")):
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--trials", trials]) == 0
        outputs.append(((out / "tradeoff.csv").read_bytes(), (out / "pertrial.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    # trials 0 and 1 give the same bytes whether or not trials 2 and 3 share their batch
    rows = first_trials(outputs[0][1], 2)
    assert len(rows) == 2 * 3 * 2  # thetas x methods x trials
    assert rows == first_trials(outputs[2][1], 2)


def test_cmd_plotdata(tmp_path):
    raw = small_config_dict()
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert cli.main(["plotdata", str(out / "tradeoff.csv"), "--out", str(out)]) == 0
    fig1 = (out / "fig_tradeoff.csv").read_text().splitlines()
    assert fig1[0] == cli.FIG_TRADEOFF_HEADER
    methods = {line.split(",")[0] for line in fig1[1:]}
    assert methods == {"rollout", "periodic"}  # one polyline per method
    fig2 = (out / "fig_theta.csv").read_text().splitlines()
    assert fig2[0] == cli.FIG_THETA_HEADER
    assert len(fig2) == len(fig1)


def test_cmd_plotdata_rejects_empty(tmp_path):
    empty = tmp_path / "tradeoff.csv"
    empty.write_text(cli.TRADEOFF_HEADER + "\n")
    assert cli.main(["plotdata", str(empty), "--out", str(tmp_path)]) == 2
    missing_header = tmp_path / "bad.csv"
    missing_header.write_text("foo,bar\n1,2\n")
    assert cli.main(["plotdata", str(missing_header), "--out", str(tmp_path)]) == 2


def test_cmd_verify_scalar_and_negative_control(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(SCALAR_CONFIG), "--out", str(out),
                     "--trials", "6"])
    assert code == 0
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "base_cost_identity" in names and "performance_bound" in names

    code = cli.main(["verify", "--config", str(SCALAR_CONFIG), "--out", str(out),
                     "--trials", "6", "--corrupt-terminal"])
    assert code == 5
    payload = json.loads((out / "verify_report.json").read_text())
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "base_cost_identity" in failed


def test_cmd_sweep_all_cells_failing_exit4(tmp_path):
    raw = small_config_dict(methods=["sparse_mpc"],
                            sparse_mpc={"horizon": 30, "penalty": 1.0,
                                        "tol": 1.0e-8, "max_iter": 1},
                            sim={"trials": 1, "horizon_steps": 30, "seed_base": 3})
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 4
    lines = (out / "failures.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one failed cell per theta
    assert "error" in lines[1]


def test_cmd_design_numeric_failure_exit3(tmp_path):
    # state-weight pair unobservable on an unstable mode: design must fail
    model = {
        "a": [[0.5, 0.0], [0.0, 2.0]],
        "b": [[1.0], [1.0]],
        "c": [[1.0, 0.0], [0.0, 1.0]],
        "proc_cov": [[1.0, 0.0], [0.0, 1.0]],
        "meas_cov": [[1.0, 0.0], [0.0, 1.0]],
        "init_mean": [0.0, 0.0],
        "init_cov": [[1.0, 0.0], [0.0, 1.0]],
    }
    model_path = tmp_path / "model.yaml"
    model_path.write_text(yaml.safe_dump(model))
    raw = small_config_dict(
        model={"source": "matrices-from-file", "file": str(model_path)},
        cost={"q": [[1.0, 0.0], [0.0, 0.0]], "r": [[1.0]]},
        methods=["periodic"],
        periodic={"candidates": [1]},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 3},
    )
    path = write_config(tmp_path, raw)
    assert cli.main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def test_config_rejects_pathological_candidates(tmp_path):
    model = {
        "a": [[1.0, 0.0], [0.0, -1.0]],
        "b": [[1.0], [1.0]],
        "c": [[1.0, 0.0], [0.0, 1.0]],
        "proc_cov": [[1.0, 0.0], [0.0, 1.0]],
        "meas_cov": [[1.0, 0.0], [0.0, 1.0]],
        "init_mean": [0.0, 0.0],
        "init_cov": [[1.0, 0.0], [0.0, 1.0]],
    }
    model_path = tmp_path / "model.yaml"
    model_path.write_text(yaml.safe_dump(model))
    raw = small_config_dict(
        model={"source": "matrices-from-file", "file": str(model_path)},
        cost={"q": [[1.0, 0.0], [0.0, 1.0]], "r": [[1.0]]},
        methods=["periodic"],
        periodic={"candidates": [2]},
        rollout={"h": 2, "p": 2},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 3},
    )
    with pytest.raises(ConfigError, match="pathological"):
        parse_config(raw, source_path=str(tmp_path / "cfg.yaml"))


def test_outdir_env_fallback(tmp_path, monkeypatch):
    path = write_config(tmp_path, small_config_dict(
        methods=["periodic"], theta={"grid": [0.2]},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 2}))
    target = tmp_path / "envout"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert (target / "tradeoff.csv").exists()
