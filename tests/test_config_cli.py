import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml

import sparseroll as sr
import sparseroll.cli as cli
from sparseroll import config, simulate, verify
from sparseroll.config import ExperimentConfig, load_config, parse_config
from sparseroll.exceptions import AssumptionViolatedError, ConfigError

REPO = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = REPO / "configs" / "benchmark.yaml"
SCALAR_CONFIG = REPO / "configs" / "scalar.yaml"
WORKLOADS = sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))
SCALAR_MODEL = REPO / "configs" / "scalar_model.yaml"


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


def test_lookahead_memory_budget_at_load():
    # the estimate rejects a design over the budget before any table is built: at h = 20 the
    # tables of 11 states need about 1109 MB, those of 10 about 932 MB; the benchmark's 4
    # states with 50 trials on the default grid need about 208 MB
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="MB budget"):
        ExperimentConfig(h=20, p=2, trials=50, horizon_steps=600, q_weight=np.eye(11))
    assert time.perf_counter() - start < 0.1
    assert ExperimentConfig(h=20, p=2, trials=50, horizon_steps=600, q_weight=np.eye(10)).h == 20
    load_config(BENCHMARK_CONFIG)
    cfg = ExperimentConfig(h=20, p=2, trials=50, horizon_steps=600)
    assert cfg.h == 20 and len(cfg.theta_grid) == 20


def test_lookahead_memory_budget_counts_every_theta_row():
    # one block holds the rows of every theta cell at once, each with its running argmin and
    # the gains it plays: 20 thetas x 30000 trials at h = 20 need about 1091 MB, one theta
    # about 250 MB
    with pytest.raises(ConfigError, match="a block of 600000 rows"):
        ExperimentConfig(h=20, p=2, trials=30000, horizon_steps=600)
    assert ExperimentConfig(h=20, p=2, trials=30000, horizon_steps=600,
                            theta_grid=(0.2,)).h == 20


def test_theta_range_over_the_budget_is_rejected_before_it_is_built(tmp_path, capsys):
    # a step that underflows the value count to inf used to raise OverflowError, and a
    # count whose rows, the config's trials per value, pass the lookahead budget is
    # rejected before its list exists
    for step in (1e-320, 1e-8):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="memory budget"):
            parse_config({"theta": {"start": 0.0, "stop": 1.0, "step": step}})
        assert time.perf_counter() - start < 0.1
    # 1e6 values fit the budget at one row each, but not at the default 50 trials each
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="memory budget"):
        parse_config({"theta": {"start": 0.0, "stop": 1.0, "step": 1e-6}})
    assert time.perf_counter() - start < 0.1
    raw = small_config_dict()
    raw["theta"] = {"start": 0.0, "stop": 1.0, "step": 1e-320}
    path = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "memory budget" in capsys.readouterr().err


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
        parse_config(small_config_dict(cost={"q": [[1.0]], "r": "benchmark"})).build_model()
    with pytest.raises(ConfigError):
        parse_config(small_config_dict(model={"source": "matrices-from-file"}))


def _theta_without_grid():
    raw = small_config_dict()
    raw["theta"] = {"start": 0.1}
    return parse_config(raw)


@pytest.mark.parametrize("loader", [config.YAML_LOADER, yaml.SafeLoader], ids=["default", "pure"])
def test_yaml_loader_reads_the_shipped_files_as_safe_load(tmp_path, monkeypatch, loader):
    # libyaml's loader where PyYAML has it, or the pure-Python loader it falls back to, gives
    # every shipped config the safe_load config, the model its arrays, and bad YAML its error
    assert config.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    for path in sorted((REPO / "configs").glob("*.yaml")) + WORKLOADS:
        if path != SCALAR_MODEL:
            expected = parse_config(yaml.safe_load(path.read_text()), source_path=str(path))
            assert load_config(path).canonical_dict() == expected.canonical_dict(), path
    model = load_config(SCALAR_CONFIG).build_model()
    expected = sr.DiscreteModel(**yaml.safe_load(SCALAR_MODEL.read_text()))
    for f in fields(sr.DiscreteModel):
        got, want = getattr(model, f.name), getattr(expected, f.name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
    with pytest.raises(ConfigError, match="^cannot parse config"):
        _write_and_load(tmp_path, "theta: [0.1, 0.2\n")


def _write_and_load(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return load_config(path)


def _model_file_config(tmp_path, text):
    (tmp_path / "model.yaml").write_text(text)
    return parse_config(small_config_dict(
        model={"source": "matrices-from-file", "file": str(tmp_path / "model.yaml")}))


# each remaining ConfigError branch of the schema: how to reach it, and its message prefix
CONFIG_ERRORS = {
    "model-source": (lambda tmp: parse_config(small_config_dict(model={"source": "mystery"})),
                     "model.source must be one of"),
    "sample-period": (lambda tmp: parse_config(small_config_dict(model={"sample_period": 0.0})),
                      "model.sample_period must be > 0"),
    "no-methods": (lambda tmp: parse_config(small_config_dict(methods=[])),
                   "at least one method must be enabled"),
    "h-below-1": (lambda tmp: parse_config(small_config_dict(rollout={"h": 0})),
                  "rollout.h and rollout.p must be >= 1"),
    "p-below-1": (lambda tmp: parse_config(small_config_dict(rollout={"p": 0})),
                  "rollout.h and rollout.p must be >= 1"),
    "h-above-max": (lambda tmp: parse_config(small_config_dict(rollout={"h": 21, "p": 1})),
                    "rollout.h must be <= 20"),
    "mpc-horizon": (lambda tmp: parse_config(small_config_dict(sparse_mpc={"horizon": 0})),
                    "sparse_mpc.horizon must be >= 1"),
    "mpc-penalty": (lambda tmp: parse_config(small_config_dict(sparse_mpc={"penalty": 0.0})),
                    "sparse_mpc solver parameters must be positive"),
    "mpc-tol": (lambda tmp: parse_config(small_config_dict(sparse_mpc={"tol": -1e-8})),
                "sparse_mpc solver parameters must be positive"),
    "mpc-max-iter": (lambda tmp: parse_config(small_config_dict(sparse_mpc={"max_iter": 0})),
                     "sparse_mpc solver parameters must be positive"),
    "candidate-below-1": (
        lambda tmp: parse_config(small_config_dict(periodic={"candidates": [0, 1]})),
        "periodic.candidates must be positive integers"),
    "empty-theta-grid": (lambda tmp: parse_config(small_config_dict(theta={"grid": []})),
                         "theta grid must be non-empty"),
    "r-shape": (lambda tmp: parse_config(small_config_dict(
        cost={"r": [[1.0, 0.0], [0.0, 1.0]]})).build_model(), "cost.r must be 1x1 for this model"),
    "non-finite-matrix": (
        lambda tmp: parse_config(small_config_dict(cost={"q": [[math.inf]]})),
        "cost.q must be 'benchmark' or a finite matrix"),
    "section-not-mapping": (lambda tmp: parse_config(small_config_dict(sim=5)),
                            "section 'sim' must be a mapping"),
    "theta-without-grid": (lambda tmp: _theta_without_grid(),
                           "theta section needs either 'grid' or start/stop/step"),
    "unreadable-file": (lambda tmp: load_config(tmp / "missing.yaml"), "cannot read config"),
    "invalid-yaml": (lambda tmp: _write_and_load(tmp, "theta: [0.1, 0.2\n"),
                     "cannot parse config"),
    "config-not-utf8": (lambda tmp: _write_and_load(tmp, b"\xff\xfe"), "cannot parse config"),
    "invalid-model-yaml": (lambda tmp: _model_file_config(tmp, "a: [1.0\n").build_model(),
                           "model file "),
    "builtin-construction": (
        lambda tmp: parse_config(small_config_dict(model={"sample_period": 1e300})).build_model(),
        "model construction failed: "),
}


@pytest.mark.parametrize("reach,prefix", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_error_branches(tmp_path, reach, prefix):
    with pytest.raises(ConfigError) as err:
        reach(tmp_path)
    assert str(err.value).startswith(prefix), str(err.value)


REPEATED = {"methods": ("methods", ["periodic", "periodic"]),
            "candidates": ("periodic.candidates", [2, 2])}


@pytest.mark.parametrize("key,value", REPEATED.values(), ids=REPEATED.keys())
def test_repeated_entry_is_a_config_error(tmp_path, capsys, key, value):
    # a repeated method ran twice and wrote its CSV rows twice; a repeated period printed its
    # design report row and column twice
    raw = small_config_dict()
    section, _, leaf = key.rpartition(".")
    (raw[section] if section else raw)[leaf] = value
    with pytest.raises(ConfigError, match=f"^{key} must not repeat an entry"):
        parse_config(raw)
    with pytest.raises(ConfigError, match=f"^{key} must not repeat an entry"):
        replace(ExperimentConfig(), **{leaf: tuple(value)})
    path = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must not repeat" in capsys.readouterr().err


def test_theta_grid_and_range_together_is_a_config_error():
    # the range used to be ignored silently
    theta = {"grid": [0.3], "start": 0.1, "stop": 0.2, "step": 0.1}
    with pytest.raises(ConfigError, match="either 'grid' or start/stop/step"):
        parse_config(small_config_dict(theta=theta))


def test_theta_range_stops_at_stop():
    # a stop between two steps ends the range at the last value below it; a span that falls
    # a rounding error short of a whole step count still reaches stop
    def grid(start, stop, step):
        return parse_config({"theta": {"start": start, "stop": stop, "step": step}}).theta_grid

    assert grid(0.1, 0.28, 0.1) == (0.1, 0.2)
    assert grid(1, 2.6, 1) == (1.0, 2.0)
    assert grid(0.1, 0.7, 0.1) == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    bench = load_config(BENCHMARK_CONFIG).theta_grid
    assert len(bench) == 20 and (bench[0], bench[-1]) == (0.02, 0.4)


def test_readme_config_block_covers_the_schema():
    # the YAML block under README "Configuration" loads and names every schema key
    readme = (REPO / "README.md").read_text().split("## Configuration", 1)[1]
    raw = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    parse_config(raw)
    named = set(raw) | {f"{k}.{key}" for k, v in raw.items() if isinstance(v, dict) for key in v}
    schema = {f.metadata["yaml"] for f in fields(ExperimentConfig) if "yaml" in f.metadata}
    assert len(schema) == 19 and schema <= named, schema - named


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
    assert parse_config(small_config_dict(rollout={"alpha": 1})).canonical_dict() == parse_config(
        small_config_dict()).canonical_dict()
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


@pytest.mark.parametrize("command", ["design", "sweep", "verify"])
@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_seed_outside_the_key_range_is_exit_2_with_one_line(tmp_path, capsys, command, seed):
    # a negative --seed ended verify in a ValueError traceback from its SeedSequence, while
    # sweep masked it to 64 bits; every command now rejects it at load
    code = cli.main([command, "--config", str(SCALAR_CONFIG), "--out", str(tmp_path / "out"),
                     "--seed", seed, "--trials", "4"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: sim.seed_base must be in [0, 2**64), got {seed}\n")


def test_seed_base_range_at_load(tmp_path, capsys):
    for seed in (-1, -(2**63), 2**64):
        with pytest.raises(ConfigError, match=r"^sim\.seed_base must be in \[0, 2\*\*64\)"):
            ExperimentConfig(seed_base=seed)
        path = write_config(tmp_path, small_config_dict(sim={"seed_base": seed}))
        with pytest.raises(ConfigError, match=r"^sim\.seed_base must be in"):
            load_config(path)
    # both ends of the range key the noise; the top one was the mask's fixed point
    for seed in (0, 2**64 - 1):
        assert cli.main(["sweep", "--config", str(SCALAR_CONFIG), "--out", str(tmp_path / "o"),
                         "--seed", str(seed), "--trials", "2"]) == 0
        rows = (tmp_path / "o" / "tradeoff.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(f",{seed}") for row in rows)


def test_sweep_memory_budget_at_load(tmp_path, capsys):
    # one trial of a 1e10-step horizon drew 74.5 GiB of noise until numpy failed to allocate
    # it; the sweep's noise and its per-step records are counted when the model is built
    cfg = ExperimentConfig(horizon_steps=10**10, trials=1, theta_grid=(0.1,),
                           methods=("periodic",))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"^sim\.horizon_steps=10000000000 needs about "
                                          r"629425 MB for the noise and the records of 2 rows, "
                                          r"above the 1024 MB budget$"):
        cfg.build_model()
    assert time.perf_counter() - start < 0.1
    # 50 trials of 20 thetas and three methods: 8 B x 50 x 6 of noise and 9 B x 3000 of
    # records per step put the edge of the budget between 36516 and 36522 steps
    assert ExperimentConfig(horizon_steps=36516).build_model().n_states == 4
    with pytest.raises(ConfigError, match="records of 3000 rows, above the 1024 MB budget"):
        ExperimentConfig(horizon_steps=36522).build_model()
    raw = small_config_dict(methods=["periodic"], sim={"trials": 1, "horizon_steps": 10**10})
    path = write_config(tmp_path, raw)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sim.horizon_steps=10000000000 needs about ")
    assert err.count("\n") == 1 and not any((tmp_path / "out").iterdir())


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
    # the bound, stability and ordering checks read one rollout/periodic sweep, rollout states
    # kept at the probe; the ordering check adds only the sparse-MPC cell at the middle theta
    calls = []
    sweep = verify.theta_sweep
    monkeypatch.setattr(verify, "theta_sweep", lambda cfg, designed, keep_states=(): calls.append(
        (cfg.methods, list(keep_states))) or sweep(cfg, designed, keep_states))
    cfg = parse_config(small_config_dict(theta={"grid": [0.1, 0.2, 0.3, 0.4]},
                                         methods=["rollout", "periodic", "sparse_mpc"]))
    results = {c.name: c for c in verify.run_verification(cfg)}
    assert len(results) == 10
    probe = [0.1, 0.3, 0.4]
    kept = [(theta, "rollout") for theta in probe]
    assert calls == [(("rollout", "periodic"), kept), (("sparse_mpc",), [])]
    # the same result as a sweep of the rollout cells at the probe thetas alone
    alone = sweep(replace(cfg, theta_grid=probe, methods=("rollout",)), keep_states=kept)
    assert verify._stability_check(cfg, alone, probe) == results["mean_square_stability"]
    # the ordering reads the first 15 rollout trials of the sweep: the figures of a separate
    # 15-trial sweep of both methods at the middle theta
    small = {c.method: c.metrics for c in sweep(
        replace(cfg, trials=min(cfg.trials, 15), theta_grid=(0.3,),
                methods=("rollout", "sparse_mpc")))}
    ro, mpc = small["rollout"], small["sparse_mpc"]
    assert results["tradeoff_ordering"].detail == (
        f"theta=0.3: mpc cost {mpc.avg_control_cost:.4f} vs rollout {ro.avg_control_cost:.4f}; "
        f"mpc rate {mpc.avg_actuation_rate:.3f} vs rollout {ro.avg_actuation_rate:.3f} "
        f"({ro.trials} trials)")


def count_design_calls(monkeypatch):
    """Count model builds and the designs' building blocks; build_lifted by period.

    ``solve_dares`` is counted by the module that calls it, outside :mod:`sparseroll.riccati`:
    ``("solve_dares", "periodic")`` is a design stack, ``("solve_dares", "estimator")`` a
    one-problem stack of the filter's dual equation and ``("solve_dares", "verify")`` the
    batch of one that the ``scalar_dare`` check solves, which is not a design.
    """
    counts = Counter()

    def counted(key, original, module):
        def wrapper(*args, **kwargs):
            counts[key(args, module.__name__.rpartition(".")[2])] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "build_model", counted(
        lambda a, m: "build_model", ExperimentConfig.build_model, sr.config))
    modules = [m for name, m in sys.modules.items() if name.startswith("sparseroll")]
    for name, key in (("build_lifted", lambda a, m: ("build_lifted", a[3])),
                      ("build_tables", lambda a, m: "build_tables"),
                      ("build_mpc_problem", lambda a, m: "build_mpc_problem"),
                      ("solve_dares", lambda a, m: ("solve_dares", m))):
        original = getattr(sr.riccati if name == "solve_dares" else sr, name)
        for module in modules:
            if vars(module).get(name) is original and module is not sr.riccati:
                monkeypatch.setattr(module, name, counted(key, original, module))
    return counts


def test_each_command_designs_once(tmp_path, monkeypatch, capsys):
    # counted from the config file on: loading builds no model, and each command builds one
    counts = count_design_calls(monkeypatch)
    path = write_config(tmp_path, small_config_dict(periodic={"candidates": [1, 2]}))
    for config in (BENCHMARK_CONFIG, SCALAR_CONFIG, path):
        load_config(config)
    assert counts == {}

    def run(command, config, *flags):
        counts.clear()
        return cli.main([command, "--config", str(config), "--out", str(tmp_path), *flags])

    # verify makes one model and one design of all three methods, shared by every check; one
    # Riccati stack holds every candidate period, the rollout base and the MPC terminal.  The
    # filter's dual equation is solved by the builtin model (its init_cov), the design and the
    # scalar_kalman check; the scalar_dare check solves its golden equation
    design_stack = {("solve_dares", "periodic"): 1}
    golden = {("solve_dares", "verify"): 1}
    run("verify", BENCHMARK_CONFIG, "--trials", "2")
    assert counts == {"build_model": 1, "build_tables": 1, "build_mpc_problem": 1,
                      **design_stack, **golden, ("solve_dares", "estimator"): 3,
                      **{("build_lifted", p): 1 for p in (1, 2, 3, 6)}}
    # the rollout base of period p = 1 is the candidate design; a model from a file solves no
    # filter equation
    run("verify", SCALAR_CONFIG, "--trials", "4")
    assert counts == {"build_model": 1, "build_tables": 1, "build_mpc_problem": 1,
                      **design_stack, **golden, ("solve_dares", "estimator"): 2,
                      **{("build_lifted", p): 1 for p in (1, 2, 3)}}
    # a rollout base off the candidates is lifted once and solved in the candidates' stack
    for command in ("design", "sweep"):
        assert run(command, path) == 0
        assert counts == {"build_model": 1, "build_tables": 1, **design_stack,
                          ("solve_dares", "estimator"): 2,
                          **{("build_lifted", p): 1 for p in (1, 2, 6)}}, command


def test_verify_design_failure_fails_only_the_checks_that_need_it(monkeypatch):
    # a periodic design that raises fails the checks of the methods that read its period,
    # naming the exception; the others run on their own outcomes of the one design
    design_periods = simulate.design_periods
    broken = ()

    def pathological(*args):
        # the broken candidate periods fail their check; the rollout base p = 6 does not
        designs = design_periods(*args)
        designs.update({p: AssumptionViolatedError("pathological sampling") for p in broken})
        return designs

    monkeypatch.setattr(simulate, "design_periods", pathological)
    cfg = parse_config(small_config_dict(methods=["rollout", "periodic", "sparse_mpc"]))
    # the MPC terminal is the period-1 policy: its checks fail with p = 1 alone
    for broken, mpc_failed in (((1, 2, 3), {"mpc_optimality", "tradeoff_ordering"}),
                               ((2, 3), set())):
        results = {c.name: c for c in verify.run_verification(cfg)}
        assert results["periodic_formula_vs_sim"] == verify.CheckResult(
            "periodic_formula_vs_sim", False, "AssumptionViolatedError: pathological sampling")
        assert results["performance_bound"].detail == "cell failure at theta=0.1"
        failed = {name for name, c in results.items() if not c.passed}
        assert failed == {"periodic_formula_vs_sim", "performance_bound", *mpc_failed}, broken
        if mpc_failed:
            assert results["mpc_optimality"] == verify.CheckResult(
                "mpc_optimality", False, "AssumptionViolatedError: pathological sampling")
            assert results["tradeoff_ordering"] == verify.CheckResult(
                "tradeoff_ordering", False, "AssumptionViolatedError: pathological sampling")


def test_cmd_design_report(tmp_path, capsys):
    path = write_config(tmp_path, small_config_dict())
    code = cli.main(["design", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "design_report.txt").read_text()
    assert "0.1336" in report
    assert "base_cost_identity_residual" in report
    assert "p0_sha256" in report


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
            pol = sr.design_periods(dm, cfg.q_weight, cfg.r_weight, [p])[p]
            assert entry.rstrip("*") == f"{sr.periodic_average_cost(pol, err_cov, theta):.6f}"
        best, _ = sr.best_periodic(dm, cfg.q_weight, cfg.r_weight, candidates, err_cov, theta)
        assert [p for p, entry in zip(candidates, entries) if entry.endswith("*")] == [best]
        starred.append(best)
    assert starred == [1, 2, 3, 6]


def test_cmd_design_digest_of_benchmark_tables(tmp_path, capsys, monkeypatch):
    # the digest hashes the (2^h, n, n) step-0 cost matrices as stored; the workload (h = 14)
    # is only read. Their bits move with the last bits of A and B, so each config pins two
    # digests: of the shipped numpy exponential, and of scipy.linalg.expm in its place; the
    # two table sets agree to 1e-12 and pick the same patterns
    for config, patterns, digest, scipy_digest in [
            (BENCHMARK_CONFIG, 64,
             "0956022c26a7442cbef7b547b22a3634a98cb9b58886fd476a2cb6597a9c2fc4",
             "5c6a0a644ffb65d8f57ae743230e5edef5d17e357468041888ce012734fc7014"),
            (REPO / "perfbench" / "workloads" / "mpc-deep-lookahead.yaml", 2**14,
             "f5c89c4d0aaf18f3cb55251613a8ec6b1afaad68476a99e51e847ea06d9eab91",
             "791c5d00a84828392e96fb8615698d7174ea1675fe9789238e540c990a709536")]:
        out = tmp_path / config.stem
        assert cli.main(["design", "--config", str(config), "--out", str(out)]) == 0
        report = (out / "design_report.txt").read_text()
        assert f"patterns = {patterns}\n" in report
        assert f"p0_sha256 = {digest}\n" in report

        cfg = load_config(config)
        tables = simulate.design(cfg, methods=("rollout",))["rollout"][1]
        with monkeypatch.context() as patch:
            patch.setattr(sr.plant, "_expm", scipy.linalg.expm)
            oracle = simulate.design(cfg, methods=("rollout",))["rollout"][1]
        assert hashlib.sha256(oracle.p0).hexdigest() == scipy_digest
        assert hashlib.sha256(tables.p0).hexdigest() == digest
        for got, expected in [(tables.p0, oracle.p0), (tables.gains, oracle.gains)]:
            gap = np.linalg.norm(got - expected, axis=(1, 2))
            assert (gap <= 1e-12 * np.linalg.norm(expected, axis=(1, 2))).all()
        rng = np.random.default_rng(7)
        estimates = rng.standard_normal((200, 4)) * np.geomspace(0.01, 3.0, 200)[:, None]
        for theta in cfg.theta_grid:
            assert np.array_equal(sr.select_pattern(tables, estimates, theta),
                                  sr.select_pattern(oracle, estimates, theta))


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


def test_no_command_loads_scipy(tmp_path):
    # the runtime is numpy and PyYAML: design, sweep and verify (whose quadrature oracle
    # runs on the builtin model) load no scipy module, and no module of the package binds
    # a scipy module or function
    script = """
import sys, types
from sparseroll.cli import main
config, out = sys.argv[1:]
for command in ("design", "sweep", "verify"):
    assert main([command, "--config", config, "--out", out]) == 0

def from_scipy(value):
    name = value.__name__ if isinstance(value, types.ModuleType) else (
        getattr(value, "__module__", None) if callable(value) else None)
    return isinstance(name, str) and name.split(".")[0] == "scipy"

ours = [name for name in list(sys.modules) if name.split(".")[0] == "sparseroll"]
print(sorted(name for name in ours if any(map(from_scipy, vars(sys.modules[name]).values()))))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    path = write_config(tmp_path, small_config_dict(methods=list(sr.config.METHODS)))
    pythonpath = [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]


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


def test_unusable_input_or_output_is_exit_2_with_one_line(tmp_path, capsys):
    # a sweep file that cannot be read or parsed, an --out below a file, or an output name a
    # directory holds, ends in exit 2 and one line on stderr, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    sweep = tmp_path / "tradeoff.csv"
    sweep.write_text(cli.TRADEOFF_HEADER + "\n0.1,periodic,1.0,0.5,1.05,0.1,0.01,2,7\n")
    huge_field = tmp_path / "huge.csv"
    huge_field.write_text(cli.TRADEOFF_HEADER + "\n" + "9" * 200_000 + "\n")
    taken = tmp_path / "taken"
    for name in ("design_report.txt", "fig_tradeoff.csv"):
        (taken / name).mkdir(parents=True)
    cases = [(["plotdata", str(path), "--out", str(tmp_path)], "cannot read sweep file: ")
             for path in (tmp_path / "missing.csv", tmp_path, huge_field)]
    cases += [(argv, "cannot write output: ") for argv in (
        ["design", "--config", str(SCALAR_CONFIG), "--out", str(blocker / "sub")],
        ["plotdata", str(sweep), "--out", str(blocker / "x")],
        ["design", "--config", str(SCALAR_CONFIG), "--out", str(taken)],
        ["plotdata", str(sweep), "--out", str(taken)])]
    for argv, prefix in cases:
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err


def test_unusable_output_fails_before_the_work(tmp_path, monkeypatch, capsys):
    # every output is opened for appending before the sweep or the checks run, so an output a
    # directory holds fails at once, and an output that exists keeps its bytes until written
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the outputs were probed")

    monkeypatch.setattr(cli, "theta_sweep", never)
    monkeypatch.setattr(cli, "run_verification", never)
    for command, taken in (("sweep", "pertrial.csv"), ("verify", "verify_report.json")):
        out = tmp_path / command
        (out / taken).mkdir(parents=True)
        (out / "tradeoff.csv").write_text("earlier run\n")
        capsys.readouterr()
        assert cli.main([command, "--config", str(SCALAR_CONFIG), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1, err
        assert (out / "tradeoff.csv").read_text() == "earlier run\n"


def corrupt_terminal(monkeypatch):
    """Make verify's design return rollout tables built on 1.10 x the base cost matrix."""
    make = verify.design

    def corrupted(cfg, methods=None):
        designed = make(cfg, methods)
        pol, _ = designed["rollout"]
        tables = sr.build_tables(designed.model, cfg.q_weight, cfg.r_weight,
                                 pol.cost_matrix * 1.10, cfg.h, cfg.p, designed.steady[1])
        return replace(designed, methods={**designed.methods, "rollout": (pol, tables)})

    monkeypatch.setattr(verify, "design", corrupted)


def test_cmd_verify_scalar_and_negative_control(tmp_path, monkeypatch):
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(SCALAR_CONFIG), "--out", str(out),
                     "--trials", "6"])
    assert code == 0
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "base_cost_identity" in names and "performance_bound" in names

    # the corrupted terminal is built here: the command has no hidden flag for it
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args(["verify", "--config", str(SCALAR_CONFIG),
                                       "--corrupt-terminal"])
    assert exit_.value.code == 2
    corrupt_terminal(monkeypatch)
    code = cli.main(["verify", "--config", str(SCALAR_CONFIG), "--out", str(out),
                     "--trials", "6"])
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


def two_input_config(tmp_path, r):
    """A config file of the periodic method on a stable 2-state model whose second input
    reaches nothing, with input weight ``r``."""
    model = {
        "a": [[0.5, 0.0], [0.0, 0.5]],
        "b": [[1.0, 0.0], [0.0, 0.0]],
        "c": [[1.0, 0.0], [0.0, 1.0]],
        "proc_cov": [[1.0, 0.0], [0.0, 1.0]],
        "meas_cov": [[1.0, 0.0], [0.0, 1.0]],
        "init_mean": [0.0, 0.0],
        "init_cov": [[1.0, 0.0], [0.0, 1.0]],
    }
    model_path = tmp_path / "model.yaml"
    model_path.write_text(yaml.safe_dump(model))
    return write_config(tmp_path, small_config_dict(
        model={"source": "matrices-from-file", "file": str(model_path)},
        cost={"q": [[1.0, 0.0], [0.0, 1.0]], "r": r},
        methods=["periodic"],
        periodic={"candidates": [1]},
        rollout={"h": 2, "p": 1},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 3},
    ))


def test_cmd_design_numeric_failure_exit3(tmp_path, capsys):
    # the model passes every load check; the period-1 design's inner matrix B'PB + R is
    # diag(P11 + 1, 1e-13), whose condition number is past the limit: design must fail
    path = two_input_config(tmp_path, [[1.0, 0.0], [0.0, 1e-13]])
    assert cli.main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: inner inverse condition number 2.000e+13 exceeds 1.0e+12\n")


def test_non_symmetric_cost_r_is_a_config_error(tmp_path, capsys):
    # a non-symmetric R used to pass min_eigenvalue, which symmetrizes, and end in a
    # ValueError traceback from the lift
    r = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ConfigError, match="^cost.r must be symmetric$"):
        ExperimentConfig(r_weight=r)
    path = two_input_config(tmp_path, r)
    for command in ("design", "sweep", "verify"):
        capsys.readouterr()
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: cost.r must be symmetric\n", command


BLIND_Q = {"zero": np.zeros((4, 4)),
           "relative-position": np.pad([[1.0, -1.0], [-1.0, 1.0]], ((0, 2), (0, 2)))}


@pytest.mark.parametrize("q", BLIND_Q.values(), ids=BLIND_Q.keys())
def test_blind_state_weight_is_rejected_before_any_riccati_iteration(tmp_path, monkeypatch,
                                                                      capsys, q):
    # a Q blind to a mode of the benchmark (the centre of mass drifts unseen when Q weighs only
    # the spring) used to load and then fail every design; now every command exits 2 at load
    path = write_config(tmp_path, small_config_dict(cost={"q": q.tolist()}))
    counts = count_design_calls(monkeypatch)
    for command in ("design", "sweep", "verify"):
        counts.clear()
        capsys.readouterr()
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: (A, Q^{1/2}) must be observable: mode ")
        assert err.endswith(" is unobservable\n") and err.count("\n") == 1, err
        assert counts == {"build_model": 1}, command
        assert not any((tmp_path / "o").iterdir()), command  # the output probe made no file


def test_mis_sampled_builtin_model_is_rejected_before_the_filter_solve():
    # at these sample periods the benchmark's oscillation aliases onto the rigid-body mode or
    # onto -1; the PBH test names the mode before the filter's fixed point could stall
    for ts in (0.5, 1.0, 2.0, 10.0, 100.0, 1000.0):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"^\(A, B\) must be stabilizable: mode "):
            ExperimentConfig(sample_period=ts).build_model()
        assert time.perf_counter() - start < 0.5, ts


def test_config_rejects_pathological_candidates(tmp_path, monkeypatch, capsys):
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
    cfg = parse_config(raw, source_path=str(tmp_path / "cfg.yaml"))
    with pytest.raises(ConfigError, match="pathological sampling at period p=2"):
        cfg.build_model()
    # the model is checked whenever a config builds it, also after dataclasses.replace
    valid = replace(cfg, candidates=(1,), h=2, p=1)
    assert valid.build_model().n_states == 2
    with pytest.raises(ConfigError, match="pathological sampling at period p=2"):
        replace(valid, candidates=(2,)).build_model()
    # the CLI exits 2 before any design work
    counts = count_design_calls(monkeypatch)
    assert cli.main(["design", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "out")]) == 2
    assert "pathological sampling" in capsys.readouterr().err
    assert counts == {"build_model": 1}


def test_load_time_does_not_grow_with_the_largest_candidate():
    # each period's lifted pair comes from matrix_power, not from p - 1 products
    cfg = replace(load_config(BENCHMARK_CONFIG), candidates=(1, 200001))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="^pathological sampling at period p=200001: "):
        cfg.build_model()
    assert time.perf_counter() - start < 0.1


def file_model_config(tmp_path, a, b, c, **overrides):
    """A parsed config of the periodic method on a model file with unit noise."""
    n = len(a)
    model = {"a": a, "b": b, "c": c, "proc_cov": np.eye(n).tolist(),
             "meas_cov": np.eye(len(c)).tolist(), "init_mean": [0.0] * n,
             "init_cov": np.eye(n).tolist()}
    (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
    raw = small_config_dict(
        model={"source": "matrices-from-file", "file": str(tmp_path / "model.yaml")},
        cost={"q": np.eye(n).tolist(), "r": np.eye(len(b[0])).tolist()},
        methods=["periodic"], periodic={"candidates": [1]}, rollout={"h": 2, "p": 1},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 3})
    return parse_config({**raw, **overrides}, source_path=str(tmp_path / "cfg.yaml"))


def test_config_rejects_undesignable_models_at_load(tmp_path):
    # the mode that no input reaches, no output sees or a lift overflows is named at load
    cases = [
        ([[1.5, 0.0], [0.0, 0.5]], [[0.0], [1.0]], [[1.0, 1.0]], {},
         "(A, B) must be stabilizable: mode 1.5 of A^1 is uncontrollable"),
        ([[1.5, 0.0], [0.0, 0.5]], [[1.0], [1.0]], [[0.0, 0.0]], {},
         "(A, C) must be detectable: mode 1.5 is unobservable"),
        ([[2.0]], [[1.0]], [[1.0]], {"periodic": {"candidates": [2000]}},
         "lifting by period p=2000 overflows"),
    ]
    for a, b, c, overrides, message in cases:
        with pytest.raises(ConfigError) as err:
            file_model_config(tmp_path, a, b, c, **overrides).build_model()
        assert str(err.value).startswith(message), err.value
    # the undetectable model is rejected before its filter iterates
    cfg = file_model_config(tmp_path, *cases[1][:3])
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="detectable"):
        cfg.build_model()
    assert time.perf_counter() - start < 0.01
    # the same model with an output that sees the unstable mode loads
    assert file_model_config(tmp_path, *cases[1][:2], [[1.0, 0.0]]).build_model().n_states == 2


def test_config_rejects_non_finite_model_file_entries(tmp_path):
    cfg = file_model_config(tmp_path, [[0.5]], [[1.0]], [[1.0]])
    good = yaml.safe_load((tmp_path / "model.yaml").read_text())
    for key, bad in [("a", [[math.inf]]), ("proc_cov", [[math.inf]]),
                     ("init_cov", [[math.nan]]), ("init_mean", [math.nan])]:
        (tmp_path / "model.yaml").write_text(yaml.safe_dump({**good, key: bad}))
        with pytest.raises(ConfigError, match="model matrices must be finite"):
            cfg.build_model()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    path = write_config(tmp_path, small_config_dict(
        methods=["periodic"], theta={"grid": [0.2]},
        sim={"trials": 1, "horizon_steps": 30, "seed_base": 2}))
    target = tmp_path / "envout"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert (target / "tradeoff.csv").exists()
