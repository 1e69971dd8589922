"""Tests of the benchmark itself, on tiny versions of each workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import outcheck  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def tiny_config(workload: str, tmp_path: Path) -> Path:
    """The workload's config cut to two thetas, two trials and a short horizon.

    Configs that run rollout and periodic keep their horizon: the
    performance bound the output check applies is a long-run property.
    """
    raw = yaml.safe_load((HERE / "workloads" / f"{workload}.yaml").read_text())
    grid = raw["theta"]["grid"]
    raw["theta"]["grid"] = [grid[0], grid[-1]]
    raw["sim"]["trials"] = 2
    if not {"rollout", "periodic"} <= set(raw["methods"]):
        raw["sim"]["horizon_steps"] = 2 * raw.get("rollout", {}).get("h", 15)
    path = tmp_path / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def run_worker(config: Path, seed: int, trace: int, outdir: Path, reference=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config), "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--outdir", str(outdir)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def sweep_csvs(config: Path, seed: int, out: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "sparseroll.cli", "sweep", "--config", str(config),
                    "--out", str(out), "--seed", str(seed)],
                   env=env, check=True, capture_output=True, timeout=170)
    return out


def test_spec_matches_code():
    assert sorted(WORKLOADS) == sorted(p.stem for p in (HERE / "workloads").glob("*.yaml"))
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    assert tracing.EXACT <= set(tracing.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_counts_repeat(workload, tmp_path):
    config = tiny_config(workload, tmp_path)
    proc, e2e = run_worker(config, SEED, 0, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    traced = [run_worker(config, SEED, 1, tmp_path / "out")[1] for _ in range(2)]
    for res in traced:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in tracing.EXACT:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def _corrupt(ref: Path, column: str, change):
    path = ref / "pertrial.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = change(rows[0][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("column, change, fails", [
    ("control_cost", lambda v: repr(float(v) * (1 + 1e-13)), False),
    ("control_cost", lambda v: repr(float(v) * (1 + 1e-9)), True),
    ("actuation_rate", lambda v: repr(math.nextafter(float(v), 2.0)), True),
])
def test_reference_tolerances(tmp_path, column, change, fails):
    config = tiny_config("sweep-rollout-periodic", tmp_path)
    out = sweep_csvs(config, SEED, tmp_path / "out")
    ref = tmp_path / "ref"
    shutil.copytree(out, ref)
    outcheck.compare_reference(out, ref)
    _corrupt(ref, column, change)
    if fails:
        with pytest.raises(outcheck.OutputMismatch):
            outcheck.compare_reference(out, ref)
    else:
        outcheck.compare_reference(out, ref)


def test_corrupted_reference_fails_the_run(tmp_path):
    config = tiny_config("sweep-rollout-periodic", tmp_path)
    seed = yaml.safe_load(config.read_text())["sim"]["seed_base"]
    ref = sweep_csvs(config, seed, tmp_path / "ref")
    proc, res = run_worker(config, seed, 0, tmp_path / "out", reference=ref)
    assert proc.returncode == 0 and res["correct"], proc.stderr
    _corrupt(ref, "control_cost", lambda v: repr(float(v) * 1.001))
    proc, res = run_worker(config, seed, 0, tmp_path / "out", reference=ref)
    assert proc.returncode != 0 and not res["correct"]
    assert res["metrics"] == {}
    assert "OUTPUT CHECK FAILED" in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_committed_reference_matches_program(workload, tmp_path):
    config = HERE / "workloads" / f"{workload}.yaml"
    seed = yaml.safe_load(config.read_text())["sim"]["seed_base"]
    out = sweep_csvs(config, seed, tmp_path / "out")
    outcheck.compare_reference(out, HERE / "reference" / workload)


def test_missing_target_is_absent_and_run_continues(tmp_path, monkeypatch):
    from sparseroll.cli import main

    targets = [t if t[0] != "simulate.plant_step" else t[:2] + ("PlantSim.gone", None)
               for t in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    config = tiny_config("sweep-rollout-periodic", tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--seed", str(SEED)]) == 0
    metrics, absent = tracer.layer_metrics()
    assert {"simulate.plant_step.calls", "simulate.plant_step.self_s"} <= set(absent)
    assert metrics["estimator.kalman_step.calls"] > 0
    assert "estimator.kalman_step.calls" not in absent
    from sparseroll import simulate
    assert not hasattr(simulate.kalman_step, "__wrapped__")


def test_speed_probe_times_the_call_and_leaves_no_timer():
    def spin(n):
        total = 0
        for i in range(n):  # Python bytecode, so the timer's handler runs inside
            total += i
        return total

    probe = speed.SpeedProbe()
    previous = signal.getsignal(signal.SIGPROF)
    t0 = time.perf_counter()
    result, wall, at_reference = probe.run(spin, 5_000_000)
    outer = time.perf_counter() - t0
    assert result == sum(range(5_000_000))
    assert 0 < wall < outer and at_reference > 0
    assert probe._loops >= 3  # before, after, and at least one inside the call
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
