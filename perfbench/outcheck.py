"""Correctness checks on the CSVs that ``sparseroll sweep`` writes.

Every sweep must succeed with a header-only ``failures.csv``.  At the
workload's reference seed (its ``sim.seed_base``) ``tradeoff.csv`` and
``pertrial.csv`` must match the committed reference: costs and standard
errors to 1e-12 relative, per-trial actuation rates exactly, since they
pin every trigger decision.  At every seed the outputs must satisfy
invariants that do not depend on the seed.

Run as a script to rewrite the committed references from the current code:

    PYTHONPATH=src python3 perfbench/outcheck.py
"""

import csv
import io
import math
import os
from pathlib import Path

REL_TOL = 1e-12
ABS_FLOOR = 1e-15
EXACT_COLUMNS = frozenset({"theta", "method", "trial", "trials", "seed_base", "actuation_rate"})

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE / "workloads"
REFERENCE = HERE / "reference"


class OutputMismatch(Exception):
    """The program's output is wrong; the run must fail."""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def compare_reference(out_dir, ref_dir):
    """Raise OutputMismatch unless both CSVs match the reference."""
    for name in ("tradeoff.csv", "pertrial.csv"):
        got, want = read_rows(Path(out_dir) / name), read_rows(Path(ref_dir) / name)
        if len(got) != len(want):
            raise OutputMismatch(f"{name}: {len(got)} rows, reference has {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            if g.keys() != w.keys():
                raise OutputMismatch(f"{name}: columns {list(g)} differ from {list(w)}")
            for col, ref in w.items():
                if col in EXACT_COLUMNS:
                    ok = g[col] == ref
                else:
                    ok = _close(float(g[col]), float(ref))
                if not ok:
                    raise OutputMismatch(
                        f"{name} row {i + 1} column {col}: {g[col]} != reference {ref}")


class InvariantCheck:
    """Seed-independent checks for one workload config.

    The best period p* of every theta is computed once here, from the
    public design functions, so each sweep's check is cheap.
    """

    def __init__(self, cfg):
        from sparseroll.estimator import steady_kalman
        from sparseroll.periodic import best_periodic

        self.cfg = cfg
        self.p_star = {}
        if "periodic" in cfg.methods:
            dm = cfg.build_model()
            _, err_cov, _ = steady_kalman(dm)
            for theta in cfg.theta_grid:
                self.p_star[float(theta)] = best_periodic(
                    dm, cfg.q_weight, cfg.r_weight, cfg.candidates, err_cov, theta)[0]

    def __call__(self, out_dir, seed: int):
        cfg = self.cfg
        out_dir = Path(out_dir)
        failures = (out_dir / "failures.csv").read_text()
        if failures.count("\n") != 1:
            raise OutputMismatch(f"failures.csv lists failed cells:\n{failures}")
        cells = [(float(t), m) for t in cfg.theta_grid for m in cfg.methods]
        trade = read_rows(out_dir / "tradeoff.csv")
        per = read_rows(out_dir / "pertrial.csv")
        if [(float(r["theta"]), r["method"]) for r in trade] != cells:
            raise OutputMismatch("tradeoff.csv does not hold one row per (theta, method) cell")
        if len(per) != len(cells) * cfg.trials:
            raise OutputMismatch(f"pertrial.csv has {len(per)} rows, expected "
                                 f"{len(cells) * cfg.trials}")
        for row in trade + per:
            if int(row["seed_base"]) != seed:
                raise OutputMismatch(f"row carries seed_base {row['seed_base']}, run seed {seed}")
            for col, val in row.items():
                if col not in ("method", "seed_base", "trial", "trials") and \
                        not math.isfinite(float(val)):
                    raise OutputMismatch(f"non-finite {col} = {val} in {row}")
        steps = cfg.horizon_steps
        for r in per:
            rate, theta = float(r["actuation_rate"]), float(r["theta"])
            if not 0.0 <= rate <= 1.0 or abs(rate * steps - round(rate * steps)) > 1e-9:
                raise OutputMismatch(f"actuation rate {rate} is not a count over {steps} steps")
            if r["method"] == "periodic" and rate != 1.0 / self.p_star[theta]:
                raise OutputMismatch(
                    f"periodic rate {rate} at theta={theta} is not 1/p* = 1/{self.p_star[theta]}")
        by_cell = {}
        for r in per:
            by_cell.setdefault((float(r["theta"]), r["method"]), []).append(r)
        for r in trade:
            rows = by_cell.get((float(r["theta"]), r["method"]), [])
            if int(r["trials"]) != cfg.trials or len(rows) != cfg.trials or not _close(
                    math.fsum(float(x["control_cost"]) for x in rows) / cfg.trials,
                    float(r["avg_control_cost"])):
                raise OutputMismatch(f"tradeoff row {r} disagrees with its per-trial rows")
        if {"rollout", "periodic"} <= set(cfg.methods):
            self._performance_bound(trade, by_cell)

    def _performance_bound(self, trade, by_cell):
        import numpy as np
        from sparseroll.simulate import Metrics, check_performance_bound

        metrics = {}
        for r in trade:
            theta = float(r["theta"])
            rows = by_cell[(theta, r["method"])]
            metrics[(theta, r["method"])] = Metrics(
                avg_control_cost=float(r["avg_control_cost"]),
                avg_actuation_rate=float(r["avg_actuation_rate"]),
                total=float(r["total_cost"]),
                stderr_control_cost=float(r["stderr_cost"]),
                stderr_rate=float(r["stderr_rate"]),
                theta=theta,
                per_trial_cost=np.array([float(x["control_cost"]) for x in rows]),
                per_trial_rate=np.array([float(x["actuation_rate"]) for x in rows]),
            )
        for theta in self.cfg.theta_grid:
            holds, margin = check_performance_bound(
                metrics[(float(theta), "rollout")], metrics[(float(theta), "periodic")],
                self.cfg.h)
            if not holds:
                raise OutputMismatch(
                    f"performance bound fails at theta={theta} (margin {margin:.3e})")


def write_references():
    """Run every workload at its reference seed and store its CSVs."""
    import contextlib
    import shutil
    import tempfile

    from sparseroll.cli import main
    from sparseroll.config import load_config

    for path in sorted(WORKLOADS.glob("*.yaml")):
        seed = load_config(path).seed_base
        ref_dir = REFERENCE / path.stem
        ref_dir.mkdir(parents=True, exist_ok=True)
        scratch = HERE.parent / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            argv = ["sweep", "--config", str(path), "--out", tmp, "--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise SystemExit(f"{path.stem}: sweep failed")
            for name in ("tradeoff.csv", "pertrial.csv"):
                shutil.copyfile(Path(tmp) / name, ref_dir / name)
        print(f"{path.stem}: reference written at seed {seed}")


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    write_references()
