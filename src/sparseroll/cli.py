"""Command-line surface: design reports, trade-off sweeps, verification, plot data.

Exit codes: 0 success, 2 configuration/validation failure or unusable input or output
file, 3 numerical failure, 4 sweep with no successful cell, 5 verification failure.
All outputs are deterministic for a fixed configuration and seed.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .exceptions import ConfigError, SparseRollError
from .periodic import cheapest_period, periodic_average_cost
from .simulate import design, theta_sweep
from .verify import base_cost_residual, run_verification

OUTDIR_ENV = "SPARSEROLL_OUTDIR"

TRADEOFF_HEADER = ("theta,method,avg_control_cost,avg_actuation_rate,total_cost,"
                   "stderr_cost,stderr_rate,trials,seed_base")
PERTRIAL_HEADER = "theta,method,trial,control_cost,actuation_rate,total_cost,seed_base"
FAILURES_HEADER = "theta,method,status"
FIG_TRADEOFF_HEADER = "method,theta,avg_actuation_rate,avg_control_cost"
FIG_THETA_HEADER = "theta,method,avg_control_cost,stderr_cost,avg_actuation_rate,stderr_rate"
OUTPUTS = {"design": ("design_report.txt",), "verify": ("verify_report.json",),
           "sweep": ("tradeoff.csv", "pertrial.csv", "failures.csv")}  # by configured command


def _fmt(x) -> str:
    return repr(float(x))


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    lines = [f"{name} ="]
    for row in np.atleast_2d(m):
        lines.append("    [" + ", ".join(f"{v: .10g}" for v in row) + "]")
    return lines


def _resolve_outdir(args, cfg: ExperimentConfig) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or cfg.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {key: value for key, value in (("seed_base", args.seed), ("trials", args.trials))
               if value is not None}
    return replace(cfg, **updates) if updates else cfg


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def cmd_design(cfg: ExperimentConfig, out_dir: Path) -> int:
    designed = design(cfg, methods=("rollout", "periodic"))
    dm = designed.model
    gain, err_cov, prior_cov = designed.steady

    lines = ["# Design report", ""]
    lines += _matrix_lines("A", dm.a)
    lines += _matrix_lines("B", dm.b)
    lines += _matrix_lines("C", dm.c)
    lines += _matrix_lines("process_noise_cov", dm.proc_cov)
    lines += _matrix_lines("measurement_noise_cov", dm.meas_cov)
    lines += _matrix_lines("Q", cfg.q_weight)
    lines += _matrix_lines("R", cfg.r_weight)
    lines.append("")
    lines += _matrix_lines("kalman_gain", gain)
    lines += _matrix_lines("error_cov", err_cov)
    lines += _matrix_lines("prior_cov", prior_cov)
    lines.append("")

    lines.append("# Periodic designs: average cost per (theta, p); * marks the argmin")
    designs = designed["periodic"]
    for p in cfg.candidates:
        min_eig = float(np.linalg.eigvalsh(designs[p].cost_matrix).min())
        lines.append(f"p={p}: cost_matrix min eigenvalue = {min_eig:.6g}")
    header = "theta      " + "  ".join(f"p={p:<8d}" for p in cfg.candidates)
    lines.append(header)
    for theta in cfg.theta_grid:
        costs = {p: periodic_average_cost(pol, err_cov, theta) for p, pol in designs.items()}
        best = cheapest_period(designs, err_cov, theta)[0]
        lines.append(f"{theta:<9.4g}  " + "  ".join(
            f"{costs[p]:.6f}" + ("*" if p == best else " ") for p in cfg.candidates))
    lines.append("")

    base, tables = designed["rollout"]
    resid = base_cost_residual(tables, base.cost_matrix)
    lines.append(f"# Lookahead tables (h={cfg.h}, p={cfg.p})")
    lines.append(f"patterns = {len(tables.bits)}")
    # the step-0 cost matrices exactly as stored, (2^h, n, n) by pattern index in C order
    lines.append(f"p0_sha256 = {hashlib.sha256(tables.p0).hexdigest()}")
    lines.append(f"base_cost_identity_residual = {resid:.6e}")

    report = "\n".join(lines) + "\n"
    (out_dir / "design_report.txt").write_text(report)
    sys.stdout.write(report)
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    cells = theta_sweep(cfg)

    ok_cells = [c for c in cells if c.status == "ok"]
    _write_csv(out_dir / "tradeoff.csv", TRADEOFF_HEADER, (
        [_fmt(c.theta), c.method, _fmt(m.avg_control_cost), _fmt(m.avg_actuation_rate),
         _fmt(m.total), _fmt(m.stderr_control_cost), _fmt(m.stderr_rate), m.trials, cfg.seed_base]
        for c in ok_cells for m in [c.metrics]))
    _write_csv(out_dir / "pertrial.csv", PERTRIAL_HEADER, (
        [_fmt(c.theta), c.method, trial, _fmt(cost), _fmt(rate), _fmt(cost + c.theta * rate),
         cfg.seed_base]
        for c in ok_cells
        for trial, (cost, rate) in enumerate(zip(c.metrics.per_trial_cost,
                                                 c.metrics.per_trial_rate))))
    _write_csv(out_dir / "failures.csv", FAILURES_HEADER,
               ([_fmt(c.theta), c.method, c.status] for c in cells if c.status != "ok"))

    n_failed = len(cells) - len(ok_cells)
    sys.stdout.write(f"sweep: {len(ok_cells)} cells ok, {n_failed} failed -> {out_dir}\n")
    return 0 if ok_cells else 4


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    results = run_verification(cfg)
    payload = {
        "all_passed": bool(all(r.passed for r in results)),
        "checks": [
            {"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results
        ],
    }
    (out_dir / "verify_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    for r in results:
        sys.stdout.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}\n")
    return 0 if payload["all_passed"] else 5


def cmd_plotdata(sweep_csv: str, out_dir: Path) -> int:
    try:
        with open(sweep_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        sys.stderr.write(f"cannot read sweep file: {exc}\n")
        return 2
    if header != TRADEOFF_HEADER.split(","):
        sys.stderr.write("sweep file has an unexpected header\n")
        return 2
    if not rows:
        sys.stderr.write("sweep file has no data rows\n")
        return 2
    try:
        rows.sort(key=lambda r: (r["method"], float(r["theta"])))
    except (KeyError, ValueError):
        sys.stderr.write("sweep file has malformed rows\n")
        return 2

    _write_csv(out_dir / "fig_tradeoff.csv", FIG_TRADEOFF_HEADER, (
        [r["method"], r["theta"], r["avg_actuation_rate"], r["avg_control_cost"]] for r in rows))
    _write_csv(out_dir / "fig_theta.csv", FIG_THETA_HEADER, (
        [r["theta"], r["method"], r["avg_control_cost"], r["stderr_cost"],
         r["avg_actuation_rate"], r["stderr_rate"]]
        for r in sorted(rows, key=lambda r: (float(r["theta"]), r["method"]))))
    sys.stdout.write(f"plot data written to {out_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseroll",
        description="Design, simulate and benchmark sparse intermittent actuation policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTDIR_ENV} or config output_dir)")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed_base")
        p.add_argument("--trials", type=int, default=None, help="override sim.trials")

    add_common(sub.add_parser("design", help="write the controller design report"))
    add_common(sub.add_parser("sweep", help="run the theta sweep and write CSVs"))
    add_common(sub.add_parser("verify", help="run the verification suite"))
    plot_p = sub.add_parser("plotdata", help="derive plot-ready CSVs from a sweep")
    plot_p.add_argument("sweep_csv", help="path to tradeoff.csv")
    plot_p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plotdata":
            out = Path(args.out) if args.out else Path(args.sweep_csv).parent
            out.mkdir(parents=True, exist_ok=True)
            return cmd_plotdata(args.sweep_csv, out)
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out_dir = _resolve_outdir(args, cfg)
        for path in (out_dir / name for name in OUTPUTS[args.command]):  # fail before the work
            made = not path.exists()
            open(path, "a").close()  # "a" keeps an existing file's bytes
            if made:
                path.unlink()
        if args.command == "design":
            return cmd_design(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        return cmd_verify(cfg, out_dir)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SparseRollError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except OSError as exc:  # inputs fail where they are read: this is an output directory or file
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
