"""One workload in one process: time design and sweep, check, report.

Started by run.py with the BLAS thread count already pinned in the
environment.  Drives sparseroll only through ``sparseroll.cli.main`` with
``--config``, ``--out`` and ``--seed``; the traced mode adds the wrappers of
tracing.py around the public functions of each layer.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The last line of standard output is the JSON result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from outcheck import InvariantCheck, OutputMismatch, compare_reference
from speed import SpeedProbe
from tracing import PER_LAYER, Tracer

MIN_SWEEPS = 3   # sweeps timed per untraced run even past the deadline


def environment(root: Path, cfg) -> dict:
    """What a result depends on besides the code under test."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    head = root / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None  # absent outside a clone
    if commit and commit.startswith("ref: ") and (root / ".git" / commit[5:]).is_file():
        commit = (root / ".git" / commit[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    canonical = json.dumps(cfg.canonical_dict(), sort_keys=True).encode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
    }


def cli(argv, probe: SpeedProbe | None) -> tuple[float, float | None]:
    """Run ``sparseroll.cli.main`` in process.

    Returns its wall time and, with a probe, its time at reference speed.
    """
    from sparseroll.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        if probe is None:
            t0 = time.perf_counter()
            code = main(argv)
            timing = time.perf_counter() - t0, None
        else:
            code, *timing = probe.run(main, argv)
    if code != 0:
        raise OutputMismatch(f"sparseroll {argv[0]} exited with code {code}")
    return tuple(timing)


def past_deadline(deadline: float, cycle_start: float) -> bool:
    """Whether one more cycle as long as the last would end over half of it past the deadline.

    Runs so end within half a cycle of the deadline, which keeps a whole
    measurement within its time limit however long a cycle takes.
    """
    now = time.perf_counter()
    return now + (now - cycle_start) / 2 >= deadline


class Workload:
    """One workload config run repeatedly at one seed, every output checked."""

    def __init__(self, config: Path, seed: int, reference: Path | None, scratch: Path,
                 probe: SpeedProbe | None = None):
        from sparseroll.config import load_config

        self.cfg = load_config(config)
        self.seed = seed
        self.reference = reference if seed == self.cfg.seed_base else None
        self.check = InvariantCheck(self.cfg)
        self.out = scratch / "sweep"
        self.design_out = scratch / "design"
        self.design_argv = ["design", "--config", str(config), "--out", str(self.design_out),
                            "--seed", str(seed)]
        self.sweep_argv = ["sweep", "--config", str(config), "--out", str(self.out),
                           "--seed", str(seed)]
        self.probe = probe
        self.first_design = None
        self.first_sweep = None
        self.sweeps = 0

    @property
    def cells(self) -> int:
        return len(self.cfg.theta_grid) * len(self.cfg.methods)

    @property
    def steps(self) -> int:
        return self.cells * self.cfg.trials * self.cfg.horizon_steps

    def design(self) -> tuple[float, float | None]:
        timing = cli(self.design_argv, self.probe)
        report = (self.design_out / "design_report.txt").read_bytes()
        if self.first_design is None:
            self.first_design = report
        elif report != self.first_design:
            raise OutputMismatch("design report differs between calls at the same seed")
        return timing

    def sweep(self) -> tuple[float, float | None]:
        timing = cli(self.sweep_argv, self.probe)
        self.sweeps += 1
        outputs = tuple((self.out / n).read_bytes()
                        for n in ("tradeoff.csv", "pertrial.csv", "failures.csv"))
        if self.first_sweep is None:
            self.check(self.out, self.seed)
            if self.reference is not None:
                compare_reference(self.out, self.reference)
            self.first_sweep = outputs
        elif outputs != self.first_sweep:
            raise OutputMismatch("sweep outputs differ between runs at the same seed")
        return timing


def end_to_end(wl: Workload, seconds: float):
    """Alternate design and sweep calls until the deadline; report medians.

    Spreading the design calls over the whole run, rather than timing them
    back to back, keeps setup_s from resting on a few seconds of machine time.
    The time metrics are at reference speed (see speed.py); the wall-time
    medians go to the record and the human-readable lines.
    """
    deadline = time.perf_counter() + seconds
    setup, runs = [], []
    while True:
        start = time.perf_counter()
        setup.append(wl.design())
        runs.append(wl.sweep())
        if len(runs) >= MIN_SWEEPS and past_deadline(deadline, start):
            break
    run_s = statistics.median(ref for _, ref in runs)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "run_s": (run_s, "s"),
        "steps_per_s": (wl.steps / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": [ref for _, ref in setup], "run_s": [ref for _, ref in runs],
               "setup_wall_s": [wall for wall, _ in setup], "run_wall_s": [wall for wall, _ in runs]}
    return metrics, samples, []


def per_layer(wl: Workload, seconds: float, spans_path: Path):
    """Alternate untraced and traced sweeps; per-layer medians over traced ones."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    plain, traced, layers = [], [], []
    while True:
        start = time.perf_counter()
        plain.append(wl.sweep()[0])
        tracer.reset()
        with tracer:
            traced.append(wl.sweep()[0])
        layers.append(tracer.layer_metrics())
        if past_deadline(deadline, start):
            break
    tracer.save(spans_path)
    metrics = {name: (statistics.median(m[name] for m, _ in layers), unit)
               for name, (unit, _) in PER_LAYER.items() if name != "trace.overhead"}
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics, {"run_s_untraced": plain, "run_s_traced": traced}, layers[0][1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, type=Path, help="workload config; its stem names it")
    ap.add_argument("--reference", type=Path, default=None)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--outdir", required=True, type=Path)
    args = ap.parse_args(argv)
    name = args.config.stem
    root = Path.cwd()
    args.outdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=args.outdir))
    try:
        wl = Workload(args.config, args.seed, args.reference, scratch,
                      probe=None if args.trace else SpeedProbe())
        env = environment(root, wl.cfg)
        try:
            wl.design()  # warm-up: lazy imports and first-call costs are not set-up time
            if args.trace:
                spans = args.outdir / f"{name}-spans.npz"
                metrics, samples, absent = per_layer(wl, args.seconds, spans)
            else:
                metrics, samples, absent = end_to_end(wl, args.seconds)
            correct, problem = True, None
        except OutputMismatch as exc:
            correct, problem, metrics, samples, absent = False, str(exc), {}, {}, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = max(wl.sweeps, 1) * wl.cells
    failed = 0 if correct else wl.cells
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "problem": problem,
        "cells_per_sweep": wl.cells, "steps_per_sweep": wl.steps,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": failed / attempted,
        "absent": absent, "samples": samples, "environment": env,
    }
    (args.outdir / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {args.seed}  "
          f"({wl.cells} cells x {wl.cfg.trials} trials x {wl.cfg.horizon_steps} steps per sweep)")
    print("environment " + json.dumps(env, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:.6g} {unit}" + ("   (absent)" if metric in absent else ""))
    for key in ("setup_wall_s", "run_wall_s"):
        if key in samples:
            print(f"  {key:34s} {statistics.median(samples[key]):.6g} s   (wall-time median, not a metric)")
    print(f"  {'failed_ratio':34s} {record['failed_ratio']} ratio "
          f"({failed} failed of {attempted} cells)")
    if not correct:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
