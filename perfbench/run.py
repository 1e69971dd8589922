"""Benchmark of sparseroll: one workload per call, checked and timed.

    python3 perfbench/run.py --workload sweep-rollout-periodic --seed 1 --seconds 55 --trace 0

Run from the repository root.  The workload runs in a fresh child process
with one BLAS thread and sparseroll imported from ``src``; the child times
``sparseroll design`` and ``sparseroll sweep`` on the workload's config from
``perfbench/workloads`` and checks every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Records and spans go to ``.perfbench_out/``.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.yaml"))
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one sparseroll benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "sparseroll").is_dir():
        print(f"no sparseroll sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--config", str(HERE / "workloads" / f"{args.workload}.yaml"),
        "--reference", str(HERE / "reference" / args.workload),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--outdir", str(root / ".perfbench_out"),
    ]
    try:
        code = subprocess.run(cmd, cwd=root, env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return 1 if code < 0 else code


if __name__ == "__main__":
    sys.exit(main())
