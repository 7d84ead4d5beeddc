"""Benchmark entry point.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout. Each workload runs in a child process
(``bench.py``) whose environment pins the BLAS thread count and puts the
checkout's ``src`` first on ``PYTHONPATH``; ``--workload all`` runs every
workload in turn. The last line of output is the JSON result of the last
workload run. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-64", "train-256", "infer-mixed")
# one BLAS thread keeps runs comparable on a shared 2-core machine
BLAS_THREADS = "1"
TIMEOUT_S = 175


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scaseg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "scaseg" / "__init__.py").is_file():
        print(f"no scaseg sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(src), os.environ.get("PYTHONPATH")) if p),
               OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            code = subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {TIMEOUT_S} s", file=sys.stderr)
            return 1
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
