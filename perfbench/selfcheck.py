"""Self-check of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced and traced, and asserts that the
result line names exactly the metrics of ``BENCHMARK.json`` with their
units and reports no failure. Then asserts that perturbed outputs are
counted as errors, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=180)


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(ROOT, workload, trace)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, out.stderr
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            for name, v in result["metrics"].items():
                value = v["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), name
                assert trace or value > 0, f"{workload}: {name} is {value}"
            print(f"ok: {workload} trace {trace} emits its {len(want)} metrics")


def check_perturbed_outputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import checks

    checker = checks.Checker()
    _, _, _, logits, loss = checks.golden_outputs()
    assert checker.run("golden", checks.golden_ok, logits, loss)
    on_grid, off_grid = logits.copy(), logits.copy()
    on_grid[0, 0, 0, 0] += 1e-6   # a stored pixel
    off_grid[0, 1, 3, 5] += 1e-6  # caught by the stored sum only
    nan_logits = logits.copy()
    nan_logits[0, 2, 7, 7] = np.nan
    assert not checker.run("perturbed golden", checks.golden_ok, on_grid, loss)
    assert not checker.run("perturbed golden", checks.golden_ok, off_grid, loss)
    assert not checker.run("perturbed loss", checks.golden_ok, logits, loss + 1e-6)
    assert not checker.run("non-finite loss", checks.loss_ok, float("nan"))
    assert not checker.run("non-finite logits", checks.logits_ok, nan_logits,
                           logits.shape)
    assert not checker.run("raising operation", lambda: 1 / 0)
    assert (checker.attempted, checker.failed) == (7, 6)
    print("ok: perturbed outputs and a raising operation count as errors")


def check_refuses_without_sources() -> None:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run(bare, "train-64", 0)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and '"correct"' not in out.stdout
    print("ok: without the sources the benchmark exits with", out.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_perturbed_outputs()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
