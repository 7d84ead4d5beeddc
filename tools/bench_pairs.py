"""Alternating parent/change benchmark pairs, summarized into a BENCH file.

    python3 tools/bench_pairs.py --number N --seed 41 --parent REV

Both sides are commits: ``--parent`` (default ``HEAD``, an A/A pass) and
``HEAD``, checked out with ``git worktree add --detach`` into the siblings
``<tmp>/parent`` and ``<tmp>/change``, whose paths have the same length, so
both sides run alike. Uncommitted changes under ``src/`` or ``perfbench/``
exit 2 before any checkout: commit first. It runs ``perfbench/run.py
--seconds 35 --trace 0`` alternately in the two trees, 10 pairs per workload
at one seed; the side that goes first alternates from pair to pair. After
each run it reads ``perfbench/results/<workload>-trace0.json`` of the tree
that ran and the ``correct`` flag from the run's last output line. It writes
``BENCH_<number>.json`` at the repo root: per workload and metric, each
side's values and quartiles and the number of pairs where the change reads
lower, the ``failed`` counts and the provenance blocks, whose ``git_commit``
names each side's sha. Both worktrees are removed at the end, also when a
run fails. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-64", "train-256", "infer-mixed")
PAIRS = 10
SECONDS = 35


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(pairs: dict, parent_commit: str, change_commit: str) -> dict:
    """``{workload: [(parent, change), ...]}`` of run results, each the
    ``<workload>-trace0.json`` document plus a ``correct`` flag, to the
    BENCH file's per-workload block. Lower is better for every metric. The
    provenance blocks' ``git_commit`` is replaced by the commits given: a
    run cannot name its own, since perfbench reads ``.git/HEAD``, which a
    worktree does not have."""
    out = {}
    for name, runs in pairs.items():
        metrics = {}
        for metric, entry in runs[0][0]["metrics"].items():
            par = [p["metrics"][metric]["value"] for p, _ in runs]
            chg = [c["metrics"][metric]["value"] for _, c in runs]
            mid_p, mid_c = float(np.median(par)), float(np.median(chg))
            metrics[metric] = {
                "unit": entry["unit"],
                "parent": par, "change": chg,
                "parent_quartiles": quartiles(par),
                "change_quartiles": quartiles(chg),
                "lower_in": sum(c < p for p, c in zip(par, chg)),
                "of": len(runs),
                "median_change_pct": 100.0 * (mid_c / mid_p - 1.0) if mid_p else None,
            }
        out[name] = {
            "pairs": len(runs),
            "metrics": metrics,
            "failed": {"parent": [p["failed"] for p, _ in runs],
                       "change": [c["failed"] for _, c in runs]},
            "correct": {"parent": [p["correct"] for p, _ in runs],
                        "change": [c["correct"] for _, c in runs]},
            "provenance": {
                "parent": {**runs[0][0]["provenance"], "git_commit": parent_commit},
                "change": {**runs[0][1]["provenance"], "git_commit": change_commit}},
        }
    return out


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result document."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    try:
        correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    except (IndexError, ValueError, KeyError, TypeError) as e:
        raise RuntimeError(f"{workload} in {tree} printed no result line "
                           f"({e!r}):\n{proc.stdout}{proc.stderr}") from None
    result = json.loads(
        (tree / "perfbench" / "results" / f"{workload}-trace0.json").read_text())
    result["correct"] = correct
    return result


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", required=True,
                    help="writes BENCH_<number>.json at the repo root")
    ap.add_argument("--parent", default="HEAD", help="git rev to compare against")
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default every workload")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    if dirty:
        print(f"uncommitted changes; commit them first:\n{dirty}", file=sys.stderr)
        return 2
    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", "HEAD")}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {}
    pairs = {}
    try:
        for side, sha in shas.items():
            git("worktree", "add", "--detach", str(tmp / side), sha)
            trees[side] = tmp / side
        for workload in workloads:
            runs = pairs[workload] = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                res = {s: run_once(trees[s], workload, args.seed) for s in order}
                runs.append((res["parent"], res["change"]))
                p, c = (r["metrics"]["op_rel_p50"]["value"]
                        for r in runs[-1])
                print(f"{workload} pair {i + 1}/{PAIRS}: op_rel_p50 "
                      f"{p:.3f} -> {c:.3f}", flush=True)
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {
        "command": "python3 tools/bench_pairs.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        **shas,
        "seed": args.seed, "seconds": SECONDS,
        "workloads": summarize(pairs, shas["parent"], shas["change"]),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
