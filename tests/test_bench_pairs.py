"""The summary that ``tools/bench_pairs.py`` writes into a BENCH file."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(op_rel, rss, failed=0, commit="p"):
    return {"metrics": {"op_rel_p50": {"value": op_rel, "unit": "ref"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "failed": failed, "correct": failed == 0,
            "provenance": {"git_commit": commit, "nproc": 2}}


def test_quartiles_counts_and_provenance():
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [9.0, 11.5, 10.0, 12.0]
    runs = [(result(p, 100.0, commit="a"),
             result(c, 100.0, failed=i % 2, commit="b"))
            for i, (p, c) in enumerate(zip(parent, change))]
    doc = bench_pairs.summarize({"train-256": runs}, "p0",
                                "c0 + uncommitted changes")["train-256"]
    assert doc["pairs"] == 4
    op = doc["metrics"]["op_rel_p50"]
    assert op["unit"] == "ref"
    assert op["parent"] == parent and op["change"] == change
    assert op["parent_quartiles"] == [10.75, 11.5, 12.25]
    assert op["change_quartiles"] == [9.75, 10.75, 11.625]
    assert (op["lower_in"], op["of"]) == (3, 4)
    assert op["median_change_pct"] == pytest.approx(100 * (10.75 / 11.5 - 1))
    rss = doc["metrics"]["peak_rss_mb"]
    assert rss["lower_in"] == 0 and rss["median_change_pct"] == 0.0  # ties are not lower
    assert doc["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 1, 0, 1]}
    assert doc["correct"]["change"] == [True, False, True, False]
    # The commits given replace what each run recorded; the rest is kept.
    assert doc["provenance"]["parent"] == {"git_commit": "p0", "nproc": 2}
    assert doc["provenance"]["change"] == {
        "git_commit": "c0 + uncommitted changes", "nproc": 2}
    assert runs[0][0]["provenance"]["git_commit"] == "a"


def test_workloads_are_kept_apart():
    doc = bench_pairs.summarize({
        "train-64": [(result(6.0, 80.0), result(5.0, 81.0))],
        "infer-mixed": [(result(1.6, 90.0), result(1.7, 89.0))]}, "p", "c")
    assert list(doc) == ["train-64", "infer-mixed"]
    assert doc["train-64"]["metrics"]["op_rel_p50"]["lower_in"] == 1
    assert doc["train-64"]["metrics"]["peak_rss_mb"]["lower_in"] == 0
    assert doc["infer-mixed"]["metrics"]["op_rel_p50"]["lower_in"] == 0
    assert doc["infer-mixed"]["metrics"]["peak_rss_mb"]["lower_in"] == 1
