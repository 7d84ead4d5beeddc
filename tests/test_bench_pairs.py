"""``tools/bench_pairs.py``: the summary it writes into a BENCH file, and how
it places the two sides (``git`` and ``run_once`` stubbed)."""

import importlib.util
import json
import subprocess
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
    doc = bench_pairs.summarize({"train-256": runs}, "p0", "c0")["train-256"]
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
    assert doc["provenance"]["change"] == {"git_commit": "c0", "nproc": 2}
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


class FakeRepo:
    """Stands in for ``git`` and ``run_once``: records every call, and the
    run named by ``fail_at`` (counting from 0) raises."""

    def __init__(self, dirty="", fail_at=None):
        self.dirty, self.fail_at = dirty, fail_at
        self.added, self.removed, self.runs = [], [], []

    def git(self, *args):
        if args[0] == "status":
            return self.dirty
        if args[0] == "rev-parse":
            return "sha-" + args[1]
        assert args[:2] in (("worktree", "add"), ("worktree", "remove"))
        (self.added if args[1] == "add" else self.removed).append(args[-2:])
        return ""

    def run_once(self, tree, workload, seed):
        if len(self.runs) == self.fail_at:
            raise RuntimeError("run failed")
        self.runs.append(tree)
        return result(5.0, 80.0, commit="unknown")


@pytest.fixture
def fake(monkeypatch, tmp_path):
    def make(**kw):
        repo = FakeRepo(**kw)
        monkeypatch.setattr(bench_pairs, "git", repo.git)
        monkeypatch.setattr(bench_pairs, "run_once", repo.run_once)
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        return repo
    return make


def test_dirty_tree_exits_2_before_any_worktree(fake, tmp_path, capsys):
    repo = fake(dirty=" M src/scaseg/tensor.py")
    assert bench_pairs.main(["--number", "7"]) == 2
    assert repo.added == [] and repo.runs == []
    assert "src/scaseg/tensor.py" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_7.json").exists()


def test_both_sides_run_from_sibling_worktrees(fake, tmp_path):
    repo = fake()
    assert bench_pairs.main(["--number", "7", "--parent", "abc",
                             "--workload", "train-64"]) == 0
    (parent, parent_sha), (change, change_sha) = repo.added
    assert (parent_sha, change_sha) == ("sha-abc", "sha-HEAD")
    parent, change = Path(parent), Path(change)
    assert (parent.name, change.name) == ("parent", "change")
    assert parent.parent == change.parent
    assert len(str(parent)) == len(str(change))
    assert set(repo.runs) == {parent, change} and tmp_path not in repo.runs
    # the side that runs first alternates from pair to pair
    firsts = repo.runs[::2]
    assert firsts == [parent, change] * (bench_pairs.PAIRS // 2)
    assert repo.removed == [("--force", str(parent)), ("--force", str(change))]
    assert not parent.parent.exists()
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (doc["parent"], doc["change"]) == ("sha-abc", "sha-HEAD")
    prov = doc["workloads"]["train-64"]["provenance"]
    assert prov["change"]["git_commit"] == "sha-HEAD"


def test_worktrees_are_removed_when_a_run_raises(fake, tmp_path):
    repo = fake(fail_at=3)
    with pytest.raises(RuntimeError):
        bench_pairs.main(["--number", "7"])
    assert len(repo.runs) == 3
    assert repo.removed == [("--force", path) for path, _ in repo.added]
    assert len(repo.removed) == 2
    assert not (tmp_path / "BENCH_7.json").exists()


@pytest.mark.parametrize(
    "stdout", ["", "\n", "not json\n", "[1]\n", '{"ok": true}\n'],
    ids=["empty", "blank", "not-json", "not-an-object", "no-correct-key"])
def test_unreadable_result_line_is_a_runtime_error(monkeypatch, tmp_path,
                                                   stdout):
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    (results / "train-64-trace0.json").write_text("{}")
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda args, **kw: subprocess.CompletedProcess(args, 0, stdout, ""))
    with pytest.raises(RuntimeError, match=f"train-64 in {tmp_path}"):
        bench_pairs.run_once(tmp_path, "train-64", 41)
