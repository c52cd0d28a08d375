"""Tests of the tools' helpers; nothing here starts a process.

Run from the repository root: python3 -m pytest tools/tests
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

import paired_runs
import same_reports


def side(wall: float, extra: dict | None = None, attempted: int = 3, failed: int = 0) -> dict:
    metrics = {"wall_s": {"value": wall}, **(extra or {})}
    return {"attempted": attempted, "correct": not failed, "failed": failed, "metrics": metrics}


def pair(parent: float, change: float, **kw) -> dict:
    return {"seed": 0, "first": "parent", "parent": side(parent), "change": side(change, **kw)}


class TestQuartiles:
    def test_one_value_is_all_three(self):
        assert paired_runs.quartiles([2.5]) == (2.5, 2.5, 2.5)

    def test_inclusive_method(self):
        assert paired_runs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert paired_runs.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))


class TestSummarize:
    PAIRS = [(1.0, 0.9), (1.2, 1.3), (1.1, 1.0)]  # (parent, change) wall_s per pair

    def test_lower_is_better(self):
        out = paired_runs.summarize([pair(p, c) for p, c in self.PAIRS], {"wall_s": True})
        wall = out["wall_s"]
        assert wall["change_better_pairs"] == 2  # 0.9 < 1.0 and 1.0 < 1.1
        assert (wall["parent_median"], wall["change_median"]) == (1.1, 1.0)
        assert wall["rel_change"] == round(1.0 / 1.1 - 1, 4) < 0
        # Parent quartiles 1.05 and 1.15: a gap of 0.1 over a distance of 0.1,
        # positive because the change is lower.
        assert wall["median_gap_over_parent_iqr"] == 1.0
        assert wall["pairs"] == 3

    def test_higher_is_better_flips_the_sign(self):
        out = paired_runs.summarize([pair(p, c) for p, c in self.PAIRS], {"wall_s": False})
        assert out["wall_s"]["change_better_pairs"] == 1  # 1.3 > 1.2
        assert out["wall_s"]["median_gap_over_parent_iqr"] == -1.0
        assert out["wall_s"]["rel_change"] < 0

    def test_unlisted_metrics_count_as_lower_is_better(self):
        out = paired_runs.summarize([pair(p, c) for p, c in self.PAIRS], {})
        assert out["wall_s"]["change_better_pairs"] == 2

    def test_totals_and_metrics_both_trees_reported(self):
        pairs = [pair(1.0, 0.9, extra={"only_change": {"value": 1}}, failed=1),
                 pair(1.2, 1.3)]
        out = paired_runs.summarize(pairs, {"wall_s": True})
        assert out["attempted"] == {"change": 6, "parent": 6}
        assert out["failed"] == {"change": 1, "parent": 0}
        assert out["correct"] == {"change": False, "parent": True}
        assert "only_change" not in out
        # Two equal parent runs: no quartile distance to divide by.
        same = paired_runs.summarize([pair(1.0, 0.9), pair(1.0, 0.8)], {"wall_s": True})
        assert same["wall_s"]["median_gap_over_parent_iqr"] is None


class TestDifferences:
    def test_names_each_differing_command_once(self):
        run = {"exit": 0, "stdout": "x\n", "stderr": ""}
        parent = {"a": run, "b": run, "gone": run}
        change = {"a": dict(run), "b": {**run, "exit": 1, "stderr": "e"}, "new": run}
        assert same_reports._differences(parent, change) == [
            "b: exit, stderr differ", "gone: only in parent", "new: only in change"]

    def test_identical_runs(self):
        run = {"exit": 0, "stdout": "x\n", "stderr": ""}
        assert same_reports._differences({"a": run}, {"a": dict(run)}) == []


def metric(value: float, unit: str = "count") -> dict:
    return {"value": value, "unit": unit}


class TestCountDifferences:
    def test_skips_times_and_the_trace_overhead(self):
        parent = {"add.calls": metric(5), "add.self_s": metric(0.5, "s"),
                  "run.trace_overhead_frac": metric(0.06, "ratio")}
        change = {"add.calls": metric(5), "add.self_s": metric(0.4, "s"),
                  "run.trace_overhead_frac": metric(0.02, "ratio")}
        assert paired_runs.count_differences(parent, change) == ([], 1)

    def test_lists_each_differing_count_or_ratio(self):
        parent = {"add.calls": metric(5), "add.useful_ratio": metric(0.5, "ratio"),
                  "add.gone": metric(2), "add.ratio_moved": metric(0.25, "ratio")}
        change = {"add.calls": metric(6), "add.useful_ratio": metric(0.5, "ratio"),
                  "add.new": metric(1), "add.ratio_moved": metric(0.5, "ratio")}
        assert paired_runs.count_differences(parent, change) == (
            ["add.calls: 5 -> 6", "add.gone: 2 -> None", "add.new: None -> 1",
             "add.ratio_moved: 0.25 -> 0.5"], 5)

    def test_identical_metrics(self):
        parent = {"add.calls": metric(5), "add.useful_ratio": metric(0.5, "ratio"),
                  "add.self_s": metric(0.1, "s")}
        assert paired_runs.count_differences(parent, dict(parent)) == ([], 2)


class TestFreshCopy:
    def test_leaves_out_git_bytecode_and_scratch(self, tmp_path):
        tree = tmp_path / "tree"
        kept = ["src/secantry/hilbert.py", "perfbench/run.py", "tests/specs/a.variety.json",
                "BENCHMARK.json"]
        dropped = [".git/HEAD", "src/secantry/__pycache__/hilbert.cpython-311.pyc",
                   "perfbench/stale.pyc", ".perfbench/analyze/x.variety.json",
                   ".pytest_cache/v/cache/nodeids"]
        for name in kept + dropped:
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(name)
        copy = paired_runs.fresh_copy(tree, tmp_path / "copy")
        files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
        assert files == sorted(kept)
        assert (copy / kept[0]).read_text() == kept[0]
        assert not any(Path(copy, d).exists() for d in (".git", ".perfbench", ".pytest_cache",
                                                         "src/secantry/__pycache__"))


class TestLibraryLines:
    def test_counts_newlines_like_wc(self, tmp_path):
        lib = tmp_path / "src" / "secantry"
        lib.mkdir(parents=True)
        (lib / "a.py").write_text("x = 1\n\ny = 2\n")
        (lib / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
        (lib / "notes.txt").write_text("not\ncounted\n")
        (lib / "sub").mkdir()
        (lib / "sub" / "c.py").write_text("not counted\n")
        assert paired_runs.library_lines(tmp_path) == {"a.py": 3, "b.py": 0, "total": 3}

    def test_a_tree_without_the_library(self, tmp_path):
        assert paired_runs.library_lines(tmp_path) == {"total": 0}


RESULT = {"attempted": 2, "correct": True, "failed": 0, "metrics": {"wall_s": metric(1.0, "s")}}


def stub_runs(monkeypatch, outputs: list[tuple[int, str]]) -> list[list[str]]:
    """Replace `subprocess.run` in paired_runs: each call returns the next
    (exit code, stdout); the returned list collects the commands."""
    calls, queue = [], list(outputs)

    def run(cmd, **kw):
        calls.append(cmd)
        code, out = queue.pop(0)
        return subprocess.CompletedProcess(cmd, code, stdout=out)

    monkeypatch.setattr(paired_runs.subprocess, "run", run)
    return calls


class TestRunOnce:
    @pytest.fixture()
    def tree(self, tmp_path):
        (tmp_path / "tree" / "perfbench").mkdir(parents=True)
        return tmp_path / "tree"

    def test_reads_the_last_line(self, tree, monkeypatch):
        stub_runs(monkeypatch, [(0, "context\n" + json.dumps(RESULT) + "\n")])
        assert paired_runs.run_once(tree, "analyze", 1, 0) == {**RESULT, "exit": 0}

    @pytest.mark.parametrize("code, out", [
        (0, "Traceback (most recent call last):\n  ...\n"),  # exit 0, no result line
        (0, "context\n[1, 2]\n"),  # JSON, but no result object
        (0, ""),
        (2, "no library\n"),
        (1, json.dumps(RESULT) + "\n"),  # a result line from a failed run
    ])
    def test_a_run_without_a_result_is_not_correct(self, tree, monkeypatch, code, out):
        stub_runs(monkeypatch, [(code, out)])
        assert paired_runs.run_once(tree, "analyze", 1, 0) == {
            "attempted": 0, "correct": False, "failed": 0, "metrics": {}, "exit": code}

    def test_the_comparison_carries_on(self, tmp_path, monkeypatch):
        # The change's traced run and its first timed run print no result:
        # both are recorded as not correct, the second pair still runs, and
        # the exit code is 1.
        bench = {"run_seconds": 0, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "wall_s", "better": "lower"}]}
        for name in ("parent", "change"):
            (tmp_path / name / "perfbench").mkdir(parents=True)
            (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(bench))
        good, bad = (0, json.dumps(RESULT) + "\n"), (0, "partial output\n")
        # traced parent, change; pair 1 parent, change; pair 2 change, parent
        calls = stub_runs(monkeypatch, [good, bad, good, bad, good, good])
        out = tmp_path / "bench.json"
        assert paired_runs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                 "--pairs", "2", "--seed0", "7", "--out", str(out)]) == 1
        assert len(calls) == 6
        doc = json.loads(out.read_text())
        assert doc["trace_seed_1"]["w"]["change"]["correct"] is False
        pairs = doc["runs"]["w"]
        assert [(p["seed"], p["change"]["correct"], p["parent"]["correct"]) for p in pairs] == [
            (7, False, True), (8, True, True)]
        assert pairs[0]["change"]["exit"] == 0
        assert doc["summary"]["w"]["correct"] == {"change": False, "parent": True}
        assert doc["library_lines"] == {"parent": {"total": 0}, "change": {"total": 0}}
