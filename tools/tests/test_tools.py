"""Tests of the tools' pure helpers; nothing here starts a process or copies a tree.

Run from the repository root: python3 -m pytest tools/tests
"""

from __future__ import annotations

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
