"""Tests of the benchmark itself: tracing, failure accounting, the contract file.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run
import tracer as tracing
import workloads as wl

SEED = 7
HERE = Path(__file__).resolve().parent
# Cheap entries that still reach every counted layer: F8 solves cubics
# (uniroots), F13 point projects (kernel_basis), both evaluate gradients.
CATALOG_SUBSET = ("F8/k2/default", "F13/k2/point")


def subset(workload: wl.Workload, names) -> wl.Workload:
    workload.entries = [e for e in workload.entries if e.name in names]
    assert [e.name for e in workload.entries] == list(names), "subset entry missing"
    return workload


def traced_pass(workload_name: str, names, tmp_path: Path):
    tr = tracing.Tracer()
    lib = wl.import_library()
    patches = tracing.install(tr, lib)
    try:
        workload = subset(wl.setup(lib, workload_name, SEED, tmp_path), names)
        result = run.run_pass(workload, tr)
    finally:
        patches.restore()
    return tr, result


def entry_calls(tr: tracing.Tracer) -> Counter:
    """Span counts by name, for spans opened while an entry ran (not set-up)."""
    return Counter(tr.names[n] for n, e in zip(tr.span_name, tr.span_entry) if e >= 0)


def test_workload_sizes(tmp_path):
    lib = wl.import_library()
    sizes = {name: len(wl.setup(lib, name, SEED, tmp_path).entries) for name in wl.WORKLOADS}
    assert sizes == {"catalog": 47, "analyze": 18, "chain": 49}


def test_traced_counts_equal_cprofile_ncalls(tmp_path):
    lib = wl.import_library()
    workload = subset(wl.setup(lib, "catalog", SEED, tmp_path), CATALOG_SUBSET)
    prof = cProfile.Profile()
    plain = prof.runcall(run.run_pass, workload)
    ncalls = {(Path(f).name, fn): nc
              for (f, _line, fn), (_cc, nc, *_rest) in pstats.Stats(prof).stats.items()}

    tr, traced = traced_pass("catalog", CATALOG_SUBSET, tmp_path)
    calls = entry_calls(tr)
    assert traced.outputs() == plain.outputs()
    assert calls["uniroots.roots"] == ncalls[("uniroots.py", "roots")] > 0
    assert calls["mpoly.grad_eval"] == ncalls[("mpoly.py", "grad_eval")] > 0
    assert calls["linalg.RowReducer.add"] == ncalls[("linalg.py", "add")] > 0


def test_install_wraps_every_namespace_and_restore_puts_originals_back(tmp_path):
    lib = wl.import_library()
    owners = [m for n, m in sys.modules.items() if n == "secantry" or n.startswith("secantry.")]
    owners += [lib.variety.VarietySpec, lib.linalg.RowReducer, lib.mpoly.MPoly, lib.mpoly.PolyMap]
    owners += [getattr(lib.variety, c) for c in tracing.NODE_CLASSES]
    before = [(owner, dict(vars(owner))) for owner in owners]
    originals = {id(vars(getattr(lib, mod))[attr]) for mod, attr, _ in tracing.FUNCTIONS}

    tr = tracing.Tracer()
    patches = tracing.install(tr, lib)
    try:
        # Names imported by name elsewhere are wrapped too.
        for ns, attr in ((lib.terracini, "span_dim"), (lib.hilbert, "span_dim"),
                         (lib.catalog, "min_defective_scan"),
                         (lib.catalog, "tangential_projection"), (lib.cli, "make_contexts")):
            assert hasattr(vars(ns)[attr], "__wrapped__"), (ns.__name__, attr)
        leftover = [(n.__name__, a) for n in owners if isinstance(n, type(sys))
                    for a, v in vars(n).items() if id(v) in originals]
        assert leftover == []
        workload = subset(wl.setup(lib, "chain", SEED, tmp_path), ("F13/k2/full",))
        assert run.failed_entries([run.run_pass(workload, tr)]) == []
        assert tr.summary()["terracini.secant_dim"]["calls"] == 1
    finally:
        patches.restore()
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[a] is attrs[a] for a in attrs), owner


def test_traced_counts_repeat_and_match_untraced_outputs(tmp_path):
    names = ("specs/twisted-cubic.variety.json", "EX_SEGRE/k2/default")
    lib = wl.import_library()
    plain = run.run_pass(subset(wl.setup(lib, "analyze", SEED, tmp_path), names))
    first_tr, first = traced_pass("analyze", names, tmp_path)
    second_tr, second = traced_pass("analyze", names, tmp_path)
    assert first.outputs() == second.outputs() == plain.outputs()
    assert run.failed_entries([plain, first]) == []
    calls = {name: rec["calls"] for name, rec in first_tr.summary().items()}
    assert calls == {name: rec["calls"] for name, rec in second_tr.summary().items()}
    assert first_tr.counts == second_tr.counts
    assert calls["hilbert.hilbert2"] > 0 and calls["cli.main"] == 2
    metrics = tracing.layer_metrics(first_tr, 0.0, 0.0)
    assert metrics["hilbert.hilbert2.samples"] > 0
    assert metrics["variety.samples.point_only"] >= metrics["hilbert.hilbert2.samples"]
    assert metrics["variety.samples.framed"] > 0
    assert [m[0] for m in tracing.per_layer_metrics()] == list(metrics)


def test_wrong_expected_row_raises_fail_frac(tmp_path):
    rows = json.loads((HERE / "wrong_expected.json").read_text())["rows"]
    lib = wl.import_library()
    for name in ("catalog", "chain"):
        good = run.run_pass(subset(wl.setup(lib, name, SEED, tmp_path), ("F13/k2/full",)))
        bad = run.run_pass(subset(wl.setup(lib, name, SEED, tmp_path, expected_override=rows),
                                  ("F13/k2/full",)))
        assert run.failed_entries([good]) == []
        assert len(run.failed_entries([bad])) == 1
        assert "s_k" in run.failed_entries([bad])[0]


def test_exceptions_exit_codes_and_hash_drift_fail_entries(tmp_path):
    lib = wl.import_library()
    work = tmp_path / "work"
    workload = subset(wl.setup(lib, "analyze", SEED, work),
                      ("specs/twisted-cubic.variety.json", "F8/k2/default", "F13/k2/full"))

    def exhausted():
        raise lib.variety.SampleExhausted("forced")

    workload.entries.insert(0, wl.Entry("forced", exhausted, lambda out: []))
    (work / "F8-k2-default.variety.json").write_text("{", encoding="utf-8")
    shutil.copy(wl.ROOT / "specs/twisted-cubic.variety.json", work / "F13-k2-full.variety.json")
    result = run.run_pass(workload)
    failures = run.failed_entries([result])
    assert [r.name for r in result.results][-1] == "F13/k2/full"  # the run went on
    assert len(failures) == 3
    assert "SampleExhausted" in failures[0]
    assert "exit code 1" in failures[1]
    assert "spec hash drifted" in failures[2]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_scale_to_reference_speed():
    at_ref = [(run.REF_S, run.REF_S)] * len(run.REFERENCES)
    slower = [(2 * run.REF_S, 4 * run.REF_S)] * len(run.REFERENCES)
    assert run.scale([at_ref, at_ref]) == (1.0, 1.0)
    assert run.scale([at_ref, slower, slower]) == (0.5, 0.25)


def test_a_pass_stops_at_its_deadline(tmp_path):
    workload = wl.setup(wl.import_library(), "chain", SEED, tmp_path)
    assert run.run_pass(workload, deadline=0.0).results == []
