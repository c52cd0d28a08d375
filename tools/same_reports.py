"""Check that two source trees print byte-identical reports.

    python3 tools/same_reports.py PARENT_TREE CHANGE_TREE

Runs one set of CLI commands against each tree and compares every
command's exit code, stdout and stderr.  The set:

* the golden commands (`COMMANDS`) of CHANGE_TREE's `tests/test_golden_reports.py`;
* `catalog verify-all --k-range 2..4` at seeds 0, 1 and 2;
* `analyze` on the benchmark's 18 spec files at seeds 0 and 1: the shipped specs
  and one generated file per constructible k = 2 catalog entry, as that tree's
  `perfbench/workloads.py` `analyze_cases` builds them with its own library.

Each tree runs on a fresh copy (`paired_runs.fresh_copy`: no `.git`,
bytecode or `.perfbench`) in its own fresh interpreter, with
`PYTHONDONTWRITEBYTECODE=1` and only that copy's `src` on `PYTHONPATH`; the
two run side by side.  A golden spec file missing from PARENT_TREE (one
added with its golden entry) is read from CHANGE_TREE's copy.  Prints each
command whose output differs, and exits 0 only when none does.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_runs import fresh_copy

CATALOG_SEEDS = (0, 1, 2)
ANALYZE_SEEDS = (0, 1)


def golden_commands(tree: Path) -> dict[str, list[str]]:
    """The `COMMANDS` literal of a tree's golden-report test, read without importing it."""
    source = (tree / "tests" / "test_golden_reports.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COMMANDS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no COMMANDS in {tree}/tests/test_golden_reports.py")


def _call(main, args: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_tree(tree: Path, spec_root: Path, golden: dict[str, list[str]]) -> dict[str, dict]:
    """Run the whole command set against `tree`'s library (call in a fresh interpreter)."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lib = workloads.import_library()  # refuses any secantry but tree/src
    main = lib.cli.main

    def resolve(arg: str) -> str:
        if not arg.endswith(".variety.json"):
            return arg
        return str(tree / arg if (tree / arg).is_file() else spec_root / arg)

    results = {name: _call(main, [resolve(a) for a in args]) for name, args in golden.items()}
    for seed in CATALOG_SEEDS:
        args = ["catalog", "verify-all", "--k-range", "2..4", "--seed", str(seed)]
        results[" ".join(args)] = _call(main, args)
    with tempfile.TemporaryDirectory() as work_dir:
        for name, path, args in workloads.analyze_cases(lib, Path(work_dir)):
            for seed in ANALYZE_SEEDS:
                results[f"analyze {name} {' '.join(args)} --seed {seed}"] = _call(
                    main, ["analyze", str(path), *args, "--seed", str(seed)])
    return results


def _differences(parent: dict, change: dict) -> list[str]:
    out = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            out.append(f"{name}: only in {'change' if a is None else 'parent'}")
            continue
        fields = [f for f in ("exit", "stdout", "stderr") if a[f] != b[f]]
        if fields:
            out.append(f"{name}: {', '.join(fields)} differ")
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--child":  # TREE SPEC_ROOT OUT, golden set on stdin
        tree, spec_root, out = (Path(a) for a in argv[1:])
        out.write_text(json.dumps(run_tree(tree, spec_root, json.load(sys.stdin))))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    parent, change = (Path(a).resolve() for a in argv)
    golden = json.dumps(golden_commands(change))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        copies = [fresh_copy(tree, Path(tmp) / f"tree{i}")
                  for i, tree in enumerate((parent, change))]
        outs, procs = [], []
        for i, tree in enumerate(copies):
            out = Path(tmp) / f"tree{i}.json"
            env["PYTHONPATH"] = str(tree / "src")
            proc = subprocess.Popen([sys.executable, __file__, "--child", str(tree),
                                     str(copies[1]), str(out)], stdin=subprocess.PIPE,
                                    env=dict(env))
            proc.stdin.write(golden.encode())
            proc.stdin.close()
            outs.append(out)
            procs.append(proc)
        if any([proc.wait() for proc in procs]):  # a list: wait for both
            print("error: a tree's run failed", file=sys.stderr)
            return 1
        parent_res, change_res = (json.loads(out.read_text()) for out in outs)
    diffs = _differences(parent_res, change_res)
    for line in diffs:
        print(line)
    print(f"{len(change_res) - len(diffs)} of {len(change_res)} commands identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
