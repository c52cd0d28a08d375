"""Check that two source trees trace identical operation counts.

    python3 tools/same_counts.py PARENT_TREE CHANGE_TREE [--show METRIC ...]

For each workload in CHANGE_TREE's `BENCHMARK.json`, runs each tree's own
`perfbench/run.py --trace 1` at seed 1, from that tree's root, in a fresh
interpreter with `PYTHONDONTWRITEBYTECODE=1`; the two trees run side by
side.  Compares every per-layer metric whose unit is `count` or `ratio`
(except `run.trace_overhead_frac`, a ratio of two pass times), prints each
one that differs, and exits 0 only when none does and both runs were
correct.  `--show` also prints a metric's two values, say
`uniroots.roots.self_s`.  Nothing under either tree's `perfbench/` is
written; the runs leave their span files in each tree's `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SEED = 1
TIMED = {"run.trace_overhead_frac"}


def start(tree: Path, workload: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # run.py imports the library from the tree itself
    return subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
                            cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def result(proc: subprocess.Popen, out: str, tree: Path, workload: str) -> dict:
    """The finished run's last stdout line: `{"correct", ..., "metrics"}`."""
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {workload} on {tree} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--show", action="append", default=[], metavar="METRIC")
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    bench = json.loads((trees[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    differ = 0
    for workload in (w["name"] for w in bench["workloads"]):
        procs = [start(tree, workload) for tree in trees]
        outs = [proc.communicate()[0] for proc in procs]  # reap both before judging either
        parent, change = (result(proc, out, tree, workload)
                          for proc, out, tree in zip(procs, outs, trees))
        a, b = parent["metrics"], change["metrics"]
        names = sorted(name for name in a.keys() | b.keys() if name not in TIMED and
                       (a.get(name) or b.get(name))["unit"] in ("count", "ratio"))
        values = {name: (a.get(name, {}).get("value"), b.get(name, {}).get("value"))
                  for name in names + args.show}
        diffs = [name for name in names if values[name][0] != values[name][1]]
        for name in diffs + args.show:
            print(f"{workload} {name}: {values[name][0]} -> {values[name][1]}")
        wrong = [label for label, res in (("parent", parent), ("change", change))
                 if not res["correct"]]
        for label in wrong:
            print(f"{workload}: the {label} run was not correct")
        print(f"{workload}: {len(names) - len(diffs)} of {len(names)} counts and ratios identical")
        differ += len(diffs) + len(wrong)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
