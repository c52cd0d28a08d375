"""Compare two source trees: traced operation counts, then alternating pairs of timed runs.

    python3 tools/paired_runs.py PARENT_TREE CHANGE_TREE [--workload W ...] \
        --pairs N --seed0 S --out BENCH.json

For each workload (default: each one in CHANGE_TREE's `BENCHMARK.json`), each
tree first runs `perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1`.
Every `count` or `ratio` metric whose value differs is printed (except
`run.trace_overhead_frac`, a quotient of pass times), then how many are
identical.  Then pair i runs `--seed S+i --seconds R --trace 0` on each tree,
R being the `run_seconds` of CHANGE_TREE's `BENCHMARK.json`, the parent first
in even pairs and the change first in odd ones; `--pairs 0` runs no pair.
Every run starts from a fresh copy of its tree (no `.git`, bytecode or
`.perfbench`) in a fresh interpreter with `PYTHONDONTWRITEBYTECODE=1` and no
`PYTHONPATH`, so no run reads bytecode that another left behind or writes
into either tree.  Each tree benchmarks itself with its own `perfbench/run.py`.

The output has the layout of the repo's `BENCH_<tag>.json` files:
`trace_seed_1` maps each workload to both trees' traced results; `runs` maps
it to its pairs (`seed`, `first`, and each tree's `attempted`, `correct`,
`exit`, `failed` and `metrics`); `summary` maps it to, per end-to-end metric,
both trees' medians and quartiles (`statistics.quantiles(n=4,
method="inclusive")`), `rel_change` (change median over parent median, less
1), `change_better_pairs` (in the direction CHANGE_TREE's `BENCHMARK.json`
gives) and `median_gap_over_parent_iqr` (the medians' gap in that direction
over the parent's quartile distance).  The file is rewritten after each
result.  Exits 0 when every run was correct and no count or ratio differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".perfbench", ".pytest_cache")
TIMED = {"run.trace_overhead_frac"}  # filed under `ratio`, but a quotient of pass times


def fresh_copy(tree: Path, dest: Path) -> Path:
    """Copy `tree` to `dest` without `.git`, bytecode, `.perfbench` or `.pytest_cache`."""
    shutil.copytree(tree, dest, ignore=IGNORE)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run on a fresh copy of `tree`: its result line plus `exit`.  A run
    that exits nonzero or whose last line is no JSON object counts as not correct."""
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        copy = fresh_copy(tree, Path(tmp) / "tree")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)  # run.py imports the library from the copy itself
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=copy, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:  # exited 0 without a result line
        result = None
    if not isinstance(result, dict):  # a run that printed no result is not correct
        result = {"attempted": 0, "correct": False, "failed": 0, "metrics": {}}
    return {**result, "exit": proc.returncode}


def count_differences(parent: dict, change: dict) -> tuple[list[str], int]:
    """`name: parent -> change` for each `count` or `ratio` metric whose value differs
    between two runs' metrics (None where one run lacks it), and how many such
    metrics the two reported."""
    names = sorted(name for name in parent.keys() | change.keys() if name not in TIMED and
                   (parent.get(name) or change.get(name))["unit"] in ("count", "ratio"))
    values = {name: [m.get(name, {}).get("value") for m in (parent, change)] for name in names}
    return [f"{name}: {a} -> {b}" for name, (a, b) in values.items() if a != b], len(names)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """Medians, quartiles and pairwise wins of every metric both trees reported."""
    out = {key: {side: sum(pair[side][key] for pair in pairs) for side in ("change", "parent")}
           for key in ("attempted", "failed")}
    out["correct"] = {side: all(pair[side]["correct"] for pair in pairs)
                      for side in ("change", "parent")}
    names = set.intersection(*(set(pair[side]["metrics"]) for pair in pairs
                               for side in ("change", "parent")))
    for name in sorted(names):
        sign = 1 if lower_is_better.get(name, True) else -1
        vals = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                for side in ("change", "parent")}
        (cq1, cmed, cq3), (pq1, pmed, pq3) = (quartiles(vals[side]) for side in ("change", "parent"))
        iqr = pq3 - pq1
        out[name] = {
            "change_better_pairs": sum(sign * (c - p) < 0
                                       for c, p in zip(vals["change"], vals["parent"])),
            "change_median": round(cmed, 4), "change_q1": round(cq1, 4),
            "change_q3": round(cq3, 4),
            "median_gap_over_parent_iqr": round(sign * (pmed - cmed) / iqr, 2) if iqr else None,
            "pairs": len(pairs),
            "parent_median": round(pmed, 4), "parent_q1": round(pq1, 4),
            "parent_q3": round(pq3, 4),
            "rel_change": round(cmed / pmed - 1, 4),
        }
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "trace_command": "python3 perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "order": "each workload's traced runs come first; pair i runs at seed seed0 + i, the "
                 "parent first in even pairs and the change first in odd ones; every run starts "
                 "from a fresh copy of its tree without bytecode (PYTHONDONTWRITEBYTECODE=1); "
                 "quartiles by statistics.quantiles(n=4, method='inclusive')",
        "trace_seed_1": {}, "runs": {}, "summary": {},
    }

    def write() -> None:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        traced = {side: run_once(trees[side], workload, 1, 0, trace=1)
                  for side in ("parent", "change")}
        doc["trace_seed_1"][workload] = traced
        write()
        diffs, total = count_differences(traced["parent"]["metrics"], traced["change"]["metrics"])
        for line in diffs:
            print(f"{workload} {line}")
        wrong = [side for side, res in traced.items() if not res["correct"]]
        print(f"{workload}: {total - len(diffs)} of {total} counts and ratios identical"
              + "".join(f"; the {side} traced run was not correct" for side in wrong))
        ok &= not diffs and not wrong
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                ok &= pair[side]["correct"]
            pairs.append(pair)
            doc["runs"][workload] = pairs
            doc["summary"][workload] = summarize(pairs, lower_is_better)
            wall = {side: pair[side]["metrics"].get("wall_s", {}).get("value") for side in order}
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
                  f"{wall['parent']} change {wall['change']}", file=sys.stderr)
            write()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
