"""Regenerate `golden_analyze.json`, the analyze workload's invariant table.

    python3 perfbench/make_golden.py

Runs every analyze entry at seeds 0, 1 and 2 and writes the table only
when the seed-independent report fields agree at all three seeds.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl

SEEDS = (0, 1, 2)


def measure(lib, seed: int, work_dir) -> tuple[dict, dict]:
    entries, invariants = {}, {}
    for name, path, args in wl.analyze_cases(lib, work_dir):
        code, text = wl.run_analyze(lib.cli, path, args, seed)
        if code != 0:
            raise SystemExit(f"{name}: analyze exited {code} at seed {seed}")
        rep = json.loads(text)
        entries[name] = rep["spec_hash"]
        invariants.setdefault(rep["spec_hash"], {})[" ".join(args)] = {
            f: rep[f] for f in wl.GOLDEN_FIELDS}
    return entries, invariants


def main() -> int:
    lib = wl.import_library()
    work_dir = wl.ROOT / ".perfbench" / "golden-work"
    try:
        tables = [measure(lib, seed, work_dir) for seed in SEEDS]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if any(t != tables[0] for t in tables[1:]):
        print("error: invariants differ between seeds", file=sys.stderr)
        return 1
    entries, invariants = tables[0]
    golden = {"seeds_confirmed": list(SEEDS), "entries": entries, "invariants": invariants}
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {wl.GOLDEN_PATH.name}: {len(entries)} entries, identical at seeds {SEEDS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
