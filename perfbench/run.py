"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog|analyze|chain --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: it benchmarks the `src/secantry`
package next to it, single-threaded, in this process.

With `--trace 0` it repeats (fresh import and set-up, then one pass over
every entry) until `--seconds` have passed, the last pass stopping at the
first entry that would start later; it checks every output and reports the
end-to-end metrics from each entry's median time over its runs (wall_s and
cpu_s are the sums of those medians).  Every time is reported in reference
seconds (see `REF_S`).  With
`--trace 1` it runs one untraced pass, then one pass with every layer
wrapped in spans, checks that both passes produced identical outputs, and
reports the per-layer metrics.  The spans go to
`.perfbench/spans-<workload>-<seed>.tsv.gz`.

The next-to-last line of stdout is a JSON record of the run (context,
pass count, failures); the last line is the result
`{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0 when
a result was printed, and 2 when there is no library to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads as wl

# Set-ups before the first pass; later passes get one each.  setup_s is
# their median, so one slow first import (bytecode compile) does not set it.
SETUP_REPS = 5
# The CPU speed of the host this benchmark was written on (2 vCPUs, Python
# 3.11) drifts by +-25% within seconds: a fixed 3 ms loop's per-second
# medians ranged 2.3-3.7 ms within 40 s.  No median over one run's passes
# removes that.  So two fixed pieces of exact arithmetic that do not use the
# library (`REFERENCES`) are timed between entries and, from a timer signal,
# every REF_PERIOD seconds inside them.  An entry's time, less the signal
# handler's, is scaled by REF_S over the geometric mean, across the pieces,
# of their median times around and during it; a set-up's by their times
# just before and after it.  Times so read in seconds at the speed at which
# that mean is REF_S, about its median on that host.  Over five 42 s runs
# this cut the spread (quartile distance over median) of wall_s from 0.21
# to 0.03 on analyze and from 0.10 to 0.04 on catalog; windows of several
# timings between entries, or either piece alone, tracked the library
# worse.  Raw seconds stay in the run record.
REF_S = 0.0025
REF_PERIOD = 0.2
REF_PRIME = 2_147_483_647
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("entry_p50_s", "s"),
              ("entry_p75_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
OUT_DIR = wl.ROOT / ".perfbench"


@dataclass
class EntryResult:
    name: str
    seconds: float  # wall, in reference seconds
    cpu: float
    output: object
    problems: list[str]


@dataclass
class Pass:
    results: list[EntryResult]
    wall: float  # reference seconds over all entries
    cpu: float
    raw_wall: float  # seconds, first entry to last, reference timings included

    def outputs(self) -> list[object]:
        return [r.output for r in self.results]


def ref_product() -> int:
    """A product of three-variable polynomials held as dicts, mod a prime."""
    a = {(i, j, k): i * 7 + j * 3 + k + 1 for i in range(9) for j in range(9) for k in range(9)}
    b = {(i, j, k): i + j * 5 + k * 11 + 2 for i in range(3) for j in range(3) for k in range(3)}
    prod = {}
    for (i, j, k), c in a.items():
        for (x, y, z), d in b.items():
            key = (i + x, j + y, k + z)
            prod[key] = (prod.get(key, 0) + c * d) % REF_PRIME
    return sum(prod.values()) % REF_PRIME


def ref_reduce() -> int:
    """Gauss-Jordan reduction of a 24 x 48 matrix of rank 3, mod a prime."""
    n, m = 24, 48
    rows = [[(i * 131 + j * 71 + i * j * 17 + 3) % REF_PRIME for j in range(m)]
            for i in range(n)]
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], REF_PRIME - 2, REF_PRIME)
        top = rows[rank] = [v * inv % REF_PRIME for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % REF_PRIME for v, w in zip(rows[r], top)]
        rank += 1
    return rank


REFERENCES = (ref_product, ref_reduce)


def time_reference() -> list[tuple[float, float]]:
    """Wall and CPU seconds of one call of each reference."""
    out = []
    for ref in REFERENCES:
        w0, c0 = time.perf_counter(), time.process_time()
        ref()
        out.append((time.perf_counter() - w0, time.process_time() - c0))
    return out


def scale(samples: list[list[tuple[float, float]]]) -> tuple[float, float]:
    """Factors that turn wall and CPU seconds into reference seconds, from
    the reference timings taken around and during the work."""
    return tuple(REF_S / math.prod(statistics.median(s[j][clock] for s in samples)
                                   for j in range(len(REFERENCES))) ** (1 / len(REFERENCES))
                 for clock in (0, 1))


class Sampler:
    """Times the references every REF_PERIOD seconds from a SIGALRM handler,
    so the speed during a long entry is measured inside it; the handler's
    own time is kept apart so it can be taken off the entry's."""

    def __init__(self):
        self.refs: list[list[tuple[float, float]]] = []
        self.wall = self.cpu = 0.0
        self.held = False

    def reference(self) -> list[tuple[float, float]]:
        """Time the references between entries, with the handler held off."""
        self.held = True
        try:
            return time_reference()
        finally:
            self.held = False

    def _tick(self, signum, frame):
        if self.held:
            return
        w0, c0 = time.perf_counter(), time.process_time()
        self.refs.append(time_reference())
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0

    def __enter__(self):
        self.old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)


def read_steal_s() -> float:
    """Host CPU time stolen from this machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_pass(workload: wl.Workload, tr: tracing.Tracer | None = None,
             deadline: float | None = None) -> Pass:
    """Run every entry once, or those that start before `deadline`; a
    failing entry is recorded and the pass goes on.

    A traced pass takes no reference timings inside entries, where the
    handler's time would land in the spans.
    """
    results = []
    t0 = time.perf_counter()
    sampler = Sampler()
    before = sampler.reference()
    with contextlib.nullcontext() if tr is not None else sampler:
        for i, entry in enumerate(workload.entries):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tr is not None:
                tr.entry = i
            n0, held_wall, held_cpu = len(sampler.refs), sampler.wall, sampler.cpu
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = entry.run()
                problems = None
            except Exception as exc:  # noqa: BLE001 - any exception fails the entry
                traceback.print_exc(file=sys.stderr)
                output, problems = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - wall0 - (sampler.wall - held_wall)
            cpu = time.process_time() - cpu0 - (sampler.cpu - held_cpu)
            inside = sampler.refs[n0:]
            after = sampler.reference()
            wall_k, cpu_k = scale([before, *inside, after])
            before = after
            if problems is None:
                try:
                    problems = entry.check(output)
                except Exception as exc:  # noqa: BLE001 - a malformed output fails the entry
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            results.append(EntryResult(entry.name, wall * wall_k, cpu * cpu_k, output,
                                       problems))
    return Pass(results, sum(r.seconds for r in results), sum(r.cpu for r in results),
                time.perf_counter() - t0)


def failed_entries(passes: list[Pass]) -> list[str]:
    """One line per failed entry run: a mismatch, a nonzero exit or an exception."""
    return [f"{r.name}: {'; '.join(r.problems)}"
            for p in passes for r in p.results if r.problems]


def timed_setup(args, work_dir: Path) -> tuple[wl.Workload, float]:
    """Import and set up once; the time is in reference seconds."""
    before = time_reference()
    t0 = time.perf_counter()
    lib = wl.import_library()
    workload = wl.setup(lib, args.workload, args.seed, work_dir)
    seconds = time.perf_counter() - t0
    return workload, seconds * scale([before, time_reference()])[0]


def untraced(args, work_dir: Path) -> tuple[list[Pass], dict, wl.Workload]:
    setups, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for _ in range(1 if passes else SETUP_REPS):
            workload, seconds = timed_setup(args, work_dir)
            setups.append(seconds)
        # The first pass runs whole; the last may stop part-way, so a run
        # measures for all of its seconds, not only the passes that fit.
        passes.append(run_pass(workload, deadline=deadline if passes else None))
    # Each entry's median over its runs, so a burst of host noise in one
    # pass moves neither the pass time nor the entry percentiles.
    runs = [[p.results[i] for p in passes if i < len(p.results)]
            for i in range(len(workload.entries))]
    times = [statistics.median(r.seconds for r in rs) for rs in runs]
    metrics = {
        "wall_s": sum(times),
        "cpu_s": sum(statistics.median(r.cpu for r in rs) for rs in runs),
        "entry_p50_s": statistics.median(times),
        "entry_p75_s": statistics.quantiles(times, n=4)[2],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END}, workload


def traced(args, work_dir: Path) -> tuple[list[Pass], dict, wl.Workload]:
    steal0 = read_steal_s()
    workload, _ = timed_setup(args, work_dir)
    base = run_pass(workload)
    tr = tracing.Tracer()
    lib = wl.import_library()
    patches = tracing.install(tr, lib)
    try:
        workload = wl.setup(lib, args.workload, args.seed, work_dir)
        run = run_pass(workload, tr)
    finally:
        patches.restore()
    tr.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    values = tracing.layer_metrics(tr, read_steal_s() - steal0, run.wall / base.wall - 1)
    return [base, run], {name: {"value": values[name], "unit": unit}
                         for name, unit, _ in tracing.per_layer_metrics()}, workload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    steal0, cpu0 = read_steal_s(), time.process_time()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        passes, metrics, workload = (traced if args.trace else untraced)(args, work_dir)
    except wl.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = failed_entries(passes)
    attempted = sum(len(p.results) for p in passes)
    # Every pass runs the same seeded work, so outputs must repeat exactly;
    # in a traced run this shows the wrappers left RNG consumption alone.
    repeatable = all(p.outputs() == passes[0].outputs()[:len(p.results)] for p in passes)
    record = {
        "workload": args.workload, "trace": args.trace,
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "entries": len(workload.entries), "entry_times": attempted,
        "fail_frac": len(failures) / attempted, "failures": failures,
        "outputs_repeat": repeatable,
        "context": {"seed": args.seed, "primes": workload.primes, "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "cpu_s": time.process_time() - cpu0,
                    "run.steal_s": read_steal_s() - steal0},
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failures and repeatable, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
