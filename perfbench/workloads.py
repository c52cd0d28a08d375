"""The benchmark's three workloads, built from the library's own catalog.

Each workload is a list of entries.  An entry runs one user-visible
computation and returns a plain, comparable output; its check turns that
output into a list of problems (empty when the output is exact).  Spec
trees never depend on the seed (they are the catalog's fixed
representatives); the seed feeds `make_contexts` and every `derive_rng`
stream, so two runs with one seed do identical work.

* catalog: `verify_family` on every constructible entry for k = 2..4, the
  library form of `catalog verify-all --k-range 2..4`.
* analyze: the real CLI on the three shipped spec files plus one
  generated file per constructible k = 2 catalog entry.
* chain: `secant_dim(spec, k_eval + 1)` on every constructible k = 2..5
  entry whose tree has no root-solving node, so no root is ever solved.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_analyze.json"

MODULES = ("linalg", "mpoly", "uniroots", "variety", "terracini", "hilbert",
           "catalog", "cli")
# Nodes whose sampler solves a univariate equation with `uniroots.roots`.
ROOT_SOLVING_NODES = ("Hypersurface", "RestrictedChart", "ConeSection")
# Shipped spec files with the arguments the README runs them with.
SHIPPED_SPECS = (
    ("specs/veronese-p3.variety.json", ["--k", "1"]),
    ("specs/twisted-cubic.variety.json", ["--k", "1"]),
    ("specs/family-13-k2.variety.json", ["--k-max", "3"]),
)
# Seed-independent fields of an analyze report (the golden table's columns).
GOLDEN_FIELDS = ("ambient_r", "dim_n", "chain", "sigma_k", "delta_k", "n_k",
                 "m_k", "contact_shape", "h1", "h2")


class LibraryMissing(RuntimeError):
    """The checkout has no `src/secantry` package to benchmark."""


def import_library() -> SimpleNamespace:
    """Import `src/secantry` afresh, so every call pays the full import cost.

    Refuses any other copy of the package (an installed one, say): the
    benchmark measures the source tree it ships with.
    """
    if not (SRC / "secantry" / "__init__.py").is_file():
        raise LibraryMissing(f"no secantry package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "secantry" or m.startswith("secantry.")]:
        del sys.modules[name]
    pkg = importlib.import_module("secantry")
    if Path(pkg.__file__).resolve().parent != (SRC / "secantry").resolve():
        raise LibraryMissing(f"imported secantry from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(package=pkg, **{m: importlib.import_module(f"secantry.{m}")
                                           for m in MODULES})


@dataclass
class Entry:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    entries: list[Entry]
    primes: list[int]


def constructible(cat, ks) -> list[tuple[str, int, str]]:
    """Every constructible (family, k, variant), in `verify_all` order."""
    return [(family, k, variant)
            for family in cat.FAMILIES if family not in cat.NOT_CONSTRUCTIBLE_REASONS
            for k in ks if k in cat.FAMILY_DOMAINS[family]
            for variant in cat.FAMILY_VARIANTS.get(family, ("default",))]


def solves_roots(node, variety) -> bool:
    """True when some node of the tree samples by solving for roots."""
    if type(node).__name__ in ROOT_SOLVING_NODES:
        return True
    return any(solves_roots(child, variety) for child in vars(node).values()
               if isinstance(child, variety.VarietySpec))


def _expected_problems(exp, r: int, chain: list[int], k: int, n: int,
                       expected_dim) -> list[str]:
    out = []
    if r != exp.r:
        out.append(f"r: expected {exp.r}, measured {r}")
    if chain[k] != exp.s_k:
        out.append(f"s_k: expected {exp.s_k}, measured {chain[k]}")
    if expected_dim(r, n, k) - chain[k] != exp.delta_k:
        out.append(f"delta_k: expected {exp.delta_k}, "
                   f"measured {expected_dim(r, n, k) - chain[k]}")
    if exp.s_k_plus_1 is not None and len(chain) > k + 1 and chain[k + 1] != exp.s_k_plus_1:
        out.append(f"s_(k+1): expected {exp.s_k_plus_1}, measured {chain[k + 1]}")
    return out


def _catalog_entries(lib, seed, ctxs, expected_override) -> list[Entry]:
    cat, linalg = lib.catalog, lib.linalg
    out = []
    for family, k, variant in constructible(cat, range(2, 5)):
        entry = cat.build_family(family, k, variant)
        name = f"{family}/k{k}/{variant}"
        if name in expected_override:
            entry.expected = cat.Expected(**expected_override[name])

        def run(entry=entry, family=family, k=k, variant=variant):
            res = cat.verify_family(entry, ctxs,
                                    linalg.derive_rng(seed, "verify", family, k, variant))
            return {"passed": res.passed, "mismatches": res.mismatches,
                    "chain": res.scan.top.chain, "r": res.scan.top.r,
                    "first_defective": res.scan.first_defective,
                    "n_k": res.tangential.n_k, "m_k": res.tangential.m_k}

        def check(out):
            return out["mismatches"] or ([] if out["passed"] else ["verify_family failed"])

        out.append(Entry(name, run, check))
    return out


def _chain_entries(lib, seed, ctxs, expected_override) -> list[Entry]:
    cat, linalg, terracini = lib.catalog, lib.linalg, lib.terracini
    out = []
    for family, k, variant in constructible(cat, range(2, 6)):
        entry = cat.build_family(family, k, variant)
        if solves_roots(entry.spec, lib.variety):
            continue
        name = f"{family}/k{k}/{variant}"
        exp = cat.Expected(**expected_override[name]) if name in expected_override \
            else entry.expected

        def run(entry=entry, family=family, k=k, variant=variant):
            rep = terracini.secant_dim(entry.spec, entry.k_eval + 1, ctxs,
                                       linalg.derive_rng(seed, "chain", family, k, variant))
            return {"r": rep.r, "chain": rep.chain, "n": rep.n}

        def check(out, exp=exp, k_eval=entry.k_eval):
            return _expected_problems(exp, out["r"], out["chain"], k_eval, out["n"],
                                      terracini.expected_secant_dim)

        out.append(Entry(name, run, check))
    return out


def analyze_cases(lib, work_dir: Path) -> list[tuple[str, Path, list[str]]]:
    """(name, spec file, CLI arguments) for every analyze entry.

    The generated files are written here, at set-up, with `dumps_spec`.
    """
    cat = lib.catalog
    cases = [(rel, ROOT / rel, list(args)) for rel, args in SHIPPED_SPECS]
    work_dir.mkdir(parents=True, exist_ok=True)
    for family, k, variant in constructible(cat, (2,)):
        entry = cat.build_family(family, k, variant)
        path = work_dir / f"{family}-k{k}-{variant}.variety.json"
        path.write_text(lib.variety.dumps_spec(entry.spec), encoding="utf-8")
        cases.append((f"{family}/k{k}/{variant}", path, ["--k", str(entry.k_eval)]))
    return cases


def run_analyze(cli, path: Path, args: list[str], seed: int) -> tuple[int, str]:
    """Run `secantry analyze` in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["analyze", str(path), *args, "--seed", str(seed)])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, buf.getvalue()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _analyze_entries(lib, seed, ctxs, work_dir: Path, golden: dict) -> list[Entry]:
    primes = [c.p for c in ctxs]
    out = []
    for name, path, args in analyze_cases(lib, work_dir):
        want_hash = golden["entries"].get(name)

        def run(path=path, args=args):
            return run_analyze(lib.cli, path, args, seed)

        def check(out, name=name, args=args, want_hash=want_hash):
            code, text = out
            if code != 0:
                return [f"exit code {code}"]
            rep = json.loads(text)
            if want_hash is None:
                return [f"{name} has no golden row"]
            if rep["spec_hash"] != want_hash:
                return [f"spec hash drifted: golden {want_hash}, generated {rep['spec_hash']}"]
            problems = []
            if rep["seed"] != seed or rep["primes"] != primes:
                problems.append(f"report seed/primes {rep['seed']}/{rep['primes']} "
                                f"!= run {seed}/{primes}")
            want = golden["invariants"][want_hash][" ".join(args)]
            problems += [f"{f}: golden {want[f]}, measured {rep[f]}"
                         for f in GOLDEN_FIELDS if rep[f] != want[f]]
            return problems

        out.append(Entry(name, run, check))
    return out


WORKLOADS = ("catalog", "analyze", "chain")


def setup(lib, workload: str, seed: int, work_dir: Path,
          expected_override: dict | None = None) -> Workload:
    """Draw the primes and build every entry of the workload."""
    ctxs = lib.linalg.make_contexts(seed)
    override = expected_override or {}
    if workload == "catalog":
        entries = _catalog_entries(lib, seed, ctxs, override)
    elif workload == "chain":
        entries = _chain_entries(lib, seed, ctxs, override)
    elif workload == "analyze":
        entries = _analyze_entries(lib, seed, ctxs, work_dir, load_golden())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(entries, [c.p for c in ctxs])
