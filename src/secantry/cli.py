"""Command-line front end: analyze a variety file or verify catalog entries.

Reports are reproducible by construction: they embed the seed, both prime
moduli, the trial count and a hash of the spec tree, and serializing with
sorted keys makes reruns byte-identical for identical inputs.

Exit codes: 0 success / skipped-not-constructible, 1 parse error or an
--out that cannot be written, 2 sampler exhaustion, 3 catalog mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import catalog as cat
from . import hilbert, terracini
from .linalg import derive_rng, make_contexts
from .mpoly import PolyParseError
from .variety import (MAX_AMBIENT, SampleExhausted, SpecParseError, VarietySpec,
                      loads_spec, spec_hash)


def _write_report(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    tmp = Path(out + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _markdown_report(rep: dict) -> str:
    lines = ["# secant analysis report", ""]
    order = ["spec_hash", "seed", "primes", "trials", "ambient_r", "dim_n",
             "chain", "sigma_k", "delta_k", "n_k", "m_k", "contact_shape",
             "h1", "h2", "pass", "mismatches"]
    lines.append("| field | value |")
    lines.append("| --- | --- |")
    for key in order:
        if key in rep:
            lines.append(f"| {key} | {rep[key]} |")
    lines.append("")
    return "\n".join(lines)


def _report(spec: VarietySpec, top: terracini.SecantReport, order: int, seed: int,
            n_k: int | None, m_k: int | None, **extra) -> dict:
    """The fields every report shares, read off `top` at secancy `order`, plus `extra`."""
    sigma = terracini.expected_secant_dim(top.r, top.n, order)
    return {"spec_hash": spec_hash(spec), "seed": seed, "primes": top.primes,
            "trials": top.trials, "ambient_r": top.r, "dim_n": spec.dim, "chain": top.chain,
            "sigma_k": sigma, "delta_k": sigma - top.chain[order], "n_k": n_k, "m_k": m_k,
            "mismatches": [], **extra}


def _measure(spec: VarietySpec, k: int, k_max: int, seed: int, trials: int) -> dict:
    ctxs = make_contexts(seed)
    rng = derive_rng(seed, "analysis")
    top = terracini.secant_dim(spec, k_max, ctxs, rng, trials)
    if k >= 1 and top.chain[k - 1] < top.r:
        tan = terracini.tangential_projection(spec, k, ctxs, rng, report=top)
        shape = terracini.contact_shape(tan, rng)
        n_k, m_k = tan.n_k, tan.m_k
    else:
        # Tangent spans already fill the ambient space: nothing to project.
        shape = terracini.ContactShape("Indeterminate", 0)
        n_k = m_k = None
    # The chain already measured the span: h1 = dim<X> + 1; h2 reads its samples first,
    # one list per distinct trial list, so trials run modulo p1*p2 stay shared.
    lists = {id(ts): [pf for t in ts for pf in t.samples] for ts in top.draws.values()}
    samples = {p: lists[id(ts)] for p, ts in top.draws.items()}
    return _report(spec, top, k, seed, n_k, m_k, contact_shape=shape.classification,
                   h1=top.r + 1, h2=hilbert.hilbert2(spec, ctxs, rng, samples))


def cmd_analyze(args) -> int:
    try:
        spec = loads_spec(Path(args.specfile).read_text(encoding="utf-8"))
    except (OSError, SpecParseError, PolyParseError, ValueError) as exc:
        print(f"error: cannot load {args.specfile}: {exc}", file=sys.stderr)
        return 1
    k = args.k if args.k is not None else (args.k_max if args.k_max is not None else 1)
    k_max = args.k_max if args.k_max is not None else k
    if k > k_max:
        print("error: --k cannot exceed --k-max", file=sys.stderr)
        return 1
    if k < 0 or not 1 <= k_max <= MAX_AMBIENT:  # s^(h) stops rising once it reaches r
        print(f"error: --k must be >= 0 and --k-max (default: --k) in 1..{MAX_AMBIENT}",
              file=sys.stderr)
        return 1
    rep = _measure(spec, k, k_max, args.seed, args.trials)
    text = _json_text(rep) if args.format == "json" else _markdown_report(rep)
    return _write_report(text, args.out)


def _entry_report(res: cat.VerifyResult, seed: int) -> dict:
    entry = res.entry
    return _report(entry.spec, res.scan.top, entry.k_eval, seed, res.tangential.n_k,
                   res.tangential.m_k, family=entry.family, k=entry.k,
                   variant=entry.variant, mismatches=res.mismatches,
                   **{"pass": res.passed})  # `pass` is a keyword


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        rows = [{"family": family, "constructible_k": list(fam.domain),
                 "variants": list(fam.variants), "constructible": fam.make is not None,
                 "note": fam.note} for family, fam in cat.FAMILIES.items()]
        return _write_report(_json_text(rows), args.out)

    ctxs = make_contexts(args.seed)
    if args.catalog_cmd == "verify":
        try:
            entry = cat.build_family(args.family, args.k, args.variant)
        except cat.NotConstructible as exc:
            print(f"{args.family} k={args.k}: skipped (not constructible: {exc})")
            return 0
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = cat.verify_family(entry, ctxs, derive_rng(args.seed, "verify", args.family,
                                                        args.k, entry.variant), args.trials)
        rep = _entry_report(res, args.seed)
        text = _json_text(rep) if args.format == "json" else _markdown_report(rep)
        if _write_report(text, args.out):
            return 1
        print(f"{entry.family} k={entry.k} variant={entry.variant}: "
              + ("pass" if res.passed else f"FAIL {res.mismatches}"))
        return 0 if res.passed else 3

    # verify-all
    lo, hi = args.k_range
    if not 1 <= lo <= hi <= cat.K_CAP:
        print(f"error: --k-range must lie within 1..{cat.K_CAP}", file=sys.stderr)
        return 1
    results = cat.verify_all(range(lo, hi + 1), ctxs, trials=args.trials, seed=args.seed)
    reports = []
    all_ok = True
    for res in results:
        if isinstance(res, cat.SkippedFamily):
            reports.append({"family": res.family, "k": res.k, "skipped": True,
                            "reason": res.reason})
            print(f"{res.family} k={res.k}: skipped ({res.reason})")
            continue
        rep = _entry_report(res, args.seed)
        reports.append(rep)
        status = "pass" if res.passed else f"FAIL {res.mismatches}"
        print(f"{res.entry.family} k={res.entry.k} variant={res.entry.variant}: {status}")
        all_ok = all_ok and res.passed
    return _write_report(_json_text(reports), args.out) or (0 if all_ok else 3)


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError("k range looks like 2..4") from None
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors: exit 1, not argparse's 2 (sampler exhaustion)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="secantry",
                 description="Exact randomized secant-variety analysis over 62-bit prime fields.")
    # Each subcommand takes only the options it reads; these defaults fill
    # in the rest (`catalog list` measures nothing, `verify-all` is JSON only).
    ap.set_defaults(trials=terracini.DEFAULT_TRIALS, seed=0, format="json")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, measures=True, formats=True):
        if measures:
            p.add_argument("--trials", type=int, default=terracini.DEFAULT_TRIALS)
            p.add_argument("--seed", type=int, default=0)
        if formats:
            p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", default=None, help="write the report here (atomic)")

    pa = sub.add_parser("analyze", help="analyze a .variety.json file")
    pa.add_argument("specfile")
    pa.add_argument("--k", type=int, default=None, help="secancy order to report")
    pa.add_argument("--k-max", dest="k_max", type=int, default=None,
                    help="scan the whole chain up to this order")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("catalog", help="inspect or verify the family catalog")
    subc = pc.add_subparsers(dest="catalog_cmd", required=True)

    pl = subc.add_parser("list", help="list families and constructibility")
    common(pl, measures=False, formats=False)
    pl.set_defaults(func=cmd_catalog)

    pv = subc.add_parser("verify", help="verify one family at one k")
    pv.add_argument("--family", required=True)
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--variant", default=None)
    common(pv)
    pv.set_defaults(func=cmd_catalog)

    pva = subc.add_parser("verify-all", help="verify every constructible entry")
    pva.add_argument("--k-range", type=_parse_k_range, default=(2, 4))
    common(pva, formats=False)
    pva.set_defaults(func=cmd_catalog)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 1 <= args.trials <= terracini.MAX_TRIALS:
        print(f"error: --trials must lie within 1..{terracini.MAX_TRIALS}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SampleExhausted as exc:
        # Raised before a command writes anything.
        print(f"error: sampling failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
