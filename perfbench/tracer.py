"""Span tracing of the library's layers, applied from outside the library.

`install` replaces each traced function or method, in every namespace that
holds it, with a wrapper that records a span (name, start, end, parent
span, entry id) and a few counts; `restore` puts every original back.
Spans stay in memory as parallel arrays until `write_spans`.  A span's
self time is its duration minus the durations of its child spans: the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

NODE_CLASSES = ("Parametric", "Veronese", "SegrePair", "ConeOver", "ProjectFrom",
                "Hypersurface", "RestrictedChart", "ConeSection", "JoinLinear")
RESAMPLE_CAUSES = ("center", "frame_rank", "no_root", "singular_point", "zero_point",
                   "zero_restriction", "other")
ROOT_DEGREES = (1, 2, 3, 4, 5, 6)
# Samples drawn under these spans only have their point read; the frame
# built with them is discarded.
POINT_ONLY_SPANS = ("variety.span_dim", "hilbert.hilbert2")
MEASUREMENT_SPANS = POINT_ONLY_SPANS + ("terracini.secant_dim", "terracini.tangential_projection",
                                        "terracini.contact_shape", "terracini.gauss_fiber_dim")

# (module, attribute, span name) for module-level functions.  Every other
# namespace that imported the same function by name is patched as well.
FUNCTIONS = (
    ("linalg", "make_contexts", "linalg.make_contexts"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "row_basis", "linalg.row_basis"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("uniroots", "roots", "uniroots.roots"),
    ("variety", "span_dim", "variety.span_dim"),
    ("hilbert", "hilbert2", "hilbert.hilbert2"),
    ("terracini", "secant_dim", "terracini.secant_dim"),
    ("terracini", "min_defective_scan", "terracini.min_defective_scan"),
    ("terracini", "tangential_projection", "terracini.tangential_projection"),
    ("terracini", "contact_shape", "terracini.contact_shape"),
    ("terracini", "gauss_fiber_dim", "terracini.gauss_fiber_dim"),
    ("catalog", "build_family", "catalog.build_family"),
    ("catalog", "verify_family", "catalog.verify_family"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name) for methods, patched on the class.
METHODS = (
    ("linalg", "RowReducer", "add", "linalg.RowReducer.add"),
    ("mpoly", "MPoly", "eval", "mpoly.eval"),
    ("mpoly", "MPoly", "grad_eval", "mpoly.grad_eval"),
    ("mpoly", "MPoly", "to_univariate", "mpoly.to_univariate"),
    ("mpoly", "PolyMap", "partial_rows", "mpoly.partial_rows"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m = []
    for cls in NODE_CLASSES:
        m += [(f"variety.sample.{cls}.calls", "count", "lower"),
              (f"variety.sample.{cls}.self_s", "s", "lower")]
    m += [("variety.attempts", "count", "lower"),
          ("variety.sample.ok_ratio", "ratio", "higher")]
    m += [(f"variety.resample.{c}", "count", "lower") for c in RESAMPLE_CAUSES]
    m += [("variety.samples.point_only", "count", "lower"),
          ("variety.samples.framed", "count", "lower")]
    m += [("mpoly.grad_eval.calls", "count", "lower"),
          ("mpoly.grad_eval.self_s", "s", "lower"),
          ("mpoly.grad_eval.term_vars", "count", "lower")]
    for f in ("eval", "partial_rows", "to_univariate"):
        m += [(f"mpoly.{f}.calls", "count", "lower"), (f"mpoly.{f}.self_s", "s", "lower")]
    m += [("uniroots.roots.calls", "count", "lower"),
          ("uniroots.roots.self_s", "s", "lower"),
          ("uniroots.roots.empty_ratio", "ratio", "lower")]
    m += [(f"uniroots.roots.deg_{d}.calls", "count", "lower") for d in ROOT_DEGREES]
    m += [("uniroots.roots.deg_other.calls", "count", "lower")]
    m += [("linalg.RowReducer.add.calls", "count", "lower"),
          ("linalg.RowReducer.add.self_s", "s", "lower"),
          ("linalg.RowReducer.add.useful_ratio", "ratio", "higher")]
    for f in ("row_basis", "kernel_basis", "rank"):
        m += [(f"linalg.{f}.calls", "count", "lower"), (f"linalg.{f}.self_s", "s", "lower")]
    m += [("linalg.make_contexts.s", "s", "lower"),
          ("catalog.build_family.s", "s", "lower"),
          ("terracini.secant_dim.s", "s", "lower"),
          ("terracini.secant_dim.self_s", "s", "lower"),
          ("terracini.tangential_projection.s", "s", "lower"),
          ("terracini.contact_shape.s", "s", "lower"),
          ("terracini.gauss_fiber_dim.s", "s", "lower"),
          ("variety.span_dim.s", "s", "lower"),
          ("hilbert.hilbert2.s", "s", "lower"),
          ("hilbert.hilbert2.samples", "count", "lower"),
          ("cli.main.self_s", "s", "lower"),
          ("run.steal_s", "s", "lower"),
          ("run.trace_overhead_frac", "ratio", "lower")]
    return m


class Tracer:
    """In-memory spans plus counters; `entry` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_entry = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.entry = -1
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_entry.append(self.entry)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self.stack.pop()

    def open_names(self):
        """Names of the open spans, innermost first."""
        return (self.names[self.span_name[i]] for i in reversed(self.stack))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            par = self.span_parent[i]
            if par >= 0:
                child[par] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: name, start, end, parent, entry."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tentry\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                         f"{self.span_entry[i]}\n")


def _span(tr: Tracer, name: str, fn, after=None):
    nid = tr.name_id(name)

    def wrapper(*args, **kwargs):
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after is not None:
            after(tr, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_roots(tr: Tracer, args, result) -> None:
    f, p = args[0], args[1]
    deg = len(f) - 1
    while deg >= 0 and f[deg] % p == 0:
        deg -= 1
    tr.counts[f"uniroots.roots.deg_{deg if deg in ROOT_DEGREES else 'other'}.calls"] += 1
    if not result:
        tr.counts["uniroots.roots.empty"] += 1


def _count_useful_adds(tr: Tracer, args, result) -> None:
    if result:
        tr.counts["linalg.RowReducer.add.useful"] += 1


def _count_term_vars(tr: Tracer, args, result) -> None:
    poly = args[0]
    tr.counts["mpoly.grad_eval.term_vars"] += len(poly.terms) * poly.nvars


AFTER = {"uniroots.roots": _count_roots, "linalg.RowReducer.add": _count_useful_adds,
         "mpoly.grad_eval": _count_term_vars}


def _sample_wrapper(tr: Tracer, fn):
    """`VarietySpec.sample`: one span per node class, plus top-level sample kinds."""
    ids: dict[type, int] = {}

    def sample(self, ctx, rng):
        cls = type(self)
        nid = ids.get(cls)
        if nid is None:
            nid = ids[cls] = tr.name_id(f"variety.sample.{cls.__name__}")
        for name in tr.open_names():
            if name.startswith("variety.sample."):
                break  # a child's sample inside its parent's attempt
            if name in MEASUREMENT_SPANS:
                kind = "point_only" if name in POINT_ONLY_SPANS else "framed"
                tr.counts[f"variety.samples.{kind}"] += 1
                if name == "hilbert.hilbert2":
                    tr.counts["hilbert.hilbert2.samples"] += 1
                break
        else:
            tr.counts["variety.samples.framed"] += 1
        i = tr.open(nid)
        try:
            return fn(self, ctx, rng)
        finally:
            tr.close(i)

    sample.__wrapped__ = fn
    return sample


def _attempt_wrapper(tr: Tracer, fn, resample_exc):
    """`_sample_once`: count attempts and the cause of each resample."""

    def attempt(self, ctx, rng):
        tr.counts["variety.attempts"] += 1
        try:
            return fn(self, ctx, rng)
        except resample_exc as exc:
            cause = exc.cause if exc.cause in RESAMPLE_CAUSES else "other"
            tr.counts[f"variety.resample.{cause}"] += 1
            raise

    attempt.__wrapped__ = fn
    return attempt


class Patches:
    """The originals replaced by `install`, restored by `restore`."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(tr: Tracer, lib) -> Patches:
    """Wrap every traced entry point of the library namespace `lib`."""
    patches = Patches()
    namespaces = [m for name, m in sys.modules.items()
                  if name == "secantry" or name.startswith("secantry.")]
    try:
        for mod, attr, span in FUNCTIONS:
            original = vars(getattr(lib, mod))[attr]
            wrapper = _span(tr, span, original, AFTER.get(span))
            for ns in namespaces:
                if vars(ns).get(attr) is original:
                    patches.set(ns, attr, wrapper)
        for mod, cls, meth, span in METHODS:
            owner = getattr(getattr(lib, mod), cls)
            patches.set(owner, meth, _span(tr, span, vars(owner)[meth], AFTER.get(span)))
        variety = lib.variety
        patches.set(variety.VarietySpec, "sample",
                    _sample_wrapper(tr, vars(variety.VarietySpec)["sample"]))
        for cls in NODE_CLASSES:
            owner = getattr(variety, cls)
            patches.set(owner, "_sample_once",
                        _attempt_wrapper(tr, vars(owner)["_sample_once"], variety._Resample))
    except BaseException:
        patches.restore()
        raise
    return patches


def layer_metrics(tr: Tracer, steal_s: float, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, from the spans and counts of one traced run."""
    summ = tr.summary()
    c = tr.counts

    def rec(name: str, key: str) -> float:
        return summ.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, _unit, _better in per_layer_metrics():
        values[name] = c[name] if name in c else rec(*name.rsplit(".", 1))
    samples = sum(rec(f"variety.sample.{cls}", "calls") for cls in NODE_CLASSES)
    values["variety.sample.ok_ratio"] = ratio(samples, c["variety.attempts"])
    values["uniroots.roots.empty_ratio"] = ratio(c["uniroots.roots.empty"],
                                                 rec("uniroots.roots", "calls"))
    values["linalg.RowReducer.add.useful_ratio"] = ratio(
        c["linalg.RowReducer.add.useful"], rec("linalg.RowReducer.add", "calls"))
    values["run.steal_s"] = steal_s
    values["run.trace_overhead_frac"] = overhead_frac
    return values
