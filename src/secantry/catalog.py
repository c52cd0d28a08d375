"""Catalog of minimally k-defective threefold families and their invariants.

Each family F1..F14 of the classification of defective threefolds gets one
concrete constructible representative per (k, variant), built from the
variety combinators, together with the invariant table it must reproduce:
ambient span r, secant dimension s^(k), defect delta_k, tangential image
dimension n_k, minimality, and (where meaningful) s^(k+1).  Everything
the catalog knows about a family (note, domain, variants, construction
and row) is one `Family` record in `FAMILIES`.

Three families (F3, F6, F9) need threefolds whose curve sections have
arithmetic genus 1 or 2; those have no rational parametrization and are
reported NotConstructible rather than approximated.  Verification never
autocorrects a mismatch between the table and a measurement: mismatches
are surfaced as data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .linalg import derive_rng
from .mpoly import PolyMap, random_poly
from .terracini import (DEFAULT_TRIALS, ScanResult, TangentialReport, expected_secant_dim,
                        min_defective_scan, tangential_projection)
from .variety import (Parametric, VarietySpec, center_in_span,
                      center_on_points, cone_over, fibered_join, hypersurface,
                      join_linear, on_quadric, project_from, projective_space,
                      random_center, random_cone_section, scroll, segre_pair,
                      veronese)


class NotConstructible(Exception):
    """This (family, k) has no representative the engine can build."""


@dataclass(frozen=True)
class Expected:
    """Invariant table row for one catalog entry (asserted exactly)."""

    r: int
    s_k: int
    delta_k: int
    n_k: int
    s_k_plus_1: int | None = None


@dataclass
class CatalogEntry:
    family: str
    k: int
    variant: str
    spec: VarietySpec
    expected: Expected
    k_eval: int  # secancy order the expected row refers to
    note: str = ""


@dataclass
class VerifyResult:
    entry: CatalogEntry
    scan: ScanResult | None
    tangential: TangentialReport | None
    passed: bool
    mismatches: list[str] = field(default_factory=list)


@dataclass
class SkippedFamily:
    family: str
    k: int
    reason: str


@dataclass(frozen=True)
class Family:
    """One catalog family: everything the catalog knows about it.

    `make(k, variant, rng)` returns (spec, expected row, k_eval), the
    secancy order the row refers to; it is None for a family the engine
    cannot build, whose `note` then gives the reason.  `verify_all` runs
    `variants`; `optional` ones build only when asked for by name.
    """

    note: str
    domain: tuple[int, ...] = ()
    variants: tuple[str, ...] = ("default",)
    optional: tuple[str, ...] = ()
    make: Callable[[int, str, random.Random],
                   tuple[VarietySpec, Expected, int]] | None = None


K_CAP = 5  # keeps every matrix at desk scale


def _parts(d: int, blocks: int) -> list[int]:
    """Balanced partition of d into `blocks` nonnegative scroll degrees."""
    base, extra = divmod(d, blocks)
    return [base + (1 if i < extra else 0) for i in range(blocks)]


def minimal_threefold(d: int) -> Parametric:
    """A threefold of minimal degree d in P^(d+2) (a 3-block scroll; d >= 1)."""
    return scroll(_parts(d, 3))


def _general_rational_surface(span_dim: int, rng: random.Random) -> Parametric:
    """P^2 re-embedded into P^span_dim by span_dim+1 random plane curves.

    The forms are dense random combinations of all plane-curve monomials of
    the smallest degree rich enough to span; such a surface lands outside
    the thin classified list of weakly defective surfaces with
    overwhelming probability (and the measured invariants confirm or
    reject per instance).
    """
    need = span_dim + 1
    e = 1
    while (e + 1) * (e + 2) // 2 < need:
        e += 1
    coords = [random_poly(2, e, rng, homogeneous=False) for _ in range(need)]
    return Parametric(PolyMap(2, coords))


def _defect_one(r: int, n_k: int) -> Expected:
    """The common row: s^(k) is one short of the span P^r and s^(k+1) fills it."""
    return Expected(r, r - 1, 1, n_k, r)


def _f1(k, variant, rng):
    x = random_cone_section(veronese(minimal_threefold(k - 1), 2), 2, rng)
    if variant == "point":
        return x, _defect_one(4 * k + 2, 1), k
    return random_cone_section(x, 2, rng), _defect_one(4 * k + 3, 2), k


def _f2(k, variant, rng):
    x = veronese(hypersurface(4, random_poly(5, 3, rng)), 2)
    if variant == "uple":
        return x, _defect_one(14, 1), 3
    return random_cone_section(x, 2, rng), _defect_one(15, 2), 3


def _f4(k, variant, rng):
    if variant == "double_line":
        # Projection of a minimal-degree threefold from a point on the
        # plane of its degree-2 directrix conic; the conic contracts to a
        # double line of the image.  The directrix block must have degree
        # exactly 2: other conics sit inside quadric sub-scrolls whose span
        # contains the center, which would double a whole surface.
        z = scroll([2] + _parts(k - 2, 2))
        # The directrix conic (1, t, t^2, 0, ..., 0) spans <e0, e1, e2>.
        combo = [rng.randrange(1, 10 ** 6) for _ in range(3)]
        y = project_from(z, [combo + [0] * (z.ambient - 2)], degree=k)
    else:
        curve = project_from(scroll([k]), random_center(k, 0, rng), degree=k)
        y = cone_over(curve, 1)
    return veronese(y, 2), _defect_one(4 * k + 3, 2), k


def _f5(k, variant, rng):
    y = on_quadric(random_poly(6, 3, rng))
    y.degree = 6
    return veronese(y, 2), _defect_one(19, 2), 4


def _f7(k, variant, rng):
    i = 1 if variant == "i1" else 0
    y2 = veronese(scroll(_parts(k, 2)), 2)
    x = join_linear(y2, random_center(y2.ambient, k - i, rng))
    return x, _defect_one(4 * k + 3 - i, 2 - i), k


def _f8(k, variant, rng):
    y2 = veronese(hypersurface(3, random_poly(4, 3, rng)), 2)
    return join_linear(y2, random_center(y2.ambient, 1, rng)), _defect_one(11, 2), 2


def _f10(k, variant, rng):
    s = _general_rational_surface(3 * k + 3, rng)
    return join_linear(s, random_center(s.ambient, k - 1, rng)), _defect_one(4 * k + 3, 2), k


def _f11(k, variant, rng):
    fiber = scroll([k, k - 1]).map  # spans a 2k-dim block
    return fibered_join(scroll([2 * k + 2]).map, fiber), _defect_one(4 * k + 3, 2), k


def _f12(k, variant, rng):
    fiber = scroll([k - 1, k - 1]).map  # spans a (2k-1)-dim block
    if variant == "narrow":
        return fibered_join(scroll([2 * k + 2]).map, fiber), _defect_one(4 * k + 2, 1), k
    return (fibered_join(scroll([2 * k + 3]).map, fiber),
            Expected(4 * k + 3, 4 * k + 1, 2, 1, 4 * k + 3), k)


def _f13(k, variant, rng):
    x = veronese(minimal_threefold(k), 2)
    if variant == "line_secant":
        x = project_from(x, center_on_points(x, 2, rng))
    elif variant != "full":
        x = project_from(x, center_in_span(x, 0 if variant == "point" else 1, rng))
    # The full 2-uple is also (k+1)-defective: s^(k+1) stops at 4k+4 < r.
    r = {"full": 4 * k + 5, "point": 4 * k + 4}.get(variant, 4 * k + 3)
    return x, Expected(r, 4 * k + 2, 1, 2, min(r, 4 * k + 4)), k


def _f14(k, variant, rng):
    # Two point projections to P^(k+1), each centered at a point of Y
    # itself, multiplied into the Segre coordinates.  Centering on Y is
    # what makes the product span exactly P^(4k+3): for centers off Y the
    # products span one dimension more.
    y = minimal_threefold(k)
    proj = []
    for q in center_on_points(y, 2, rng):
        m = [[q[0] if j == i else (-q[i] if j == 0 else 0)
              for j in range(y.ambient + 1)] for i in range(1, y.ambient + 1)]
        proj.append(y.map.compose_linear(m))
    coords = [a * b for a in proj[0].coords for b in proj[1].coords]
    return Parametric(PolyMap(3, coords)), _defect_one(4 * k + 3, 2), k


def _ex_segre(k, variant, rng):
    # Secants of a Segre square are bounded-rank matrix loci:
    # s^(h) = r - (k + 1 - h)^2 until that fills the ambient space.
    r = (k + 2) ** 2 - 1
    return (segre_pair(projective_space(k + 1), projective_space(k + 1)),
            Expected(r, r - k * k, 2, 2 * k, r - (k - 1) ** 2), 1)


_ALL_K = tuple(range(2, K_CAP + 1))

FAMILIES: dict[str, Family] = {
    "F1": Family("threefold in a cone (vertex a point or a line) over the 2-uple of a "
                 "minimal-degree threefold, realized as quadric sections of the cone",
                 _ALL_K, ("point", "line"), make=_f1),
    "F2": Family("2-uple of a cubic hypersurface in P^4, plus the vertex-point cone variant",
                 (3,), ("uple", "cone"), make=_f2),
    "F3": Family("needs a threefold with elliptic curve sections (no rational "
                 "parametrization)"),
    "F4": Family("2-uple of a cone with vertex a line over a smooth rational curve of "
                 "degree k in P^(k-1)", (4, 5), optional=("double_line",), make=_f4),
    "F5": Family("2-uple of a threefold cut on the smooth quadric in P^5 by a cubic",
                 (4,), make=_f5),
    "F6": Family("needs a threefold with genus-2 curve sections (no rational "
                 "parametrization)"),
    "F7": Family("join of the 2-uple of a minimal-degree surface with a linear image "
                 "of it in a P^(k-i) block", _ALL_K, ("i0", "i1"), make=_f7),
    "F8": Family("join of the 2-uple of a cubic surface in P^3 with a pencil image "
                 "(vertex a line)", (2,), make=_f8),
    "F9": Family("needs a surface with elliptic curve sections (no rational "
                 "parametrization)"),
    "F10": Family("join of a general rational surface with a linear image in P^(k-1)",
                  _ALL_K, make=_f10),
    "F11": Family("scroll joining a rational normal curve to a surface scroll spanning "
                  "a 2k-dimensional vertex block", _ALL_K, make=_f11),
    "F12": Family("like F11 with a (2k-1)-dimensional vertex block",
                  _ALL_K, ("narrow", "wide"), make=_f12),
    "F13": Family("2-uple of a minimal-degree threefold in P^(k+2), optionally projected "
                  "from a point or a line (the line possibly secant)",
                  _ALL_K, ("full", "point", "line", "line_secant"), make=_f13),
    "F14": Family("diagonal Segre image of a minimal-degree threefold under two point "
                  "projections to P^(k+1)", _ALL_K, make=_f14),
    "EX_VERONESE_P3": Family(
        "the 2-uple embedding of P^3 in P^9", (1,),
        make=lambda k, variant, rng: (veronese(projective_space(3), 2),
                                      Expected(9, 6, 1, 2, 8), 1)),
    "EX_SEGRE": Family("the Segre product P^(k+1) x P^(k+1)", (2, 3), make=_ex_segre),
    "EX_TERRACINI_13": Family(
        "P^1 x P^2 embedded by divisors of bidegree (1, 3) in P^19", (4,),
        make=lambda k, variant, rng: (
            segre_pair(projective_space(1), veronese(projective_space(2), 3)),
            _defect_one(19, 2), 4)),
}

# Flat views of the table, one column each: `perfbench/workloads.py` (`constructible`) reads them.
FAMILY_DOMAINS = {name: f.domain for name, f in FAMILIES.items()}
FAMILY_VARIANTS = {name: f.variants for name, f in FAMILIES.items()}
NOT_CONSTRUCTIBLE_REASONS = {name: f.note for name, f in FAMILIES.items() if f.make is None}


def build_family(family: str, k: int, variant: str | None = None) -> CatalogEntry:
    """Build the representative spec and expected table for (family, k, variant).

    Raises NotConstructible for F3/F6/F9 and for k outside the family's
    constructible domain, and ValueError for an unknown family or variant.
    """
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    if fam.make is None:
        raise NotConstructible(fam.note)
    if k not in fam.domain:
        raise NotConstructible(
            f"{family} has no representative at k={k} (constructible k: {list(fam.domain)})")
    variant = variant or fam.variants[0]
    if variant not in fam.variants + fam.optional:
        raise ValueError(f"unknown variant {variant!r} for {family}")
    spec, expected, k_eval = fam.make(k, variant, derive_rng(0, "catalog", family, k, variant))
    return CatalogEntry(family=family, k=k, variant=variant, spec=spec,
                        expected=expected, k_eval=k_eval, note=fam.note)


def verify_family(entry: CatalogEntry, ctxs, rng: random.Random,
                  trials: int = DEFAULT_TRIALS) -> VerifyResult:
    """Measure the entry and compare every expected field exactly."""
    exp = entry.expected
    k = entry.k_eval
    k_max = k + 1 if exp.s_k_plus_1 is not None else k
    scan = min_defective_scan(entry.spec, k_max, ctxs, rng, trials)
    tan = tangential_projection(entry.spec, k, ctxs, rng, report=scan.top)
    top = scan.top
    top.draws.clear()  # read by the projection alone; verify_all keeps every result
    top.samples.clear()
    mism: list[str] = []
    delta_k = expected_secant_dim(top.r, top.n, k) - top.chain[k]
    if top.r != exp.r:
        mism.append(f"r: expected {exp.r}, measured {top.r}")
    if top.chain[k] != exp.s_k:
        mism.append(f"s_k: expected {exp.s_k}, measured {top.chain[k]}")
    if delta_k != exp.delta_k:
        mism.append(f"delta_k: expected {exp.delta_k}, measured {delta_k}")
    if tan.n_k != exp.n_k:
        mism.append(f"n_k: expected {exp.n_k}, measured {tan.n_k}")
    if scan.first_defective != k:
        mism.append(f"minimal: expected first defective k={k}, "
                    f"measured {scan.first_defective}")
    if exp.s_k_plus_1 is not None:
        measured_next = top.chain[k + 1]
        if measured_next != exp.s_k_plus_1:
            mism.append(f"s_(k+1): expected {exp.s_k_plus_1}, measured {measured_next}")
    return VerifyResult(entry=entry, scan=scan, tangential=tan,
                        passed=not mism, mismatches=mism)


def verify_all(k_range, ctxs, trials: int = DEFAULT_TRIALS, seed: int = 0):
    """Verify every constructible (family, k, variant); failures are data.

    Returns a list mixing VerifyResult and SkippedFamily records (never
    aborts on a single failure).
    """
    ks = sorted(set(k_range))
    if any(k < 1 or k > K_CAP for k in ks):
        raise ValueError(f"k range must stay within [1, {K_CAP}]")
    out: list[VerifyResult | SkippedFamily] = []
    for family, fam in FAMILIES.items():
        for k in ks:
            if fam.make is None:
                out.append(SkippedFamily(family, k, fam.note))
                continue
            if k not in fam.domain:
                out.append(SkippedFamily(
                    family, k,
                    f"no representative at k={k} (constructible k: {list(fam.domain)})"))
                continue
            for variant in fam.variants:
                entry = build_family(family, k, variant)
                rng = derive_rng(seed, "verify", family, k, variant)
                out.append(verify_family(entry, ctxs, rng, trials))
    return out
