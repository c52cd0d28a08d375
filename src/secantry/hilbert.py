"""Degree-2 Hilbert function measurement and Castelnuovo-type bounds.

h_X(2) is the number of independent quadrics *on* X: the rank of the
matrix whose columns are all degree-2 monomials in the ambient
coordinates, evaluated at points of X until it stops rising (`hilbert2`).
Evaluation works uniformly for implicit-backed varieties and avoids the
term blowup of composing coordinate polynomials symbolically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .linalg import PrimeContext, fold
from .variety import VarietySpec, Veronese, span_dim

STALL = 8  # hilbert2 stops once this many points in a row add no rank


class MinimalDegreeViolated(ValueError):
    """deg(X) >= codim(X) + 1 fails: the inputs cannot describe a variety."""


def castelnuovo_bound(r: int, n: int, d: int) -> tuple[int, int]:
    """Lower bound for h_X(2) of an irreducible nondegenerate X in P^r.

    Returns (iota, bound) with iota = min(d + n - r - 1, r - n) and
    bound = iota + r(n+1) - n(n-1)/2 + 1.  Equality holds exactly for the
    varieties whose general curve section is linearly normal of genus iota.
    """
    if d < r - n + 1:
        raise MinimalDegreeViolated(f"degree {d} below minimal degree {r - n + 1}")
    iota = min(d + n - r - 1, r - n)
    bound = iota + r * (n + 1) - n * (n - 1) // 2 + 1
    return iota, bound


def hilbert2(spec: VarietySpec, ctxs: list[PrimeContext], rng: random.Random,
             points: dict[int, list[list[int]]] | None = None) -> int:
    """h_X(2) = h_{v2(X)}(1) of an irreducible X: the rank of v2 at points of X.

    Per prime p, reads `points[p]` (points of X, such as `ScanResult.points`)
    first, then fresh samples, until the rank is full, STALL points in a row
    add no rank, or C(R+2, 2) + STALL points (R+1 coordinates) were read;
    the maximum across primes is reported.

    The stall stop needs X irreducible, as Terracini's lemma does.  Below
    rank h2, some nonzero quadric on X vanishes at every point read, and a
    general point of X is no zero of it, so each general point raises the
    rank by one up to h2.  A stall below h2 takes STALL unlucky points in a
    row: an error that only lowers the rank, like every other the maxima
    absorb.  On a reducible X, points can stall on one component.
    """
    best = 0
    v2 = Veronese(spec, 2)
    ncols = v2.ambient + 1
    for ctx in ctxs:
        p = ctx.p
        drawn = (points or {}).get(p, ())
        fresh = (spec.sample(ctx, rng).point for _ in range(ncols + STALL - len(drawn)))
        rows = (v2.push(q, (), p).point for q in itertools.chain(drawn, fresh))
        best = max(best, fold(rows, p, ncols, STALL).rank)
    return best


@dataclass
class HilbertReport:
    """h1/h2 measurements plus the degree-based bound when the degree is known."""

    h1: int
    h2: int
    d: int | None = None
    iota: int | None = None
    bound2: int | None = None
    equality2: bool | None = None


def hilbert_report(spec: VarietySpec, ctxs: list[PrimeContext],
                   rng: random.Random) -> HilbertReport:
    """Measure h1 = dim<X> + 1 and h2; add iota/bound when the degree is declared.

    The bound is computed against the span dimension r = h1 - 1, since
    monomial presentations may be ambient-degenerate.
    """
    h1 = max(span_dim(spec, ctx, rng) for ctx in ctxs)
    h2 = hilbert2(spec, ctxs, rng)
    rep = HilbertReport(h1=h1, h2=h2)
    if spec.degree is not None:
        rep.d = spec.degree
        rep.iota, rep.bound2 = castelnuovo_bound(h1 - 1, spec.dim, spec.degree)
        rep.equality2 = h2 == rep.bound2
    return rep


@dataclass
class QuadricCountReport:
    """Result of the two-sided h_Y(2) check for a contact image Y in P^(k+1)."""

    k: int
    n: int
    d: int
    h2: int
    iota: int
    lower: int
    upper: int
    lower_ok: bool
    upper_ok: bool
    equality: bool

    @property
    def holds(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_quadric_bounds(spec: VarietySpec, k: int, ctxs: list[PrimeContext],
                         rng: random.Random) -> QuadricCountReport:
    """Check lower <= h_Y(2) <= 4k + 4 for a declared-degree Y spanning P^(k+1).

    The lower bound is the Castelnuovo-type bound evaluated at r = k + 1;
    the upper bound 4k + 4 is what an ambient of dimension at most 4k + 3
    can accommodate.
    """
    if spec.degree is None:
        raise ValueError("check needs a declared degree")
    if spec.dim >= k + 1:
        raise ValueError("variety must be a proper subvariety of P^(k+1)")
    h1 = max(span_dim(spec, ctx, rng) for ctx in ctxs)
    if h1 != k + 2:
        raise ValueError(f"variety spans P^{h1 - 1}, expected P^{k + 1}")
    iota, lower = castelnuovo_bound(k + 1, spec.dim, spec.degree)
    h2 = hilbert2(spec, ctxs, rng)
    upper = 4 * k + 4
    return QuadricCountReport(k=k, n=spec.dim, d=spec.degree, h2=h2, iota=iota,
                              lower=lower, upper=upper,
                              lower_ok=h2 >= lower, upper_ok=h2 <= upper,
                              equality=h2 == lower)
