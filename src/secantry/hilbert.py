"""Degree-2 Hilbert function measurement and Castelnuovo-type bounds.

h_X(2) is the number of independent quadrics *on* X: the rank of the
matrix whose columns are all degree-2 monomials in the ambient
coordinates, evaluated at points of X until it stops rising (`hilbert2`).
Evaluation works uniformly for implicit-backed varieties and avoids the
term blowup of composing coordinate polynomials symbolically.

Both measurements here, h1 and h2, run under `variety.per_modulus`, as the
chain trials do.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .linalg import PrimeContext, RowReducer, fold
from .variety import PointFrame, VarietySpec, Veronese, per_modulus, span_dim

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
             samples: dict[int, list[PointFrame]] | None = None) -> int:
    """h_X(2) = h_{v2(X)}(1) of an irreducible X: the rank of v2 at points of X.

    A pass is one RowReducer taking two phases from one stream of samples: the
    given ones (samples of X, such as the chain trials' `Trial.samples`), then
    fresh ones.  Tangent phase: the n+1 rows x.v (v over the frame of the next
    sample x) until the rank is full or a row adds nothing.  Point phase: v2(q)
    for the samples q the tangent phase never reached, until the rank is full,
    STALL points in a row add no rank, or C(R+2, 2) + STALL points (R+1
    coordinates) were read.  The maximum over passes is reported.

    Passes run under `variety.per_modulus`, which says when one pass modulo p1*p2
    serves every prime, on `samples[p]` (such as `SecantReport.samples`) with the
    C(R+2, 2) quadric columns as their width.  Rows come packed at the reducer's
    slot width (`Veronese.push`).

    No row x.v lifts the rank past h2: B_Q(x, v) = 0 for every quadric Q on
    X and v tangent to the cone at x, so x.v lies in span v2(X).  The
    tangent spaces of v2(X) hold v2(x), so at general points they span
    v2(X); where they meet (a tangentially defective v2(X), such as
    v2(P^2)) the point phase ends the count.  Its stall stop reads point
    rows alone and needs X irreducible, as Terracini's lemma does.
    Below rank h2, some nonzero quadric on X vanishes at every row read, and
    a general point of X is no zero of it, so each general point raises the
    rank by one up to h2.  A point whose frame was read is no such point:
    v2(x) lies in the span of its rows x.v, so it would add nothing by
    construction and fake a stall.  A stall below h2 takes STALL unlucky
    points in a row: an error that only lowers the rank, like every other
    the maxima absorb.  On a reducible X, points can stall on one component.
    """
    v2 = Veronese(spec, 2)
    ncols = v2.ambient + 1

    def run(ctx, given) -> int:  # one pass
        p, red = ctx.p, RowReducer(ctx.p, ncols)
        fresh = (spec.sample(ctx, rng) for _ in itertools.count())
        stream = itertools.chain(given or (), fresh)
        tangent = (row for pf in stream for row in v2.push(pf.point, pf.frame, p, red.nbytes).frame)
        fold(tangent, red, 1)
        if red.rank < ncols:
            points = itertools.islice(stream, ncols + STALL)  # the samples not yet read
            fold((v2.push(pf.point, (), p, red.nbytes).point for pf in points), red, STALL)
        return red.rank

    return max(per_modulus(spec, ctxs, run, samples, ncols).values())


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
    h1 = max(per_modulus(spec, ctxs, lambda ctx, _: span_dim(spec, ctx, rng)).values())
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

    The lower bound is hilbert_report's Castelnuovo-type bound, at r = h1 - 1 = k + 1;
    the upper bound 4k + 4 is what an ambient of dimension at most 4k + 3
    can accommodate.
    """
    if spec.degree is None:
        raise ValueError("check needs a declared degree")
    if spec.dim >= k + 1:
        raise ValueError("variety must be a proper subvariety of P^(k+1)")
    rep = hilbert_report(spec, ctxs, rng)
    if rep.h1 != k + 2:
        raise ValueError(f"variety spans P^{rep.h1 - 1}, expected P^{k + 1}")
    h2, lower, upper = rep.h2, rep.bound2, 4 * k + 4
    return QuadricCountReport(k=k, n=spec.dim, d=spec.degree, h2=h2, iota=rep.iota,
                              lower=lower, upper=upper, lower_ok=h2 >= lower,
                              upper_ok=h2 <= upper, equality=rep.equality2)
