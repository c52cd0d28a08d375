"""Secant-variety measurements via Terracini's lemma.

Terracini's lemma identifies the tangent space of the k-th secant variety
at a general point with the span of tangent spaces at k+1 general points
of X.  In the affine-cone model every tangent space is a frame of n+1
rows, so s^(k) is simply rank(stacked frames of k+1 samples) - 1.

Randomization over a 62-bit prime field has one-sided error: an unlucky
point or prime can only lower a rank.  Every dimension is therefore the
maximum over independent trials, repeated under two independently drawn
primes, with an `agreement` flag recording whether all runs concurred.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import linalg
from .linalg import PrimeContext, RowReducer
from .variety import NotParametric, ProjectFrom, VarietySpec, span_dim

DEFAULT_TRIALS = 5


def expected_secant_dim(r: int, n: int, k: int) -> int:
    """The expected dimension min(r, n(k+1) + k) of the k-th secant variety."""
    return min(r, n * (k + 1) + k)


@dataclass
class SecantReport:
    """Measured secant dimensions s^(0..k) with their defect bookkeeping.

    `r` is the projective dimension of the linear span of X (monomial
    presentations may sit degenerately in a larger coordinate space, and
    all expected-dimension counts refer to the span).
    """

    k: int
    r: int
    n: int
    chain: list[int]
    sigma_k: int
    delta_k: int
    trials: int
    primes: list[int]
    agreement: bool
    points: dict[int, list[list[int]]] = field(default_factory=dict, repr=False, compare=False)


def _report(k: int, r: int, n: int, chain: list[int], trials: int,
            primes: list[int], agreement: bool) -> SecantReport:
    """The order-k report read off a measured chain s^(0), ..., s^(>=k)."""
    sigma_k = expected_secant_dim(r, n, k)
    return SecantReport(k=k, r=r, n=n, chain=chain[:k + 1], sigma_k=sigma_k,
                        delta_k=sigma_k - chain[k], trials=trials, primes=primes,
                        agreement=agreement)


@dataclass
class ScanResult:
    first_defective: int | None
    reports: list[SecantReport]
    points: dict[int, list[list[int]]]  # each prime's chain points, keyed by p

    @property
    def top(self) -> SecantReport:
        return self.reports[-1]


@dataclass
class TangentialReport:
    """Image dimension of a general k-tangential projection.

    `projections` holds each prime's projection (bound to that prime, with
    that prime's measured n_k as its dimension); `projected_spec` is the
    one that reached the maximum.
    """

    k: int
    n_k: int
    m_k: int
    projected_spec: ProjectFrom
    projections: list[tuple[PrimeContext, ProjectFrom]]


@dataclass
class ContactShape:
    """Coarse shape of the tangential contact locus, read off the projection.

    The image X_k of the k-tangential projection of a minimally k-defective
    threefold is either a curve or a developable surface exactly when the
    contact locus is a divisor; a non-developable surface image means the
    contact locus is a curve.  `gamma_lower` is the lower bound m_k for the
    contact dimension.
    """

    classification: str  # DivisorViaCurveImage | DivisorViaDevelopableImage |
    #                      NotDivisorial | Indeterminate
    gamma_lower: int


def _chain_once(spec: VarietySpec, k: int, ctx: PrimeContext,
                rng: random.Random, points: list[list[int]]) -> list[int]:
    """One trial: ranks of stacked frames of 1..k+1 samples, minus 1; appends their points."""
    red = RowReducer(ctx.p)
    chain = []
    for _ in range(k + 1):
        pf = spec.sample(ctx, rng)
        points.append(pf.point)
        for row in pf.frame:
            red.add(row)
        chain.append(red.rank - 1)
    return chain


def secant_dim(spec: VarietySpec, k: int, ctxs: list[PrimeContext],
               rng: random.Random, trials: int = DEFAULT_TRIALS) -> SecantReport:
    """Measure the secant dimension chain s^(0), ..., s^(k).

    Each s^(h) is the maximum over `trials` independent trials and all
    primes of rank(stacked frames of h+1 samples) - 1.

    The span r + 1 reads each prime's chain points first and draws more only
    while short of full rank.  Draws are shared across measurements, never
    within one, so the trials stay independent; a reused point lies on X and
    can only lower the span's rank, the one-sided error the maxima absorb.
    """
    if k < 0 or trials < 1:
        raise ValueError("need k >= 0 and trials >= 1")
    chains = []
    spans = []
    points: dict[int, list[list[int]]] = {}
    for ctx in ctxs:
        drawn = points[ctx.p] = []
        for _ in range(trials):
            chains.append(_chain_once(spec, k, ctx, rng, drawn))
        spans.append(span_dim(spec, ctx, rng, points=drawn))
    r = max(spans) - 1
    chain = [max(c[h] for c in chains) for h in range(k + 1)]
    agreement = all(c == chain for c in chains) and all(s - 1 == r for s in spans)
    return replace(_report(k, r, spec.dim, chain, trials, [c.p for c in ctxs], agreement),
                   points=points)


def defect(spec: VarietySpec, k: int, ctxs: list[PrimeContext],
           rng: random.Random, trials: int = DEFAULT_TRIALS) -> int:
    """The k-defect: expected minus measured secant dimension (0 when filling)."""
    return secant_dim(spec, k, ctxs, rng, trials).delta_k


def min_defective_scan(spec: VarietySpec, k_max: int, ctxs: list[PrimeContext],
                       rng: random.Random, trials: int = DEFAULT_TRIALS) -> ScanResult:
    """Find the smallest k <= k_max at which the variety is defective.

    Defective means delta_k > 0 *and* s^(k) < r: a variety whose secants
    fill the span is never called defective.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    full = secant_dim(spec, k_max, ctxs, rng, trials)
    reports = [_report(h, full.r, full.n, full.chain, trials, full.primes, full.agreement)
               for h in range(k_max + 1)]
    first = next((h for h in range(1, k_max + 1)
                  if reports[h].delta_k > 0 and full.chain[h] < full.r), None)
    return ScanResult(first_defective=first, reports=reports, points=full.points)


def _tangential_once(spec: VarietySpec, k: int, ctx: PrimeContext,
                     rng: random.Random) -> ProjectFrom:
    """Project from the span of k sampled tangent frames.

    The projection is bound to ctx's prime and its dimension is the
    measured image dimension n_k.
    """
    rows: list[list[int]] = []
    for _ in range(k):
        rows.extend(spec.sample(ctx, rng).frame)
    center = linalg.row_basis(rows, ctx.p)
    if len(center) >= spec.ambient + 1:
        raise ValueError("tangent span fills the ambient space; nothing to project")
    proj = ProjectFrom(spec, center, bound_p=ctx.p)  # dim: set once measured
    kmap = proj.kernel_map(ctx)
    fresh = spec.sample(ctx, rng)
    image_rows = linalg.apply_map(fresh.frame, kmap, ctx.p)
    proj.dim = linalg.rank(image_rows, ctx.p) - 1
    if proj.dim < 0:
        raise ValueError("tangent span fills the span of the variety; "
                         "nothing to project")
    return proj


def tangential_projection(spec: VarietySpec, k: int, ctxs: list[PrimeContext],
                          rng: random.Random) -> TangentialReport:
    """Measure n_k = dim of the image of a general k-tangential projection.

    One projection is drawn per prime.  The returned projected_spec
    composes with every other operation but is bound to the prime that
    reached the maximum, the first one on a tie (its center rows are
    residues modulo that prime).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    projections = [(ctx, _tangential_once(spec, k, ctx, rng)) for ctx in ctxs]
    best = max((proj for _, proj in projections), key=lambda proj: proj.dim)
    return TangentialReport(k=k, n_k=best.dim, m_k=spec.dim - best.dim,
                            projected_spec=best, projections=projections)


def gauss_fiber_dim(spec: VarietySpec, ctxs: list[PrimeContext],
                    rng: random.Random) -> int:
    """Dimension of the general fiber of the Gauss map of a parametric variety.

    The differential of the Gauss map kills a tangent direction v exactly
    when every first-order variation of the frame along v stays inside the
    tangent space itself, so the fiber is the kernel dimension of the map
    v -> (d_v frame mod frame), minus the chart's own fiber directions.
    Second-order data comes from formal partials of the chart.  One chart
    point is drawn per prime, and the minimum over primes is reported (rank
    can only drop on unlucky samples).
    """
    fibers = []
    for ctx in ctxs:
        cmap, _ = spec.chart(ctx)  # NotParametric for implicit-backed trees
        first = [[co.partial(j) for j in range(cmap.nvars)] for co in cmap.coords]
        fibers.append(_gauss_fiber_once(spec, cmap, first, ctx, rng))
    return min(fibers)


def _gauss_fiber_once(spec: VarietySpec, cmap, first, ctx: PrimeContext,
                      rng: random.Random) -> int:
    p = ctx.p
    c = cmap.nvars
    n = spec.dim
    ncoords = len(cmap.coords)
    for _ in range(linalg.SAMPLE_RETRIES):
        t = [rng.randrange(p) for _ in range(c)]
        value, d1 = cmap.partial_rows(t, p)
        tangent = linalg.fold([value] + d1, p)
        if tangent.rank != n + 1:
            continue
        # Row i=0 is the chart value, rows i>=1 are first partials; their
        # j-derivatives are the first and second partials respectively.
        constraints = []  # rows of the linear system on directions v
        for i in range(c + 1):
            if i == 0:
                derivs = d1
            else:
                grads = [first[ci][i - 1].grad_eval(t, p)[1] for ci in range(ncoords)]
                derivs = [[g[j] for g in grads] for j in range(c)]
            residuals = [tangent.residual(deriv) for deriv in derivs]
            for coord in range(ncoords):
                row = [residuals[j][coord] for j in range(c)]
                if any(row):
                    constraints.append(row)
        # Kernel dimension c - rank, less the chart's c - n fiber directions.
        return n - linalg.rank(constraints, p)
    raise ValueError("could not find a generic chart point for the Gauss map")


def contact_shape(tan: TangentialReport, rng: random.Random) -> ContactShape:
    """Classify the tangential contact locus through the k-tangential image.

    Curve image => the contact locus is a divisor; surface image => it is a
    divisor iff the image surface is developable (positive-dimensional
    Gauss fibers, the minimum over each prime's own projection);
    implicit-backed images cannot be probed and come back Indeterminate.
    """
    gamma_lower = tan.m_k
    if tan.n_k == 1:
        return ContactShape("DivisorViaCurveImage", gamma_lower)
    if tan.n_k != 2:
        return ContactShape("Indeterminate", gamma_lower)
    try:
        fiber = min(gauss_fiber_dim(proj, [ctx], rng)
                    for ctx, proj in tan.projections)
    except NotParametric:
        return ContactShape("Indeterminate", gamma_lower)
    if fiber > 0:
        return ContactShape("DivisorViaDevelopableImage", gamma_lower)
    return ContactShape("NotDivisorial", gamma_lower)
