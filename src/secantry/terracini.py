"""Secant-variety measurements via Terracini's lemma.

Terracini's lemma identifies the tangent space of the k-th secant variety
at a general point with the span of tangent spaces at k+1 general points
of X.  In the affine-cone model every tangent space is a frame of n+1
rows, so s^(k) is simply rank(stacked frames of k+1 samples) - 1.  The image
of the k-tangential projection has tangent space T_{k+1} mod span(T_1..T_k),
so its dimension is n_k = s^(k) - s^(k-1) - 1 on a trial whose first k frames
have full rank s^(k-1) + 1 (Chiantini-Ciliberto, Trans. AMS 354 (2002)).

Randomization over a 62-bit prime field has one-sided error: an unlucky
point or prime can only lower a rank.  Every dimension is therefore the
maximum over independent trials, repeated under two independently drawn
primes, with an `agreement` flag recording whether all runs concurred.

A measurement (chain trials, then span) runs under `variety.per_modulus`: once
modulo p1*p2 on a tree that solves for no roots, filed under each prime, and
rerun whole per prime when that pass fails or the tree solves roots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from . import linalg
from .linalg import PrimeContext, RowReducer
from .mpoly import PolyMap
from .variety import (NotParametric, PointFrame, ProjectFrom, SampleExhausted, VarietySpec,
                      _Product, per_modulus, span_dim)

DEFAULT_TRIALS = 5
MAX_TRIALS = 100  # the CLI's cap: a scan holds every trial's samples and pivot rows


def expected_secant_dim(r: int, n: int, k: int) -> int:
    """The expected dimension min(r, n(k+1) + k) of the k-th secant variety."""
    return min(r, n * (k + 1) + k)


class Trial(NamedTuple):
    """A chain trial: s^(0..k), the pivots of its frames in the order reached, and
    its samples in draw order (the span reads their points and `hilbert2` their frames).
    A measurement modulo p1*p2 files one list under both primes, rows mod p1*p2."""
    chain: list[int]
    basis: list[tuple[int, list[int]]]  # (pivot column, pivot row)
    samples: list[PointFrame]


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
    # Each prime's chain trials by p, one list shared by a run mod p1*p2 (verify_family drops them).
    draws: dict[int, list[Trial]] = field(repr=False, compare=False)


@dataclass
class ScanResult:
    """The one report measured to k_max; order h compares top.chain[h] with sigma_h."""
    first_defective: int | None
    top: SecantReport  # secant_dim(spec, k_max, ...), holding its draws


@dataclass
class TangentialReport:
    """Image dimension of a general k-tangential projection.

    `projections` pairs each prime whose trials reached a full-rank center and
    gained rank past it with its projection (bound to it, of dimension its n_k);
    `projected_spec` is the maximum.
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


def _chain_once(spec: VarietySpec, k: int, ctx: PrimeContext | _Product,
                rng: random.Random) -> Trial:
    """One trial: ranks of stacked frames of 1..k+1 samples, minus 1."""
    red, chain, samples = RowReducer(ctx.p), [], []
    for _ in range(k + 1):
        samples.append(pf := spec.sample(ctx, rng))
        for row in pf.frame:
            red.add(row)
        chain.append(red.rank - 1)
    return Trial(chain, list(red.pivots.items()), samples)


def secant_dim(spec: VarietySpec, k: int, ctxs: list[PrimeContext],
               rng: random.Random, trials: int = DEFAULT_TRIALS) -> SecantReport:
    """Measure the secant dimension chain s^(0), ..., s^(k).

    Each s^(h) is the maximum over `trials` independent trials and all
    primes of rank(stacked frames of h+1 samples) - 1.  A measurement runs the
    trials, then the span r + 1, which reads their points first and draws more
    only while short of full rank.  It runs under `variety.per_modulus`: with two
    or more primes and no root-solving node, once modulo their product, filed
    under each prime, and per prime if that pass fails.  Draws are shared across
    measurements, never within one, so the trials stay independent; a reused
    point lies on X and can only lower the span's rank, the one-sided error the
    maxima absorb.
    """
    if k < 0 or trials < 1:
        raise ValueError("need k >= 0 and trials >= 1")
    def run(ctx: PrimeContext | _Product, _given) -> tuple[list[Trial], int]:  # one measurement
        ts = [_chain_once(spec, k, ctx, rng) for _ in range(trials)]
        return ts, span_dim(spec, ctx, rng, samples=[pf for t in ts for pf in t.samples])

    runs = per_modulus(spec, ctxs, run)
    draws = {p: ts for p, (ts, _) in runs.items()}  # as on SecantReport
    r = max(span for _, span in runs.values()) - 1
    chains = [t.chain for ts in draws.values() for t in ts]
    chain = [max(c[h] for c in chains) for h in range(k + 1)]
    agreement = all(c == chain for c in chains) and all(s - 1 == r for _, s in runs.values())
    sigma_k = expected_secant_dim(r, spec.dim, k)
    return SecantReport(k=k, r=r, n=spec.dim, chain=chain, sigma_k=sigma_k,
                        delta_k=sigma_k - chain[k], trials=trials, primes=[c.p for c in ctxs],
                        agreement=agreement, draws=draws)


def min_defective_scan(spec: VarietySpec, k_max: int, ctxs: list[PrimeContext],
                       rng: random.Random, trials: int = DEFAULT_TRIALS) -> ScanResult:
    """Find the smallest k <= k_max at which the variety is defective.

    One chain, measured to k_max, is read at every order.  Defective at k
    means s^(k) < sigma_k; as sigma_k = min(r, n(k+1) + k) <= r, that implies
    s^(k) < r, so a variety whose secants fill the span is never called defective.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    top = secant_dim(spec, k_max, ctxs, rng, trials)
    first = next((h for h in range(1, k_max + 1)
                  if top.chain[h] < expected_secant_dim(top.r, top.n, h)), None)
    return ScanResult(first_defective=first, top=top)


def tangential_projection(spec: VarietySpec, k: int, ctxs: list[PrimeContext], rng: random.Random,
                          report: SecantReport | None = None) -> TangentialReport:
    """Measure n_k = dim of the image of a general k-tangential projection.

    Reads the trials of `report`, measured to order >= k (default: secant_dim);
    a report of lower order or with no trials under a prime of `ctxs` raises ValueError.
    By Terracini's lemma n_k = chain[k] - s^(k-1) - 1 on a trial whose first k
    frames reach the accepted s^(k-1) + 1 (Chiantini-Ciliberto, Weakly
    defective varieties, Trans. AMS 354 (2002)); only such full-rank centers
    count, so n_k errs only low when the accepted s^(k-1) is correct, as it is
    when it reaches min(R, n*k + k - 1), R the ambient dimension.  Below that
    an s^(k-1) read low can read n_k high.  Each prime projects from the first
    k frames of its best such trial, unless that trial gained no rank at order
    k (an image of dimension -1); projected_spec reached the maximum, the first
    prime's on a tie, and is bound to its prime.  SampleExhausted when no prime
    keeps a projection.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    report = report or secant_dim(spec, k, ctxs, rng)
    if report.k < k:
        raise ValueError(f"report measured to order {report.k}; n_{k} needs order {k}")
    if any(ctx.p not in report.draws for ctx in ctxs):
        raise ValueError("report holds no trials under some prime; measure it with secant_dim")
    s = report.chain[k - 1]
    if s >= report.r:
        raise ValueError("tangent span fills the span of the variety; nothing to project")
    projections = []
    for ctx in ctxs:
        full = [t for t in report.draws[ctx.p] if t.chain[k - 1] == s]
        # A best trial gaining no rank at order k would project to dimension -1.
        if full and (top := max(full, key=lambda t: t.chain[k])).chain[k] > s:
            # The first k frames' row basis: the first s + 1 pivots, column-sorted.
            center = [row for _, row in sorted(top.basis[:s + 1])]
            projections.append((ctx, ProjectFrom(spec, center, dim=top.chain[k] - s - 1,
                                                 bound_p=ctx.p)))
    if not projections:
        raise SampleExhausted(f"no full-rank trial gained rank at order {k}")
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
    # spec.chart raises NotParametric for implicit-backed trees.
    return min(_gauss_fiber_once(spec, spec.chart(ctx), ctx, rng) for ctx in ctxs)


def _gauss_fiber_once(spec: VarietySpec, cmap: PolyMap, ctx: PrimeContext,
                      rng: random.Random) -> int:
    p, c, n = ctx.p, cmap.nvars, spec.dim
    # The chart's first partials along each t_i; an all-zero one adds no constraint.
    along = ([co.partial(i) for co in cmap.coords] for i in range(c))
    first = [PolyMap(c, d) for d in along if any(f.terms for f in d)]
    for _ in range(linalg.SAMPLE_RETRIES):
        t = [rng.randrange(p) for _ in range(c)]
        value, d1 = cmap.partial_rows(t, p)
        tangent = linalg.fold([value] + d1, p)
        if tangent.rank != n + 1:
            continue
        # The frame holds the value and its first partials d1.  The value's
        # j-derivatives are d1 again, zero mod the frame, so only the j-derivatives
        # of d1, the second partials, constrain v: one row per t_i and coordinate.
        residuals = [[tangent.residual(d) for d in dmap.partial_rows(t, p)[1]] for dmap in first]
        constraints = [list(row) for res in residuals for row in zip(*res) if any(row)]
        # Kernel dimension c - rank, less the chart's c - n fiber directions.
        return n - linalg.rank(constraints, p)
    raise SampleExhausted(f"Gauss map: {linalg.SAMPLE_RETRIES} chart points of frame rank < {n + 1}")


def contact_shape(tan: TangentialReport, rng: random.Random) -> ContactShape:
    """Classify the tangential contact locus through the k-tangential image.

    Curve image => the contact locus is a divisor; surface image => it is a
    divisor iff the image surface is developable (positive-dimensional
    Gauss fibers, the minimum over each prime's own projection that reached
    n_k); implicit-backed images cannot be probed and come back Indeterminate.
    """
    gamma_lower = tan.m_k
    if tan.n_k == 1:
        return ContactShape("DivisorViaCurveImage", gamma_lower)
    if tan.n_k != 2:
        return ContactShape("Indeterminate", gamma_lower)
    try:
        fiber = min(gauss_fiber_dim(proj, [ctx], rng)
                    for ctx, proj in tan.projections if proj.dim == tan.n_k)
    except NotParametric:
        return ContactShape("Indeterminate", gamma_lower)
    if fiber > 0:
        return ContactShape("DivisorViaDevelopableImage", gamma_lower)
    return ContactShape("NotDivisorial", gamma_lower)
