"""Acceptance suite: nine exactness criteria, one test each.

Every criterion is exact (integer equality; no tolerances).  Randomized
measurements run under two independently drawn 62-bit primes and must
agree across reruns; all RNG streams are pinned to the session seed.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest.py).
"""

from __future__ import annotations

import time

from secantry.catalog import SkippedFamily, build_family, verify_all, verify_family
from secantry.hilbert import castelnuovo_bound, hilbert2
from secantry.linalg import RowReducer, derive_rng, kernel_basis, rank
from secantry.mpoly import random_poly
from secantry.terracini import expected_secant_dim, secant_dim, tangential_projection
from secantry.variety import (cone_over, join_linear, project_from,
                              projective_space, random_center,
                              rational_normal_curve, scroll, segre_pair,
                              veronese)

from seeds import SEED
from test_variety import spec_zoo


def test_criterion_1_classical_sanity(ctxs):
    # 2-uple embedding of P^3: s^(1) = 6 with defect 1, in under a second.
    rng = derive_rng(SEED, "c1")
    t0 = time.perf_counter()
    rep = secant_dim(veronese(projective_space(3), 2), 1, ctxs, rng)
    elapsed = time.perf_counter() - t0
    assert rep.chain[1] == 6
    assert rep.sigma_k == 7
    assert rep.delta_k == 1
    assert rep.agreement
    assert elapsed < 1.0


def test_criterion_2_segre_defect(ctxs):
    # Segre squares P^(k+1) x P^(k+1): delta_1 = 2 and n_1 = 2k for k = 2, 3.
    for k in (2, 3):
        rng = derive_rng(SEED, "c2", k)
        spec = segre_pair(projective_space(k + 1), projective_space(k + 1))
        rep = secant_dim(spec, 1, ctxs, rng)
        assert rep.delta_k == 2, k
        tan = tangential_projection(spec, 1, ctxs, rng)
        assert tan.n_k == 2 * k, k


def test_criterion_3_double_embedding_table(ctxs):
    # Double embeddings of minimal-degree threefolds at k = 2, 3, 4:
    # minimally k-defective with s^(k) = 4k+2 and s^(k+1) = 4k+4 < r,
    # defect 1, and a one-dimensional drop under the k-tangential
    # projection (m_k = 1, so n_k = 2 and the (k+1)-st image is a curve).
    t4 = None
    for k in (2, 3, 4):
        rng = derive_rng(SEED, "c3", k)
        entry = build_family("F13", k, "full")
        t0 = time.perf_counter()
        res = verify_family(entry, ctxs, rng)
        elapsed = time.perf_counter() - t0
        if k == 4:
            t4 = elapsed
        assert res.passed, res.mismatches
        top = res.scan.top
        assert res.scan.first_defective == k
        assert top.chain[k] == 4 * k + 2
        assert expected_secant_dim(top.r, top.n, k) - top.chain[k] == 1
        assert top.chain[k + 1] == 4 * k + 4
        assert res.tangential.n_k == 2
        assert res.tangential.m_k == 1
        tan_next = tangential_projection(entry.spec, k + 1, ctxs, rng)
        assert tan_next.n_k == 1
    assert t4 is not None and t4 < 60.0


def test_criterion_4_classification_golden_table(ctxs):
    # Every constructible family over k = 2..4 reproduces its invariant
    # table exactly; the three genus-obstructed families are skipped.
    t0 = time.perf_counter()
    results = verify_all(range(2, 5), ctxs, seed=SEED)
    elapsed = time.perf_counter() - t0
    failures = [(r.entry.family, r.entry.k, r.entry.variant, r.mismatches)
                for r in results
                if not isinstance(r, SkippedFamily) and not r.passed]
    assert failures == []
    verified = {(r.entry.family, r.entry.k)
                for r in results if not isinstance(r, SkippedFamily)}
    assert {("F1", 2), ("F1", 3), ("F1", 4), ("F2", 3), ("F4", 4),
            ("F5", 4), ("F7", 2), ("F8", 2), ("F10", 3), ("F11", 4),
            ("F12", 2), ("F13", 4), ("F14", 2)} <= verified
    skipped = {(r.family, r.k) for r in results if isinstance(r, SkippedFamily)}
    for family in ("F3", "F6", "F9"):
        for k in (2, 3, 4):
            assert (family, k) in skipped
    assert elapsed < 600.0


def test_criterion_5_bidegree_one_three_embedding(ctxs):
    # P^1 x P^2 embedded by bidegree (1,3) divisors in P^19: not
    # 3-defective, 4-defective with s^(4) = 18.
    rng = derive_rng(SEED, "c5")
    spec = segre_pair(projective_space(1), veronese(projective_space(2), 3))
    rep = secant_dim(spec, 4, ctxs, rng)
    assert rep.r == 19
    assert expected_secant_dim(rep.r, rep.n, 3) - rep.chain[3] == 0
    assert rep.chain[4] == 18
    assert rep.delta_k == 1


def test_criterion_6_chain_law(ctxs):
    # s^(h) = n_h + s^(h-1) + 1 exactly, with n_h measured independently,
    # for every corpus spec and every h up to the scan bound.
    corpus = [
        ("veronese_p3", veronese(projective_space(3), 2), 3),
        ("segre22", segre_pair(projective_space(2), projective_space(2)), 2),
        ("scroll111", scroll([1, 1, 1]), 2),
        ("f13_full", build_family("F13", 2, "full").spec, 3),
        ("f13_line", build_family("F13", 2, "line").spec, 3),
        ("f1_point", build_family("F1", 2, "point").spec, 3),
        ("f7_i0", build_family("F7", 2, "i0").spec, 3),
        ("f11", build_family("F11", 2).spec, 3),
        ("f12_wide", build_family("F12", 2, "wide").spec, 3),
        ("f14", build_family("F14", 2).spec, 3),
        ("terracini13", build_family("EX_TERRACINI_13", 4).spec, 5),
    ]
    for name, spec, k_bound in corpus:
        rng = derive_rng(SEED, "c6", name)
        rep = secant_dim(spec, k_bound, ctxs, rng)
        for h in range(1, k_bound + 1):
            if rep.chain[h - 1] >= rep.r:
                break
            tan = tangential_projection(spec, h, ctxs, rng)
            assert rep.chain[h] == tan.n_k + rep.chain[h - 1] + 1, (name, h)


def test_criterion_7_cone_laws(ctxs):
    # Ruled-join cones: s^(k)(X) = s^(k)(Y) + s + 1 for k >= s; full cones
    # with a 2s-dimensional vertex: s^(k)(X) = s^(k)(Y) + 2s + 1.  Three
    # random bases each, s in {0, 1, 2}, k <= 4.
    rng = derive_rng(SEED, "c7")
    bases = [
        rational_normal_curve(5),
        projective_space(2),
        scroll([2, 1]),
    ]
    for bi, base in enumerate(bases):
        chain_y = secant_dim(base, 4, ctxs, derive_rng(SEED, "c7y", bi)).chain
        for s in (0, 1, 2):
            block = random_center(base.ambient, s, rng)
            joined = join_linear(base, block)
            chain_j = secant_dim(joined, 4, ctxs,
                                 derive_rng(SEED, "c7j", bi, s)).chain
            for k in range(s, 5):
                assert chain_j[k] == chain_y[k] + s + 1, (bi, s, k)
            coned = cone_over(base, 2 * s)
            chain_c = secant_dim(coned, 4, ctxs,
                                 derive_rng(SEED, "c7c", bi, s)).chain
            for k in range(s, 5):
                assert chain_c[k] == chain_y[k] + 2 * s + 1, (bi, s, k)


def test_criterion_8_hilbert_bounds(ctxs):
    # Minimal-degree varieties meet the quadric-count lower bound exactly;
    # the vertex-line cone over a projected curve measures 4r - 4 at r = 6, 7.
    rng = derive_rng(SEED, "c8")
    for d in (4, 5, 6):
        curve = rational_normal_curve(d)
        _, bound = castelnuovo_bound(d, 1, d)
        assert hilbert2(curve, ctxs, rng) == bound == 2 * d + 1
    for degrees in ([2, 1], [1, 1, 1], [2, 1, 1], [2, 2]):
        spec = scroll(degrees)
        _, bound = castelnuovo_bound(spec.ambient, spec.dim, spec.degree)
        assert hilbert2(spec, ctxs, rng) == bound
    for r in (6, 7):
        center = random_center(r - 2, 0, derive_rng(SEED, "c8p", r))
        curve = project_from(scroll([r - 2]), center, degree=r - 2)
        spec = cone_over(curve, 1)
        assert hilbert2(spec, ctxs, rng) == 4 * r - 4


def test_criterion_9_property_suite(ctxs):
    # >= 200 seed-pinned randomized cases across five property families,
    # all of which must pass: Euler relation, Leibniz rule, kernel
    # residuals, frame-rank postconditions, cross-prime agreement.
    cases = 0
    p = ctxs[0].p

    rng = derive_rng(SEED, "c9-euler")
    for i in range(45):
        nv = 2 + i % 3
        d = 1 + i % 3
        f = random_poly(nv, d, rng, homogeneous=True)
        t = [rng.randrange(p) for _ in range(nv)]
        lhs = sum(t[j] * f.partial(j).eval(t, p) for j in range(nv)) % p
        assert lhs == d * f.eval(t, p) % p
        cases += 1

    rng = derive_rng(SEED, "c9-leibniz")
    for i in range(45):
        nv = 2 + i % 2
        f = random_poly(nv, 1 + i % 3, rng, homogeneous=False)
        g = random_poly(nv, 1 + (i + 1) % 3, rng, homogeneous=False)
        var = i % nv
        assert (f * g).partial(var) == f * g.partial(var) + g * f.partial(var)
        cases += 1

    rng = derive_rng(SEED, "c9-kernel")
    for i in range(45):
        ctx = ctxs[i % 2]
        nrows, ncols = 2 + i % 3, 4 + i % 3
        mat = [[rng.randrange(ctx.p) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(mat, ctx.p)
        assert len(basis) == ncols - rank(mat, ctx.p)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) % ctx.p == 0
                       for row in mat)
        cases += 1

    zoo = spec_zoo(derive_rng(SEED, "c9-zoo"))
    for name, spec in zoo:
        for ctx in ctxs:
            for s in range(2):
                pf = spec.sample(ctx, derive_rng(SEED, "c9-frame", name, ctx.p, s))
                assert rank(pf.frame, ctx.p) == spec.dim + 1, name
                red = RowReducer(ctx.p, spec.ambient + 1)
                for row in pf.frame:
                    red.add(row)
                assert not any(red.residual(pf.point)), name
                cases += 1

    for name, spec in zoo:
        rng = derive_rng(SEED, "c9-cross", name)
        chains = [secant_dim(spec, 1, [ctx], rng, trials=2).chain
                  for ctx in ctxs]
        assert chains[0] == chains[1], name
        cases += 1

    assert cases >= 200
