"""Secant dimension measurements: classical values, laws, and stability."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import pytest

from secantry import linalg, terracini, uniroots, variety
from secantry.catalog import build_family, verify_family
from secantry.linalg import RowReducer, derive_rng, make_contexts
from secantry.terracini import (contact_shape, expected_secant_dim,
                                gauss_fiber_dim, min_defective_scan,
                                secant_dim, tangential_projection)
from secantry.mpoly import parse_poly
from secantry.variety import (NotParametric, ProjectFrom, SampleExhausted, VarietySpec,
                              cone_over, hypersurface, join_linear, loads_spec, on_quadric,
                              parametric, projective_space, random_center,
                              random_cone_section, rational_normal_curve,
                              scroll, segre_pair, span_dim, veronese)

from seeds import SEED, Recording, Replaying

ROOT = Path(__file__).resolve().parents[1]
LINE = ("t0", "t1")
CUBIC = ("t0^3", "t0^2*t1", "t0*t1^2", "t1^3")


def scaled_chart(*coords: str):
    """The `scaled` parametric variety whose cone the two-variable `coords` parametrize."""
    return parametric([parse_poly(c, 2) for c in coords], scaled=True)


class TestSecantDim:
    def test_rational_normal_quintic(self, ctxs, rng):
        rep = secant_dim(rational_normal_curve(5), 1, ctxs, rng, trials=3)
        assert rep.chain == [1, 3]
        assert rep.sigma_k == 3 and rep.delta_k == 0

    def test_double_embedding_of_p3(self, ctxs, rng):
        rep = secant_dim(veronese(projective_space(3), 2), 1, ctxs, rng, trials=3)
        assert (rep.r, rep.chain, rep.sigma_k, rep.delta_k) == (9, [3, 6], 7, 1)

    def test_segre_cube_pair(self, ctxs, rng):
        rep = secant_dim(segre_pair(projective_space(3), projective_space(3)),
                         1, ctxs, rng, trials=3)
        assert rep.chain == [6, 11]
        assert rep.delta_k == 2

    def test_agreement_and_determinism(self, ctxs):
        spec = veronese(scroll([1, 1]), 2)
        a = secant_dim(spec, 2, ctxs, derive_rng(SEED, "agree"), trials=3)
        b = secant_dim(spec, 2, ctxs, derive_rng(SEED, "agree"), trials=3)
        assert a == b
        assert a.agreement
        assert a.primes == [c.p for c in ctxs]

    @pytest.mark.parametrize("seed", [0, 4])
    def test_disagreement_is_flagged_and_absorbed(self, seed):
        # Under the 5-bit primes 23 and 29 a single trial of F10 k=3 falls
        # short at these seeds: the flag records it, and the maxima still
        # read the true chain and span.
        ctxs = make_contexts(0, bits=5)
        assert [c.p for c in ctxs] == [23, 29]
        rep = secant_dim(build_family("F10", 3).spec, 3, ctxs,
                         derive_rng(seed, "agree"), trials=1)
        assert not rep.agreement
        assert (rep.chain, rep.r) == ([3, 7, 11, 14], 15)

    @pytest.mark.parametrize("short", [0, 1])
    def test_span_keeps_the_larger_prime(self, ctxs, rng, monkeypatch, short):
        # One prime's span falls a rank short; r is the other prime's, and
        # the flag records the disagreement.  A quadric surface solves for a
        # root, so each prime runs its own measurement, span included.
        span = terracini.span_dim
        monkeypatch.setattr(terracini, "span_dim", lambda spec, ctx, rng, samples=():
                            span(spec, ctx, rng, samples) - (ctx.p == ctxs[short].p))
        rep = secant_dim(hypersurface(3, parse_poly("x0*x3 - x1*x2", 4)), 1, ctxs, rng)
        assert rep.r == 3 and not rep.agreement

    def test_expected_dim_formula(self):
        assert expected_secant_dim(9, 3, 1) == 7
        assert expected_secant_dim(5, 3, 1) == 5
        assert expected_secant_dim(17, 3, 3) == 15


class TestSpanReuse:
    """The span reads the points the chain trials drew before drawing more."""

    def test_spanning_points_draw_nothing(self, ctxs, rng, monkeypatch):
        spec = rational_normal_curve(3)
        samples = [spec.sample(ctxs[0], rng) for _ in range(4)]
        state = rng.getstate()

        def refuse(self, ctx, rng):
            raise AssertionError("span_dim drew a sample")

        monkeypatch.setattr(VarietySpec, "sample", refuse)
        assert span_dim(spec, ctxs[0], rng, samples=samples) == 4
        assert rng.getstate() == state

    # The twisted cubic's 5 x 2 chain points fill P^3; those of the Segre
    # P^3 x P^3 fall short of its P^15, so the span draws the rest.
    @pytest.mark.parametrize("make, k, r", [
        (lambda: rational_normal_curve(3), 1, 3),
        (lambda: segre_pair(projective_space(3), projective_space(3)), 1, 15),
    ], ids=["twisted-cubic", "segre-p3-p3"])
    def test_top_level_draws_per_prime(self, ctxs, monkeypatch, make, k, r):
        spec = make()
        drawn = Counter()
        sample = VarietySpec.sample

        def counting(self, ctx, rng):
            if self is spec:
                drawn[ctx.p] += 1
            return sample(self, ctx, rng)

        monkeypatch.setattr(VarietySpec, "sample", counting)
        trials = 5
        rep = secant_dim(spec, k, ctxs, derive_rng(SEED, "draws"), trials)
        assert rep.r == r and rep.agreement
        # The chain trials and the span draw once, modulo p1*p2, for both
        # primes: the span tops up with at least the points its rank still
        # lacks and reads at most ambient + 2 points in all.
        chain_draws = trials * (k + 1)
        assert set(drawn) == {math.prod(c.p for c in ctxs)}
        low, high = (max(chain_draws, spec.ambient + extra) for extra in (1, 2))
        assert low <= sum(drawn.values()) <= high

    def test_wrong_root_surfaces(self, ctxs, rng, monkeypatch):
        # A top-up draw that yields a non-root raises instead of being
        # resampled, as a chain draw does, at every root-solving node.
        specs = [hypersurface(2, parse_poly("x0^2 + x1^2 - x2^2", 3)),
                 on_quadric(parse_poly("x0^3 + x1^3 - x2^3 + x3*x4*x5", 6)),
                 random_cone_section(veronese(projective_space(2), 2), 2, rng)]
        samples = [spec.sample(ctxs[0], rng) for spec in specs]

        def value(f, t, p):
            return sum(c * t ** i for i, c in enumerate(f)) % p

        monkeypatch.setattr(uniroots, "roots", lambda f, p, rng: [
            next(t for t in range(len(f)) if value(f, t, p))])
        for spec, pf in zip(specs, samples):
            with pytest.raises(ArithmeticError, match="does not satisfy"):
                span_dim(spec, ctxs[0], rng, samples=[pf])
            with pytest.raises(ArithmeticError, match="does not satisfy"):
                secant_dim(spec, 1, ctxs, rng)


class TestDefect:
    def test_linear_space_never_defective(self, ctxs, rng):
        for k in (1, 2, 3):
            assert secant_dim(projective_space(2), k, ctxs, rng, trials=2).delta_k == 0

    def test_bilinear_by_cubics_embedding(self, ctxs, rng):
        # P^1 x P^2 by divisors of bidegree (1,3): 3-defect 0, 4-defect 1.
        spec = segre_pair(projective_space(1), veronese(projective_space(2), 3))
        assert secant_dim(spec, 3, ctxs, rng, trials=3).delta_k == 0
        rep = secant_dim(spec, 4, ctxs, rng, trials=3)
        assert rep.delta_k == 1 and rep.chain[4] == 18


class TestScan:
    def test_minimal_threefold_not_defective(self, ctxs):
        # Secants of the minimal threefold fill P^5 immediately; confirm the
        # chain with a from-scratch stacked-rank oracle.
        spec = scroll([1, 1, 1])
        rng = derive_rng(SEED, "scan-oracle")
        scan = min_defective_scan(spec, 2, ctxs, rng, trials=3)
        assert scan.first_defective is None
        red = RowReducer(ctxs[0].p)
        oracle_chain = []
        for _ in range(3):
            pf = spec.sample(ctxs[0], derive_rng(SEED, "oracle", len(oracle_chain)))
            for row in pf.frame:
                red.add(row)
            oracle_chain.append(red.rank - 1)
        assert oracle_chain == scan.top.chain

    def test_double_embedding_minimal_threefold(self, ctxs, rng):
        entry = build_family("F13", 3, "full")
        scan = min_defective_scan(entry.spec, 3, ctxs, rng, trials=3)
        assert scan.first_defective == 3
        assert scan.top.chain == [3, 7, 11, 14]

    def test_fibered_join_over_curve(self, ctxs, rng):
        # Vertex block of dimension 2k over a curve: minimally k-defective.
        entry = build_family("F11", 2)
        scan = min_defective_scan(entry.spec, 3, ctxs, rng, trials=2)
        assert scan.first_defective == 2


class TestTangential:
    def test_below_critical_order_image_is_threefold(self, ctxs, rng):
        spec = build_family("F13", 3, "full").spec
        for h in (1, 2):
            assert tangential_projection(spec, h, ctxs, rng).n_k == 3

    def test_vertex_point_family_gives_curve_image(self, ctxs, rng):
        spec = build_family("F1", 2, "point").spec
        tan = tangential_projection(spec, 2, ctxs, rng)
        assert tan.n_k == 1 and tan.m_k == 2

    def test_vertex_line_family_gives_surface_image(self, ctxs, rng):
        spec = build_family("F1", 2, "line").spec
        assert tangential_projection(spec, 2, ctxs, rng).n_k == 2

    def test_projected_spec_composes(self, ctxs, rng):
        spec = veronese(projective_space(3), 2)
        tan = tangential_projection(spec, 1, ctxs, rng)
        assert tan.n_k == 2
        pf = tan.projected_spec.sample(ctxs[0], rng)
        assert len(pf.frame) == tan.n_k + 1

    def test_projected_spec_keeps_the_winning_prime(self, ctxs, rng, monkeypatch):
        # When the second prime reaches the larger n_k, the projection must
        # use that prime's center, not mix it with the first prime's.  Every
        # trial modulo p1*p2 meets a non-unit pivot, as when the primes
        # disagree, so each reruns under each prime, and every chain trial
        # under the first prime falls one short at order k = 1.
        real = terracini._chain_once

        def first_prime_unlucky(spec, k, ctx, rng):
            if ctx not in ctxs:
                raise ValueError("base is not invertible for the given modulus")
            trial = real(spec, k, ctx, rng)
            if ctx is ctxs[0]:
                trial.chain[1] -= 1
            return trial

        monkeypatch.setattr(terracini, "_chain_once", first_prime_unlucky)
        tan = tangential_projection(veronese(projective_space(3), 2), 1, ctxs, rng)
        assert tan.n_k == 2
        assert tan.projected_spec.bound_p == ctxs[1].p
        pf = tan.projected_spec.sample(ctxs[1], rng)
        assert len(pf.frame) == tan.n_k + 1

    def test_trial_gaining_no_rank_keeps_no_projection(self):
        # F11 k=2 at 7-bit seed 153: the best full-rank trial under 107 reads
        # chain [3, 7, 7, 9], no gain at k = 2, so only 89's projection stands.
        res = verify_family(build_family("F11", 2), make_contexts(153, bits=7),
                            derive_rng(153, "verify", "F11", 2, "default"), trials=1)
        tan = res.tangential
        assert [(ctx.p, proj.dim) for ctx, proj in tan.projections] == [(89, 1)]
        assert tan.n_k == 1 and tan.projected_spec.bound_p == 89

    def test_no_prime_gaining_rank_is_exhausted(self, ctxs, rng, monkeypatch):
        real = terracini._chain_once

        def no_gain(spec, k, ctx, rng):
            trial = real(spec, k, ctx, rng)
            trial.chain[1] = trial.chain[0]
            return trial

        monkeypatch.setattr(terracini, "_chain_once", no_gain)
        with pytest.raises(SampleExhausted, match="gained rank at order 1"):
            tangential_projection(veronese(projective_space(3), 2), 1, ctxs, rng)

    @pytest.mark.parametrize("k", [2, 3])
    def test_short_report_is_refused(self, ctxs, rng, k):
        # n_k reads chain[k] of every trial: a report measured to order 1
        # holds chain[0..1] only, so k = 2 (one order short) and k = 3 (two
        # short) must be refused before any chain is read.
        spec = veronese(projective_space(2), 2)
        rep = secant_dim(spec, 1, ctxs, rng)
        with pytest.raises(ValueError, match="measured to order 1"):
            tangential_projection(spec, k, ctxs, rng, report=rep)


class TestChainLaw:
    CORPUS = [
        ("veronese_p3", lambda: veronese(projective_space(3), 2), 3),
        ("segre", lambda: segre_pair(projective_space(2), projective_space(2)), 2),
        ("f13", lambda: build_family("F13", 2, "full").spec, 3),
        ("f12", lambda: build_family("F12", 2, "narrow").spec, 3),
    ]

    @staticmethod
    def _fresh_n_k(spec, h, ctxs, rng):
        """n_h from fresh draws: project one more frame from the span of h
        frames per prime and take the image rank, the maximum over primes."""
        dims = []
        for ctx in ctxs:
            rows = [row for _ in range(h) for row in spec.sample(ctx, rng).frame]
            proj = ProjectFrom(spec, linalg.row_basis(rows, ctx.p), bound_p=ctx.p)
            kmap = proj.kernel_map(ctx)
            image = [linalg.mat_vec(kmap, row, ctx.p) for row in spec.sample(ctx, rng).frame]
            dims.append(linalg.rank(image, ctx.p) - 1)
        return max(dims)

    @pytest.mark.parametrize("name,make,k_bound", CORPUS)
    def test_tangential_image_matches_chain_increment(self, ctxs, name, make, k_bound):
        # s^(h) = n_h + s^(h-1) + 1 with n_h measured independently, and the
        # n_h read off the chain's own trials equals it.
        spec = make()
        rng = derive_rng(SEED, "chainlaw", name)
        rep = secant_dim(spec, k_bound, ctxs, rng, trials=2)
        for h in range(1, k_bound + 1):
            if rep.chain[h - 1] >= rep.r:
                break
            n_h = self._fresh_n_k(spec, h, ctxs, rng)
            assert rep.chain[h] == n_h + rep.chain[h - 1] + 1
            assert tangential_projection(spec, h, ctxs, rng, report=rep).n_k == n_h

    @pytest.mark.parametrize("name,make,k_bound", CORPUS)
    def test_filling_step_and_subadditivity(self, ctxs, name, make, k_bound):
        spec = make()
        rng = derive_rng(SEED, "fill", name)
        rep = secant_dim(spec, k_bound, ctxs, rng, trials=2)
        for h in range(k_bound):
            assert rep.chain[h + 1] <= rep.chain[h] + spec.dim + 1
            if rep.chain[h] == rep.r - 1:
                assert rep.chain[h + 1] == rep.r


class TestConeLaws:
    def test_ruled_join_adds_vertex_plus_one(self, ctxs):
        # s^(k)(join) = s^(k)(Y) + s + 1 for k >= s, any base Y.
        rng = derive_rng(SEED, "join-law")
        base = rational_normal_curve(4)
        chain_y = secant_dim(base, 3, ctxs, rng, trials=2).chain
        for s in (0, 1, 2):
            block = random_center(base.ambient, s, rng)
            chain_x = secant_dim(join_linear(base, block), 3, ctxs, rng, trials=2).chain
            for k in range(s, 4):
                assert chain_x[k] == chain_y[k] + s + 1

    def test_full_cone_adds_vertex_plus_one_everywhere(self, ctxs):
        rng = derive_rng(SEED, "cone-law")
        base = scroll([2, 1])
        chain_y = secant_dim(base, 3, ctxs, rng, trials=2).chain
        for v in (0, 2, 4):
            chain_x = secant_dim(cone_over(base, v), 3, ctxs, rng, trials=2).chain
            assert chain_x == [c + v + 1 for c in chain_y]


def _gauss_rows_oracle(spec, cmap, first, ctx, rng):
    """The Gauss map's constraint rows as first built: c + 1 passes, the first
    over the value row's derivatives d1, which lie in the frame."""
    p, c, n, ncoords = ctx.p, cmap.nvars, spec.dim, len(cmap.coords)
    for _ in range(linalg.SAMPLE_RETRIES):
        t = [rng.randrange(p) for _ in range(c)]
        value, d1 = cmap.partial_rows(t, p)
        tangent = linalg.fold([value] + d1, p)
        if tangent.rank != n + 1:
            continue
        constraints = []
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
        return constraints
    raise AssertionError("no generic chart point")


class TestGaussFibers:
    # The specs whose golden reports read a Gauss fiber, at their order k:
    # each prime's projection chart gives the same rows without the d1 pass.
    @pytest.mark.parametrize("path, k", [
        ("specs/veronese-p3.variety.json", 1),
        ("tests/specs/family-7-k2.variety.json", 2),
        ("tests/specs/family-10-k2.variety.json", 2),
        ("tests/specs/family-11-k2.variety.json", 2),
        ("tests/specs/ruled-join-s23.variety.json", 1),
    ])
    def test_rows_match_the_value_row_pass(self, path, k, ctxs, rng, monkeypatch):
        spec = loads_spec((ROOT / path).read_text())
        tan = tangential_projection(spec, k, ctxs, rng)
        ranked, rank = [], linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda mat, p: ranked.append(mat) or rank(mat, p))
        for ctx, proj in tan.projections:
            cmap = proj.chart(ctx)
            first = [[co.partial(j) for j in range(cmap.nvars)] for co in cmap.coords]
            ranked.clear()
            terracini._gauss_fiber_once(proj, cmap, ctx, derive_rng(SEED, path, ctx.p))
            want = _gauss_rows_oracle(proj, cmap, first, ctx, derive_rng(SEED, path, ctx.p))
            assert want and ranked == [want]

    def test_plane(self, ctxs, rng):
        assert gauss_fiber_dim(projective_space(2), ctxs, rng) == 2

    def test_rank_deficient_chart_exhausts_the_sampler(self, ctxs, rng):
        # A conic declared as a surface: every chart point's frame has rank
        # 2 < 3, so the Gauss map ends in the sampler's documented failure.
        spec = loads_spec('{"op":"parametric","nvars":2,"coords":["1","t0+t1","(t0+t1)^2"]}')
        with pytest.raises(SampleExhausted):
            gauss_fiber_dim(spec, ctxs, rng)

    def test_cone_over_twisted_cubic(self, ctxs, rng):
        assert gauss_fiber_dim(cone_over(rational_normal_curve(3), 0),
                               ctxs, rng) == 1

    def test_smooth_quadric(self, ctxs, rng):
        # Hand-scale oracle: for the chart (1, s, t, st) the nonconstant
        # 3x3 minors of the frame are +-s, +-t, +-st, whose gradient matrix
        # [[1,0],[0,1],[t,s]] has rank 2, so the Gauss map is finite.
        assert gauss_fiber_dim(segre_pair(projective_space(1),
                                          projective_space(1)), ctxs, rng) == 0

    # Charts with two fiber directions (two scalings, or a scaling and a
    # join's): the frame-rank check and n - rank absorb both.
    @pytest.mark.parametrize("spec, fiber", [
        (segre_pair(scaled_chart(*LINE), scaled_chart(*LINE)), 0),
        (segre_pair(scaled_chart(*CUBIC), scaled_chart(*LINE)), 0),
        (veronese(segre_pair(scaled_chart(*LINE), scaled_chart(*LINE)), 2), 0),
        # A one-row block joins each point of the twisted cubic to one new
        # coordinate point: the cone over it, whose Gauss fibers are its lines.
        (join_linear(scaled_chart(*CUBIC), [[1, 2, 3, 4]]), 1),
    ], ids=["quadric", "cubic-times-line", "v2-of-quadric", "cone-over-cubic"])
    def test_scaled_charts(self, spec, fiber, ctxs, rng):
        assert gauss_fiber_dim(spec, ctxs, rng) == fiber

    def test_scroll_surface_not_developable(self, ctxs, rng):
        assert gauss_fiber_dim(scroll([2, 1]), ctxs, rng) == 0

    def test_implicit_tree_rejected(self, ctxs, rng):
        from secantry.mpoly import random_poly
        from secantry.variety import hypersurface
        spec = hypersurface(3, random_poly(4, 2, rng))
        with pytest.raises(NotParametric):
            gauss_fiber_dim(spec, ctxs, rng)


class TestContactShape:
    def test_vertex_point_family(self, ctxs, rng):
        spec = build_family("F1", 2, "point").spec
        shape = contact_shape(tangential_projection(spec, 2, ctxs, rng), rng)
        assert shape.classification == "DivisorViaCurveImage"
        assert shape.gamma_lower == 2

    def test_double_embedding_family(self, ctxs, rng):
        spec = build_family("F13", 2, "full").spec
        shape = contact_shape(tangential_projection(spec, 2, ctxs, rng), rng)
        assert shape.classification == "NotDivisorial"
        assert shape.gamma_lower == 1

    def test_secant_line_projection_family(self, ctxs, rng):
        tan = tangential_projection(build_family("F14", 2).spec, 2, ctxs, rng)
        assert contact_shape(tan, rng).classification == "NotDivisorial"

    def test_developable_image(self, ctxs, rng):
        tan = tangential_projection(build_family("F11", 2).spec, 2, ctxs, rng)
        assert contact_shape(tan, rng).classification == "DivisorViaDevelopableImage"

    # F11's image is developable.  Under 7-bit primes with one trial, the
    # measurement modulo p1*p2 can meet a non-unit pivot, in its trial or its
    # span, and rerun under each prime, and then one prime's best projection
    # can fall short of n_k: at seed 102 the second prime's (a span pivot) and
    # at seed 186 the first prime's (a trial pivot), each to a curve whose
    # Gauss fiber is 0.  Only projections reaching n_k count.  At seed 0 both
    # primes' reruns reach n_k.
    @pytest.mark.parametrize("seed, dims", [(0, [2, 2]), (102, [1, 2]), (186, [1, 2])])
    def test_short_projection_is_not_read_at_small_primes(self, seed, dims):
        entry = build_family("F11", 2)
        rng = derive_rng(seed, "verify", "F11", 2, entry.variant)
        tan = verify_family(entry, make_contexts(seed, bits=7), rng, trials=1).tangential
        assert tan.n_k == 2
        assert sorted(proj.dim for _, proj in tan.projections) == dims
        assert contact_shape(tan, rng).classification == "DivisorViaDevelopableImage"

    def test_implicit_image_is_indeterminate(self, ctxs, rng):
        tan = tangential_projection(build_family("F2", 3, "cone").spec, 3, ctxs, rng)
        assert contact_shape(tan, rng).classification == "Indeterminate"


class TestCrossPrime:
    def test_chains_agree_between_primes(self, ctxs):
        rng = derive_rng(SEED, "crossprime")
        specs = [veronese(projective_space(3), 2),
                 build_family("F13", 2, "full").spec,
                 build_family("F12", 2, "wide").spec]
        for spec in specs:
            per_prime = [secant_dim(spec, 2, [ctx], rng, trials=2).chain
                         for ctx in ctxs]
            assert per_prime[0] == per_prime[1]


def _monic(row, p):
    """`row` mod p divided by its first entry nonzero mod p."""
    lead = next(a for a in row if a % p)
    inv = pow(lead, -1, p)
    return [a * inv % p for a in row]


class TestProductTrials:
    """Chain trials of root-free trees run once modulo p1*p2 (5-bit primes 23, 29)."""

    FIVE_BIT = make_contexts(0, bits=5)

    @staticmethod
    def record_moduli(monkeypatch) -> list:
        """Patch `_chain_once` to record each trial's modulus and any ValueError's text."""
        calls, real = [], terracini._chain_once

        def spy(spec, k, ctx, rng):
            calls.append(ctx.p)
            try:
                return real(spec, k, ctx, rng)
            except ValueError as exc:
                calls.append(str(exc))
                raise

        monkeypatch.setattr(terracini, "_chain_once", spy)
        return calls

    # At seed 1 no pivot of these trees' pass modulo 23*29 is a non-unit.
    @pytest.mark.parametrize("make, k", [
        (lambda: build_family("F10", 2).spec, 3),
        (lambda: build_family("F13", 2, "full").spec, 2),
        (lambda: segre_pair(projective_space(1), scroll([1, 2])), 2),
        (lambda: cone_over(rational_normal_curve(3), 1), 2),
        (lambda: ProjectFrom(veronese(projective_space(2), 2), [[1, 2, 3, 4, 5, 6]]), 2),
    ], ids=["join-linear", "veronese", "segre", "cone", "projection"])
    def test_product_trial_is_each_primes_trial(self, make, k):
        spec = make()
        both = variety._Product(23 * 29)
        rec = Recording(derive_rng(1, "product"))
        t = terracini._chain_once(spec, k, both, rec)
        for ctx in self.FIVE_BIT:
            p = ctx.p
            per = terracini._chain_once(spec, k, ctx, Replaying(rec.drawn, p))
            assert per.chain == t.chain
            assert per.basis == [(c, [a % p for a in row]) for c, row in t.basis]
            # Frames agree up to a unit per row: where a pivot coefficient is a
            # nonzero multiple of p, the product pass scales the row it reduces.
            assert [(pf.point, [_monic(row, p) for row in pf.frame]) for pf in per.samples] \
                == [([a % p for a in pf.point], [_monic(row, p) for row in pf.frame])
                    for pf in t.samples]

    def test_product_trial_is_filed_under_each_prime(self, monkeypatch):
        calls = self.record_moduli(monkeypatch)
        # At seed 1 no pivot of the cone's trial or span modulo 23*29 is a non-unit.
        rep = secant_dim(cone_over(rational_normal_curve(3), 1), 2, self.FIVE_BIT,
                         derive_rng(1, "product"), trials=1)
        assert calls == [23 * 29]
        (t,) = rep.draws[23]
        assert rep.draws[29] is rep.draws[23] and t.chain == rep.chain

    # The pass modulo p1*p2 is discarded whole at its first non-unit pivot:
    # F10 at seed 2 (primes 31 and 29) meets it in its third trial, F11 at
    # seed 0 (23 and 29) in the span after its three trials.  Each prime then
    # runs every trial and its span; no further pass runs modulo p1*p2.
    @pytest.mark.parametrize("family, seed, trials, product", [
        ("F10", 2, 5, [899] * 3 + ["base is not invertible for the given modulus"]),
        ("F11", 0, 3, [667] * 3 + ["span mod 667"]),
    ], ids=["in-trial", "in-span"])
    def test_failed_product_pass_is_not_resumed(self, monkeypatch, family, seed, trials, product):
        calls = self.record_moduli(monkeypatch)
        span = terracini.span_dim
        monkeypatch.setattr(terracini, "span_dim", lambda spec, ctx, rng, samples=(): (
            calls.append(f"span mod {ctx.p}"), span(spec, ctx, rng, samples))[1])
        ctxs = make_contexts(seed, bits=5)
        rep = secant_dim(build_family(family, 2).spec, 2, ctxs, derive_rng(seed, "product"), trials)
        p1, p2 = (c.p for c in ctxs)
        assert p1 * p2 == product[0]
        assert calls == product + ([p1] * trials + [f"span mod {p1}"]
                                   + [p2] * trials + [f"span mod {p2}"])
        assert rep.draws[p1] is not rep.draws[p2]

    def test_non_unit_pivot_reruns_under_each_prime(self, monkeypatch):
        # F13 k=2 `line` at seed 11 (primes 17 and 31): the pass modulo 17*31
        # meets a non-unit pivot, so its one trial reruns under each prime.
        calls = self.record_moduli(monkeypatch)
        ctxs = make_contexts(11, bits=5)
        rep = secant_dim(build_family("F13", 2, "line").spec, 3, ctxs,
                         derive_rng(11, "verify", "F13", 2, "line"), trials=1)
        assert calls == [17 * 31, "base is not invertible for the given modulus", 17, 31]
        for p in (17, 31):
            (t,) = rep.draws[p]
            assert all(a < p for pf in t.samples for row in [pf.point, *pf.frame] for a in row)
        assert rep.draws[17][0].samples is not rep.draws[31][0].samples

    def test_root_solving_tree_keeps_each_prime(self, monkeypatch):
        moduli = set()
        roots = uniroots.roots

        def prime_roots(f, p, rng):  # Z/(23*29) is no field: solve under each prime
            assert p in (23, 29), f"roots asked for modulo {p}"
            moduli.add(p)
            return roots(f, p, rng)

        monkeypatch.setattr(uniroots, "roots", prime_roots)
        calls = self.record_moduli(monkeypatch)
        secant_dim(build_family("F1", 2, "line").spec, 2, self.FIVE_BIT,
                   derive_rng(0, "product"), trials=2)
        assert moduli == {23, 29}
        assert calls == [23, 23, 29, 29]

    def test_one_prime_never_uses_a_product(self, monkeypatch):
        used = set()
        sample = VarietySpec.sample
        monkeypatch.setattr(VarietySpec, "sample", lambda self, ctx, rng: (
            used.add(id(ctx)), sample(self, ctx, rng))[1])
        rep = secant_dim(build_family("F10", 2).spec, 3, self.FIVE_BIT[:1],
                         derive_rng(1, "product"), trials=2)
        assert used == {id(self.FIVE_BIT[0])} and list(rep.draws) == [23]
