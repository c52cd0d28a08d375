"""Degree-2 Hilbert measurements and Castelnuovo-type bounds."""

from __future__ import annotations

from collections import Counter

import pytest

from secantry import catalog
from secantry.hilbert import (MinimalDegreeViolated, castelnuovo_bound,
                              check_quadric_bounds, hilbert2, hilbert_report)
from secantry.linalg import derive_rng, make_contexts
from secantry.mpoly import parse_poly, random_poly
from secantry.variety import (VarietySpec, Veronese, cone_over, hypersurface, on_quadric,
                              project_from, projective_space, random_center,
                              rational_normal_curve, scroll, segre_pair, veronese)

from seeds import SEED


class TestHilbert2:
    def test_rational_normal_quartic(self, ctxs, rng):
        assert hilbert2(rational_normal_curve(4), ctxs, rng) == 9

    def test_quadric_threefold(self, ctxs, rng):
        # Small oracle: 15 quadric monomials in P^4 modulo the single
        # defining relation leave 14 independent quadrics on the variety.
        spec = hypersurface(4, random_poly(5, 2, rng))
        assert hilbert2(spec, ctxs, rng) == 15 - 1

    def test_vertex_line_cone_over_projected_curve(self, ctxs):
        # Cone with vertex a line over a projection of a rational normal
        # curve of degree r-2: h2 equals 4r-4 at r = 6 and r = 7.
        for r in (6, 7):
            rng = derive_rng(SEED, "cone-h2", r)
            curve = project_from(scroll([r - 2]), random_center(r - 2, 0, rng),
                                 degree=r - 2)
            spec = cone_over(curve, 1)
            assert hilbert2(spec, ctxs, rng) == 4 * r - 4

    def test_linear_spaces_have_no_quadric_relations(self, ctxs, rng):
        for n in (1, 2, 3):
            spec = projective_space(n)
            assert hilbert2(spec, ctxs, rng) == (n + 1) * (n + 2) // 2

    def test_h2_bounds(self, ctxs):
        # h1 <= h2 <= C(r_eff + 2, 2), strict above only off linear spaces.
        rng = derive_rng(SEED, "h2-bounds")
        for spec in (rational_normal_curve(3), scroll([1, 1]),
                     veronese(projective_space(2), 2)):
            rep = hilbert_report(spec, ctxs, rng)
            top = rep.h1 * (rep.h1 + 1) // 2
            assert rep.h1 <= rep.h2 < top


class TestHilbert2Stops:
    """Where hilbert2 stops reading points, counted as top-level draws per prime."""

    @staticmethod
    def count_draws(spec, monkeypatch) -> Counter:
        drawn = Counter()
        sample = VarietySpec.sample

        def counting(self, ctx, rng):
            if self is spec:
                drawn[ctx.p] += 1
            return sample(self, ctx, rng)

        monkeypatch.setattr(VarietySpec, "sample", counting)
        return drawn

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_rank_stops_at_the_last_column(self, ctxs, rng, monkeypatch, n):
        # The tangent phase reads 2 draws: the first one's n+1 rows all add,
        # and the second one's tangent space meets the first in their span
        # of x*y, so it adds n rows and then an idle one (on P^1 its n = 1
        # row reaches all 3 columns first).  That leaves rank 2n + 1, and
        # each point draw then adds one column up to (n+1)(n+2)/2.
        spec = projective_space(n)
        drawn = self.count_draws(spec, monkeypatch)
        ncols = (n + 1) * (n + 2) // 2
        assert hilbert2(spec, ctxs, rng) == ncols
        assert drawn == {c.p: 2 + ncols - (2 * n + 1) for c in ctxs}

    def test_stall_stops_after_h2_plus_stall_draws(self, ctxs, rng, monkeypatch):
        # v_2(P^2) in P^5: h2 = 15 of 21 columns.  Its image v_4(P^2) is
        # tangentially defective: 5 tangent planes span 14 columns, not 15,
        # so the tangent phase ends at the 5th draw's idle third row.  Then
        # one point draw reaches 15 and 8 more that add nothing end the
        # prime: 5 + 1 + 8 draws.
        spec = veronese(projective_space(2), 2)
        drawn = self.count_draws(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng) == 15
        assert drawn == {c.p: 5 + 1 + 8 for c in ctxs}

    def test_chain_points_are_read_before_fresh_draws(self, ctxs, rng, monkeypatch):
        # The chain's samples come first in both phases.  With 3 of them the
        # tangent phase reads all 3 and 2 fresh draws to reach rank 14, then
        # 1 fresh point reaches 15 and 8 idle ones end the stall: 2 + 9
        # draws.  With 30, the tangent phase reads 5, the 6th reaches 15 as
        # a point and the next 8 stall: no fresh draw.
        spec = veronese(projective_space(2), 2)
        samples = {c.p: [spec.sample(c, rng) for _ in range(n)] for c, n in zip(ctxs, (3, 30))}
        drawn = self.count_draws(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng, samples) == 15
        assert [drawn[c.p] for c in ctxs] == [2 + 9, 0]

    @pytest.mark.parametrize("given", [0, 3, 7, 30])
    def test_no_framed_sample_becomes_a_point_row(self, ctxs, rng, monkeypatch, given):
        # v2(x) lies in the span of x's tangent rows, so a point row from a
        # sample whose frame was read would add nothing and fake a stall.
        # The rational normal quartic's tangent phase reads 5 samples (h2 =
        # 9, two rows each) and stops inside the 5th; its point phase reads
        # 8 more.  Every push of hilbert2's v2 is recorded by point.
        spec = rational_normal_curve(4)
        samples = {c.p: [spec.sample(c, rng) for _ in range(given)] for c in ctxs}
        pushed = {"frame": [], "point": []}
        push = Veronese.push

        def recording(self, q, dirs, p):
            if self.child is spec:
                pushed["frame" if dirs else "point"].append((p, tuple(q)))
            return push(self, q, dirs, p)

        monkeypatch.setattr(Veronese, "push", recording)
        assert hilbert2(spec, ctxs, rng, samples) == 9
        framed, points = set(pushed["frame"]), set(pushed["point"])
        assert (len(framed), len(points)) == (5 * len(ctxs), 8 * len(ctxs))
        assert not framed & points
        read = {(c.p, tuple(pf.point)) for c in ctxs for pf in samples[c.p][:13]}
        assert read <= framed | points

    @pytest.mark.parametrize("stalled", [0, 1])
    def test_a_stalled_prime_does_not_lower_h2(self, ctxs, rng, monkeypatch, stalled):
        # One PointFrame drawn over and over stalls that prime at rank 3, its
        # one tangent plane: the second copy's first row is idle, and 8 copies
        # of its point add nothing.  h2 is the maximum over primes, so the
        # other prime's 15 stands.
        spec = veronese(projective_space(2), 2)
        ctx = ctxs[stalled]
        pf = spec.sample(ctx, rng)
        sample = VarietySpec.sample
        monkeypatch.setattr(VarietySpec, "sample", lambda self, c, r:
                            pf if self is spec and c == ctx else sample(self, c, r))
        assert hilbert2(spec, [ctx], rng) == 3
        assert hilbert2(spec, ctxs, rng) == 15

    def test_reducible_union_of_two_planes(self):
        # h2 assumes an irreducible X; x0*x1 = 0 in P^3 is two planes, whose
        # points can stall the rank on one plane.  Over seeds 0..99 the
        # maximum across both primes still reads 10 - 1 = 9.
        spec = hypersurface(3, parse_poly("x0*x1", 4))
        assert [hilbert2(spec, make_contexts(seed), derive_rng(seed, "reducible"))
                for seed in range(100)] == [9] * 100


TANGENT_CASES = {  # name: (spec, h2 under the 62-bit primes)
    # Frames from the implicit nodes.  A quadric threefold, as the cubic one
    # lies on no quadric: its h2 fills all 15 columns and cannot read high.
    "hypersurface": (lambda: hypersurface(4, parse_poly("x0*x1 + x2*x3 - x4^2", 5)), 14),
    "cone-section": (lambda: catalog.build_family("F1", 2, "line").spec, 56),
    # Two quadrics in P^5: 21 - 2.
    "restricted-chart": (lambda: on_quadric(parse_poly("x0^2 + x1*x3 - x2*x5 + x4^2", 6)), 19),
    # A fourfold: 5 tangent rows per draw.  36 columns less the 6 2x2 minors.
    "segre-fourfold": (lambda: segre_pair(projective_space(1), projective_space(3)), 30),
}


class TestHilbert2TangentRows:
    """The tangent phase's rows x.v lie in span v2(X), so at 5- and 7-bit
    primes, where unlucky draws are common, h2 may read low but never high."""

    @pytest.mark.parametrize("name", TANGENT_CASES)
    def test_small_primes_never_exceed_h2(self, name):
        make, h2 = TANGENT_CASES[name]
        spec = make()
        assert hilbert2(spec, make_contexts(SEED), derive_rng(SEED, "tangent", name)) == h2
        for bits in (5, 7):
            for seed in range(8):
                rng = derive_rng(seed, "tangent", name, bits)
                assert hilbert2(spec, make_contexts(seed, bits=bits), rng) <= h2


class TestCastelnuovoBound:
    def test_minimal_degree_curve(self):
        assert castelnuovo_bound(5, 1, 5) == (0, 11)

    def test_minimal_degree_threefold(self):
        assert castelnuovo_bound(5, 3, 3) == (0, 18)

    def test_linear_space_case(self):
        for n in (1, 2, 3, 4):
            iota, bound = castelnuovo_bound(n, n, 1)
            assert iota == 0
            assert bound == (n + 1) * (n + 2) // 2

    def test_rejects_sub_minimal_degree(self):
        with pytest.raises(MinimalDegreeViolated):
            castelnuovo_bound(5, 1, 4)


class TestHilbertReport:
    def test_bound_attained_on_minimal_varieties(self, ctxs, rng):
        for spec in (rational_normal_curve(4), rational_normal_curve(6),
                     scroll([2, 1]), scroll([1, 1, 1]), scroll([2, 1, 1])):
            rep = hilbert_report(spec, ctxs, rng)
            assert rep.bound2 is not None
            assert rep.h2 == rep.bound2
            assert rep.equality2

    def test_bound_holds_with_degree_metadata(self, ctxs, rng):
        for spec in (veronese(scroll([1, 1, 1]), 2),
                     veronese(rational_normal_curve(3), 2),
                     hypersurface(4, random_poly(5, 3, rng))):
            rep = hilbert_report(spec, ctxs, rng)
            assert rep.bound2 is not None
            assert rep.h2 >= rep.bound2

    def test_no_degree_no_bound(self, ctxs, rng):
        from secantry.variety import segre_pair
        rep = hilbert_report(segre_pair(projective_space(1),
                                        projective_space(1)), ctxs, rng)
        assert rep.bound2 is None and rep.d is None

    def test_h2_stable_across_seeds(self, ctxs):
        spec = veronese(scroll([1, 1]), 2)
        a = hilbert2(spec, ctxs, derive_rng(SEED, "h2a"))
        b = hilbert2(spec, ctxs, derive_rng(SEED, "h2b"))
        assert a == b


class TestQuadricBoundsCheck:
    def test_minimal_threefold_equality_regime(self, ctxs, rng):
        rep = check_quadric_bounds(scroll([1, 1, 1]), 4, ctxs, rng)
        assert rep.holds and rep.equality
        assert rep.h2 == rep.lower == 18

    def test_cubic_hypersurface_regime(self, ctxs, rng):
        spec = hypersurface(4, random_poly(5, 3, rng))
        rep = check_quadric_bounds(spec, 3, ctxs, rng)
        assert rep.holds
        assert rep.h2 == 15 and rep.upper == 16

    def test_rejects_wrong_span(self, ctxs, rng):
        with pytest.raises(ValueError):
            check_quadric_bounds(scroll([1, 1, 1]), 3, ctxs, rng)

    def test_rejects_full_linear_space(self, ctxs, rng):
        # P^(k+1) itself is a degenerate input for this check.
        with pytest.raises(ValueError):
            check_quadric_bounds(projective_space(3), 2, ctxs, rng)

    def test_rejects_missing_degree(self, ctxs, rng):
        from secantry.variety import segre_pair
        spec = segre_pair(projective_space(1), projective_space(1))
        with pytest.raises(ValueError):
            check_quadric_bounds(spec, 2, ctxs, rng)
