"""Degree-2 Hilbert measurements and Castelnuovo-type bounds."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import pytest

from secantry import catalog, cli, hilbert, terracini, uniroots, variety
from secantry.hilbert import (HilbertReport, MinimalDegreeViolated, castelnuovo_bound,
                              check_quadric_bounds, hilbert2, hilbert_report)
from secantry.linalg import derive_rng, make_contexts
from secantry.mpoly import parse_poly, random_poly
from secantry.variety import (VarietySpec, Veronese, cone_over, hypersurface, loads_spec,
                              on_quadric, project_from, projective_space, random_center,
                              rational_normal_curve, scroll, segre_pair, veronese)

from seeds import SEED, Recording, Replaying

ROOT = Path(__file__).resolve().parents[1]


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
    """Where hilbert2 stops reading points, counted as top-level draws per modulus.

    On these root-free trees the draws happen once modulo p1*p2, unless each
    prime is given its own samples list, which runs one pass per prime."""

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

    @staticmethod
    def unshared(ctxs) -> dict:
        """An empty samples list per prime, no two the same list: a pass per prime."""
        return {c.p: [] for c in ctxs}

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
        assert drawn == {math.prod(c.p for c in ctxs): 2 + ncols - (2 * n + 1)}

    def test_full_rank_stops_each_prime_at_the_last_column(self, ctxs, rng, monkeypatch):
        spec = projective_space(2)
        drawn = self.count_draws(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng, self.unshared(ctxs)) == 6
        assert drawn == {c.p: 2 + 6 - 5 for c in ctxs}

    # v_2(P^2) in P^5: h2 = 15 of 21 columns.  Its image v_4(P^2) is
    # tangentially defective: 5 tangent planes span 14 columns, not 15, so
    # the tangent phase ends at the 5th draw's idle third row.  Then one
    # point draw reaches 15 and 8 more that add nothing end the pass: 5 + 1
    # + 8 draws, once modulo p1*p2 or once under each prime.
    def test_stall_stops_after_h2_plus_stall_draws(self, ctxs, rng, monkeypatch):
        spec = veronese(projective_space(2), 2)
        drawn = self.count_draws(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng) == 15
        assert drawn == {math.prod(c.p for c in ctxs): 5 + 1 + 8}

    def test_stall_stops_each_prime_after_h2_plus_stall_draws(self, ctxs, rng, monkeypatch):
        spec = veronese(projective_space(2), 2)
        drawn = self.count_draws(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng, self.unshared(ctxs)) == 15
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

    @staticmethod
    def record_pushes(spec, monkeypatch) -> dict:
        """Record every push of hilbert2's v2, by modulus and point."""
        pushed = {"frame": [], "point": []}
        push = Veronese.push

        def recording(self, q, dirs, p, *packing):
            if self.child is spec:
                pushed["frame" if dirs else "point"].append((p, tuple(q)))
            return push(self, q, dirs, p, *packing)

        monkeypatch.setattr(Veronese, "push", recording)
        return pushed

    # v2(x) lies in the span of x's tangent rows, so a point row from a
    # sample whose frame was read would add nothing and fake a stall.  The
    # rational normal quartic's tangent phase reads 5 samples (h2 = 9, two
    # rows each) and stops inside the 5th; its point phase reads 8 more.
    @pytest.mark.parametrize("given", [0, 3, 7, 30])
    def test_no_framed_sample_becomes_a_point_row(self, ctxs, rng, monkeypatch, given):
        # One list drawn modulo p1*p2, shared by both primes: one pass.
        spec, n = rational_normal_curve(4), math.prod(c.p for c in ctxs)
        shared = [spec.sample(variety._Product(n), rng) for _ in range(given)]
        pushed = self.record_pushes(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng, {c.p: shared for c in ctxs}) == 9
        framed, points = set(pushed["frame"]), set(pushed["point"])
        assert (len(framed), len(points)) == (5, 8)
        assert not framed & points
        assert {(n, tuple(pf.point)) for pf in shared[:13]} <= framed | points

    def test_no_framed_sample_becomes_a_point_row_per_prime(self, ctxs, rng, monkeypatch):
        spec = rational_normal_curve(4)
        samples = {c.p: [spec.sample(c, rng) for _ in range(7)] for c in ctxs}
        pushed = self.record_pushes(spec, monkeypatch)
        assert hilbert2(spec, ctxs, rng, samples) == 9
        framed, points = set(pushed["frame"]), set(pushed["point"])
        assert (len(framed), len(points)) == (5 * len(ctxs), 8 * len(ctxs))
        assert not framed & points
        read = {(c.p, tuple(pf.point)) for c in ctxs for pf in samples[c.p]}
        assert read <= framed | points

    @pytest.mark.parametrize("stalled", [0, 1])
    def test_a_stalled_prime_does_not_lower_h2(self, ctxs, rng, monkeypatch, stalled):
        # One PointFrame drawn over and over stalls that prime at rank 3, its
        # one tangent plane: the second copy's first row is idle, and 8 copies
        # of its point add nothing.  Unshared samples run a pass per prime,
        # and h2 is the maximum over them, so the other prime's 15 stands.
        spec = veronese(projective_space(2), 2)
        ctx = ctxs[stalled]
        pf = spec.sample(ctx, rng)
        sample = VarietySpec.sample
        monkeypatch.setattr(VarietySpec, "sample", lambda self, c, r:
                            pf if self is spec and c == ctx else sample(self, c, r))
        assert hilbert2(spec, [ctx], rng) == 3
        assert hilbert2(spec, ctxs, rng, self.unshared(ctxs)) == 15

    def test_reducible_union_of_two_planes(self):
        # h2 assumes an irreducible X; x0*x1 = 0 in P^3 is two planes, whose
        # points can stall the rank on one plane.  Over seeds 0..99 the
        # maximum across both primes still reads 10 - 1 = 9.
        spec = hypersurface(3, parse_poly("x0*x1", 4))
        assert [hilbert2(spec, make_contexts(seed), derive_rng(seed, "reducible"))
                for seed in range(100)] == [9] * 100


def record_folds(monkeypatch) -> list:
    """Patch hilbert's `fold` to record each modulus and any ValueError's text."""
    calls, real = [], hilbert.fold

    def spy(rows, red, *args):
        calls.append(red.p)
        try:
            return real(rows, red, *args)
        except ValueError as exc:
            calls.append(str(exc))
            raise

    monkeypatch.setattr(hilbert, "fold", spy)
    return calls


PRODUCT_CASES = {  # name: (spec, h2)
    "quartic": (lambda: rational_normal_curve(4), 9),
    "v2-plane": (lambda: veronese(projective_space(2), 2), 15),
    "cone": (lambda: cone_over(rational_normal_curve(3), 1), 18),
}


class TestHilbert2Product:
    """hilbert2 on root-free trees runs once modulo p1*p2 (5-bit primes)."""

    # At these seeds every pivot of the pass modulo p1*p2 is a unit, and each
    # prime's pass on the same draws, reduced mod p, resamples no more often.
    @pytest.mark.parametrize("name, seed", [("quartic", 1), ("v2-plane", 0), ("cone", 2)])
    def test_product_pass_is_each_primes_pass(self, monkeypatch, name, seed):
        make, h2 = PRODUCT_CASES[name]
        spec, ctxs = make(), make_contexts(seed, bits=5)
        drawn = TestHilbert2Stops.count_draws(spec, monkeypatch)
        rec = Recording(derive_rng(seed, "h2", name))
        assert hilbert2(spec, ctxs, rec) == h2
        (n, draws), = drawn.items()
        assert n == math.prod(c.p for c in ctxs)
        for ctx in ctxs:
            drawn.clear()
            replay = Replaying(rec.drawn, ctx.p)
            assert hilbert2(spec, [ctx], replay) == h2
            assert drawn == {ctx.p: draws}
            assert next(replay.drawn, None) is None  # it read every recorded draw

    # The pass modulo p1*p2 is discarded whole at its first non-unit pivot:
    # the quartic at seed 0 (23, 29) meets it in the tangent phase, the cone at
    # seed 0 in the point phase.  Each prime then runs both phases.
    @pytest.mark.parametrize("name, product", [
        ("quartic", [667, "base is not invertible for the given modulus"]),
        ("cone", [667, 667, "base is not invertible for the given modulus"]),
    ], ids=["in-tangent", "in-points"])
    def test_non_unit_pivot_reruns_each_prime(self, monkeypatch, name, product):
        make, h2 = PRODUCT_CASES[name]
        calls = record_folds(monkeypatch)
        assert hilbert2(make(), make_contexts(0, bits=5), derive_rng(0, "h2", name)) == h2
        assert calls == product + [23, 23, 29, 29]

    def test_root_solving_tree_never_solves_modulo_the_product(self, monkeypatch):
        moduli = set()
        roots = uniroots.roots

        def prime_roots(f, p, rng):
            assert p in (23, 29), f"roots asked for modulo {p}"
            moduli.add(p)
            return roots(f, p, rng)

        monkeypatch.setattr(uniroots, "roots", prime_roots)
        calls = record_folds(monkeypatch)
        hilbert2(catalog.build_family("F1", 2, "line").spec, make_contexts(0, bits=5),
                 derive_rng(0, "h2", "F1"))
        assert moduli == {23, 29}
        assert calls == [23, 23, 29, 29]

    # The CLI hands hilbert2 the chain report's samples, one list under both
    # primes when the chain ran modulo p1*p2.  At seed 0 (23, 29) the chain's
    # pass modulo 23*29 stands, its list is shared and hilbert2 runs once
    # modulo 23*29; at seed 2 (31, 29) the chain fell back per prime, and
    # hilbert2 runs per prime on each list.
    @pytest.mark.parametrize("seed, moduli", [(0, [667, 667]), (2, [31, 31, 29, 29])],
                             ids=["product", "per-prime"])
    def test_cli_reads_the_chains_samples_per_distinct_list(self, monkeypatch, seed, moduli):
        monkeypatch.setattr(cli, "make_contexts", lambda seed: make_contexts(seed, bits=5))
        seen, secant, h2 = {}, terracini.secant_dim, hilbert.hilbert2

        def chain(*args):
            seen["draws"] = (top := secant(*args)).draws
            return top

        def quadrics(spec, ctxs, rng, samples):
            seen["samples"] = samples
            return h2(spec, ctxs, rng, samples)

        monkeypatch.setattr(terracini, "secant_dim", chain)
        monkeypatch.setattr(hilbert, "hilbert2", quadrics)
        calls = record_folds(monkeypatch)
        spec = loads_spec((ROOT / "specs/twisted-cubic.variety.json").read_text())
        assert cli._measure(spec, 1, 1, seed, terracini.DEFAULT_TRIALS)["h2"] == 7
        draws, samples = seen["draws"], seen["samples"]
        assert calls == moduli
        assert [pf for p in draws for pf in samples[p]] == [
            pf for ts in draws.values() for t in ts for pf in t.samples]
        p1, p2 = draws
        assert (samples[p1] is samples[p2]) == (draws[p1] is draws[p2]) == (seed == 0)


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

    # h1 runs under variety.per_modulus, as h2 does: for the root-free 2-uple
    # of the twisted cubic once modulo p1*p2, for the cubic threefold (it
    # solves roots) per prime.  Both reports read as when h1 ran per prime.
    @pytest.mark.parametrize("name, make, product, expected", [
        ("v2-cubic", lambda: veronese(rational_normal_curve(3), 2), True,
         HilbertReport(h1=7, h2=13, d=6, iota=0, bound2=13, equality2=True)),
        ("cubic", lambda: hypersurface(4, parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3", 5)),
         False, HilbertReport(h1=5, h2=15, d=3, iota=1, bound2=15, equality2=True)),
    ], ids=["root-free", "root-solving"])
    def test_report_at_seed_0(self, monkeypatch, name, make, product, expected):
        spans, span = [], hilbert.span_dim
        monkeypatch.setattr(hilbert, "span_dim", lambda spec, ctx, rng: (
            spans.append(ctx.p), span(spec, ctx, rng))[1])
        ctxs = make_contexts(0)
        assert hilbert_report(make(), ctxs, derive_rng(0, "report", name)) == expected
        assert spans == ([math.prod(c.p for c in ctxs)] if product else [c.p for c in ctxs])

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
