"""Variety constructors: sampler contract, exactness, charts, serialization."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secantry

from secantry.linalg import PrimeContext, RowReducer, derive_rng, rank, row_basis
from secantry.mpoly import MPoly, PolyMap, monomial_exponents, parse_poly, random_poly
from secantry.variety import (CenterContainsVariety, NoRootFound, NotParametric,
                              ProjectFrom, SpecParseError, center_in_span,
                              center_on_points, cone_over, dumps_spec,
                              fibered_join, hypersurface, join_linear,
                              loads_spec, on_quadric, parametric, project_from,
                              projective_space, random_center,
                              random_cone_section, rational_normal_curve,
                              ruled_join, scroll, segre_pair, span_dim,
                              spec_hash, veronese)

from seeds import SEED


def spec_zoo(rng):
    """A cross-section of every node kind, kept small."""
    quad = random_poly(4, 2, rng)
    cubic6 = random_poly(6, 3, rng)
    base = scroll([2])
    return [
        ("p2", projective_space(2)),
        ("rnc4", rational_normal_curve(4)),
        ("scroll111", scroll([1, 1, 1])),
        ("scroll110", scroll([1, 1, 0])),
        ("veronese_p3", veronese(projective_space(3), 2)),
        ("veronese_scroll", veronese(scroll([1, 1]), 2)),
        ("segre", segre_pair(projective_space(1), projective_space(2))),
        ("cone", cone_over(rational_normal_curve(3), 1)),
        ("project", project_from(rational_normal_curve(3), random_center(3, 0, rng))),
        ("hypersurface", hypersurface(3, quad)),
        ("on_quadric", on_quadric(cubic6)),
        ("cone_section", random_cone_section(veronese(projective_space(2), 2), 2, rng)),
        ("join_linear", join_linear(scroll([1, 1]), [[1, 2, 3, 4], [5, 6, 7, 8]])),
        ("ruled_join", ruled_join(base.map, base.map)),
        ("fibered_join", fibered_join(scroll([3]).map, _fiber_map())),
    ]


def _fiber_map():
    coords = [MPoly.monomial(2, (0, 0)), MPoly.monomial(2, (1, 0)),
              MPoly.monomial(2, (0, 1)), MPoly.monomial(2, (1, 1))]
    return PolyMap(2, coords)


class TestSamplerContract:
    def test_frame_rank_and_membership(self, ctxs):
        # Frames have rank dim+1 and contain the point, exactly, under both primes.
        rng = derive_rng(SEED, "zoo")
        for name, spec in spec_zoo(rng):
            for ctx in ctxs:
                for s in range(3):
                    pf = spec.sample(ctx, derive_rng(SEED, "zoo", name, ctx.p, s))
                    assert len(pf.frame) == spec.dim + 1, name
                    assert rank(pf.frame, ctx.p) == spec.dim + 1, name
                    red = RowReducer(ctx.p)
                    for row in pf.frame:
                        red.add(row)
                    assert red.contains(pf.point), name

    def test_basis_frames_are_not_eliminated_again(self, ctxs, monkeypatch):
        # Veronese (p not dividing d), ConeOver and JoinLinear build a basis:
        # the only row_basis of a sample is the Parametric child's.
        calls = []

        def counted(rows, p):
            calls.append(p)
            return row_basis(rows, p)

        monkeypatch.setattr(secantry.linalg, "row_basis", counted)
        for spec in (veronese(scroll([1, 1, 1]), 2), cone_over(rational_normal_curve(3), 1),
                     join_linear(scroll([1, 1]), [[1, 2, 3, 4], [5, 6, 7, 8]])):
            for s in range(3):
                calls.clear()
                spec.sample(ctxs[0], derive_rng(SEED, "basis", repr(spec), s))
                assert len(calls) == 1, spec

    @pytest.mark.parametrize("p, d", [(2, 2), (3, 3)])
    def test_veronese_frame_when_p_divides_d(self, p, d):
        # The pushes of the child's frame lose rank when p | d (q pushes to
        # d*point = 0), so the point row must join them.
        spec = veronese(projective_space(2), d)
        for s in range(3):
            pf = spec.sample(PrimeContext(p=p), derive_rng(SEED, "p|d", p, s))
            assert len(pf.frame) == rank(pf.frame, p) == spec.dim + 1

    def test_sample_determinism(self, ctxs):
        spec = veronese(scroll([1, 1]), 2)
        a = spec.sample(ctxs[0], derive_rng(SEED, "det"))
        b = spec.sample(ctxs[0], derive_rng(SEED, "det"))
        assert a.point == b.point and a.frame == b.frame


class TestScroll:
    def test_rnc(self):
        sc = scroll([3])
        assert (sc.dim, sc.ambient, sc.degree) == (1, 3, 3)

    def test_threefolds(self):
        sc = scroll([1, 1, 1])
        assert (sc.dim, sc.ambient, sc.degree) == (3, 5, 3)
        sc = scroll([2, 1, 1])
        assert (sc.dim, sc.ambient, sc.degree) == (3, 6, 4)

    def test_cone_block(self, ctxs):
        # A zero block makes the scroll a cone; the sampler must still work.
        sc = scroll([1, 1, 0])
        assert (sc.dim, sc.ambient, sc.degree) == (3, 4, 2)
        pf = sc.sample(ctxs[0], derive_rng(SEED, "sc0"))
        assert rank(pf.frame, ctxs[0].p) == 4

    def test_needs_positive_degree(self):
        with pytest.raises(ValueError):
            scroll([0, 0])


class TestHypersurfaceExactness:
    def test_circle_cone(self, ctxs, rng):
        g = (MPoly.variable(3, 0) * MPoly.variable(3, 0)
             + MPoly.variable(3, 1) * MPoly.variable(3, 1)
             - MPoly.variable(3, 2) * MPoly.variable(3, 2))
        spec = hypersurface(2, g)
        for ctx in ctxs:
            pf = spec.sample(ctx, rng)
            assert g.eval(pf.point, ctx.p) == 0

    def test_random_cubic_threefold(self, ctxs, rng):
        g = random_poly(5, 3, rng)
        spec = hypersurface(4, g)
        assert spec.dim == 3
        for ctx in ctxs:
            pf = spec.sample(ctx, rng)
            assert g.eval(pf.point, ctx.p) == 0
            assert len(pf.frame) == 4
            _, grad = g.grad_eval(pf.point, ctx.p)
            for row in pf.frame:
                assert sum(a * b for a, b in zip(grad, row)) % ctx.p == 0

    def test_rejects_inhomogeneous(self):
        g = MPoly.variable(3, 0) + MPoly.constant(3, 1)
        with pytest.raises(ValueError):
            hypersurface(2, g)

    def test_wrong_root_raises_under_optimize(self):
        # The exactness check must survive `python -O`, and a wrong root
        # must surface as an error instead of being resampled away.
        script = (
            "from secantry import uniroots, hypersurface, make_contexts, derive_rng\n"
            "from secantry.mpoly import parse_poly\n"
            "def value(f, t, p): return sum(c * t ** i for i, c in enumerate(f)) % p\n"
            "uniroots.roots = lambda f, p, rng: [next(t for t in range(len(f))\n"
            "                                         if value(f, t, p))]\n"
            "spec = hypersurface(2, parse_poly('x0^2 + x1^2 - x2^2', 3))\n"
            "spec.sample(make_contexts(5)[0], derive_rng(5, 'wrong-root'))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(secantry.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "ArithmeticError: sampled point does not satisfy" in proc.stderr


    def test_no_point_raises_no_root_found(self, rng):
        # x0^2 = 2*x1^2 has no point over F_p when 2 is not a square mod p,
        # that is when p = 3 or 5 mod 8: fixing either coordinate at c != 0
        # leaves x^2 - 2c^2 or 2x^2 - c^2, with no root.  Only c = 0, with
        # probability 1/p, gives the root 0 and the zero point.
        p = 2**62 - 117
        assert p % 8 == 3
        spec = hypersurface(1, parse_poly("x0^2 - 2*x1^2", 2))
        with pytest.raises(NoRootFound):
            spec.sample(PrimeContext(p), rng)


class TestQuadricChart:
    def test_points_satisfy_both_equations(self, ctxs, rng):
        cubic = random_poly(6, 3, rng)
        spec = on_quadric(cubic)
        assert spec.dim == 3 and spec.ambient == 5
        v = [MPoly.variable(6, i) for i in range(6)]
        quadric = v[1] * v[2] + v[3] * v[4] - v[0] * v[5]
        for ctx in ctxs:
            pf = spec.sample(ctx, rng)
            assert quadric.eval(pf.point, ctx.p) == 0
            assert cubic.eval(pf.point, ctx.p) == 0

    def test_restriction_is_equation_on_chart(self, ctxs, rng):
        # The sampler's univariate restriction at x equals g(chart(t)) with
        # the solve parameter t_sv set to x.
        spec = on_quadric(random_poly(6, 3, rng))
        sv = spec.solve_var
        for ctx in ctxs:
            p = ctx.p
            params = [rng.randrange(p) for _ in range(spec.chart_map.nvars)]
            params[sv] = None
            f = spec.pullback.to_univariate(params, p)
            for _ in range(3):
                t = list(params)
                t[sv] = x = rng.randrange(p)
                at_x = sum(c * pow(x, d, p) for d, c in enumerate(f)) % p
                assert at_x == spec.g.eval(spec.chart_map.partial_rows(t, p)[0], p)


class TestConeSection:
    def test_points_on_section(self, ctxs, rng):
        child = veronese(projective_space(2), 2)
        spec = random_cone_section(child, 2, rng)
        assert spec.dim == child.dim
        assert spec.ambient == child.ambient + 1
        for ctx in ctxs:
            pf = spec.sample(ctx, rng)
            assert spec.g.eval(pf.point, ctx.p) == 0

    def test_projection_back_to_child(self, ctxs, rng):
        # Dropping the section coordinate lands on the child's cone.
        child = rational_normal_curve(3)
        spec = random_cone_section(child, 2, rng)
        pf = spec.sample(ctxs[0], rng)
        t = pf.point[1] * pow(pf.point[0], -1, ctxs[0].p) % ctxs[0].p
        expected = [pow(t, j, ctxs[0].p) for j in range(4)]
        scale = pf.point[0]
        assert [scale * e % ctxs[0].p for e in expected] == pf.point[:4]


class TestVeronese:
    def test_conic_reembedding(self, ctxs, rng):
        spec = veronese(projective_space(1), 2)
        assert spec.ambient == 2 and spec.dim == 1
        pf = spec.sample(ctxs[0], rng)
        # coordinates are 1, t, t^2 up to order: x0*x2 = x1^2
        assert pf.point[0] * pf.point[2] % ctxs[0].p == pf.point[1] ** 2 % ctxs[0].p

    def test_ambient_count(self):
        spec = veronese(projective_space(3), 2)
        assert spec.ambient == 9 and spec.dim == 3

    def test_pushforward_consistency(self, ctxs, rng):
        # The sampled frame must equal the child frame pushed through the
        # Jacobian of the monomial map at the child point (recomputed here
        # from scratch with symbolic partials).
        child = scroll([1, 1])
        spec = veronese(child, 2)
        ctx = ctxs[0]
        p = ctx.p
        pf = spec.sample(ctx, derive_rng(SEED, "push"))
        cpf = child.sample(ctx, derive_rng(SEED, "push"))
        nv = child.ambient + 1
        monomials = [MPoly.monomial(nv, tuple(
            sum(1 for c in combo if c == i) for i in range(nv)))
            for combo in itertools.combinations_with_replacement(range(nv), 2)]
        jac = [[m.partial(i).eval(cpf.point, p) for m in monomials]
               for i in range(nv)]
        pushed = [[sum(v[i] * jac[i][j] for i in range(nv)) % p
                   for j in range(len(monomials))] for v in cpf.frame]
        value = [m.eval(cpf.point, p) for m in monomials]
        assert row_basis(pushed + [value], p) == row_basis(pf.frame, p)

    def test_degree_metadata(self):
        assert veronese(scroll([1, 1, 1]), 2).degree == 8 * 3
        assert veronese(rational_normal_curve(2), 3).degree == 6


def push_point_oracle(combos, q, p):
    """Each index multiset's product of q's coordinates, multiplied out afresh."""
    out = []
    for combo in combos:
        t = 1
        for i in combo:
            t = t * q[i] % p
        out.append(t)
    return out


def push_dir_oracle(combos, q, v, p):
    """d/de of prod q[i]+e*v[i] over each index multiset, one product-rule term at a time."""
    out = []
    for combo in combos:
        acc = 0
        for j in range(len(combo)):
            t = v[combo[j]]
            for l, i in enumerate(combo):
                if l != j:
                    t = t * q[i] % p
            acc += t
        out.append(acc % p)
    return out


class TestVeroneseLadder:
    @pytest.mark.parametrize("p", [2, 3, 101, 3612720013493706217])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_dense_loops(self, d, p):
        # Includes p | d (p = 2 at d = 2, 4; p = 3 at d = 3) and zero
        # coordinates, where the pushed rows lose rank.
        rng = derive_rng(SEED, "ladder", d, p)
        for n in (1, 2, 3):
            spec = veronese(projective_space(n), d)
            combos = list(itertools.combinations_with_replacement(range(n + 1), d))
            assert spec.ambient + 1 == len(combos)
            for _ in range(12):
                q = [rng.choice((0, rng.randrange(p))) for _ in range(n + 1)]
                dirs = [[rng.randrange(p) for _ in range(n + 1)]
                        for _ in range(rng.randrange(n + 2))]
                vals, ders = spec.push(q, dirs, p)
                assert vals == push_point_oracle(combos, q, p)
                assert ders == [push_dir_oracle(combos, q, v, p) for v in dirs]

    def test_chart_is_pulled_back_monomials(self, ctxs):
        child = scroll([1, 2])
        cmap, kind = child.chart(ctxs[0])
        vmap, vkind = veronese(child, 3).chart(ctxs[0])
        nq = len(cmap.coords)
        assert vkind == kind and vmap.nvars == cmap.nvars
        assert vmap.coords == [cmap.pull_back(MPoly.monomial(nq, e))
                               for e in monomial_exponents(nq, 3)]


class TestCombinatorDimensions:
    def test_random_trees(self, ctxs):
        # Declared dimension arithmetic matches measured Jacobian rank for
        # composed trees of depth <= 3.
        rng = derive_rng(SEED, "trees")
        leaves = [lambda: projective_space(2), lambda: rational_normal_curve(3),
                  lambda: scroll([1, 1])]
        nodes = [lambda s: veronese(s, 2),
                 lambda s: cone_over(s, 1),
                 lambda s: segre_pair(s, projective_space(1)),
                 lambda s: join_linear(s, [[rng.randrange(1, 99)
                                            for _ in range(s.ambient + 1)]])]
        for i in range(10):
            spec = leaves[i % len(leaves)]()
            for _ in range(rng.randrange(1, 3)):
                spec = nodes[rng.randrange(len(nodes))](spec)
            pf = spec.sample(ctxs[i % 2], rng)
            assert rank(pf.frame, ctxs[i % 2].p) == spec.dim + 1

    def test_cone_dimension(self):
        assert cone_over(rational_normal_curve(3), 0).dim == 2
        assert cone_over(scroll([1, 1]), 2).dim == 5

    def test_segre_quadric(self, ctxs, rng):
        spec = segre_pair(projective_space(1), projective_space(1))
        assert spec.dim == 2 and spec.ambient == 3
        pf = spec.sample(ctxs[0], rng)
        p = ctxs[0].p
        assert pf.point[0] * pf.point[3] % p == pf.point[1] * pf.point[2] % p

    def test_fibered_join_degenerates_to_cone(self, ctxs):
        # A fiber block that ignores the base parameter sweeps a full cone:
        # the secant-relevant data (span, frame ranks) must agree.
        base = scroll([3]).map
        u_only = PolyMap(2, [MPoly.monomial(2, (0, 0)), MPoly.monomial(2, (0, 1))])
        fj = fibered_join(base, u_only)
        cone = cone_over(rational_normal_curve(3), 1)
        assert fj.dim == cone.dim
        assert fj.ambient == cone.ambient
        rng = derive_rng(SEED, "fjcone")
        assert (span_dim(fj, ctxs[0], rng)
                == span_dim(cone, ctxs[0], rng))


class TestProjectFrom:
    def test_generic_point_projection_of_twisted_cubic(self, ctxs, rng):
        spec = project_from(rational_normal_curve(3), random_center(3, 0, rng))
        assert spec.ambient == 2
        assert span_dim(spec, ctxs[0], rng) == 3  # a plane cubic spans P^2

    def test_center_containing_variety(self, ctxs, rng):
        # A line in P^3 projected from its own span collapses.
        nv = 1
        line = parametric([MPoly.constant(nv, 1), MPoly.variable(nv, 0),
                           MPoly.variable(nv, 0), MPoly.constant(nv, 1)])
        bad = ProjectFrom(line, [[1, 0, 0, 1], [0, 1, 1, 0]])
        with pytest.raises(CenterContainsVariety):
            bad.sample(ctxs[0], rng)

    def test_center_dependent_mod_p(self, ctxs):
        # Independent over Q, but the second row vanishes modulo 101.
        spec = ProjectFrom(scroll([3]), [[1, 0, 0, 0], [0, 101, 0, 0]])
        with pytest.raises(ValueError, match="dependent mod p"):
            spec.kernel_map(PrimeContext(p=101))
        assert len(spec.kernel_map(ctxs[0])) == spec.ambient + 1 == 2

    def test_secant_center_lowers_span(self, ctxs, rng):
        child = veronese(scroll([1, 1, 0]), 2)
        spec = project_from(child, center_on_points(child, 2, rng))
        assert span_dim(spec, ctxs[0], rng) == 12  # 14 independent quadrics - 2

    def test_centers_below_a_projection_rejected(self):
        # The conic (1, t, t^2, 0, 0) projected from [[1,0,0,1,0]]: its
        # chart holds a kernel basis mod 2^61-1, so a "point" of it would
        # be a row of residues, off the image conic x0^2 + x1*x2 = 0 for
        # other primes.  Under a Segre or Veronese node just the same.
        nv = 1
        conic = parametric([MPoly.constant(nv, 1), MPoly.variable(nv, 0),
                            MPoly.variable(nv, 0) * MPoly.variable(nv, 0),
                            MPoly.zero(nv), MPoly.zero(nv)])
        proj = ProjectFrom(conic, [[1, 0, 0, 1, 0]])
        for spec in (proj, segre_pair(projective_space(1), proj), veronese(proj, 2)):
            for build, s in ((center_on_points, 1), (center_in_span, 0)):
                with pytest.raises(NotParametric):
                    build(spec, s, derive_rng(SEED, "below"))


class TestSpanDim:
    def test_rational_normal_curves(self, ctxs, rng):
        for d in (3, 4, 6):
            assert span_dim(rational_normal_curve(d), ctxs[0], rng) == d + 1

    def test_double_embedding_of_minimal_threefold(self, ctxs, rng):
        spec = veronese(scroll([1, 1, 1]), 2)
        assert spec.ambient == 20
        assert span_dim(spec, ctxs[0], rng) == 18


class TestSerialization:
    def test_round_trip_all_ops(self, ctxs):
        rng = derive_rng(SEED, "serzoo")
        for name, spec in spec_zoo(rng):
            text = dumps_spec(spec)
            back = loads_spec(text)
            assert dumps_spec(back) == text, name
            assert spec_hash(back) == spec_hash(spec), name
            assert (back.dim, back.ambient) == (spec.dim, spec.ambient), name
            pf = back.sample(ctxs[0], derive_rng(SEED, "ser", name))
            assert rank(pf.frame, ctxs[0].p) == back.dim + 1, name

    def test_documented_format(self, ctxs, rng):
        text = """{"op": "veronese", "d": 2,
                   "child": {"op": "scroll", "degrees": [1, 1, 1]}}"""
        spec = loads_spec(text)
        assert spec.ambient == 20 and spec.dim == 3
        assert span_dim(spec, ctxs[0], rng) == 18

    def test_equation_coefficients_reduced_at_load(self, ctxs, rng):
        # Integer coefficients can exceed the modulus; reduction happens mod p.
        big = (1 << 62) + 3
        text = '{"op": "hypersurface", "m": 2, "equation": "%d*x0^2 + x1*x2"}' % big
        spec = loads_spec(text)
        pf = spec.sample(ctxs[0], rng)
        assert spec.g.eval(pf.point, ctxs[0].p) == 0

    def test_errors(self):
        with pytest.raises(SpecParseError):
            loads_spec("not json")
        with pytest.raises(SpecParseError):
            loads_spec('{"op": "mystery"}')
        with pytest.raises(SpecParseError):
            loads_spec('{"op": "hypersurface", "m": 2}')

    def test_project_center_rows_checked_at_load(self):
        cubic = '"child": {"op": "scroll", "degrees": [3]}'
        for center in ("[[1, 0, 0, 0], [2, 0, 0, 0]]", "[[1, 0, 0, 0], [0, 1, 0]]"):
            with pytest.raises(SpecParseError):
                loads_spec('{"op": "project", "center": %s, %s}' % (center, cubic))
        spec = loads_spec('{"op": "project", "center": [[1, 0, 0, 0], [0, 1, 0, 0]], %s}'
                          % cubic)
        assert spec.ambient == 1


class TestChart:
    def test_implicit_trees_have_no_chart(self, ctxs, rng):
        spec = veronese(hypersurface(3, random_poly(4, 2, rng)), 2)
        with pytest.raises(NotParametric):
            spec.chart(ctxs[0])

    def test_chart_matches_sampler_span(self, ctxs):
        # The chart Jacobian frame and the sampler frame span the same
        # kind of spaces: equal rank at matching parameters.
        rng = derive_rng(SEED, "chart")
        spec = veronese(scroll([2, 1]), 2)
        cmap, kind = spec.chart(ctxs[0])
        assert kind == "affine"
        p = ctxs[0].p
        t = [rng.randrange(p) for _ in range(cmap.nvars)]
        values, partials = cmap.partial_rows(t, p)
        assert rank([values] + partials, p) == spec.dim + 1
