"""Polynomial arithmetic, gradients and Jacobian frames, with independent oracles."""

from __future__ import annotations

import random

import pytest

from secantry.linalg import rank
from secantry.mpoly import (MAX_EXPONENT, MPoly, PolyMap, PolyParseError, parse_poly,
                            poly_str, random_poly)
from secantry.variety import Parametric, SampleExhausted


def horner_eval(f: MPoly, point, p):
    """Second evaluation path (recursive Horner in the first live variable)."""
    if not f.terms:
        return 0
    var = next((i for i in range(f.nvars)
                if any(e[i] for e in f.terms)), None)
    if var is None:
        return sum(f.terms.values()) % p
    by_deg: dict[int, MPoly] = {}
    for e, c in f.terms.items():
        e2 = list(e)
        d = e2[var]
        e2[var] = 0
        g = by_deg.setdefault(d, MPoly.zero(f.nvars))
        g.terms[tuple(e2)] = g.terms.get(tuple(e2), 0) + c
    acc = 0
    for d in sorted(by_deg, reverse=True):
        acc = (acc * point[var] + horner_eval(by_deg[d], point, p)) % p
    # top-down Horner drops trailing powers; pad with the remaining degree
    lowest = min(by_deg)
    return acc * pow(point[var], lowest, p) % p if lowest else acc


def x(nv, i):
    return MPoly.variable(nv, i)


def jacobian_rows(fmap: PolyMap, point, p):
    """Affine-cone tangent rows at fmap(point): the value, then dF/dt_j."""
    values, partials = fmap.partial_rows(point, p)
    return [values] + partials


class TestEval:
    def test_x2y(self, ctxs):
        f = x(2, 0) * x(2, 0) * x(2, 1)
        assert f.eval([2, 3], ctxs[0].p) == 12

    def test_zero(self, ctxs):
        assert MPoly.zero(3).eval([5, 6, 7], ctxs[0].p) == 0

    def test_random_against_horner(self, ctxs, rng):
        for ctx in ctxs:
            for _ in range(10):
                f = random_poly(3, 3, rng, homogeneous=False)
                t = [rng.randrange(ctx.p) for _ in range(3)]
                assert f.eval(t, ctx.p) == horner_eval(f, t, ctx.p)

    def test_ring_homomorphism(self, ctxs, rng):
        p = ctxs[0].p
        for _ in range(20):
            f = random_poly(2, 3, rng, homogeneous=False)
            g = random_poly(2, 2, rng, homogeneous=False)
            t = [rng.randrange(p) for _ in range(2)]
            assert (f * g).eval(t, p) == f.eval(t, p) * g.eval(t, p) % p


class TestPartial:
    def test_x2y(self):
        f = x(2, 0) * x(2, 0) * x(2, 1)
        assert f.partial(0) == 2 * (x(2, 0) * x(2, 1))

    def test_constant(self):
        assert MPoly.constant(2, 7).partial(0).is_zero()

    def test_grad_eval_against_partials(self, ctxs, rng):
        # Horner on f and on its formal partials is the oracle for grad_eval,
        # including coordinates that are zero, negative or not reduced mod p.
        p = ctxs[0].p
        f = random_poly(3, 3, rng, homogeneous=False)
        points = [[0, 0, 0], [0, -1, 5], [p, p + 1, -p - 2], [2 * p - 1, 0, -3]]
        points += [[rng.randrange(-p, 2 * p) for _ in range(3)] for _ in range(10)]
        for t in points:
            value, grad = f.grad_eval(t, p)
            assert value == horner_eval(f, t, p)
            assert grad == [horner_eval(f.partial(i), t, p) for i in range(3)]

    def test_leibniz_rule(self, rng):
        for _ in range(10):
            f = random_poly(2, 3, rng, homogeneous=False)
            g = random_poly(2, 3, rng, homogeneous=False)
            lhs = (f * g).partial(0)
            rhs = f * g.partial(0) + g * f.partial(0)
            assert lhs == rhs

    def test_euler_relation(self, ctxs, rng):
        # sum t_j df/dt_j = d * f for homogeneous degree-d polynomials.
        p = ctxs[0].p
        for d in (1, 2, 3):
            f = random_poly(3, d, rng, homogeneous=True)
            t = [rng.randrange(p) for _ in range(3)]
            lhs = sum(t[j] * f.partial(j).eval(t, p) for j in range(3)) % p
            assert lhs == d * f.eval(t, p) % p


class TestJacobian:
    def test_conic_chart(self, ctxs):
        nv = 1
        fmap = PolyMap(nv, [MPoly.constant(nv, 1), x(nv, 0), x(nv, 0) * x(nv, 0)])
        rows = jacobian_rows(fmap, [3], ctxs[0].p)
        assert rows == [[1, 3, 9], [0, 1, 6]]
        assert rank(rows, ctxs[0].p) == 2

    def test_affine_space_chart(self, ctxs, rng):
        nv = 3
        fmap = PolyMap(nv, [MPoly.constant(nv, 1)] + [x(nv, i) for i in range(3)])
        t = [rng.randrange(ctxs[0].p) for _ in range(3)]
        assert rank(jacobian_rows(fmap, t, ctxs[0].p), ctxs[0].p) == 4

    def test_twisted_cubic_symbolic_minors(self, ctxs, rng):
        # Symbolic 2x2 minors of [(1,t,t^2,t^3), (0,1,2t,3t^2)] are the oracle:
        # minor(0,1) = 1 is nonzero, so the rank is exactly 2 everywhere.
        nv = 1
        t = x(nv, 0)
        fmap = PolyMap(nv, [MPoly.constant(nv, 1), t, t * t, t * t * t])
        top = fmap.coords
        bot = [c.partial(0) for c in top]
        minors = [top[i] * bot[j] - top[j] * bot[i]
                  for i in range(4) for j in range(i + 1, 4)]
        assert any(m == MPoly.constant(nv, 1) for m in minors)
        p = ctxs[0].p
        for _ in range(5):
            pt = [rng.randrange(p)]
            assert rank(jacobian_rows(fmap, pt, p), p) == 2

    def test_singular_sample(self, ctxs, rng):
        # A constant chart has Jacobian rank 1 < nvars + 1 at every point,
        # so the sampler resamples until it gives up.
        nv = 1
        fmap = PolyMap(nv, [MPoly.constant(nv, 1), MPoly.constant(nv, 2)])
        with pytest.raises(SampleExhausted):
            Parametric(fmap).sample(ctxs[0], rng)

    def test_chain_rule_with_linear_map(self, ctxs, rng):
        p = ctxs[0].p
        fmap = PolyMap(2, [random_poly(2, 2, rng, homogeneous=False) for _ in range(4)])
        mat = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        comp = fmap.compose_linear(mat)
        t = [rng.randrange(p) for _ in range(2)]
        direct = jacobian_rows(comp, t, p)
        pushed = [[sum(m * v for m, v in zip(mrow, row)) % p for mrow in mat]
                  for row in jacobian_rows(fmap, t, p)]
        assert direct == pushed


class TestComposeLinear:
    def test_identity(self, rng):
        fmap = PolyMap(2, [random_poly(2, 2, rng, homogeneous=False) for _ in range(3)])
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert fmap.compose_linear(eye).coords == fmap.coords

    def test_single_coordinate(self):
        nv = 1
        fmap = PolyMap(nv, [MPoly.constant(nv, 1), x(nv, 0)])
        out = fmap.compose_linear([[1, 0]])
        assert out.coords == [MPoly.constant(nv, 1)]

    def test_twisted_cubic_projection_drops_degree(self):
        nv = 1
        t = x(nv, 0)
        cubic = PolyMap(nv, [MPoly.constant(nv, 1), t, t * t, t * t * t])
        drop_last = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        conic = cubic.compose_linear(drop_last)
        assert conic.coords == [MPoly.constant(nv, 1), t, t * t]


class TestMultiply:
    def test_difference_of_squares(self):
        f = x(2, 0) + x(2, 1)
        g = x(2, 0) - x(2, 1)
        assert f * g == x(2, 0) * x(2, 0) - x(2, 1) * x(2, 1)

    def test_times_zero(self, rng):
        f = random_poly(2, 3, rng)
        assert (f * MPoly.zero(2)).is_zero()

    def test_term_count_bound(self, rng):
        f = random_poly(2, 2, rng)
        g = random_poly(2, 3, rng)
        assert len((f * g).terms) <= len(f.terms) * len(g.terms)


class TestGradEval:
    def test_product_rule_holds(self, ctxs, rng):
        p = ctxs[0].p
        for _ in range(10):
            f = random_poly(2, 3, rng, homogeneous=False)
            g = random_poly(2, 2, rng, homogeneous=False)
            t = [rng.randrange(p) for _ in range(2)]
            (fv, fd), (gv, gd) = f.grad_eval(t, p), g.grad_eval(t, p)
            value, grad = (f * g).grad_eval(t, p)
            assert value == fv * gv % p
            assert grad == [(fv * gd[i] + gv * fd[i]) % p for i in range(2)]

    def test_rejects_wrong_length(self):
        f = random_poly(3, 2, random.Random(0))
        with pytest.raises(ValueError):
            f.grad_eval([1, 2], 101)
        with pytest.raises(ValueError):
            f.grad_eval([1, 2, 3, 4], 101)

    def test_pull_back_is_composition(self, ctxs, rng):
        # Value: g(map(t)).  Gradient: the chain rule grad g(map(t)) . dmap/dt.
        p = ctxs[0].p
        fmap = PolyMap(2, [random_poly(2, 2, rng, homogeneous=False) for _ in range(3)])
        g = random_poly(3, 2, rng, homogeneous=False)
        pulled = fmap.pull_back(g)
        for _ in range(5):
            t = [rng.randrange(p) for _ in range(2)]
            values, partials = fmap.partial_rows(t, p)
            assert values == [horner_eval(c, t, p) for c in fmap.coords]
            gv, gd = g.grad_eval(values, p)
            value, grad = pulled.grad_eval(t, p)
            assert value == gv
            assert grad == [sum(a * b for a, b in zip(gd, row)) % p for row in partials]


class TestParser:
    def test_round_trip(self, rng):
        for _ in range(10):
            f = random_poly(3, 3, rng, homogeneous=False)
            assert parse_poly(poly_str(f), 3) == f

    def test_explicit_forms(self):
        f = parse_poly("x0^2*x1 - 3*x2 + 7", 3)
        expected = x(3, 0) * x(3, 0) * x(3, 1) - 3 * x(3, 2) + MPoly.constant(3, 7)
        assert f == expected
        assert parse_poly("t0*t1", 2) == x(2, 0) * x(2, 1)
        assert parse_poly("2*(x0 + x1)^2", 2) == 2 * ((x(2, 0) + x(2, 1)) * (x(2, 0) + x(2, 1)))

    def test_errors(self):
        with pytest.raises(PolyParseError):
            parse_poly("x9", 3)
        with pytest.raises(PolyParseError):
            parse_poly("x0 + ", 3)
        with pytest.raises(PolyParseError):
            parse_poly("y0", 3)

    def test_exponent_cap_rejects_before_multiplying(self, monkeypatch):
        # x^e is built by e multiplications, so an exponent above the cap
        # must be refused before the first one, however large it is.
        assert parse_poly(f"x0^{MAX_EXPONENT}", 1).degree() == MAX_EXPONENT

        def refuse(self, other):
            raise AssertionError("multiplied before rejecting the exponent")

        monkeypatch.setattr(MPoly, "__mul__", refuse)
        for text in (f"x0^{MAX_EXPONENT + 1}", "x0**10000000 - x1^10000000"):
            with pytest.raises(PolyParseError, match="exponent"):
                parse_poly(text, 2)
