"""Polynomial arithmetic, gradients and Jacobian frames, with independent oracles."""

from __future__ import annotations

import random

import pytest

from secantry.linalg import rank
from secantry.mpoly import (MAX_EXPONENT, MPoly, PolyMap, PolyParseError, monomial_exponents,
                            parse_poly, poly_str, random_poly)
from secantry.variety import Parametric, SampleExhausted, _max_var_index

P62 = 4611686018427387847  # 2^62 - 57, prime


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

    # Edge cases of the token grammar: implicit products, `**` as `^`,
    # whitespace that splits a variable, and Unicode digits: `٣` is a decimal
    # digit, `²` is not one that int() reads.  A rejection need only be a
    # ValueError, of which PolyParseError is one.
    @pytest.mark.parametrize("text, expected", [
        ("2x0", lambda: 2 * x(4, 0)),
        ("x0 x1", lambda: x(4, 0) * x(4, 1)),
        ("(x0+1)(x1+1)", lambda: (x(4, 0) + 1) * (x(4, 1) + 1)),
        ("x0**2", lambda: x(4, 0) * x(4, 0)),
        ("t1 - -x2", lambda: x(4, 1) + x(4, 2)),
        ("x٣", lambda: x(4, 3)),
        ("x0***2", None),
        ("x 0", None),
        ("x", None),
        ("x0²", None),
        ("x0 % 2", None),
    ])
    def test_token_table(self, text, expected):
        if expected is None:
            with pytest.raises(ValueError):
                parse_poly(text, 4)
        else:
            assert parse_poly(text, 4) == expected()

    def test_max_var_index(self):
        assert _max_var_index(["1", "2 + 3"]) == -1
        assert _max_var_index(["x0*t4", "t2 - x3", "7x1"]) == 4

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


def dense_grad_eval(f: MPoly, point, p):
    """Oracle: value and gradient term by term, every exponent through pow()."""
    pt = [v % p for v in point]
    value = 0
    grad = [0] * f.nvars
    for e, c in f.terms.items():
        support = [(i, k, pow(pt[i], k - 1, p)) for i, k in enumerate(e) if k]
        full = [low * pt[i] % p for i, _, low in support]
        c %= p
        t = c
        for v in full:
            t = t * v % p
        value += t
        for a, (i, k, low) in enumerate(support):
            d = c * k * low
            for b, v in enumerate(full):
                if b != a:
                    d = d * v % p
            grad[i] += d
    return value % p, [g % p for g in grad]


def dense_to_univariate(f: MPoly, values, p):
    """Oracle: the coefficients in the free slot, collected term by term."""
    var = values.index(None)
    coeffs: dict[int, int] = {}
    for e, c in f.terms.items():
        t = c % p
        for i, k in enumerate(e):
            if k and i != var:
                t = t * pow(values[i] % p, k, p) % p
        coeffs[e[var]] = (coeffs.get(e[var], 0) + t) % p
    out = [0] * (max(coeffs, default=-1) + 1)
    for d, c in coeffs.items():
        out[d] = c
    while out and out[-1] == 0:
        out.pop()
    return out


def mixed_poly(nvars: int, p: int, rng: random.Random) -> MPoly:
    """A constant, linear terms, a dense or sparse quadric and higher terms.

    Coefficients are small or 63-bit, of either sign, and may vanish mod p;
    the higher terms reach degree p + 2 and exponent p + 1.
    """
    def coef():
        return rng.choice((rng.randrange(-6, 7), rng.randrange(-(1 << 63), 1 << 63)))

    terms = {(0,) * nvars: coef()} if rng.random() < 0.7 else {}
    for e in monomial_exponents(nvars, 1):
        if rng.random() < 0.6:
            terms[e] = coef()
    quadric = monomial_exponents(nvars, 2)
    dense = rng.random() < 0.5
    for e in quadric if dense else rng.sample(quadric, min(2, len(quadric))):
        terms[e] = coef()
    for _ in range(rng.randrange(4)):
        terms[rng.choice(monomial_exponents(nvars, rng.randrange(3, min(p, 5) + 3)))] = coef()
    if p < 100:
        e = [0] * nvars
        e[rng.randrange(nvars)] = p + 1
        terms[tuple(e)] = coef()
    return MPoly(nvars, terms)


class TestPlanAgainstDense:
    """Each prime's evaluation plan against the term-by-term dense loops."""

    @pytest.mark.parametrize("p", [2, 3, 101, P62])
    def test_random_polynomials(self, p, rng):
        for _ in range(40):
            nv = rng.randrange(1, 6)
            f = mixed_poly(nv, p, rng)
            for _ in range(3):
                t = [rng.choice((0, rng.randrange(-p, 2 * p))) for _ in range(nv)]
                assert f.grad_eval(t, p) == dense_grad_eval(f, t, p)
                values = list(t)
                values[rng.randrange(nv)] = None
                assert f.to_univariate(values, p) == dense_to_univariate(f, values, p)

    def test_dense_quadric_in_23_variables(self, rng):
        # The shape of the catalog's largest cone section (276 terms).
        for p in (3, P62):
            f = random_poly(23, 2, rng)
            t = [rng.randrange(p) for _ in range(23)]
            assert f.grad_eval(t, p) == dense_grad_eval(f, t, p)
            for j in (0, 11, 22):
                values = t[:j] + [None] + t[j + 1:]
                assert f.to_univariate(values, p) == dense_to_univariate(f, values, p)

    def test_square_at_two(self):
        # At p = 2 the gradient row of 3*x0^2 is 6*x0 = 0, yet its value is x0^2.
        f = parse_poly("3*x0^2 + x1", 2)
        assert f.grad_eval([1, 0], 2) == (1, [0, 1])
        assert f.to_univariate([None, 0], 2) == [0, 0, 1]
        assert f.to_univariate([1, None], 2) == [1, 1]

    def test_primes_alternate_on_one_polynomial(self, rng):
        # Each prime keeps its own cached plan; switching back reuses it.
        f = mixed_poly(4, 5, rng)
        for _ in range(3):
            for p in (5, P62, 101):
                t = [rng.randrange(p) for _ in range(4)]
                assert f.grad_eval(t, p) == dense_grad_eval(f, t, p)
                values = t[:2] + [None] + t[3:]
                assert f.to_univariate(values, p) == dense_to_univariate(f, values, p)

    @staticmethod
    def assert_map_matches_dense(fmap: PolyMap, point, p):
        """partial_rows against dense_grad_eval, coordinate by coordinate."""
        values, rows = fmap.partial_rows(point, p)
        assert len(values) == len(fmap.coords) and len(rows) == fmap.nvars
        for a, f in enumerate(fmap.coords):
            assert (values[a], [row[a] for row in rows]) == dense_grad_eval(f, point, p)

    @pytest.mark.parametrize("p", [2, 3, 101, P62])
    def test_map_plan(self, p, rng):
        for _ in range(20):
            nv = rng.randrange(1, 5)
            shared = mixed_poly(nv, p, rng)
            t0 = MPoly.variable(nv, 0)
            coords = [
                shared,
                shared * 5 + mixed_poly(nv, p, rng),  # shares every monomial of `shared`
                MPoly.zero(nv),
                MPoly.monomial(nv, (1,) * nv, 7 * p) + t0,  # a coefficient = 0 mod p
                MPoly.constant(nv, rng.randrange(-(1 << 63), 1 << 63)),
            ]
            if p < 200:  # d/dt0 t0^p = p t0^(p-1) = 0 mod p
                coords.append(MPoly.monomial(nv, (p,) + (0,) * (nv - 1)) * 3 + t0 * t0)
            fmap = PolyMap(nv, coords)
            for _ in range(3):
                t = [rng.choice((0, rng.randrange(-p, 2 * p))) for _ in range(nv)]
                self.assert_map_matches_dense(fmap, t, p)

    def test_map_plan_per_prime(self, rng):
        # One map, its plans cached per prime and reused when the prime comes back.
        fmap = PolyMap(3, [mixed_poly(3, 5, rng) for _ in range(4)])
        for _ in range(3):
            for p in (5, P62, 101):
                self.assert_map_matches_dense(fmap, [rng.randrange(p) for _ in range(3)], p)

    def test_constant_maps(self):
        fmap = PolyMap(2, [MPoly.constant(2, 9), MPoly.constant(2, 14), MPoly.zero(2)])
        assert fmap.partial_rows([3, 4], 7) == ([2, 0, 0], [[0, 0, 0], [0, 0, 0]])
        assert PolyMap(0, [MPoly.constant(0, -1)]).partial_rows([], 7) == ([6], [])

    def test_map_point_length(self):
        fmap = PolyMap(2, [parse_poly("x0*x1 + 1", 2)])
        for point in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="point length"):
                fmap.partial_rows(point, 7)

    def test_zero_and_constant(self):
        assert MPoly.zero(2).grad_eval([3, 4], 7) == (0, [0, 0])
        assert MPoly.zero(2).to_univariate([None, 4], 7) == []
        assert MPoly.constant(2, 9).to_univariate([None, 4], 7) == [2]
        assert MPoly.constant(2, 14).to_univariate([None, 4], 7) == []
