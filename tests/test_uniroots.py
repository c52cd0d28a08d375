"""Univariate root finding over F_p: brute-force and residual oracles."""

from __future__ import annotations

import itertools

from secantry.linalg import derive_rng
from secantry.uniroots import poly_divmod, poly_gcd, poly_mul, poly_sub, roots

from conftest import SEED


def eval_poly(f, t, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * t + c) % p
    return acc


class TestSmallPrimeBruteForce:
    # Over a small prime every root can be found by exhaustive search,
    # which is the independent oracle for the gcd/splitting pipeline.
    def test_random_polys(self):
        p = 101
        rng = derive_rng(SEED, "uniroots-small")
        for _ in range(100):
            deg = rng.randrange(1, 7)
            f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            expected = sorted(t for t in range(p) if eval_poly(f, t, p) == 0)
            assert roots(f, p, rng) == expected

    def test_known_factorization(self):
        p = 101
        rng = derive_rng(SEED, "uniroots-known")
        # (x-3)(x-5)^2 (x^2+1): x^2+1 has roots iff -1 is a QR mod 101 (it is: 10^2=100).
        f = [1]
        for r in (3, 5, 5):
            f = poly_mul(f, [(-r) % p, 1], p)
        f = poly_mul(f, [1, 0, 1], p)
        rts = roots(f, p, rng)
        assert 3 in rts and 5 in rts
        assert rts == sorted(t for t in range(p) if eval_poly(f, t, p) == 0)


class TestLargePrime:
    def test_roots_are_exact(self, ctxs):
        rng = derive_rng(SEED, "uniroots-big")
        for ctx in ctxs:
            p = ctx.p
            for _ in range(10):
                deg = rng.randrange(2, 7)
                f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                rts = roots(f, p, rng)
                assert len(rts) <= deg
                for t in rts:
                    assert eval_poly(f, t, p) == 0

    def test_planted_roots_recovered(self, ctxs):
        rng = derive_rng(SEED, "uniroots-planted")
        p = ctxs[0].p
        planted = sorted(rng.randrange(p) for _ in range(4))
        f = [1]
        for r in planted:
            f = poly_mul(f, [(-r) % p, 1], p)
        assert roots(f, p, rng) == planted

    def test_deterministic(self, ctxs):
        p = ctxs[0].p
        f = [5, 0, 3, 1, 9]
        a = roots(f, p, derive_rng(SEED, "det"))
        b = roots(f, p, derive_rng(SEED, "det"))
        assert a == b


class TestPolyOps:
    def test_rem_and_gcd(self, ctxs):
        p = ctxs[0].p
        rng = derive_rng(SEED, "polyops")
        for _ in range(10):
            f = [rng.randrange(p) for _ in range(5)] + [1]
            g = [rng.randrange(p) for _ in range(3)] + [1]
            r = poly_divmod(f, g, p)[1]
            assert len(r) < len(g)
            d = poly_gcd(poly_mul(f, g, p), g, p)
            assert d == g  # g is monic, so gcd(fg, g) = g

    def test_divmod_against_brute_force(self):
        # Over F_101 the quotient is the only q of degree deg f - deg g with
        # deg(f - q*g) < deg g, so an exhaustive search must find exactly it.
        p = 101
        rng = derive_rng(SEED, "divmod")
        for _ in range(40):
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [rng.randrange(1, p)]
            f = [rng.randrange(p) for _ in range(rng.randrange(0, 3))] + [rng.randrange(1, p)]
            q, r = poly_divmod(f, g, p)
            assert len(r) < len(g)
            assert poly_sub(f, poly_mul(q, g, p), p) == r  # q*g + r == f
            nq = max(len(f) - len(g) + 1, 0)
            brute = [list(c) for c in itertools.product(range(p), repeat=nq)
                     if len(poly_sub(f, poly_mul(list(c), g, p), p)) < len(g)]
            assert brute == [q]
