"""Univariate root finding over F_p: brute-force and residual oracles."""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import secantry
from secantry.linalg import derive_rng
from secantry.uniroots import (_pow_shift, _split_linear, poly_divmod, poly_gcd, poly_sub,
                               roots, sqrt_mod, trim)

from seeds import SEED

# The first prime of seed 1.  p = 1 mod 8, so 8 divides p - 1 and the
# Tonelli-Shanks loop runs for most squares.
P62 = 3612720013493706217
NONRESIDUE = next(z for z in range(2, 100) if pow(z, (P62 - 1) // 2, P62) == P62 - 1)


def eval_poly(f, t, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * t + c) % p
    return acc


def poly_mul(f, g, p):
    """Schoolbook product, the oracles' own helper (the library has none)."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim([c % p for c in out])


def from_roots(rts, p):
    f = [1]
    for r in rts:
        f = poly_mul(f, [(-r) % p, 1], p)
    return f


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
        f = poly_mul(from_roots([3, 5, 5], p), [1, 0, 1], p)
        rts = roots(f, p, rng)
        assert 3 in rts and 5 in rts
        assert rts == sorted(t for t in range(p) if eval_poly(f, t, p) == 0)


class TestBruteForceAcrossPrimes:
    # Every polynomial of degree d over F_p while p^(d+1) is small, random
    # and planted ones above that; F_2 keeps the gcd path, odd p the formula.
    PRIMES = (2, 3, 5, 7, 17, 97, 257)
    EXHAUSTIVE = 5000

    def cases(self, p, d, rng):
        if p ** (d + 1) <= self.EXHAUSTIVE:
            for c in itertools.product(range(p), repeat=d):
                for lead in range(1, p):
                    yield list(c) + [lead]
            return
        for _ in range(100):
            k = rng.randrange(d + 1)  # planted roots, repeats allowed
            rest = [rng.randrange(p) for _ in range(d - k)] + [rng.randrange(1, p)]
            yield poly_mul(from_roots([rng.randrange(p) for _ in range(k)], p), rest, p)

    def test_degrees_1_to_6(self):
        rng = derive_rng(SEED, "uniroots-primes")
        for p in self.PRIMES:
            for d in range(1, 7):
                for f in self.cases(p, d, rng):
                    expected = sorted(t for t in range(p) if eval_poly(f, t, p) == 0)
                    assert roots(f, p, rng) == expected, (p, f)


class TestPowShift:
    # (x + a)^e mod a monic f.  Cubics take the unrolled kernel and are checked
    # against square-and-multiply through schoolbook products and the library's
    # long division; their f include zero coefficients, x^3 and a planted
    # (x + a)^3 (whose power vanishes).  Other degrees take that same
    # square-and-multiply in the library, so they are checked by evaluation:
    # on f = (x - r_1)...(x - r_n) with distinct r_i, a remainder of degree < n
    # is fixed by its values at the r_i, which must be (r_i + a)^e.
    PRIMES = (2, 3, 5, 7, 101, 257, 7681, P62)

    @staticmethod
    def oracle(a, e, f, p):
        acc = [1]
        for bit in bin(e)[2:]:
            acc = poly_divmod(poly_mul(acc, acc, p), f, p)[1]
            if bit == "1":
                acc = poly_divmod(poly_mul(acc, [a, 1], p), f, p)[1]
        return acc

    @staticmethod
    def exponents(p, rng):
        return (1, 2, 3, p, (p - 1) // 2, rng.randrange(1 << 64))

    def test_monic_cubics(self):
        rng = derive_rng(SEED, "pow-shift", "cubic")
        for p in self.PRIMES:
            for a in (0, rng.randrange(1, p)):
                fs = [[rng.randrange(p) for _ in range(3)] + [1] for _ in range(3)]
                fs += [[0, 0, 0, 1], [rng.randrange(p), 0, 0, 1], [0, rng.randrange(p), 0, 1],
                       [0, 0, rng.randrange(p), 1], [c % p for c in (a ** 3, 3 * a * a, 3 * a, 1)]]
                for f in fs:
                    for e in self.exponents(p, rng):
                        assert _pow_shift(a, e, f, p) == self.oracle(a, e, f, p), (a, e, f, p)

    def test_other_degrees(self):
        rng = derive_rng(SEED, "pow-shift", "other")
        for n, p in ((n, p) for n in (1, 2, 4, 5, 8) for p in self.PRIMES if p >= n):
            for a in (0, rng.randrange(1, p)):
                for plant in (False, True):
                    rs = rng.sample(range(p), n)
                    if plant and (-a) % p not in rs:
                        rs[0] = (-a) % p  # a root of x + a: the power vanishes there
                    for e in self.exponents(p, rng):
                        got = _pow_shift(a, e, from_roots(rs, p), p)
                        assert len(got) <= n and (not got or got[-1]), (a, e, rs, p)
                        assert [eval_poly(got, r, p) for r in rs] == \
                            [pow(r + a, e, p) for r in rs], (a, e, rs, p)


class TestSqrtMod:
    def test_every_odd_prime_below_400(self):
        odd_primes = [p for p in range(3, 400) if all(p % q for q in range(2, p))]
        assert 257 in odd_primes and 17 in odd_primes  # p = 1 mod 8: s = 8 and 4
        for p in odd_primes:
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                s = sqrt_mod(a, p)
                if a in squares:
                    assert s is not None and s * s % p == a, (a, p)
                else:
                    assert s is None, (a, p)

    def test_alternating_primes_match_brute_force(self):
        # Consecutive calls switch primes, so each prime's cached non-residue
        # must serve that prime alone.  p - 1 = 2^8 for 257 and 15 * 2^9 for
        # 7681: the Tonelli-Shanks loop runs up to eight and nine rounds.
        primes = [257, 7681, 3, 17, 7681, 97, 257, 5]
        square_roots = {}
        for p in set(primes):
            for x in range(p):
                square_roots.setdefault((p, x * x % p), set()).add(x)
        for a in range(7681):
            for p in primes:
                s = sqrt_mod(a, p)
                want = square_roots.get((p, a % p))
                assert (s is None if want is None else s in want), (a, p)

    def test_large_prime(self):
        rng = derive_rng(SEED, "sqrt-big")
        for _ in range(50):
            x = rng.randrange(P62)
            s = sqrt_mod(x * x, P62)
            assert s in (x, P62 - x)
        assert sqrt_mod(NONRESIDUE, P62) is None


class TestQuadraticFormula:
    def test_planted_double_root(self):
        r = derive_rng(SEED, "double").randrange(P62)
        assert roots(from_roots([r, r], P62), P62, derive_rng(SEED, "q")) == [r]

    def test_two_planted_roots(self):
        rng = derive_rng(SEED, "two")
        r1, r2 = rng.randrange(P62), rng.randrange(P62)
        f = [7 * c % P62 for c in from_roots([r1, r2], P62)]  # not monic
        assert roots(f, P62, rng) == sorted({r1, r2})

    def test_irreducible_quadratic(self):
        assert roots([P62 - NONRESIDUE, 0, 1], P62, derive_rng(SEED, "irr")) == []

    def test_no_draws(self):
        rng = derive_rng(SEED, "no-draws")
        state = rng.getstate()
        for f in ([3, 5, 1], from_roots([11, 12], P62), [2, 0, 1]):
            roots(f, P62, rng)
            assert rng.getstate() == state


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
        assert roots(from_roots(planted, p), p, rng) == planted

    def test_deterministic(self, ctxs):
        p = ctxs[0].p
        f = [5, 0, 3, 1, 9]
        a = roots(f, p, derive_rng(SEED, "det"))
        b = roots(f, p, derive_rng(SEED, "det"))
        assert a == b


class TestSplitLinear:
    def test_irreducible_cubic_is_refused_not_retried_forever(self):
        # x^3 - 2 is irreducible over F_7 (2 is not a cube there), so no draw
        # splits it; the bounded retries must end well inside the alarm.
        def timeout(signum, frame):
            raise TimeoutError("_split_linear kept retrying")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            with pytest.raises(ArithmeticError):
                _split_linear([5, 0, 0, 1], 7, derive_rng(SEED, "irreducible"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestCompositeModulus:
    def test_composite_modulus_is_refused_not_searched_forever(self):
        # Modulo 23*29 the Tonelli-Shanks order search never reaches 1 for
        # 3 * -1, so a refusal must come before it.  The calls run in a
        # subprocess: a hang fails on the timeout instead of stalling the suite.
        script = (
            "import random\n"
            "from secantry import uniroots\n"
            "for call in (lambda: uniroots.roots([3, 0, 1], 23 * 29, random.Random(0)),\n"
            "             lambda: uniroots.sqrt_mod(-3, 23 * 29),\n"
            "             lambda: uniroots.roots([1, 1], 4, random.Random(0))):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(secantry.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["modulus 667 is not prime"] * 2 + [
            "modulus 4 is not prime"]


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
