"""Closed-form invariants as exact oracles, checked across whole families.

Secant dimensions.  The secant variety of s general points of v_d(P^n)
has the expected dimension min(s(n+1) - 1, N), N = C(n+d, d) - 1, with
exactly these exceptions (J. Alexander and A. Hirschowitz, "Polynomial
interpolation in several variables", J. Algebraic Geom. 4 (1995),
201-222):

- d = 2, 2 <= s <= n: the symmetric matrices of rank <= s, of dimension
  s(n+1) - C(s, 2) - 1;
- (n, d, s) = (2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7): one less.

The secant variety of s points of the Segre P^a x P^b is the locus of
(a+1) x (b+1) matrices of rank <= s, of codimension (a+1-s)(b+1-s) (J.
Harris, Algebraic Geometry: A First Course, GTM 133, Springer, 1992,
Proposition 12.2), so s^(k) = min((k+1)(a+b+1-k) - 1, (a+1)(b+1) - 1).
Each chain runs up to the first order that fills the span.

h_X(2) of a Veronese or a Segre variety is known in closed form.  The
quadric functions on v_d(P^n) are exactly the forms of degree 2d on P^n,
and those on P^a x P^b exactly the forms of bidegree (2, 2), so

    h2(v_d(P^n)) = C(n + 2d, n)    and    h2(P^a x P^b) = C(a+2, 2) * C(b+2, 2).

Source: Harris, Lecture 13, the Hilbert functions of the Veronese and
Segre varieties.  Most cases here have h2 far below C(R+2, 2) (v_3(P^3):
84 of 210 columns), so `hilbert2` stops on a stalled rank, not at full
rank.  Each case runs under one prime with one trial, so no maximum
across primes or trials can hide a draw that reads short.
"""

from __future__ import annotations

from math import comb

import pytest

from secantry.hilbert import hilbert2
from secantry.linalg import derive_rng
from secantry.terracini import secant_dim
from secantry.variety import projective_space, segre_pair, veronese

from seeds import SEED

VERONESE = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]  # (n, d)
SEGRE = [(a, b) for a in range(1, 5) for b in range(a, 5)]  # 1 <= a <= b <= 4
# Every v_d(P^n) with n <= 5, d <= 4: the largest ambient is v_4(P^5), P^125.
AH_CHAINS = [(n, d) for n in range(1, 6) for d in range(2, 5)]
AH_DEFECT_ONE = {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}  # (n, d, s)


def veronese_secant_dims(n: int, d: int) -> list[int]:
    """dim of the secant variety of s points of v_d(P^n), s = 1 .. first filling."""
    full = comb(n + d, d) - 1
    dims = [n]
    while dims[-1] < full:
        s = len(dims) + 1
        if d == 2:
            dims.append(s * (n + 1) - comb(s, 2) - 1)
        else:
            dims.append(min(s * (n + 1) - 1, full) - ((n, d, s) in AH_DEFECT_ONE))
    return dims


def segre_secant_dims(a: int, b: int) -> list[int]:
    """s^(0..a) of P^a x P^b: rank <= k+1 matrices; order a fills the span."""
    return [min((k + 1) * (a + b + 1 - k) - 1, (a + 1) * (b + 1) - 1) for k in range(a + 1)]


@pytest.mark.parametrize("n, d", AH_CHAINS, ids=[f"v{d}-P{n}" for n, d in AH_CHAINS])
def test_veronese_secant_chain(ctxs, n, d):
    dims = veronese_secant_dims(n, d)
    rep = secant_dim(veronese(projective_space(n), d), len(dims) - 1, ctxs[:1],
                     derive_rng(SEED, "oracle-ah", n, d), trials=1)
    assert (rep.r, rep.chain) == (comb(n + d, d) - 1, dims)


@pytest.mark.parametrize("a, b", SEGRE, ids=[f"P{a}xP{b}" for a, b in SEGRE])
def test_segre_secant_chain(ctxs, a, b):
    spec = segre_pair(projective_space(a), projective_space(b))
    rep = secant_dim(spec, a, ctxs[:1], derive_rng(SEED, "oracle-segre-chain", a, b), trials=1)
    assert (rep.r, rep.chain) == ((a + 1) * (b + 1) - 1, segre_secant_dims(a, b))


@pytest.mark.parametrize("n, d", VERONESE, ids=[f"v{d}-P{n}" for n, d in VERONESE])
def test_veronese_h2(ctxs, n, d):
    spec = veronese(projective_space(n), d)
    assert hilbert2(spec, ctxs[:1], derive_rng(SEED, "oracle-veronese", n, d)) == comb(n + 2 * d, n)


@pytest.mark.parametrize("a, b", SEGRE, ids=[f"P{a}xP{b}" for a, b in SEGRE])
def test_segre_h2(ctxs, a, b):
    spec = segre_pair(projective_space(a), projective_space(b))
    assert (hilbert2(spec, ctxs[:1], derive_rng(SEED, "oracle-segre", a, b))
            == comb(a + 2, 2) * comb(b + 2, 2))
