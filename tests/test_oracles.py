"""Closed-form invariants as exact oracles, checked across whole families.

h_X(2) of a Veronese or a Segre variety is known in closed form.  The
quadric functions on v_d(P^n) are exactly the forms of degree 2d on P^n,
and those on P^a x P^b exactly the forms of bidegree (2, 2), so

    h2(v_d(P^n)) = C(n + 2d, n)    and    h2(P^a x P^b) = C(a+2, 2) * C(b+2, 2).

Source: J. Harris, Algebraic Geometry: A First Course (GTM 133, Springer,
1992), Lecture 13, the Hilbert functions of the Veronese and Segre
varieties.  Most cases here have h2 far below C(R+2, 2) (v_3(P^3): 84 of
210 columns), so `hilbert2` stops on a stalled rank, not at full rank.
Each case runs under one prime, so no maximum across primes can hide a
prime that reads short.
"""

from __future__ import annotations

from math import comb

import pytest

from secantry.hilbert import hilbert2
from secantry.linalg import derive_rng
from secantry.variety import projective_space, segre_pair, veronese

from seeds import SEED

VERONESE = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]  # (n, d)
SEGRE = [(a, b) for a in range(1, 5) for b in range(a, 5)]  # 1 <= a <= b <= 4


@pytest.mark.parametrize("n, d", VERONESE, ids=[f"v{d}-P{n}" for n, d in VERONESE])
def test_veronese_h2(ctxs, n, d):
    spec = veronese(projective_space(n), d)
    assert hilbert2(spec, ctxs[:1], derive_rng(SEED, "oracle-veronese", n, d)) == comb(n + 2 * d, n)


@pytest.mark.parametrize("a, b", SEGRE, ids=[f"P{a}xP{b}" for a, b in SEGRE])
def test_segre_h2(ctxs, a, b):
    spec = segre_pair(projective_space(a), projective_space(b))
    assert (hilbert2(spec, ctxs[:1], derive_rng(SEED, "oracle-segre", a, b))
            == comb(a + 2, 2) * comb(b + 2, 2))
