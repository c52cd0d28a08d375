"""Univariate polynomial roots over F_p.

Polynomials are dense coefficient lists in ascending degree order
([a0, a1, ...] for a0 + a1*x + ...), coefficients in [0, p).

Over an odd prime, degree <= 2 is solved by formula (Tonelli-Shanks for
the square root, one exponentiation per call).  Higher degrees go the
Cantor-Zassenhaus way: gcd with x^p - x isolates the product of distinct
linear factors, then splitting with (x + a)^((p-1)/2) peels the roots off.
One kernel, `_pow_shift`, computes both powers by square-and-multiply with
`poly_divmod` as its one long division, unrolled for a cubic.  Only
splitting degree >= 3 draws from the RNG, and the root list is sorted, so
it does not depend on those draws.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .linalg import SAMPLE_RETRIES, is_prime_u64


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, a in enumerate(f):
        out[i] = a % p
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return trim(out)


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient q and remainder r of f by g: f = q*g + r with deg r < deg g."""
    g = trim([c % p for c in g])
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim([c % p for c in f])
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    inv_lead = pow(g[-1], -1, p)
    while len(r) > dg:
        shift = len(r) - 1 - dg
        c = r[-1] * inv_lead % p
        q[shift] = c
        for i, b in enumerate(g):
            r[shift + i] = (r[shift + i] - c * b) % p
        trim(r)
    return trim(q), r


def poly_monic(f: list[int], p: int) -> list[int]:
    f = trim([c % p for c in f])
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a = trim([c % p for c in f])
    b = trim([c % p for c in g])
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return poly_monic(a, p)


@lru_cache(maxsize=64)
def _field(p: int) -> None:
    """ValueError unless p is prime: modulo a composite the order search of
    `sqrt_mod` need not end.  Cached, so a call costs one lookup per modulus."""
    if not is_prime_u64(p):
        raise ValueError(f"modulus {p} is not prime")


@lru_cache(maxsize=64)
def _tonelli_shanks(p: int) -> tuple[int, int, int]:
    """(q, s, z^q mod p) for p - 1 = q * 2^s with q odd and z the least non-residue."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    return q, s, pow(z, q, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the prime p (Tonelli-Shanks), None for a non-residue,
    ValueError for a composite p.  The non-residue Tonelli-Shanks needs is found
    once per prime.  One power, b = a^((q-1)/2), gives r = a*b = a^((q+1)/2) and
    t = r*b = a^q; t has order 2^s exactly when a is a non-residue (Euler's
    criterion), so the order search reaching i == s stands in for a second power."""
    _field(p)
    a %= p
    if a == 0 or p == 2:
        return a
    q, s, c = _tonelli_shanks(p)
    b = pow(a, (q - 1) // 2, p)
    r = a * b % p
    t = r * b % p
    while t != 1:
        # Least i with t^(2^i) = 1; b = c^(2^(s-i-1)) lowers the order of t.
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        if i == s:
            return None
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots(f: list[int], p: int) -> list[int]:
    """Roots of a monic quadratic x^2 + b x + c over an odd prime, sorted."""
    c, b = f[0], f[1]
    s = sqrt_mod(b * b - 4 * c, p)
    if s is None:
        return []
    inv2 = (p + 1) // 2
    return sorted({(-b + s) * inv2 % p, (-b - s) * inv2 % p})


def _pow_shift(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + a)^e mod a monic f of degree >= 1 by square-and-multiply, reduced by
    `poly_divmod`.  Above degree 2 the benchmark workloads solve only cubics, which
    `_pow_shift3` unrolls; the loop serves degree >= 4, and degrees 1 and 2 over F_2."""
    if len(f) == 4:
        return _pow_shift3(a, e, f, p)
    r = [1]
    for bit in bin(e)[2:]:
        w = [0] * (2 * len(r) - 1)
        for i, u in enumerate(r):
            for j, v in enumerate(r):
                w[i + j] += u * v
        if bit == "1":
            w = [u + a * v for u, v in zip([0] + w, w + [0])]
        r = poly_divmod(w, f, p)[1]
    return r


def _pow_shift3(a: int, e: int, f: list[int], p: int) -> list[int]:
    """`_pow_shift` on r0 + r1 x + r2 x^2 mod a monic cubic f: five products square
    it, a set bit shifts and adds x + a, and the x^5, x^4 and x^3 terms fold by
    x^3 = -(f0 + f1 x + f2 x^2), one `% p` per coefficient per bit."""
    f0, f1, f2 = f[0], f[1], f[2]
    r0, r1, r2 = 1, 0, 0
    for bit in bin(e)[2:]:
        d0 = r0 + r0
        s0, s1, s2, s3, s4 = r0 * r0, d0 * r1, r1 * r1 + d0 * r2, (r1 + r1) * r2, r2 * r2
        if bit == "1":
            c = s4 % p  # x^5
            s0, s1, s2, s3, s4 = (a * s0, s0 + a * s1, s1 + a * s2 - c * f0,
                                  s2 + a * s3 - c * f1, s3 + a * s4 - c * f2)
        c = s4 % p  # x^4
        s1, s2, s3 = s1 - c * f0, s2 - c * f1, s3 - c * f2
        c = s3 % p  # x^3
        r0, r1, r2 = (s0 - c * f0) % p, (s1 - c * f1) % p, (s2 - c * f2) % p
    return trim([r0, r1, r2])


def roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """All roots of f in F_p, sorted ascending.  f must be nonzero mod p, and p
    prime (ValueError otherwise)."""
    _field(p)
    f = trim([c % p for c in f])
    if not f:
        raise ValueError("zero polynomial has every root")
    out: list[int] = []
    # Factor out x: constant term zero means 0 is a root.
    while len(f) > 1 and f[0] == 0:
        if 0 not in out:
            out.append(0)
        f = f[1:]
    if len(f) <= 1:
        return sorted(out)
    f = poly_monic(f, p)
    if len(f) > 3 or p == 2:
        # gcd(f, x^p - x) is the product of the distinct linear factors of f.
        f = poly_gcd(poly_sub(_pow_shift(0, p, f, p), [0, 1], p), f, p)
    out.extend(_split_linear(f, p, rng))
    return sorted(out)


def _split_linear(g: list[int], p: int, rng: random.Random) -> list[int]:
    """Roots of a monic g of degree <= 2, or of a monic product of distinct
    linear factors (equal-degree splitting).  A draw fails to split such a
    product of degree >= 3 with probability <= 1/4, so SAMPLE_RETRIES failures
    mean g is not one: ArithmeticError, a bug rather than bad luck."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    if deg == 2:
        return _quadratic_roots(g, p)  # p is odd: over F_2, deg g <= 1 here
    half = (p - 1) // 2
    for _ in range(SAMPLE_RETRIES):
        a = rng.randrange(p)
        d = poly_gcd(poly_sub(_pow_shift(a, half, g, p), [1], p), g, p)
        if 0 < len(d) - 1 < deg:
            other = poly_divmod(g, d, p)[0]
            return _split_linear(d, p, rng) + _split_linear(other, p, rng)
    raise ArithmeticError(f"no split in {SAMPLE_RETRIES} draws: not distinct linear factors")
