"""Univariate polynomial roots over F_p.

Polynomials are dense coefficient lists in ascending degree order
([a0, a1, ...] for a0 + a1*x + ...), coefficients in [0, p).

Over an odd prime, degree <= 2 is solved by formula (Tonelli-Shanks for
the square root).  Higher degrees go the Cantor-Zassenhaus way: gcd with
x^p - x isolates the product of distinct linear factors, then splitting
with (x + a)^((p-1)/2) peels the roots off; one kernel, `_pow_shift`,
computes both powers.  Only splitting degree >= 3 draws from the RNG, and
the root list is sorted, so it does not depend on those draws.
"""

from __future__ import annotations

import random


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


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the prime p (Tonelli-Shanks), or None for a non-residue."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # Least i with t^(2^i) = 1; b = c^(2^(s-i-1)) lowers the order of t.
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
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
    """(x + a)^e mod a monic f of degree n >= 1: square, shift-and-add x + a on
    a set bit, reduce from the top by x^n = -(f_0 + ... + f_{n-1} x^{n-1}).
    Its own reduction, not `poly_divmod`: a monic f needs no inverse or quotient,
    and root finding ran about a third slower through a lazy `poly_divmod`."""
    n = len(f) - 1
    r = [1]
    for bit in bin(e)[2:]:
        m = len(r)
        w = [0] * (2 * m - 1)
        for i, u in enumerate(r):
            if u:
                w[2 * i] += u * u
                u2 = 2 * u
                for j in range(i + 1, m):
                    w[i + j] += u2 * r[j]
        if bit == "1":
            w = [a * w[0]] + [w[i - 1] + a * w[i] for i in range(1, len(w))] + [w[-1]]
        for k in range(len(w) - 1, n - 1, -1):
            c = w[k] % p
            if c:
                for i in range(n):
                    w[k - n + i] -= c * f[i]
        r = [v % p for v in w[:n]]
    return trim(r)


def roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """All roots of f in F_p, sorted ascending.  f must be nonzero mod p."""
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
    linear factors (equal-degree splitting)."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    if deg == 2:
        return _quadratic_roots(g, p)  # p is odd: over F_2, deg g <= 1 here
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        d = poly_gcd(poly_sub(_pow_shift(a, half, g, p), [1], p), g, p)
        if 0 < len(d) - 1 < deg:
            other = poly_divmod(g, d, p)[0]
            return _split_linear(d, p, rng) + _split_linear(other, p, rng)
