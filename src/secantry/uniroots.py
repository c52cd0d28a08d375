"""Univariate polynomial roots over F_p.

Polynomials are dense coefficient lists in ascending degree order
([a0, a1, ...] for a0 + a1*x + ...), coefficients in [0, p).

Roots are found the classical way: gcd with x^p - x (computed by modular
exponentiation in F_p[x]/(f)) isolates the product of distinct linear
factors, then equal-degree splitting peels the roots off.  The splitting
uses an explicit RNG so results are reproducible for a fixed seed; the
returned root list is sorted, which makes it independent of the random
choices made while splitting.
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


def poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % p for c in out])


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


def poly_powmod(base: list[int], exponent: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    acc = poly_divmod(base, mod, p)[1]
    e = exponent
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, acc, p), mod, p)[1]
        acc = poly_divmod(poly_mul(acc, acc, p), mod, p)[1]
        e >>= 1
    return result


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
    # gcd(f, x^p - x) is the product of the distinct linear factors of f.
    xp = poly_powmod([0, 1], p, f, p)
    lin = poly_gcd(poly_sub(xp, [0, 1], p), f, p)
    out.extend(_split_linear(lin, p, rng))
    return sorted(out)


def _split_linear(g: list[int], p: int, rng: random.Random) -> list[int]:
    """Roots of a monic product of distinct linear factors (equal-degree splitting)."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        h = poly_powmod([a, 1], half, g, p)
        d = poly_gcd(poly_sub(h, [1], p), g, p)
        if 0 < len(d) - 1 < deg:
            other = poly_divmod(g, d, p)[0]
            return _split_linear(d, p, rng) + _split_linear(other, p, rng)
