"""Sparse multivariate polynomial arithmetic, evaluation and composition.

Polynomials carry *integer* coefficients and are reduced modulo a prime
only at evaluation time.  That way one polynomial (or one variety
description built from polynomials) can be evaluated under several
independently drawn primes, which is how every dimension measurement in
this package gets cross-checked.

Ring operations (+, *, partial derivatives) are exact over the integers.
A term map {exponent_tuple: coefficient} never stores zero coefficients,
and, like a map's coordinates, is not changed once evaluated.

Evaluation goes through plans built on first use under a prime and cached
on the object.  A map plan serves `PolyMap.partial_rows`, every sampled
frame: the distinct monomials that the coordinates and first partials
read, each one variable times an earlier one, with each output entry a
sparse sum over them.  A polynomial plan serves `MPoly.grad_eval` and
`to_univariate`: the terms mod p by degree (constant; linear l; the quadric
as rows of an upper-triangular U, value x . Ux, and of M = U + U^T,
gradient Mx; sparse terms of degree >= 3 over power tables x_i^0..x_i^top),
whose dense quadric rows are cheaper on a quadric in many variables.
"""

from __future__ import annotations

import itertools
import random
import re
from math import prod
from operator import mul


class MPoly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("nvars", "terms", "_plans")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._plans: dict[int, _Plan] = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: tuple[int, ...], c: int = 1) -> "MPoly":
        return cls(nvars, {tuple(exps): c})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            other = MPoly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            other = MPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {poly_str(self)!r})"

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var: int) -> "MPoly":
        """Formal partial derivative with respect to variable `var`."""
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = list(e)
                e2[var] = k - 1
                key = tuple(e2)
                terms[key] = terms.get(key, 0) + c * k
        return MPoly(self.nvars, terms)

    def eval(self, point: list[int], p: int) -> int:
        return self.grad_eval(point, p)[0]

    def grad_eval(self, point: list[int], p: int) -> tuple[int, list[int]]:
        """Value and full gradient at `point`, from this prime's plan."""
        if len(point) != self.nvars:
            raise ValueError("point length must equal nvars")
        plan = self._plans.get(p) or self._plans.setdefault(p, _Plan(self, p))
        x = [v % p for v in point]
        value = plan.const + sum(map(mul, plan.lin, x))
        grad = list(plan.lin)
        for i, m, u in plan.quad:
            grad[i] += sum(map(mul, m, x))
            value += x[i] * sum(map(mul, u, x))
        if plan.rest:
            pw = plan.powers(x, p)
            for c, sup in plan.rest:
                value += c * prod([pw[i][k] for i, k in sup])
            for i, c, sup in plan.partials:
                grad[i] += c * prod([pw[j][k] for j, k in sup])
        return value % p, [g % p for g in grad]

    def to_univariate(self, values: list[int | None], p: int) -> list[int]:
        """Substitute numbers for all variables except the single None slot.

        Returns ascending coefficients of the remaining univariate polynomial.
        The quadric's three are read off the plan: U[j][j], M[j] . x + l[j]
        and the value at x_j = 0.
        """
        if len(values) != self.nvars:
            raise ValueError("values length must equal nvars")
        free = [i for i, v in enumerate(values) if v is None]
        if len(free) != 1:
            raise ValueError("exactly one variable must stay free")
        j = free[0]
        plan = self._plans.get(p) or self._plans.setdefault(p, _Plan(self, p))
        x = [0 if v is None else v % p for v in values]
        out = [plan.const + sum(map(mul, plan.lin, x)), plan.lin[j], 0]
        for i, m, u in plan.quad:
            out[0] += x[i] * sum(map(mul, u, x))
            if i == j:
                out[1] += sum(map(mul, m, x))
                out[2] = u[j]
        if plan.rest:
            pw = plan.powers(x, p)
            for c, sup in plan.rest:
                d = dict(sup).get(j, 0)
                out += [0] * (d + 1 - len(out))
                out[d] += c * prod([pw[i][k] for i, k in sup if i != j])
        out = [c % p for c in out]
        while out and out[-1] == 0:
            out.pop()
        return out

    def shift_vars(self, offset: int, new_nvars: int) -> "MPoly":
        """Reinterpret in a larger variable set, shifting indices by `offset`."""
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * new_nvars
            for i, k in enumerate(e):
                e2[offset + i] = k
            terms[tuple(e2)] = c
        return MPoly(new_nvars, terms)


class _Plan:
    """One polynomial's terms under one prime, by degree (module doc: why not a _MapPlan)."""

    __slots__ = ("const", "lin", "quad", "rest", "partials", "tops")

    def __init__(self, f: MPoly, p: int):
        n = f.nvars
        const, lin, quad = 0, [0] * n, {}
        self.rest, self.partials, tops = [], [], {}
        for e, c in f.terms.items():
            sup = tuple((i, k) for i, k in enumerate(e) if k)
            deg = sum(k for _, k in sup)
            if deg == 0:
                const += c
            elif deg == 1:
                lin[sup[0][0]] += c
            elif deg == 2:
                i, j = sup[0][0], sup[-1][0]
                quad.setdefault(j, ([0] * n, [0] * n))[0][i] += c
                m_i, u_i = quad.setdefault(i, ([0] * n, [0] * n))
                m_i[j] += c
                u_i[j] = c
            elif c % p:
                self.rest.append((c % p, sup))
                for a, (i, k) in enumerate(sup):
                    tops[i] = max(tops.get(i, 0), k)
                    low = sup[:a] + ((i, k - 1),) * (k > 1) + sup[a + 1:]
                    self.partials.append((i, c * k % p, low))
        self.const, self.lin, self.tops = const % p, [c % p for c in lin], sorted(tops.items())
        # At p = 2 the M row of x0^2 is 2 = 0, but its U row is not.
        self.quad = [(i, [c % p for c in m], [c % p for c in u])
                     for i, (m, u) in sorted(quad.items())]

    def powers(self, x: list[int], p: int) -> dict[int, list[int]]:
        """x_i^0 .. x_i^top for every variable of the degree >= 3 terms."""
        pw = {}
        for i, top in self.tops:
            pw[i] = row = [1, x[i]]
            for _ in range(top - 1):
                row.append(row[-1] * x[i] % p)
        return pw


class PolyMap:
    """An ordered tuple of polynomials in shared variables (a coordinate map)."""

    __slots__ = ("nvars", "coords", "_plans")

    def __init__(self, nvars: int, coords: list[MPoly]):
        if not coords:
            raise ValueError("a map needs at least one coordinate")
        if any(c.nvars != nvars for c in coords):
            raise ValueError("all coordinates must share nvars")
        if all(c.is_zero() for c in coords):
            raise ValueError("all coordinates identically zero")
        self.nvars = nvars
        self.coords = list(coords)
        self._plans: dict[int, _MapPlan] = {}

    def partial_rows(self, point: list[int], p: int) -> tuple[list[int], list[list[int]]]:
        """The map's values at `point` and its rows d/dt_j there, from this prime's
        map plan: each monomial they read is evaluated once, by one multiplication."""
        if len(point) != self.nvars:
            raise ValueError("point length must equal nvars")
        plan = self._plans.get(p) or self._plans.setdefault(p, _MapPlan(self, p))
        m = [1]
        for low, i in plan.steps:
            m.append(m[low] * point[i] % p)
        out = plan.base[:]
        for at, c, k in plan.ones:
            out[at] = c * m[k] % p
        for at, cs, ks in plan.sums:
            out[at] = sum(map(mul, cs, map(m.__getitem__, ks))) % p
        w = len(self.coords)
        return out[:w], [out[at:at + w] for at in range(w, len(out), w)]

    def pull_back(self, g: MPoly) -> MPoly:
        """The composite g o self: g's variables replaced by these coordinates."""
        if g.nvars != len(self.coords):
            raise ValueError("g needs one variable per coordinate")
        acc = MPoly.zero(self.nvars)
        for e, c in g.terms.items():
            term = MPoly.constant(self.nvars, c)
            for coord, k in zip(self.coords, e):
                for _ in range(k):
                    term = term * coord
            acc = acc + term
        return acc

    def compose_linear(self, mat: list[list[int]]) -> "PolyMap":
        """Left-compose with a linear map: coordinates become mat . coords."""
        if any(len(row) != len(self.coords) for row in mat):
            raise ValueError("matrix width must match coordinate count")
        new = []
        for row in mat:
            acc = MPoly.zero(self.nvars)
            for a, c in zip(row, self.coords):
                if a:
                    acc = acc + c * a
            new.append(acc)
        return PolyMap(self.nvars, new)


class _MapPlan:
    """A map's values and first partials under one prime (see module doc)."""

    __slots__ = ("steps", "base", "ones", "sums")

    def __init__(self, fmap: PolyMap, p: int):
        index, self.steps = {(0,) * fmap.nvars: 0}, []

        def monomial(e: tuple[int, ...]) -> int:
            if e not in index:  # e is x_i, its first variable, times a lower monomial
                i = next(i for i, k in enumerate(e) if k)
                self.steps.append((monomial(e[:i] + (e[i] - 1,) + e[i + 1:]), i))
                index[e] = len(self.steps)
            return index[e]

        w = len(fmap.coords)
        entries = [{} for _ in range((fmap.nvars + 1) * w)]  # row r, coordinate a at r * w + a
        for a, f in enumerate(fmap.coords):
            for e, c in f.terms.items():
                reads = [(a, e, c)] + [((j + 1) * w + a, e[:j] + (k - 1,) + e[j + 1:], c * k)
                                       for j, k in enumerate(e) if k]
                for at, low, coef in reads:
                    if coef % p:
                        entries[at][monomial(low)] = coef % p
        # Monomial 0 is the constant 1: an entry that reads no other is fixed.
        self.base = [0 if any(d) else d.get(0, 0) for d in entries]
        self.ones = [(at, c, k) for at, d in enumerate(entries) if len(d) == 1 and any(d)
                     for k, c in d.items()]
        self.sums = [(at, tuple(d.values()), tuple(d)) for at, d in enumerate(entries)
                     if len(d) > 1]


# -- monomial bookkeeping ----------------------------------------------------


def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree `degree`, in a fixed deterministic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def random_poly(nvars: int, degree: int, rng: random.Random,
                homogeneous: bool = True) -> MPoly:
    """Dense random polynomial with integer coefficients in [1, 2**61)."""
    degs = [degree] if homogeneous else range(degree + 1)
    terms = {}
    for d in degs:
        for e in monomial_exponents(nvars, d):
            terms[e] = rng.randrange(1, 1 << 61)
    return MPoly(nvars, terms)


# -- parsing and printing ----------------------------------------------------


def poly_str(f: MPoly, names: str = "x") -> str:
    """Canonical string form: integer-coefficient terms in sorted exponent order."""
    if not f.terms:
        return "0"
    parts = []
    for e in sorted(f.terms, reverse=True):
        c = f.terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"{names}{i}")
            elif k > 1:
                factors.append(f"{names}{i}^{k}")
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + term)
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


class PolyParseError(ValueError):
    pass


# A token: a number, a variable x<i> or t<i>, an operator (`**` is `^`) or a bad character.
_TOKEN = re.compile(r"\s*(?:(\d+)|([xt]\d+)|(\*\*|[-+*^()])|(\S))")
# Parsing multiplies a base exponent-many times, and sampling solves univariates
# of the equation's degree (~0.15 s each at 100): the cap bounds each exponent
# and each product's total degree.  The catalog's largest degree is 13.
MAX_EXPONENT = 100
# Term pairs one parse may multiply in all (~0.2 s); no shipped or test spec
# and no catalog entry needs 1000.
MAX_TERM_WORK = 100_000


def parse_poly(text: str, nvars: int) -> MPoly:
    """Parse an integer-coefficient polynomial in variables like x0..x<n-1>.

    Supports + - * ^ (or **), parentheses and implicit exponents; both `x`
    and `t` prefixes are accepted so map coordinates and ambient equations
    share one grammar.
    """
    if not isinstance(text, str):
        raise PolyParseError(f"expected a polynomial string, got {text!r}")
    tokens = _tokenize(text)
    pos, work = [0], [0]

    def times(a: MPoly, b: MPoly) -> MPoly:
        if a.degree() + b.degree() > MAX_EXPONENT:
            raise PolyParseError(f"total degree above {MAX_EXPONENT}")
        work[0] += len(a.terms) * len(b.terms)
        if work[0] > MAX_TERM_WORK:
            raise PolyParseError(f"expansion needs over {MAX_TERM_WORK} term products")
        return a * b

    def peek() -> str | None:
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take() -> str:
        tok = peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        pos[0] += 1
        return tok

    def parse_expr() -> MPoly:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_term() * sign
        while peek() in ("+", "-"):
            op = take()
            term = parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term() -> MPoly:
        acc = parse_factor()
        while peek() == "*" or (peek() is not None and peek() not in "+-*^)" and peek() != ")"):
            if peek() == "*":
                take()
            acc = times(acc, parse_factor())
        return acc

    def parse_factor() -> MPoly:
        base = parse_atom()
        if peek() == "^":
            take()
            exp_tok = take()
            if not exp_tok.isdigit() or int(exp_tok) > MAX_EXPONENT:
                raise PolyParseError(f"bad exponent {exp_tok!r} (at most {MAX_EXPONENT})")
            out = MPoly.constant(nvars, 1)
            for _ in range(int(exp_tok)):
                out = times(out, base)
            return out
        return base

    def parse_atom() -> MPoly:
        tok = peek()
        if tok == "(":
            take()
            inner = parse_expr()
            if peek() != ")":
                raise PolyParseError("missing closing parenthesis")
            take()
            return inner
        if tok == "-":
            take()
            return -parse_atom()
        take()
        if tok.isdigit():
            return MPoly.constant(nvars, int(tok))
        if tok[1:].isdigit():  # a variable: no other token is a letter then digits
            if (idx := int(tok[1:])) >= nvars:
                raise PolyParseError(f"variable {tok} out of range (nvars={nvars})")
            return MPoly.variable(nvars, idx)
        raise PolyParseError(f"unexpected token {tok!r}")

    result = parse_expr()
    if pos[0] != len(tokens):
        raise PolyParseError(f"trailing input at token {tokens[pos[0]]!r}")
    return result


def _tokenize(text: str) -> list[str]:
    tokens = []
    for num, var, op, bad in _TOKEN.findall(text):
        if bad:
            raise PolyParseError(f"bad character {bad!r} in polynomial (variables read x<i>, t<i>)")
        tokens.append(num or var or op.replace("**", "^"))
    return tokens
