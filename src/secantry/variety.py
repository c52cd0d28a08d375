"""Projective varieties as composable constructor trees with one sampler contract.

Every node's `sample` returns a random nonzero point on the affine cone
of the variety and a frame: a basis of exactly n+1 rows spanning the
affine tangent space of the cone there (n = projective dimension), so
every dimension question downstream becomes a matrix rank minus one.  A
node's `_sample_once` raises `_Resample(cause)` on a degenerate draw.

A frame is any basis, not a normalized one: frames are eliminated once,
and `_framed` takes the echelon basis `linalg.row_basis` gives (rows not
normalized) and checks its size (`frame_rank`) where rows can be dependent
(Parametric, SegrePair, ProjectFrom, RestrictedChart).  The others build a
basis, and none inverts: the root-solving nodes cut theirs with `_section`.
Hypersurface: the unit rows cut by one nonzero gradient row.  ConeOver: the
child's padded frame plus the vertex's unit rows (block-triangular).
ConeSection: the combinations of the child's padded frame and the ruling
row (dim+2 independent rows, the ruling alone reaching the new coordinate)
that the gradient pairs to zero, exactly dim+1 independent ones unless that
pairing is zero (`frame_rank`).
JoinLinear: 0 (+) M.q and a*f (+) b*M.f per child frame row f, which span
the point and are independent as a != 0 and M.q != 0.  Veronese: the
child's point and frame carried up rungs (a degree-k monomial is a
degree-(k-1) one times a variable) by the product rule; the differential
is injective at q != 0 when p does not divide d, where it sends q to
d*point; when p divides d the pushes lose rank, so the point row is
framed with them.

The leaves (Parametric, Hypersurface, RestrictedChart) reject a zero
point (`zero_point`), as do ProjectFrom and JoinLinear, whose linear maps
can zero one (`center`).  No other node can: Veronese's point holds
q_i^d != 0 for a nonzero child coordinate q_i, SegrePair's is a tensor of
two nonzero vectors, and cones extend theirs.

Constructor trees hold only *integer* data (polynomial coefficients,
center matrices), so one tree can be sampled under several primes; the
reduction modulo p happens inside the samplers.

Fully parametric trees additionally expose a symbolic chart: a PolyMap
whose image (projectivized) is the variety.  One contract: at a general
parameter, the chart's value and first partials span the cone's tangent
space (dim+1 rows), and the nvars - dim leftover parameters are fiber
directions.  `chart(None)` asks for the chart over the integers, which a
projection's kernel map (residues mod p) cannot give.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import random
from collections.abc import Callable, Sequence
from typing import NamedTuple, TypeVar

from . import linalg, uniroots
from .linalg import PrimeContext, SAMPLE_RETRIES
from .mpoly import _TOKEN, MPoly, PolyMap, parse_poly, poly_str, random_poly


class SampleExhausted(Exception):
    """Sampling failed repeatedly: degenerate description or unlucky prime."""


class NoRootFound(SampleExhausted):
    """The univariate restriction never produced a root in F_p."""


class CenterContainsVariety(SampleExhausted):
    """A projection center keeps swallowing every sampled point."""


class CenterDependent(SampleExhausted, ValueError):
    """Projection center rows, independent as loaded, are dependent mod the prime."""


class NotParametric(Exception):
    """Operation needs a symbolic chart but the tree has implicit nodes."""


class _Resample(Exception):
    """Internal: this attempt degenerated, try again with fresh randomness."""

    def __init__(self, cause: str = "degenerate"):
        self.cause = cause


def _pick_root(g: MPoly, values: list[int], j: int, p: int,
               rng: random.Random) -> tuple[list[int], list[int]]:
    """`values` with slot j set to a uniformly drawn root of g restricted to that
    slot, and the gradient of g there, which is nonzero (`singular_point`)."""
    f = g.to_univariate(values[:j] + [None] + values[j + 1:], p)
    if not f:
        raise _Resample("zero_restriction")
    rts = uniroots.roots(f, p, rng)
    if not rts:
        raise _Resample("no_root")
    point = values[:j] + [rts[rng.randrange(len(rts))]] + values[j + 1:]
    value, grad = g.grad_eval(point, p)
    if value:
        # A wrong root is a bug, not bad luck: never resample it away.
        raise ArithmeticError("sampled point does not satisfy the equation")
    if not any(grad):
        raise _Resample("singular_point")
    return point, grad


def _section(rows: list[list[int]], pairing: list[int], p: int) -> list[list[int]]:
    """The combinations c . rows with c orthogonal to `pairing`: pairing[j] times row f
    minus pairing[f] times row j for f != j, j its first entry nonzero mod p (a zero
    pairing is a `frame_rank` resample).  Independent rows give independent
    combinations, pairing[j] being a unit mod the prime p."""
    j = next((f for f, a in enumerate(pairing) if a % p), None)
    if j is None:
        raise _Resample("frame_rank")
    v = pairing[j]
    return [[(v * a - c * b) % p for a, b in zip(row, rows[j])]
            for f, row in enumerate(rows) if f != j for c in [pairing[f]]]


class PointFrame(NamedTuple):
    """A point on the affine cone plus a basis of the cone tangent there."""

    point: list[int]
    frame: list[list[int]]


class VarietySpec:
    """Base node.  Subclasses fill dim/ambient/degree and _sample_once."""

    dim: int
    ambient: int
    degree: int | None = None

    def _sample_once(self, ctx: PrimeContext, rng: random.Random) -> PointFrame:
        raise NotImplementedError

    def sample(self, ctx: PrimeContext, rng: random.Random) -> PointFrame:
        """Sample a generic point+frame, retrying bounded-many times."""
        causes: list[str] = []
        for _ in range(SAMPLE_RETRIES):
            try:
                return self._sample_once(ctx, rng)
            except _Resample as exc:
                causes.append(exc.cause)
        if causes and all(c == "no_root" for c in causes):
            raise NoRootFound(f"{type(self).__name__}: no univariate root after {SAMPLE_RETRIES} tries")
        if causes and all(c == "center" for c in causes):
            raise CenterContainsVariety("projection center contains the variety")
        raise SampleExhausted(f"{type(self).__name__}: {SAMPLE_RETRIES} failed attempts ({set(causes)})")

    # -- symbolic chart ----------------------------------------------------

    def chart(self, ctx: PrimeContext | None) -> PolyMap:
        raise NotParametric(f"{type(self).__name__} has no polynomial chart")

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, ambient={self.ambient})"


def _framed(spec: VarietySpec, point: list[int], rows: list[list[int]], p: int) -> PointFrame:
    """`point` with the row basis of `rows` as its frame; a resample unless it has dim+1 rows."""
    basis = linalg.row_basis(rows, p)
    if len(basis) != spec.dim + 1:
        raise _Resample("frame_rank")
    return PointFrame(point, basis)


# ---------------------------------------------------------------------------
# Leaf and combinator nodes
# ---------------------------------------------------------------------------


class Parametric(VarietySpec):
    """Closure of the image of a polynomial map (of the cone's, when `scaled`)."""

    def __init__(self, fmap: PolyMap, scaled: bool = False, degree: int | None = None,
                 ctor: dict | None = None):
        self.map = fmap
        self.scaled = scaled
        self.dim = fmap.nvars - 1 if scaled else fmap.nvars
        self.ambient = len(fmap.coords) - 1
        self.degree = degree
        self._ctor = ctor

    def _sample_once(self, ctx, rng):
        p = ctx.p
        t = [rng.randrange(p) for _ in range(self.map.nvars)]
        point, partials = self.map.partial_rows(t, p)
        if not any(point):
            raise _Resample("zero_point")
        return _framed(self, point, [point] + partials, p)

    def chart(self, ctx):
        return self.map

    def to_obj(self):
        if self._ctor is not None:
            return dict(self._ctor)
        obj = {"op": "parametric", "nvars": self.map.nvars,
               "coords": [poly_str(c, "t") for c in self.map.coords]}
        if self.scaled:
            obj["scaled"] = True
        if self.degree is not None:
            obj["degree"] = self.degree
        return obj


class Veronese(VarietySpec):
    """Image under the degree-d monomial (Veronese) re-embedding.

    Rung k lists each degree-k monomial, in combinations_with_replacement
    order, as (index of its degree-(k-1) prefix, last variable).  The top
    rung orders the coordinates, the order in which a spec writes the
    equation of a `cone_section` over this node."""

    def __init__(self, child: VarietySpec, d: int):
        if d < 1:
            raise ValueError("Veronese degree must be >= 1")
        self.child = child
        self.d = d
        self.rungs, lasts = [], [0]  # lasts: the last variable of each monomial a rung below
        for _ in range(d):
            self.rungs.append([(j, i) for j, low in enumerate(lasts)
                               for i in range(low, child.ambient + 1)])
            self.lows, lasts = lasts, [i for _, i in self.rungs[-1]]
        self.dim = child.dim
        self.ambient = len(lasts) - 1
        self.degree = (child.degree * d ** child.dim) if child.degree is not None else None

    def push(self, q: list[int], dirs: Sequence[list[int]], p: int, nbytes: int = 0) -> PointFrame:
        """The monomials at q and their derivatives along each row v of `dirs`,
        mod p, by the product rule d(m*q_i) = dm*q_i + m*v_i up the rungs.  Given
        `nbytes`, the top rung comes packed at that slot width, unreduced: a prefix
        m with last variable `low` heads the run m*q[low:] (dm*q[low:] + m*v[low:])."""
        vals, ders = [1], [[0] for _ in dirs]
        for rung in self.rungs[:-1] if nbytes else self.rungs:
            ders = [[(dm[j] * q[i] + vals[j] * v[i]) % p for j, i in rung]
                    for dm, v in zip(ders, dirs)]
            vals = [vals[j] * q[i] % p for j, i in rung]
        if nbytes:
            runs = [(8 * nbytes * low, nbytes * (len(q) - low)) for low in self.lows]
            qs, *vs = [linalg.pack([a % p for a in v], nbytes) for v in (q, *dirs)]
            qs = [qs >> shift for shift, _ in runs]  # q[low:] for each prefix

            def top(terms):  # one run of slots per prefix, joined
                return int.from_bytes(b"".join(
                    t.to_bytes(size, "little") for t, (_, size) in zip(terms, runs)), "little")
            ders = [top(a * x + m * (v >> shift) for a, x, m, (shift, _) in zip(dm, qs, vals, runs))
                    for dm, v in zip(ders, vs)]
            vals = top(m * x for m, x in zip(vals, qs))
        return PointFrame(vals, ders)

    def _sample_once(self, ctx, rng):
        p = ctx.p
        pf = self.child.sample(ctx, rng)
        point, pushes = self.push(pf.point, pf.frame, p)
        if self.d % p:
            return PointFrame(point, pushes)
        return _framed(self, point, [point] + pushes, p)

    def chart(self, ctx):
        cmap = self.child.chart(ctx)
        coords = [MPoly.constant(cmap.nvars, 1)]
        for rung in self.rungs:
            coords = [coords[j] * cmap.coords[i] for j, i in rung]
        return PolyMap(cmap.nvars, coords)

    def to_obj(self):
        return {"op": "veronese", "d": self.d, "child": self.child.to_obj()}


class SegrePair(VarietySpec):
    """Segre product of two independently sampled varieties (all pairwise products)."""

    def __init__(self, left: VarietySpec, right: VarietySpec):
        self.left = left
        self.right = right
        self.dim = left.dim + right.dim
        self.ambient = (left.ambient + 1) * (right.ambient + 1) - 1

    def _sample_once(self, ctx, rng):
        p = ctx.p
        a = self.left.sample(ctx, rng)
        b = self.right.sample(ctx, rng)

        def tensor(u: list[int], v: list[int]) -> list[int]:
            return [x * y % p for x in u for y in v]

        point = tensor(a.point, b.point)
        rows = [tensor(fa, b.point) for fa in a.frame]
        rows += [tensor(a.point, fb) for fb in b.frame]
        return _framed(self, point, rows, p)

    def chart(self, ctx):
        lmap, rmap = self.left.chart(ctx), self.right.chart(ctx)
        nv = lmap.nvars + rmap.nvars
        lcs = [c.shift_vars(0, nv) for c in lmap.coords]
        rcs = [c.shift_vars(lmap.nvars, nv) for c in rmap.coords]
        return PolyMap(nv, [a * b for a in lcs for b in rcs])

    def to_obj(self):
        return {"op": "segre", "left": self.left.to_obj(), "right": self.right.to_obj()}


class ConeOver(VarietySpec):
    """Cone over the child with a coordinate vertex of projective dimension v."""

    def __init__(self, child: VarietySpec, vertex_dim: int):
        if vertex_dim < 0:
            raise ValueError("vertex dimension must be >= 0")
        self.child = child
        self.v = vertex_dim
        self.dim = child.dim + vertex_dim + 1
        self.ambient = child.ambient + vertex_dim + 1
        self.degree = child.degree

    def _sample_once(self, ctx, rng):
        p = ctx.p
        pf = self.child.sample(ctx, rng)
        extra = [rng.randrange(p) for _ in range(self.v + 1)]
        point = pf.point + extra
        zeros = [0] * (self.v + 1)
        rows = [row + zeros for row in pf.frame]
        for i in range(self.v + 1):
            e = [0] * (self.ambient + 1)
            e[self.child.ambient + 1 + i] = 1
            rows.append(e)
        return PointFrame(point, rows)

    def chart(self, ctx):
        cmap = self.child.chart(ctx)
        nv = cmap.nvars + self.v + 1
        coords = [c.shift_vars(0, nv) for c in cmap.coords]
        coords += [MPoly.variable(nv, cmap.nvars + i) for i in range(self.v + 1)]
        return PolyMap(nv, coords)

    def to_obj(self):
        return {"op": "cone", "vertex_dim": self.v, "child": self.child.to_obj()}


class ProjectFrom(VarietySpec):
    """Linear projection of the child away from the span of `center` rows.

    A point projects by reduction modulo the center: its residual against
    the center's RowReducer (the vector of y + span(center) that is zero at
    the center's pivot columns), read at the free columns.  `kernel_map` is
    the same map as a matrix, a kernel basis of the center, so coordinates of
    the image are linear forms vanishing on the center.  `dim` may be
    overridden for non-generic (e.g. tangential) centers, where the image
    dimension genuinely drops.
    """

    def __init__(self, child: VarietySpec, center: list[list[int]],
                 dim: int | None = None, degree: int | None = None,
                 bound_p: int | None = None):
        if not center:
            raise ValueError("empty projection center")
        if any(len(row) != child.ambient + 1 for row in center):
            raise ValueError("center width must be child ambient + 1")
        if len(center) > child.ambient:
            raise ValueError("center cannot fill the ambient space")
        if dim is not None and dim > child.dim:
            raise ValueError("a projection cannot raise the dimension")
        self.child = child
        self.center = [list(r) for r in center]
        self.dim = child.dim if dim is None else dim
        self.ambient = child.ambient - len(center)
        self.degree = degree
        self.bound_p = bound_p
        self._reducers: dict[int, tuple[linalg.RowReducer, list[int]]] = {}

    def _reducer(self, ctx: PrimeContext) -> tuple[linalg.RowReducer, list[int]]:
        """The center folded mod ctx's modulus and its free columns, cached per modulus."""
        if ctx.p not in self._reducers:
            if self.bound_p is not None and ctx.p != self.bound_p:
                raise ValueError("this projection is bound to a different prime")
            red = linalg.fold(self.center, linalg.RowReducer(ctx.p, self.child.ambient + 1))
            if red.rank < len(self.center):
                raise CenterDependent("projection center rows are dependent mod p")
            self._reducers[ctx.p] = red, [c for c in range(self.child.ambient + 1)
                                          if c not in red.pivots]
        return self._reducers[ctx.p]

    def kernel_map(self, ctx: PrimeContext) -> list[list[int]]:
        """The projection as a matrix mod ctx's prime: a kernel basis of the center."""
        self._reducer(ctx)  # the prime and rank checks
        return linalg.kernel_basis(self.center, ctx.p)

    def _sample_once(self, ctx, rng):
        red, free = self._reducer(ctx)
        pf = self.child.sample(ctx, rng)
        point, *rows = [[r[c] for c in free] for r in map(red.residual, [pf.point, *pf.frame])]
        if not any(point):
            raise _Resample("center")
        return _framed(self, point, rows, ctx.p)

    def chart(self, ctx):
        if ctx is None:
            raise NotParametric("the chart of a projection depends on the prime")
        return self.child.chart(ctx).compose_linear(self.kernel_map(ctx))

    def to_obj(self):
        obj = {"op": "project", "center": [list(r) for r in self.center],
               "child": self.child.to_obj()}
        if self.dim != self.child.dim:
            obj["dim"] = self.dim
        if self.degree is not None:
            obj["degree"] = self.degree
        return obj


class Hypersurface(VarietySpec):
    """Zero locus of one homogeneous polynomial in P^m.

    Sampling fixes all coordinates but one at random values and solves the
    univariate restriction over F_p; the frame is the kernel of the
    gradient at the found point.
    """

    def __init__(self, m: int, equation: MPoly):
        if equation.is_zero():
            raise ValueError("hypersurface equation is zero")
        if not equation.is_homogeneous():
            raise ValueError("hypersurface equation must be homogeneous")
        if equation.nvars != m + 1:
            raise ValueError("equation must have m+1 variables")
        self.m = m
        self.g = equation
        self.dim = m - 1
        self.ambient = m
        self.degree = equation.degree()

    def _sample_once(self, ctx, rng):
        p = ctx.p
        j = rng.randrange(self.m + 1)
        point, grad = _pick_root(self.g, [rng.randrange(p) for _ in range(self.m + 1)],
                                 j, p, rng)
        if not any(point):
            raise _Resample("zero_point")
        units = [[int(i == f) for i in range(self.m + 1)] for f in range(self.m + 1)]
        return PointFrame(point, _section(units, grad, p))

    def to_obj(self):
        return {"op": "hypersurface", "m": self.m, "equation": poly_str(self.g)}


class RestrictedChart(VarietySpec):
    """A parametrized ambient chart cut down by one equation.

    The equation lives in the ambient coordinates and is pulled back to the
    chart parameters once, at construction; the sampler solves the pullback
    univariately in one designated parameter.  Used for varieties carved
    out of a parametrized hypersurface, e.g. a threefold on a smooth quadric
    in P^5.
    """

    def __init__(self, chart: PolyMap, equation: MPoly, solve_var: int = 0,
                 ctor: dict | None = None):
        if equation.nvars != len(chart.coords):
            raise ValueError("equation must use the chart's ambient coordinates")
        if not 0 <= solve_var < chart.nvars:
            raise ValueError("solve variable out of range")
        self.chart_map = chart
        self.g = equation
        self.pullback = chart.pull_back(equation)
        self.solve_var = solve_var
        self.dim = chart.nvars - 1
        self.ambient = len(chart.coords) - 1
        self._ctor = ctor

    def _sample_once(self, ctx, rng):
        p = ctx.p
        t, w = _pick_root(self.pullback, [rng.randrange(p) for _ in range(self.chart_map.nvars)],
                          self.solve_var, p, rng)
        point, partials = self.chart_map.partial_rows(t, p)
        if not any(point):
            raise _Resample("zero_point")
        # Tangent directions in parameter space: the kernel of w = d(g o chart).
        return _framed(self, point, [point] + _section(partials, w, p), p)

    def to_obj(self):
        if self._ctor is not None:
            return dict(self._ctor)
        return {"op": "restricted",
                "chart": [poly_str(c, "t") for c in self.chart_map.coords],
                "nvars": self.chart_map.nvars,
                "equation": poly_str(self.g),
                "solve_var": self.solve_var}


class ConeSection(VarietySpec):
    """Hypersurface section of the cone with a point vertex over the child.

    One new coordinate w is appended; sampling solves g(child_point, w) = 0
    univariately in w along the ruling through a sampled child point.  The
    result keeps the child's dimension while gaining one ambient dimension:
    the standard way to realize a variety inside a cone that projects
    finitely onto the base.
    """

    def __init__(self, child: VarietySpec, equation: MPoly):
        if equation.nvars != child.ambient + 2:
            raise ValueError("equation needs child ambient + 2 variables")
        if not equation.is_homogeneous():
            raise ValueError("section equation must be homogeneous")
        self.child = child
        self.g = equation
        self.dim = child.dim
        self.ambient = child.ambient + 1

    def _sample_once(self, ctx, rng):
        p = ctx.p
        pf = self.child.sample(ctx, rng)
        point, grad = _pick_root(self.g, pf.point + [0], self.ambient, p, rng)
        ruling = [0] * (self.ambient + 1)
        ruling[-1] = 1
        big = [row + [0] for row in pf.frame] + [ruling]
        # The tangent space is span(big) cut by the gradient hyperplane.
        return PointFrame(point, _section(big, linalg.mat_vec(big, grad, p), p))

    def to_obj(self):
        return {"op": "cone_section", "equation": poly_str(self.g),
                "child": self.child.to_obj()}


class JoinLinear(VarietySpec):
    """Ruled join of the child with its image under a linear map.

    Sweeps the lines joining each child point y to M.y placed in a
    complementary coordinate block: the resulting variety has dimension
    child.dim + 1 and sits in the cone over the child with vertex the new
    block (projective dimension rows(M) - 1).
    """

    def __init__(self, child: VarietySpec, block: list[list[int]]):
        if not block or any(len(row) != child.ambient + 1 for row in block):
            raise ValueError("block matrix width must be child ambient + 1")
        self.child = child
        self.block = [list(r) for r in block]
        self.dim = child.dim + 1
        self.ambient = child.ambient + len(block)

    def _sample_once(self, ctx, rng):
        p = ctx.p
        pf = self.child.sample(ctx, rng)
        mq = linalg.mat_vec(self.block, pf.point, p)
        if not any(mq):
            raise _Resample("center")
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        point = [a * x % p for x in pf.point] + [b * x % p for x in mq]
        rows = [[0] * (self.child.ambient + 1) + mq]
        for row in pf.frame:
            mrow = linalg.mat_vec(self.block, row, p)
            rows.append([a * x % p for x in row] + [b * x % p for x in mrow])
        return PointFrame(point, rows)

    def chart(self, ctx):
        cmap = self.child.chart(ctx)
        return _join_map(cmap, cmap.compose_linear(self.block))

    def to_obj(self):
        return {"op": "join_linear", "block": [list(r) for r in self.block],
                "child": self.child.to_obj()}


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

# These constructors are their node classes: each would only forward its arguments.
veronese, segre_pair, cone_over = Veronese, SegrePair, ConeOver
hypersurface, cone_section, join_linear = Hypersurface, ConeSection, JoinLinear


def parametric(coords: list[MPoly], scaled: bool = False,
               degree: int | None = None) -> Parametric:
    nv = coords[0].nvars
    return Parametric(PolyMap(nv, coords), scaled=scaled, degree=degree)


def projective_space(n: int) -> Parametric:
    """P^n in its tautological chart (1, t1, ..., tn)."""
    if n < 1:
        raise ValueError("need n >= 1")
    coords = [MPoly.constant(n, 1)] + [MPoly.variable(n, i) for i in range(n)]
    return Parametric(PolyMap(n, coords), degree=1,
                      ctor={"op": "parametric", "nvars": n,
                            "coords": [poly_str(c, "t") for c in coords]})


def scroll(degrees: list[int]) -> Parametric:
    """Rational normal scroll S(a_1, ..., a_m): dimension m, degree sum(a_i).

    Chart variables are (t, u_1, ..., u_{m-1}); block i holds u_{i-1} * t^j
    for j = 0..a_i (u_0 = 1).  Zero entries give cone blocks, so scrolls of
    minimal degree in every dimension are covered by one constructor.
    """
    if not degrees or sum(degrees) < 1:
        raise ValueError("scroll needs positive total degree")
    m = len(degrees)
    coords = []
    for i, a in enumerate(degrees):
        for j in range(a + 1):
            e = [0] * m
            e[0] = j
            if i > 0:
                e[i] = 1
            coords.append(MPoly.monomial(m, tuple(e)))
    return Parametric(PolyMap(m, coords), degree=sum(degrees),
                      ctor={"op": "scroll", "degrees": list(degrees)})


def rational_normal_curve(d: int) -> Parametric:
    return scroll([d])


def _standard_quadric_chart() -> PolyMap:
    # Chart of the smooth quadric x1*x2 + x3*x4 - x0*x5 = 0 in P^5,
    # by stereographic projection from (0:...:0:1): t -> (1, t, t1t2+t3t4).
    nv = 4
    t = [MPoly.variable(nv, i) for i in range(nv)]
    coords = [MPoly.constant(nv, 1), t[0], t[1], t[2], t[3],
              t[0] * t[1] + t[2] * t[3]]
    return PolyMap(nv, coords)


def on_quadric(extra_equation: MPoly) -> RestrictedChart:
    """A threefold on the standard smooth quadric in P^5, cut by one more equation.

    The extra equation is given in the six ambient coordinates and pulled
    back through the stereographic chart of the quadric at sample time.
    """
    if extra_equation.nvars != 6:
        raise ValueError("extra equation must use the 6 coordinates of P^5")
    return RestrictedChart(_standard_quadric_chart(), extra_equation, solve_var=0,
                           ctor={"op": "on_quadric", "equation": poly_str(extra_equation)})


def random_cone_section(child: VarietySpec, degree: int, rng: random.Random) -> ConeSection:
    return ConeSection(child, random_poly(child.ambient + 2, degree, rng))


def _join_map(base: PolyMap, fiber: PolyMap) -> PolyMap:
    """The cone chart (t, a, b) -> a*base(t) (+) b*fiber(t) of a join.

    `fiber` takes base's parameters first and may add more; a and b come last.
    """
    nv = fiber.nvars + 2
    a = MPoly.variable(nv, nv - 2)
    b = MPoly.variable(nv, nv - 1)
    return PolyMap(nv, [a * c.shift_vars(0, nv) for c in base.coords]
                   + [b * c.shift_vars(0, nv) for c in fiber.coords])


def ruled_join(map1: PolyMap, map2: PolyMap) -> Parametric:
    """Join of corresponding points of two images sharing parameters.

    Affine-cone chart (a, b, t) -> a*map1(t) (+) b*map2(t) in complementary
    blocks; projective dimension nvars + 1.
    """
    if map1.nvars != map2.nvars:
        raise ValueError("maps must share parameters")
    ctor = {"op": "ruled_join",
            "nvars": map1.nvars,
            "map1": [poly_str(c, "t") for c in map1.coords],
            "map2": [poly_str(c, "t") for c in map2.coords]}
    return Parametric(_join_map(map1, map2), scaled=True, ctor=ctor)


def fibered_join(base: PolyMap, fiber: PolyMap) -> Parametric:
    """Join every base point to the corresponding fiber of a family over it.

    `fiber` shares the base parameters plus extra ones; the chart
    (a, b, t, u) -> a*base(t) (+) b*fiber(t, u) has projective dimension
    (parameters of fiber) + 1.
    """
    if fiber.nvars < base.nvars:
        raise ValueError("fiber must extend the base parameters")
    ctor = {"op": "fibered_join",
            "base_vars": base.nvars,
            "base": [poly_str(c, "t") for c in base.coords],
            "fiber": [poly_str(c, "t") for c in fiber.coords]}
    return Parametric(_join_map(base, fiber), scaled=True, ctor=ctor)


def project_from(child: VarietySpec, center: list[list[int]],
                 degree: int | None = None) -> ProjectFrom:
    """Project the child from the span of the integer `center` rows, as built
    by `random_center`, `center_in_span` or `center_on_points`."""
    return ProjectFrom(child, center, degree=degree)


def _chart_int_eval(cmap: PolyMap, t: list[int]) -> list[int]:
    """Evaluate a parametric chart over the integers (no reduction)."""
    out = []
    for c in cmap.coords:
        acc = 0
        for e, coef in c.terms.items():
            term = coef
            for v, k in zip(t, e):
                term *= v ** k
            acc += term
        out.append(acc)
    return out


def center_in_span(child: VarietySpec, s: int, rng: random.Random) -> list[list[int]]:
    """An (s+1)-row integer matrix spanning a random s-plane inside <child>."""
    cmap = child.chart(None)
    nparams = cmap.nvars
    rows = []
    for _ in range(s + 1):
        acc = [0] * (child.ambient + 1)
        for _ in range(child.ambient + 2):
            t = [rng.randrange(1, 50) for _ in range(nparams)]
            val = _chart_int_eval(cmap, t)
            c = rng.randrange(1, 10 ** 6)
            acc = [a + c * v for a, v in zip(acc, val)]
        rows.append(acc)
    return rows


def center_on_points(child: VarietySpec, count: int, rng: random.Random) -> list[list[int]]:
    """Center spanned by `count` chart points of the child at integer parameters."""
    cmap = child.chart(None)
    rows = []
    for _ in range(count):
        t = [rng.randrange(2, 10 ** 4) for _ in range(cmap.nvars)]
        rows.append(_chart_int_eval(cmap, t))
    return rows


def random_center(ambient: int, s: int, rng: random.Random) -> list[list[int]]:
    """An (s+1)-row integer matrix spanning a random s-plane of P^ambient."""
    return [[rng.randrange(1, 1 << 61) for _ in range(ambient + 1)]
            for _ in range(s + 1)]


# ---------------------------------------------------------------------------
# Span measurement
# ---------------------------------------------------------------------------


def span_dim(spec: VarietySpec, ctx: PrimeContext, rng: random.Random,
             samples: Sequence[PointFrame] = ()) -> int:
    """h_X(1): the number of independent coordinates on X, i.e. dim<X> + 1.

    Reads the points of the given `samples` of X first, all of them unless the
    rank is full before, however many there are.  Only then, while the rank is
    short, does it draw fresh samples, until ambient+2 points were read in all
    (none when the given samples are that many), so a rank deficit reflects the
    variety, not undersampling.
    """
    fresh = (spec.sample(ctx, rng) for _ in range(spec.ambient + 2 - len(samples)))
    points = (pf.point for pf in itertools.chain(samples, fresh))
    return linalg.fold(points, linalg.RowReducer(ctx.p, spec.ambient + 1)).rank


class _Product(NamedTuple):
    """The modulus p1*p2 of a pass for both primes; samplers read only `p`."""
    p: int


def _solves_roots(spec: VarietySpec) -> bool:
    """True when some node of the tree samples by solving for a root."""
    return isinstance(spec, (Hypersurface, RestrictedChart, ConeSection)) or any(
        _solves_roots(c) for c in vars(spec).values() if isinstance(c, VarietySpec))


T = TypeVar("T")


def per_modulus(spec: VarietySpec, ctxs: list[PrimeContext],
                run: Callable[[PrimeContext | _Product, Sequence[PointFrame] | None], T],
                samples: dict[int, Sequence[PointFrame]] | None = None,
                width: int = 0) -> dict[int, T]:
    """One measurement under every prime of `ctxs`: `run(ctx, samples[ctx.p])`, by prime.

    With two or more primes, no root-solving node, one list shared by every prime
    (or no samples) and rows of `width` <= `linalg.PRODUCT_MAX_WIDTH` columns,
    `run` is called once modulo N = p1*p2 on that list and its one result is filed
    under each prime.  That pass is exact: by the Chinese remainder theorem a
    uniform draw mod N is an independent uniform draw under each prime.  While
    every pivot is a unit mod N, a residual 0 mod N is 0 under both primes and any
    other leads with a unit, raising both ranks: every rank, and every stop that
    reads only ranks and idle counts, is each prime's on the same draws reduced
    mod p.  A RowReducer and `row_basis`, keeping unit multiples of the same rows,
    raise ValueError at the same non-unit pivot.  That or SampleExhausted discards
    the pass, and `run` is called under each prime in turn, as it always is
    otherwise: a root-solving draw would need a root under both primes, unshared
    samples were drawn under one prime each, and wider rows are cheaper per prime.
    """
    given = [(samples or {}).get(c.p) for c in ctxs]
    if len(ctxs) > 1 and width <= linalg.PRODUCT_MAX_WIDTH and all(
            g is given[0] for g in given) and not _solves_roots(spec):
        with contextlib.suppress(ValueError, SampleExhausted):
            product = _Product(math.prod(c.p for c in ctxs))
            return dict.fromkeys((c.p for c in ctxs), run(product, given[0]))
    return {c.p: run(c, g) for c, g in zip(ctxs, given)}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class SpecParseError(ValueError):
    pass


# The largest ambient dimension R a loaded node may have.  hilbert2 reduces
# rows of C(R+2, 2) quadric columns, at most 2**13 for R <= 126, and so sets
# the cost there: `analyze --k-max 6` on v2(P^9), R = 54, took 16.9-17.7 s over
# 3 runs on a 2-core host, and `analyze --k 1` on v4(P^5), R = 125, took
# 273-395 s before hilbert2 read tangent rows (catalog nodes have R <= 48).
MAX_AMBIENT = 126
# Fixed primes of two sizes that a loaded centre is ranked modulo before over
# Q: rows dependent modulo one, such as multiples of it, are seldom so modulo both.
_CENTER_PRIMES = ((1 << 61) - 1, (1 << 127) - 1)


def _ambient(r: int) -> int:
    """`r` if it is at most MAX_AMBIENT, else SpecParseError."""
    if r > MAX_AMBIENT:
        raise SpecParseError(f"ambient dimension {r} exceeds {MAX_AMBIENT}")
    return r


def _chart_fits(dim: int, ncoords: int) -> None:
    """SpecParseError unless a chart of dimension `dim` fits the P^(ncoords-1) it
    maps to, which must obey MAX_AMBIENT; a wider chart's frames never reach dim+1
    rows.  Checked before parsing, this caps a chart's variable count, at most
    dim + 1 (a scaled chart or a restriction), at MAX_AMBIENT + 1."""
    _ambient(ncoords - 1)
    if dim > ncoords - 1:
        raise SpecParseError(f"a chart of dimension {dim} cannot lie in P^{ncoords - 1}")


def _json_int(value: object, low: int | None = None, optional: bool = False) -> int | None:
    """`value` if it is a JSON integer (not a bool) >= `low`, or None if optional; else ValueError."""
    if optional and value is None:
        return None
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"expected an integer >= {low}, got {value}")
    return value


def spec_from_obj(obj: dict) -> VarietySpec:
    """The tree `obj` describes; SpecParseError on a node whose ambient dimension
    exceeds MAX_AMBIENT (checked before building a node that allocates by it)."""
    spec = _node_from_obj(obj)
    _ambient(spec.ambient)
    return spec


def _node_from_obj(obj: dict) -> VarietySpec:
    if not isinstance(obj, dict) or "op" not in obj:
        raise SpecParseError("spec node must be an object with an 'op' field")
    op = obj["op"]
    try:
        if op == "parametric":
            nv = _json_int(obj["nvars"], 0)
            scaled = obj.get("scaled", False)
            if type(scaled) is not bool:
                raise ValueError(f"'scaled' must be true or false, got {scaled!r}")
            _chart_fits(nv - 1 if scaled else nv, len(obj["coords"]))
            coords = [parse_poly(s, nv) for s in obj["coords"]]
            return Parametric(PolyMap(nv, coords), scaled=scaled,
                              degree=_json_int(obj.get("degree"), 1, optional=True))
        if op == "scroll":
            degrees = [_json_int(a, 0) for a in obj["degrees"]]
            _ambient(sum(degrees) + len(degrees) - 1)
            return scroll(degrees)
        if op == "veronese":
            child, d = spec_from_obj(obj["child"]), _json_int(obj["d"], 1)
            _ambient(math.comb(child.ambient + d, d) - 1)
            return Veronese(child, d)
        if op == "segre":
            return SegrePair(spec_from_obj(obj["left"]), spec_from_obj(obj["right"]))
        if op == "cone":
            return ConeOver(spec_from_obj(obj["child"]), _json_int(obj["vertex_dim"]))
        if op == "project":
            child = spec_from_obj(obj["child"])
            proj = ProjectFrom(child, [[_json_int(x) for x in row] for row in obj["center"]],
                               dim=_json_int(obj.get("dim"), 0, optional=True),
                               degree=_json_int(obj.get("degree"), 1, optional=True))
            # Rows independent modulo a prime are independent over Q.  Rows
            # dependent modulo both 2^61 - 1 and 2^127 - 1 may not be, so their
            # rank is read over Q, exactly but at a cost that grows with the
            # entries' size.
            n = len(proj.center)
            if all(linalg.rank(proj.center, q) != n for q in _CENTER_PRIMES) \
                    and linalg.rank_over_q(proj.center) != n:
                raise ValueError("center rows are linearly dependent")
            return proj
        if op == "hypersurface":
            m = _ambient(_json_int(obj["m"], 1))
            return Hypersurface(m, parse_poly(obj["equation"], m + 1))
        if op == "on_quadric":
            return on_quadric(parse_poly(obj["equation"], 6))
        if op == "restricted":
            nv = _json_int(obj["nvars"], 0)
            _chart_fits(nv - 1, len(obj["chart"]))
            chart = PolyMap(nv, [parse_poly(s, nv) for s in obj["chart"]])
            eq = parse_poly(obj["equation"], len(chart.coords))
            return RestrictedChart(chart, eq, solve_var=_json_int(obj.get("solve_var", 0)))
        if op == "cone_section":
            child = spec_from_obj(obj["child"])
            eq = parse_poly(obj["equation"], child.ambient + 2)
            return ConeSection(child, eq)
        if op == "ruled_join":
            nv = _json_int(obj["nvars"], 0)
            _chart_fits(nv + 1, len(obj["map1"]) + len(obj["map2"]))
            m1 = PolyMap(nv, [parse_poly(s, nv) for s in obj["map1"]])
            m2 = PolyMap(nv, [parse_poly(s, nv) for s in obj["map2"]])
            return ruled_join(m1, m2)
        if op == "fibered_join":
            bvars = _json_int(obj["base_vars"], 0)
            fsrc = obj["fiber"]
            # Fiber variable count: parse against the widest index used.
            fvars = max(_max_var_index(fsrc) + 1, bvars)
            _chart_fits(fvars + 1, len(obj["base"]) + len(fsrc))
            base_coords = [parse_poly(s, bvars) for s in obj["base"]]
            fiber_coords = [parse_poly(s, fvars) for s in fsrc]
            return fibered_join(PolyMap(bvars, base_coords), PolyMap(fvars, fiber_coords))
        if op == "join_linear":
            child = spec_from_obj(obj["child"])
            return JoinLinear(child, [[_json_int(x) for x in row] for row in obj["block"]])
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecParseError(f"bad {op!r} node: {exc}") from exc
    raise SpecParseError(f"unknown op {op!r}")


def _max_var_index(poly_strs: list[str]) -> int:
    """The largest variable index the strings name, or -1 when they name none."""
    return max((int(var[1:]) for s in poly_strs for _, var, _, _ in _TOKEN.findall(s) if var),
               default=-1)


def dumps_spec(spec: VarietySpec) -> str:
    return json.dumps(spec.to_obj(), sort_keys=True, separators=(",", ":"))


def loads_spec(text: str) -> VarietySpec:
    try:
        return spec_from_obj(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:  # from json.loads or a recursive node or polynomial reader
        raise SpecParseError("spec nested too deeply") from None


def spec_hash(spec: VarietySpec) -> str:
    return hashlib.sha256(dumps_spec(spec).encode()).hexdigest()
