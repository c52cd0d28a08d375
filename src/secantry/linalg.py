"""Exact linear algebra over large prime fields.

Everything here is tolerance-free: matrices hold Python integers, all
arithmetic is done modulo a prime p, and a rank statement is an exact
statement about the given matrix.  How randomized callers read such ranks
(the one-sided-error rule) is stated once, in the `terracini` module.

Field elements are plain ints in [0, p); a matrix is a list of rows.

Two routines eliminate.  RowReducer normalizes each pivot row with one
inverse, which pays where a row meets many pivots: in chain trials, spans and
`hilbert2` a row meets about ten before it is added.  A sampled frame's rows
meet about 1.6, where that inverse costs more than the elimination it saves,
so `row_basis` uses none: it scales instead, as fraction-free elimination does
(Bareiss, Math. Comp. 22 (1968)), and returns echelon rows that are not
normalized.

RowReducer also projects.  The residual of y against a span, read at the free
columns, is the one vector of y + span that is zero at every pivot column, so
it is y's image under the projection from that span whatever echelon form the
pivot rows take: `variety.ProjectFrom` samples through it, and `kernel_basis`
reads the same map off the unit vectors' residuals as a matrix.

RowReducer reduces lazily: a pivot step reads one coefficient c mod p and adds
`(p - c) * pivot` unreduced from the pivot column on, as a pivot row is zero
left of it; `_reduce` leaves entries unreduced, and `residual` and `add`
reduce each entry once.  A step adds under p**2 to an entry, in at most
`width` steps.  A row wider than PACK_MIN_WIDTH is one packed int (`pack`),
column i in bits [i*s, (i+1)*s); narrower rows stay lists.  Slots start in
[0, p), or below 2*p**2 in a row its caller packed, so they stay below
(width + 2)*p**2 < 2**s and never carry for s >= 2*p.bit_length() +
width.bit_length() + 1.  Reduced, a row is 0 mod p at each pivot column: only
its free columns are unpacked, and a pivot row is packed from its pivot column on.

A RowReducer or `row_basis` may run modulo a product N of distinct primes (p
above being N); a non-unit pivot raises ValueError, and `variety.per_modulus`
says why the ranks are each prime's.  Modulo two 62-bit primes a slot of
`hilbert2`'s widest rows (2**13 columns) takes 33 bytes, against 18 modulo one.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from operator import mul

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# far beyond the 64-bit range used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SAMPLE_RETRIES = 32
# Rows wider than this are eliminated as packed ints (see the module docstring).
PACK_MIN_WIDTH = 40
# Wider rows run per prime (`variety.per_modulus`): a `hilbert2` pass modulo p1*p2
# took 0.96-1.04x two per-prime passes' time at 136-171 columns, 1.08-1.23x at 231-406.
PRODUCT_MAX_WIDTH = 200


def pack(row: list[int], nbytes: int) -> int:
    """`row` as one int, entry i in bytes [i*nbytes, (i+1)*nbytes): each must fit."""
    return int.from_bytes(b"".join(a.to_bytes(nbytes, "little") for a in row), "little")


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for all n < 2**64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeContext:
    """A prime modulus.

    Invariant: p is prime; `make_contexts(bits=62)` draws it in [2**(bits-1), 2**bits).
    """

    p: int

    def __post_init__(self) -> None:
        if not is_prime_u64(self.p):
            raise ValueError(f"{self.p} is not prime")


def random_prime(bits: int, rng: random.Random) -> PrimeContext:
    """Draw a uniform random prime in [2**(bits-1), 2**bits)."""
    if bits < 3:
        raise ValueError("bits too small")
    while True:
        cand = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime_u64(cand):
            return PrimeContext(p=cand)


def derive_rng(seed: int, *labels: object) -> random.Random:
    """Deterministically derive an independent RNG stream from a seed and labels."""
    return random.Random("secantry:" + str(seed) + "/" + "/".join(str(x) for x in labels))


def make_contexts(seed: int, count: int = 2, bits: int = 62) -> list[PrimeContext]:
    """Draw `count` distinct primes; prime i's own stream is redrawn on a repeat."""
    out: list[PrimeContext] = []
    for i in range(count):
        rng = derive_rng(seed, "prime", i)
        for _ in range(SAMPLE_RETRIES):
            ctx = random_prime(bits, rng)
            if all(ctx.p != c.p for c in out):
                break
        else:
            raise ValueError(f"could not draw {count} distinct {bits}-bit primes")
        out.append(ctx)
    return out


class RowReducer:
    """Incremental Gaussian elimination over F_p of rows of `width` columns.

    Rows are fed one at a time; each independent row is normalized (pivot 1),
    unlike a `row_basis` row, and stored keyed by its pivot column.  A row of
    another width raises ValueError, as does a packed row unless `width` is above
    PACK_MIN_WIDTH and it fits at `nbytes` bytes a slot (`pack`).  `pivots`
    holds lists even when rows are eliminated packed.
    """

    def __init__(self, p: int, width: int):
        self.p, self.width, self.pivots = p, width, {}
        wide = width > PACK_MIN_WIDTH  # nbytes: slot bits in bytes, or 0 for lists
        self.nbytes = -(-(2 * p.bit_length() + width.bit_length() + 1) // 8) if wide else 0
        self._free = list(range(width)) if wide else []  # packed path: the non-pivot columns
        self._packed: list[tuple[int, int]] = []  # (slot shift, packed pivot row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: list[int] | int) -> list[int]:
        """`row` less its combination of the stored pivot rows, entries unreduced."""
        p, nbytes, n = self.p, self.nbytes, self.width
        if isinstance(row, int):
            if not nbytes or row < 0 or row.bit_length() > 8 * nbytes * n:
                raise ValueError(f"not a row packed at this reducer's {nbytes}-byte slots")
        elif len(row) != n:
            raise ValueError(f"row of width {len(row)} in a span of width {n}")
        if not nbytes:
            r = list(row)
            for col, prow in self.pivots.items():
                c = -r[col] % p
                if c:
                    r[col:] = [a + c * b for a, b in zip(r[col:], prow[col:])]
            return r
        packed = row if isinstance(row, int) else pack([a % p for a in row], nbytes)
        mask = (1 << 8 * nbytes) - 1
        for shift, prow in self._packed:
            c = (packed >> shift & mask) % p
            if c:
                packed += (p - c) * prow
        raw, r = packed.to_bytes(nbytes * n, "little"), [0] * n
        for c in self._free:  # a pivot column's slot is 0 mod p: it stays 0
            r[c] = int.from_bytes(raw[nbytes * c:nbytes * c + nbytes], "little")
        return r

    def residual(self, row: list[int] | int) -> list[int]:
        """Reduce `row` against the stored pivot rows; result has zeros in pivot columns."""
        return [a % self.p for a in self._reduce(row)]

    def add(self, row: list[int] | int) -> bool:
        """Fold a row in; return True when it increased the rank."""
        r, p = self._reduce(row), self.p
        for col, val in enumerate(r):
            if val % p:
                inv = pow(val, -1, p)
                prow = self.pivots[col] = [0] * col + [a * inv % p for a in r[col:]]
                if self.nbytes:  # pack the tail alone: prow is 0 left of col
                    self._free.remove(col)
                    self._packed.append((8 * self.nbytes * col,
                                         pack(prow[col:], self.nbytes) << 8 * self.nbytes * col))
                return True
        return False


def fold(rows: Iterable[list[int] | int], red: RowReducer, stall: int | None = None) -> RowReducer:
    """`red` with `rows` folded in, read lazily until its rank is its width or
    `stall` consecutive rows have added nothing."""
    idle = 0
    for row in rows:
        idle = 0 if red.add(row) else idle + 1
        if red.rank == red.width or idle == stall:
            break
    return red


def rank(mat: list[list[int]], p: int) -> int:
    """Row rank of an integer matrix modulo p, by Gaussian elimination."""
    return fold(mat, RowReducer(p, len(mat[0]) if mat else 0)).rank


def rank_over_q(mat: list[list[int]]) -> int:
    """The exact rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination: entries stay minors, so each division by the last pivot is exact."""
    rows, r, last = [list(row) for row in mat], 0, 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            c = rows[i][col]
            rows[i] = [(top[col] * a - c * b) // last for a, b in zip(rows[i], top)]
        last, r = top[col], r + 1
    return r


def row_basis(mat: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the row space mod p: echelon rows, pivot-sorted, not normalized.

    Each row is reduced against the rows kept so far, without inverses, as
    v*row - row[c]*kept (v the kept row's pivot entry at column c), and kept
    when a nonzero entry is left, its first one being its pivot.  A kept pivot
    that is not a unit mod p (p a product of distinct primes) raises ValueError."""
    kept: dict[int, list[int]] = {}  # pivot column -> row
    width = len(mat[0]) if mat else 0
    for row in mat:
        if len(row) != width:
            raise ValueError(f"row of width {len(row)} in a span of width {width}")
        r = row
        for c, prow in kept.items():  # in the order kept: each is 0 at earlier pivots
            if a := r[c] % p:
                v = prow[c]
                r = [(v * x - a * y) % p for x, y in zip(r, prow)]
        for c, a in enumerate(r):
            if a % p:
                if r is row:  # no step reduced it
                    r = [x % p for x in row]
                if math.gcd(r[c], p) != 1:
                    raise ValueError("base is not invertible for the given modulus")
                kept[c] = r
                break
    return [kept[c] for c in sorted(kept)]


def kernel_basis(mat: list[list[int]], p: int) -> list[list[int]]:
    """Rows spanning the right kernel {v : mat . v = 0 mod p}.

    Returns a (cols - rank) x cols matrix; empty list for full column rank.
    Row f, for each free column f, holds coordinate f of each unit vector's
    residual against the row space, so K . y is y's residual read at the
    free columns (module docstring).
    """
    if not mat:
        raise ValueError("kernel of an empty matrix is ambiguous")
    ncols = len(mat[0])
    red = fold(mat, RowReducer(p, ncols))
    res = [red.residual([int(c == j) for c in range(ncols)]) for j in range(ncols)]
    return [[r[f] for r in res] for f in range(ncols) if f not in red.pivots]


def mat_vec(mat: list[list[int]], vec: list[int], p: int) -> list[int]:
    return [sum(map(mul, row, vec)) % p for row in mat]
