"""Exact linear algebra over large prime fields.

Everything here is tolerance-free: matrices hold Python integers, all
arithmetic is done modulo a prime p, and a rank statement is an exact
statement about the given matrix.  Randomized callers re-run computations
under a second independently drawn prime because unlucky evaluation points
can only *drop* a rank, never raise it (the Schwartz-Zippel direction), so
the maximum observed value across primes and trials is the accepted one.

Field elements are plain ints in [0, p); a matrix is a list of rows.

RowReducer reduces lazily: a pivot step reads one coefficient c mod p and adds
`(p - c) * pivot` unreduced from the pivot column on, as a pivot row is zero
left of it; `_reduce` leaves entries unreduced, and `residual` and `add`
reduce each entry once.  A step adds under p**2 to an entry, in at most
`width` steps.  A row wider than PACK_MIN_WIDTH is one packed int, column i in
bits [i*s, (i+1)*s) and slots from [0, p), so slots stay below width*p**2 + p
< 2**s and never carry for s >= 2*p.bit_length() + width.bit_length() + 1.
Narrower rows stay lists.
"""

from __future__ import annotations

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

    Invariant: p is prime and 2**(bits-1) <= p < 2**bits for bits = 62.
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
    """Incremental Gaussian elimination over F_p.

    Rows are fed one at a time; each independent row is normalized (pivot 1)
    and stored keyed by its pivot column.  Supports rank queries and
    membership tests against the accumulated row space.  The first row
    fixes the width: a row of any other width raises ValueError.  `pivots`
    holds lists even when rows are eliminated packed.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, list[int]] = {}
        self._width: int | None = None
        self._nbytes = 0  # bytes per packed slot; 0 when rows are reduced as lists
        self._packed: list[tuple[int, int]] = []  # (slot shift, packed pivot row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _pack(self, r: list[int]) -> int:
        return int.from_bytes(b"".join(a.to_bytes(self._nbytes, "little") for a in r), "little")

    def _reduce(self, row: list[int]) -> list[int]:
        """`row` less its combination of the stored pivot rows, entries unreduced."""
        if len(row) != self._width:
            if self._width is not None:
                raise ValueError(f"row of width {len(row)} in a span of width {self._width}")
            self._width = n = len(row)
            if n > PACK_MIN_WIDTH:  # slot bits, rounded up to bytes (module docstring)
                self._nbytes = -(-(2 * self.p.bit_length() + n.bit_length() + 1) // 8)
        p, nbytes = self.p, self._nbytes
        if not nbytes:
            r = list(row)
            for col, prow in self.pivots.items():
                c = -r[col] % p
                if c:
                    r[col:] = [a + c * b for a, b in zip(r[col:], prow[col:])]
            return r
        packed, mask = self._pack([a % p for a in row]), (1 << 8 * nbytes) - 1
        for shift, prow in self._packed:
            c = (packed >> shift & mask) % p
            if c:
                packed += (p - c) * prow
        raw = packed.to_bytes(nbytes * len(row), "little")
        return [int.from_bytes(raw[i:i + nbytes], "little") for i in range(0, len(raw), nbytes)]

    def residual(self, row: list[int]) -> list[int]:
        """Reduce `row` against the stored pivot rows; result has zeros in pivot columns."""
        return [a % self.p for a in self._reduce(row)]

    def add(self, row: list[int]) -> bool:
        """Fold a row in; return True when it increased the rank."""
        r, p = self._reduce(row), self.p
        for col, val in enumerate(r):
            if val % p:
                inv = pow(val, -1, p)
                prow = self.pivots[col] = [0] * col + [a * inv % p for a in r[col:]]
                if self._nbytes:
                    self._packed.append((8 * self._nbytes * col, self._pack(prow)))
                return True
        return False

    def contains(self, row: list[int]) -> bool:
        return not any(self.residual(row))


def fold(rows: Iterable[list[int]], p: int, full: int | None = None,
         stall: int | None = None) -> RowReducer:
    """A RowReducer holding the span of `rows`, read lazily until its rank is
    `full` or `stall` consecutive rows have added nothing to it."""
    red = RowReducer(p)
    idle = 0
    for row in rows:
        idle = 0 if red.add(row) else idle + 1
        if red.rank == full or idle == stall:
            break
    return red


def rank(mat: list[list[int]], p: int) -> int:
    """Row rank of an integer matrix modulo p, by Gaussian elimination."""
    return fold(mat, p).rank


def row_basis(mat: list[list[int]], p: int) -> list[list[int]]:
    """A normalized basis of the row space (echelon rows, pivot-sorted)."""
    red = fold(mat, p)
    return [red.pivots[c] for c in sorted(red.pivots)]


def kernel_basis(mat: list[list[int]], p: int) -> list[list[int]]:
    """Rows spanning the right kernel {v : mat . v = 0 mod p}.

    Returns a (cols - rank) x cols matrix; empty list for full column rank.
    """
    if not mat:
        raise ValueError("kernel of an empty matrix is ambiguous")
    ncols = len(mat[0])
    red = fold(mat, p)
    # The echelon rows are zero left of their pivots; folding them back in,
    # last pivot first, clears each pivot column above its pivot: the RREF.
    rref = fold([red.pivots[c] for c in sorted(red.pivots, reverse=True)], p).pivots
    # Each free column f gives e_f minus column f of the pivot rows.
    return [[(-rref[c][f]) % p if c in rref else int(c == f) for c in range(ncols)]
            for f in range(ncols) if f not in rref]


def kernel_columns(kmap: list[list[int]]) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """A `kernel_basis` matrix K as (free columns, [(pivot column c, column c of K)]).

    Row i of K is 1 at its free column f_i, 0 at every other free column and
    nonzero only at pivot columns left of f_i, so f_i is its last nonzero and
    (K . y)_i = y[f_i] + sum of K[i][c] * y[c] over the nonzero pivot columns.
    """
    free = [max(j for j, a in enumerate(row) if a) for row in kmap]
    return free, [(c, list(col)) for c, col in enumerate(zip(*kmap)) if c not in free and any(col)]


def kernel_apply(form: tuple, ys: list, p: int) -> list:
    """K . ys mod p for K in `kernel_columns` form; ys is a vector, or a list
    of rows (output row i then combines the rows by row i of K)."""
    free, cols = form
    out = [ys[f] for f in free]
    if isinstance(ys[0], int):
        for c, col in cols:
            y = ys[c]
            if y:
                out = [a + k * y for a, k in zip(out, col)]
        return [a % p for a in out]
    for c, col in cols:
        y = ys[c]
        out = [[a + k * b for a, b in zip(o, y)] if k else o for o, k in zip(out, col)]
    return [[a % p for a in o] for o in out]


def mat_vec(mat: list[list[int]], vec: list[int], p: int) -> list[int]:
    return [sum(map(mul, row, vec)) % p for row in mat]
