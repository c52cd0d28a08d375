"""Exact linear algebra: primality, rank, kernels, and their oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy

from secantry.linalg import (PACK_MIN_WIDTH, PrimeContext, RowReducer,
                             derive_rng, fold, is_prime_u64, kernel_basis, make_contexts,
                             mat_vec, random_prime, rank, rank_over_q, row_basis)
from secantry.variety import _section

from seeds import SEED


def fraction_rank(mat):
    """Independent oracle: elimination over the rationals on an integer lift."""
    rows = [[Fraction(x) for x in r] for r in mat]
    rank_ = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank_, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank_], rows[piv] = rows[piv], rows[rank_]
        inv = 1 / rows[rank_][col]
        rows[rank_] = [x * inv for x in rows[rank_]]
        for i in range(len(rows)):
            if i != rank_ and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


class TestPrimality:
    def test_mersenne_61_is_prime(self):
        # Independent primality oracle for the boundary candidate.
        n = 2**61 - 1
        assert is_prime_u64(n)
        assert sympy.isprime(n)

    def test_even_boundary_rejected(self):
        assert not is_prime_u64(2**61)

    def test_small_cases(self):
        assert [n for n in range(2, 30) if is_prime_u64(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime_u64(1)
        assert not is_prime_u64(561)  # Carmichael

    def test_agrees_with_sympy_on_randoms(self):
        rng = derive_rng(SEED, "prime-oracle")
        for _ in range(200):
            n = rng.randrange(2, 1 << 64)
            assert is_prime_u64(n) == sympy.isprime(n)

    def test_random_prime_range_and_determinism(self):
        ctx1 = random_prime(62, derive_rng(SEED, "p"))
        ctx2 = random_prime(62, derive_rng(SEED, "p"))
        assert ctx1.p == ctx2.p
        assert 2**61 <= ctx1.p < 2**62
        assert sympy.isprime(ctx1.p)

    def test_make_contexts_distinct(self):
        a, b = make_contexts(SEED)
        assert a.p != b.p

    def test_make_contexts_distinct_at_small_bits(self):
        # 41 of these seeds draw the same 6-bit prime twice from the two
        # streams; the second stream is then drawn again.  The first prime
        # is always its stream's first draw.
        for seed in range(300):
            a, b = make_contexts(seed, bits=6)
            assert a.p != b.p and 32 <= b.p < 64
            assert a == random_prime(6, derive_rng(seed, "prime", 0))

    def test_make_contexts_too_few_primes(self):
        # 5 and 7 are the only 3-bit primes: a third is never drawn.
        with pytest.raises(ValueError, match="distinct"):
            make_contexts(0, count=3, bits=3)

    def test_context_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeContext(p=2**61)


class TestRank:
    def test_identity(self, ctxs):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert rank(eye, ctxs[0].p) == 3

    def test_zeros(self, ctxs):
        assert rank([[0] * 4 for _ in range(4)], ctxs[0].p) == 0

    def test_vandermonde(self, ctxs):
        # det = prod_{i<j} (x_j - x_i) != 0 for distinct nodes; cross-check
        # with rational elimination.
        nodes = [1, 2, 3]
        mat = [[x**e for e in range(3)] for x in nodes]
        assert fraction_rank(mat) == 3
        for ctx in ctxs:
            assert rank(mat, ctx.p) == 3

    def test_invariant_under_permutation_and_scaling(self, ctxs, rng):
        p = ctxs[0].p
        for _ in range(20):
            mat = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
            r0 = rank(mat, p)
            perm = mat[::-1]
            assert rank(perm, p) == r0
            c = rng.randrange(1, p)
            scaled = [mat[0]] + [[c * x % p for x in mat[1]]] + mat[2:]
            assert rank(scaled, p) == r0

    def test_stack_bounds(self, ctxs, rng):
        p = ctxs[0].p
        for _ in range(20):
            a = [[rng.randrange(p) for _ in range(7)] for _ in range(3)]
            b = [[rng.randrange(p) for _ in range(7)] for _ in range(2)]
            ra, rb, rs = rank(a, p), rank(b, p), rank(a + b, p)
            assert max(ra, rb) <= rs <= ra + rb

    def test_transpose_rank(self, ctxs, rng):
        p = ctxs[0].p
        mat = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
        tr = [list(col) for col in zip(*mat)]
        assert rank(mat, p) == rank(tr, p)

    def test_rank_over_q_vs_fraction_oracle(self, rng):
        # Rank-deficient integer lifts, some with zero columns and entries
        # past 2^61, where a rank modulo 2^61 - 1 can fall short of Q's.
        for i in range(300):
            m, n, r = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 4)
            base = [[rng.randint(-9, 9) * (j % 3 or i % 2) for j in range(n)] for _ in range(r)]
            mat = [[sum(rng.randint(-3, 3) * row[j] for row in base) for j in range(n)]
                   for _ in range(m)]
            big = [[a * rng.choice([1, 2**61 - 1, -10**30]) for a in row] for row in mat]
            assert rank_over_q(mat) == fraction_rank(mat)
            assert rank_over_q(big) == fraction_rank(big)
        mersenne = [[1, 0], [0, 2**61 - 1]]
        assert rank_over_q(mersenne) == 2 > rank(mersenne, 2**61 - 1)


class TestKernel:
    def test_identity_has_trivial_kernel(self, ctxs):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert kernel_basis(eye, ctxs[0].p) == []

    def test_single_row(self, ctxs):
        p = ctxs[0].p
        basis = kernel_basis([[1, 0, 0]], p)
        assert len(basis) == 2
        assert all(v[0] == 0 for v in basis)
        assert rank(basis, p) == 2

    def test_residuals_random(self, ctxs, rng):
        # The residual check is the oracle: mat . v = 0 for every basis row.
        for ctx in ctxs:
            p = ctx.p
            for _ in range(10):
                mat = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
                basis = kernel_basis(mat, p)
                assert len(basis) == 4 - rank(mat, p)
                for v in basis:
                    assert all(sum(a * b for a, b in zip(row, v)) % p == 0
                               for row in mat)
                if basis:
                    assert rank(basis, p) == len(basis)


def kernel_by_gauss_jordan(mat, p):
    """Oracle: right kernel from a from-scratch Gauss-Jordan RREF."""
    rows = [[a % p for a in r] for r in mat]
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rows[i][f]) % p
        basis.append(v)
    return basis


class TestKernelAgainstGaussJordan:
    @pytest.mark.parametrize("p", [101, 3612720013493706217])
    def test_identical_bases(self, p):
        # The RREF is unique, so both eliminations give the same matrix.
        rng = derive_rng(SEED, "kernel-oracle", p)
        for _ in range(300):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 8)
            rank_cap = rng.randrange(0, min(nrows, ncols) + 1)
            # Rank-deficient: a product of nrows x rank_cap and rank_cap x ncols.
            left = [[rng.randrange(p) for _ in range(rank_cap)] for _ in range(nrows)]
            right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank_cap)]
            low = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                   if rank_cap else [0] * ncols for row in left]
            full = [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]
            # Sparse rows put pivots out of order, so back-substitution has work.
            sparse = [[rng.choice((0, 0, 0, rng.randrange(p))) for _ in range(ncols)]
                      for _ in range(nrows)]
            for mat in (low, full, sparse):
                assert kernel_basis(mat, p) == kernel_by_gauss_jordan(mat, p), mat


def kernel_by_clearing_columns(mat, p):
    """Oracle: the echelon rows with each pivot column cleared above its
    pivot by hand, last pivot first, then the kernel read off that RREF."""
    ncols = len(mat[0])
    red = RowReducer(p)
    for row in mat:
        red.add(row)
    pivots = sorted(red.pivots)
    rref = [red.pivots[c] for c in pivots]
    for i in range(len(rref) - 1, 0, -1):
        col = pivots[i]
        for j in range(i):
            c = rref[j][col]
            if c:
                rref[j] = [(a - c * b) % p for a, b in zip(rref[j], rref[i])]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rref[i][f]) % p
        basis.append(v)
    return basis


class TestKernelAgainstClearedColumns:
    @pytest.mark.parametrize("width", [7, PACK_MIN_WIDTH, PACK_MIN_WIDTH + 1, 90])
    @pytest.mark.parametrize("p", [2, 3, 101, 3612720013493706217])
    def test_identical_bases(self, p, width):
        # Folding the echelon rows back in, last pivot first, must give the
        # same RREF as clearing the columns by hand, on both sides of the
        # packed-row threshold.
        rng = derive_rng(SEED, "kernel-clearing", p, width)
        for _ in range(8):
            nrows = rng.randrange(1, 12)
            dense = [[rng.randrange(-p, 2 * p) for _ in range(width)] for _ in range(nrows)]
            basis = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randrange(1, 4))]
            low = [[sum(rng.randrange(p) * b[i] for b in basis) % p for i in range(width)]
                   for _ in range(nrows)]
            sparse = [[rng.choice((0, 0, 0, rng.randrange(p))) for _ in range(width)]
                      for _ in range(nrows)]
            zero = [[0] * width for _ in range(nrows)]
            for mat in (dense, low, sparse, zero):
                assert kernel_basis(mat, p) == kernel_by_clearing_columns(mat, p), mat


class TestSpan:
    def test_single_vector(self, ctxs):
        assert rank([[0, 3, 0]], ctxs[0].p) == 1

    def test_dependent_pair(self, ctxs):
        p = ctxs[0].p
        v = [1, 5, 9]
        assert rank([v, [2 * x % p for x in v]], p) == 1

    def test_random_full_rank_vs_fraction_oracle(self, ctxs, rng):
        mat = [[rng.randrange(100) for _ in range(9)] for _ in range(5)]
        expected = fraction_rank(mat)
        for ctx in ctxs:
            assert rank(mat, ctx.p) == expected

    def test_length_mismatch(self, ctxs):
        with pytest.raises(ValueError):
            rank([[1, 2], [1, 2, 3]], ctxs[0].p)

    def test_row_basis_spans(self, ctxs, rng):
        p = ctxs[0].p
        mat = [[rng.randrange(p) for _ in range(5)] for _ in range(4)]
        basis = row_basis(mat, p)
        assert rank(basis, p) == rank(mat, p) == len(basis)
        assert rank(basis + mat, p) == len(basis)


def basis_test_rows(rng, p, width, m):
    """m rows of entries in [-p, 2p): random ones with zeros, rows 0 mod p and
    combinations of the rows before them."""
    rows = []
    for _ in range(m):
        kind = rng.choice(("random", "zero", "dependent"))
        if kind == "zero":
            rows.append([p * rng.randrange(-1, 2) for _ in range(width)])
        elif kind == "dependent" and rows:
            cs = [rng.randrange(p) for _ in rows]
            rows.append([sum(c * r[i] for c, r in zip(cs, rows)) % p - rng.randrange(2) * p
                         for i in range(width)])
        else:
            rows.append([rng.randrange(-p, 2 * p) if rng.randrange(4) else 0
                         for _ in range(width)])
    return rows


def first_nonzero(row):
    return next(c for c, a in enumerate(row) if a)


class TestRowBasis:
    """`row_basis` eliminates without inverses: echelon rows, not normalized."""

    @pytest.mark.parametrize("p", [31, 3612720013493706217])
    def test_echelon_rows_span_the_reducers_pivots(self, p):
        rng = derive_rng(SEED, "row-basis", p)
        for width in range(1, 12):
            for _ in range(20):
                mat = basis_test_rows(rng, p, width, rng.randrange(1, width + 3))
                held = [list(row) for row in mat]
                basis, pivots = row_basis(mat, p), fold(mat, p).pivots
                assert mat == held
                # Echelon and pivot-sorted: pivot columns strictly increase, and
                # they are the reducer's.
                leads = [first_nonzero(row) for row in basis]
                assert leads == sorted(pivots)
                assert all(0 <= a < p for row in basis for a in row)
                # Each row is its pivot entry times the reducer's normalized row.
                assert basis == [[row[c] * b % p for b in pivots[c]]
                                 for c, row in zip(leads, basis)]

    def test_product_modulus_fails_where_fold_fails(self):
        rng, n = derive_rng(SEED, "row-basis-product"), 23 * 29
        outcomes = set()
        for width in range(1, 10):
            for _ in range(30):
                mat = basis_test_rows(rng, n, width, rng.randrange(1, width + 3))
                try:
                    fold(mat, n)
                except ValueError:
                    outcomes.add("non-unit pivot")
                    with pytest.raises(ValueError, match="not invertible"):
                        row_basis(mat, n)
                    continue
                outcomes.add("unit pivots")
                both = row_basis(mat, n)
                for p in (23, 29):
                    own = row_basis(mat, p)
                    assert len(own) == len(both)
                    # Row for row, a unit multiple of that prime's own row.
                    for row, mine in zip(both, own):
                        c = first_nonzero(mine)
                        u = row[c] * pow(mine[c], -1, p) % p
                        assert u and [a % p for a in row] == [u * a % p for a in mine]
        assert outcomes == {"non-unit pivot", "unit pivots"}


class TestRaggedRows:
    """The first row fixes a reducer's width; any other width raises."""

    def test_rank_rejects_a_short_row(self):
        with pytest.raises(ValueError, match="width"):
            rank([[1, 2], [3]], 101)

    def test_row_basis_rejects_a_short_row(self):
        with pytest.raises(ValueError, match="width"):
            row_basis([[1, 2], [3]], 101)

    def test_kernel_rejects_a_short_row(self):
        with pytest.raises(ValueError, match="width"):
            kernel_basis([[1, 2, 3], [4]], 101)

    @pytest.mark.parametrize("width", [3, PACK_MIN_WIDTH + 1])
    def test_contains_and_add_reject_other_widths(self, width):
        red = RowReducer(101)
        red.add([1] * width)
        for other in ([1] * (width - 1), [1] * (width + 1)):
            with pytest.raises(ValueError, match="width"):
                red.contains(other)
            with pytest.raises(ValueError, match="width"):
                red.add(other)
        assert red.contains([2] * width)


class ListReducer:
    """Oracle: the eager list elimination, every entry reduced mod p at every
    pivot step; pivots keyed by column in insertion order."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def residual(self, row):
        p = self.p
        r = [a % p for a in row]
        for col, prow in self.pivots.items():
            c = r[col]
            if c:
                r = [(a - c * b) % p for a, b in zip(r, prow)]
        return r

    def add(self, row):
        r = self.residual(row)
        col = next((i for i, a in enumerate(r) if a), None)
        if col is not None:
            inv = pow(r[col], -1, self.p)
            self.pivots[col] = [a * inv % self.p for a in r]
        return col is not None


def packed_path_rows(rng, p, width, nrows):
    """Dense, sparse, rank-deficient and zero rows, shuffled together."""
    dense = [[rng.randrange(-p, 2 * p) for _ in range(width)] for _ in range(nrows)]
    sparse = [[rng.choice((0, 0, 0, 0, rng.randrange(p))) for _ in range(width)]
              for _ in range(nrows)]
    basis = [[rng.randrange(p) for _ in range(width)] for _ in range(3)]
    low = [[sum(rng.randrange(p) * b[i] for b in basis) % p for i in range(width)]
           for _ in range(nrows)]
    rows = dense + sparse + low + [[0] * width] * 3
    rng.shuffle(rows)
    return rows


PRIMES = [2, 3, 101, 2**61 - 1, 3612720013493706217]


def check_against_list_oracle(p, width, label):
    """RowReducer and ListReducer agree on add, pivots, residual and contains."""
    rng = derive_rng(SEED, label, p, width)
    red, oracle = RowReducer(p), ListReducer(p)
    for row in packed_path_rows(rng, p, width, nrows=8):
        assert red.add(row) == oracle.add(row)
    assert list(red.pivots.items()) == list(oracle.pivots.items())
    assert bool(red._packed) == (width > PACK_MIN_WIDTH)
    for probe in packed_path_rows(rng, p, width, nrows=2):
        assert red.residual(probe) == oracle.residual(probe)
        assert red.contains(probe) == (not any(oracle.residual(probe)))
    coeffs = [rng.randrange(p) for _ in red.pivots]
    inside = [sum(c * a for c, a in zip(coeffs, col)) for col in zip(*red.pivots.values())]
    assert red.contains(inside)


def check_worst_case_growth(width, full_rank):
    """Upper unitriangular pivots with p - 1 in every entry right of the
    pivot, and a probe whose coefficient is 1 at every pivot step: each step
    adds (p - 1) * (p - 1) to every later entry, the largest increment, and
    the last entry takes width - 1 of them."""
    p = 3612720013493706217
    pivots = [[0] * i + [1] + [p - 1] * (width - i - 1) for i in range(width)]
    if not full_rank:
        pivots.pop()
    red, oracle = RowReducer(p), ListReducer(p)
    for row in pivots:
        assert red.add(row) and oracle.add(row)
    probe = [(1 - j) % p for j in range(width)]
    assert red.residual(probe) == oracle.residual(probe)
    assert any(oracle.residual(probe)) != full_rank
    assert red.contains(probe) == full_rank


class TestPackedElimination:
    WIDTHS = [PACK_MIN_WIDTH, PACK_MIN_WIDTH + 1, 120, 330]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_list_oracle(self, p, width):
        check_against_list_oracle(p, width, "packed-oracle")

    @pytest.mark.parametrize("full_rank", [True, False])
    def test_worst_case_slot_growth(self, full_rank):
        check_worst_case_growth(330, full_rank)

    @pytest.mark.parametrize("width", [PACK_MIN_WIDTH + 1, 120])
    @pytest.mark.parametrize("p", [101, 3612720013493706217])
    def test_pivots_out_of_column_order(self, p, width):
        # Each row's first nonzero column is drawn out of order, so pivots
        # leave the free columns from both ends and the middle; after each
        # row, a combination of the rows so far adds nothing.
        rng = derive_rng(SEED, "out-of-order", p, width)
        red, oracle = RowReducer(p), ListReducer(p)
        leads, rows = rng.sample(range(width), 12), []
        for lead in leads:
            rows.append([0] * lead + [rng.randrange(1, p)]
                        + [rng.randrange(-p, 2 * p) for _ in range(width - lead - 1)])
            coeffs = [rng.randrange(p) for _ in rows]
            idle = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(width)]
            assert (red.add(rows[-1]), oracle.add(rows[-1])) == (True, True)
            assert (red.add(idle), oracle.add(idle)) == (False, False)
        assert list(red.pivots) == leads
        assert list(red.pivots.items()) == list(oracle.pivots.items())
        for probe in packed_path_rows(rng, p, width, nrows=2) + [idle]:
            assert red.residual(probe) == oracle.residual(probe)
            assert red.contains(probe) == (not any(oracle.residual(probe)))


class TestLazyListElimination:
    """Rows of at most PACK_MIN_WIDTH columns are reduced once, at the end;
    the eager loop, which reduces at every step, is the oracle."""

    @pytest.mark.parametrize("width", [1, 2, 7, 20, PACK_MIN_WIDTH])
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_eager_oracle(self, p, width):
        check_against_list_oracle(p, width, "lazy-oracle")

    @pytest.mark.parametrize("full_rank", [True, False])
    def test_worst_case_growth(self, full_rank):
        check_worst_case_growth(PACK_MIN_WIDTH, full_rank)


class TestTailSteps:
    """A pivot step touches only the row from the pivot column on, on a copy of
    the caller's row, and each entry is reduced once: on both paths, against
    the eager oracle."""

    WIDTHS = [7, PACK_MIN_WIDTH + 1]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("p", [101, 3612720013493706217])
    def test_caller_rows_unchanged(self, p, width):
        rng = derive_rng(SEED, "caller-rows", p, width)
        red, oracle = RowReducer(p), ListReducer(p)
        for row in packed_path_rows(rng, p, width, nrows=4):
            kept = list(row)
            assert red.residual(row) == oracle.residual(row) and row == kept
            assert red.contains(row) == (not any(oracle.residual(row))) and row == kept
            assert red.add(row) == oracle.add(row) and row == kept
        assert list(red.pivots.items()) == list(oracle.pivots.items())

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("p", [101, 3612720013493706217])
    def test_pivot_after_multiples_of_p(self, p, width):
        # Column 2 is the first entry nonzero mod p: raw, after p and -2p; and
        # after the step against `first`, after 2 + (p - 2) = p and 6 + 3(p - 2) = 3p.
        rng = derive_rng(SEED, "multiples-of-p", p, width)
        tail = [rng.randrange(-p, 2 * p) for _ in range(width - 3)]
        first = [1, 3] + [0] * (width - 2)
        for rows in ([[p, -2 * p, 5] + tail], [first, [2, 6, -5] + tail]):
            red, oracle = RowReducer(p), ListReducer(p)
            for row in rows:
                assert (red.add(row), oracle.add(row)) == (True, True)
            assert list(red.pivots.items()) == list(oracle.pivots.items())
            assert red.pivots[2][:3] == [0, 0, 1]

def dense_mat_vec(mat, vec, p):
    """Oracle: one dot product per output coordinate."""
    return [sum(a * b for a, b in zip(row, vec)) % p for row in mat]


def dense_apply_map(rows, kmap, p):
    """Oracle: the map with matrix `kmap` applied to each row, densely."""
    return [dense_mat_vec(kmap, row, p) for row in rows]


def random_center_matrix(rng, p, width):
    """m rows for a random 1 <= m < width: dense, rank-deficient, or with
    zero columns, so kernels have free, zero and nonzero pivot columns."""
    m = rng.randrange(1, width)
    kind = rng.choice(("dense", "low", "zero-cols"))
    if kind == "low":
        basis = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randrange(1, m + 1))]
        return [[sum(rng.randrange(p) * b[i] for b in basis) % p for i in range(width)]
                for _ in range(m)]
    zero = set(rng.sample(range(width), rng.randrange(width))) if kind == "zero-cols" else ()
    return [[0 if i in zero else rng.randrange(p) for i in range(width)] for _ in range(m)]


class TestKernelColumns:
    """A projection read as residuals against its center equals the dense
    product with the center's kernel map."""

    @pytest.mark.parametrize("p", [2, 3, 101, 3612720013493706217])
    def test_matches_dense_products(self, p):
        rng = derive_rng(SEED, "kernel-columns", p)
        # Widths on both sides of PACK_MIN_WIDTH: list and packed reducers.
        for width in [*range(2, 41), 41, 46, 55, 90]:
            for _ in range(3):
                center = random_center_matrix(rng, p, width)
                kmap, red = kernel_basis(center, p), fold(center, p)
                free = [c for c in range(width) if c not in red.pivots]
                assert [row[f] for row, f in zip(kmap, free, strict=True)] == [1] * len(kmap)
                vec = [rng.randrange(p) for _ in range(width)]
                frame = [[rng.randrange(-p, 2 * p) for _ in range(width)]
                         for _ in range(rng.randrange(1, 5))]
                assert [red.residual(vec)[f] for f in free] == dense_mat_vec(kmap, vec, p)
                assert mat_vec(kmap, vec, p) == dense_mat_vec(kmap, vec, p)
                assert [[r[f] for f in free] for r in map(red.residual, frame)] == \
                    dense_apply_map(frame, kmap, p)

    @pytest.mark.parametrize("p", [2, 101, 3612720013493706217])
    def test_section_edge_cases(self, p):
        rng = derive_rng(SEED, "section", p)
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        # One column paired with a nonzero value: the kernel is empty.
        assert kernel_basis([[5]], p) == [] and _section(rows[:1], [5], p) == []
        # An all-zero pairing: the kernel is the identity, rows come back mod p.
        wide = [[a + p for a in row] for row in rows]
        assert _section(wide, [0] * 4, p) == rows
        # A generic pairing: the dense product through the kernel map, each row
        # times pairing[0], the entry _section scales by in place of inverting it.
        pairing = [rng.randrange(1, p) for _ in range(4)]
        kmap = kernel_basis([pairing], p)
        assert _section(rows, pairing, p) == [[pairing[0] * a % p for a in row]
                                              for row in dense_apply_map(kmap, list(zip(*rows)), p)]
