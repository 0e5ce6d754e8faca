"""Exact F_p linear algebra, cross-checked against brute force."""

import itertools
import random

import numpy as np
import pytest

from qsol import fields
from qsol.fields import (
    FpMatrix,
    FpVector,
    PrimeModulus,
    is_independent,
    is_prime,
    kernel_basis,
    null_space,
    quotient_map,
    rank_of_vectors,
    row_space,
    rref,
)

from conftest import (
    apply_map,
    in_row_space,
    matrix_product,
    rank,
    reference_kernel_basis,
    reference_quotient_map,
    row_space_vectors,
)


def random_matrix(rng, modulus, nrows, ncols):
    return FpMatrix.from_rows(
        modulus, [[rng.randrange(modulus.p) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


def reference_inverse(m):
    """Gauss-Jordan inverse of a square non-singular matrix, written apart from qsol.fields."""
    n, p = m.nrows, m.p
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [(inv * e) % p for e in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[c])]
    return FpMatrix(m.modulus, tuple(tuple(row[n:]) for row in aug), n)


def reference_complete_basis(vs, dim):
    """Non-singular dim x dim matrix whose first columns are the independent vs.

    The completion is greedy over the standard basis vectors in index order.
    """
    modulus = vs[0].modulus
    cols = [list(v.entries) for v in vs]
    if rank(FpMatrix.from_rows(modulus, cols, dim)) != len(cols):
        raise ValueError("input vectors are linearly dependent")
    for i in range(dim):
        if len(cols) == dim:
            break
        e = [1 if j == i else 0 for j in range(dim)]
        if rank(FpMatrix.from_rows(modulus, cols + [e], dim)) > len(cols):
            cols.append(e)
    return FpMatrix.from_rows(modulus, cols, dim).transpose()


def greedy_independent(vs):
    """The vectors that are independent of the ones before them, in order."""
    chosen = []
    for v in vs:
        if rank_of_vectors(v.p, [c.entries for c in chosen] + [v.entries]) > len(chosen):
            chosen.append(v)
    return chosen


class TestPrimeModulus:
    def test_accepts_all_primes_up_to_31(self):
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
            assert PrimeModulus(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 33, 37, -3])
    def test_rejects_non_primes_and_large_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeModulus(bad)

    def test_is_prime_matches_trial_division(self):
        for n in range(-2, 100):
            expected = n > 1 and all(n % d for d in range(2, n))
            assert is_prime(n) == expected


class TestVectorsAndMatrices:
    def test_entries_reduced_eagerly(self, mod3):
        v = FpVector(mod3, (4, -1, 6))
        assert v.entries == (1, 2, 0)

    def test_vector_arithmetic(self, mod3):
        u = FpVector(mod3, (1, 2, 0))
        v = FpVector(mod3, (2, 2, 1))
        assert (u + v).entries == (0, 1, 1)
        assert (u - v).entries == (2, 0, 2)
        assert u.scale(2).entries == (2, 1, 0)

    def test_shape_mismatch_raises(self, mod2, mod3):
        with pytest.raises(ValueError):
            FpVector(mod2, (1, 0)) + FpVector(mod2, (1, 0, 1))
        with pytest.raises(ValueError):
            FpVector(mod2, (1, 0)) + FpVector(mod3, (1, 0))

    def test_matmul_against_plain_loop(self, mod3):
        # the plain-loop product that the kernel and inverse checks use, against numpy's
        rng = random.Random(11)
        for _ in range(25):
            a = random_matrix(rng, mod3, 3, 4)
            b = random_matrix(rng, mod3, 4, 2)
            expected = np.array(a.rows) @ np.array(b.rows) % 3
            assert matrix_product(a, b) == FpMatrix.from_rows(mod3, expected.tolist(), 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            matrix_product(a, a)

    def test_transpose_round_trip(self, mod2):
        rng = random.Random(5)
        m = random_matrix(rng, mod2, 3, 5)
        assert m.transpose().transpose() == m

    def test_transpose_of_an_empty_matrix_keeps_its_shape(self, mod2):
        # 0 x 3 -> 3 x 0 -> 0 x 3
        empty = FpMatrix(mod2, (), 3)
        t = empty.transpose()
        assert (t.nrows, t.ncols) == (3, 0)
        assert t.transpose() == empty

    def test_ragged_rows_rejected(self, mod2):
        with pytest.raises(ValueError):
            FpMatrix(mod2, ((1, 0), (1,)), 2)


class TestRref:
    def test_fixed_example(self, mod2):
        m = FpMatrix.from_rows(mod2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        red = rref(m)
        assert red.rank == 2
        assert red.pivots == (0, 1)
        assert red.matrix.rows == ((1, 0, 1), (0, 1, 1), (0, 0, 0))

    def test_rref_is_idempotent(self, mod3):
        rng = random.Random(2)
        for _ in range(50):
            m = random_matrix(rng, mod3, 4, 5)
            once = rref(m).matrix
            assert rref(once).matrix == once

    def test_rank_via_row_space_enumeration(self, mod3):
        # |row space| = p^rank, checked by enumerating the span
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, mod3, 3, 4)
            assert len(row_space_vectors(m)) == 3 ** rank(m)

    def test_rank_of_vectors_matches_rref_both_paths(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            mod = PrimeModulus(p)
            for _ in range(60):
                vecs = [[rng.randrange(p) for _ in range(5)] for _ in range(rng.randrange(1, 5))]
                assert rank_of_vectors(p, vecs) == rank(FpMatrix.from_rows(mod, vecs, 5))

    def test_rank_of_vectors_empty(self):
        assert rank_of_vectors(2, []) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_independent_matches_rank(self, p):
        # wide and tall stacks, with zero rows, repeats and multiples mixed in
        rng = random.Random(40 + p)
        mod = PrimeModulus(p)
        assert is_independent(p, [])
        for _ in range(120):
            ncols = rng.randrange(1, 9)
            vecs = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randrange(1, 7))]
            if rng.random() < 0.4:
                extra = rng.choice([[0] * ncols, [rng.randrange(1, p) * e for e in rng.choice(vecs)]])
                vecs.insert(rng.randrange(len(vecs) + 1), extra)
            expected = rank(FpMatrix.from_rows(mod, vecs, ncols)) == len(vecs)
            assert is_independent(p, vecs) == expected


class TestKernelAndInverse:
    def test_kernel_annihilates_and_has_complementary_rank(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            mod = PrimeModulus(p)
            for _ in range(30):
                m = random_matrix(rng, mod, 3, 5)
                ker = kernel_basis(m)
                assert rank(m) + ker.nrows == 5
                assert not any(map(any, matrix_product(m, ker.transpose()).rows))

    def test_kernel_basis_is_canonical(self, mod2):
        m = FpMatrix.from_rows(mod2, [(1, 0, 1, 1), (0, 1, 1, 0)], 4)
        ker = kernel_basis(m)
        assert rref(ker).matrix.rows[: ker.nrows] == ker.rows

    def test_inverse_round_trip(self):
        # the reference that TestQuotientMap compares against
        rng = random.Random(17)
        for p in (2, 3, 7):
            mod = PrimeModulus(p)
            ident = FpMatrix.identity(mod, 4)
            found = 0
            while found < 10:
                m = random_matrix(rng, mod, 4, 4)
                if rank(m) < 4:
                    continue
                found += 1
                assert matrix_product(m, reference_inverse(m)) == ident
                assert matrix_product(reference_inverse(m), m) == ident

    def test_inverse_of_singular_raises(self, mod2):
        m = FpMatrix.from_rows(mod2, [(1, 1), (1, 1)], 2)
        with pytest.raises(ValueError):
            reference_inverse(m)

    def test_in_row_space(self, mod3):
        m = FpMatrix.from_rows(mod3, [(1, 0, 2), (0, 1, 1)], 3)
        assert in_row_space(m, FpVector(mod3, (2, 1, 2)))
        assert not in_row_space(m, FpVector(mod3, (0, 0, 1)))


class TestCompleteBasis:
    """The reference completion that TestQuotientMap compares against."""

    def test_prefix_columns_and_determinism(self):
        rng = random.Random(23)
        for p in (2, 3):
            mod = PrimeModulus(p)
            for _ in range(40):
                dim = rng.randrange(2, 6)
                vs = []
                while len(vs) < 2:
                    cand = FpVector(mod, tuple(rng.randrange(p) for _ in range(dim)))
                    if rank_of_vectors(p, [v.entries for v in vs] + [cand.entries]) == len(vs) + 1:
                        vs.append(cand)
                a = reference_complete_basis(vs, dim)
                assert rank(a) == dim
                for col, v in zip(a.transpose().rows, vs):
                    assert col == v.entries
                assert reference_complete_basis(vs, dim) == a

    def test_dependent_input_raises(self, mod2):
        v = FpVector(mod2, (1, 0, 1))
        with pytest.raises(ValueError):
            reference_complete_basis([v, v], 3)


class TestQuotientMap:
    def test_property_rows_past_the_centre_of_the_reference_inverse(self):
        # a centre maps like its greedy independent subset, through rows r.. of
        # A^{-1} for the greedy completion A of that subset
        rng = random.Random(29)
        dependent = 0
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            mod = PrimeModulus(p)
            dim = rng.randrange(1, 8)
            centre = [
                FpVector(mod, tuple(rng.randrange(p) for _ in range(dim)))
                for _ in range(rng.randrange(1, dim + 2))
            ]
            q = quotient_map(centre, dim)
            independent = greedy_independent(centre)
            r = len(independent)
            if r < len(centre):
                dependent += 1
                if independent:
                    assert np.array_equal(quotient_map(independent, dim), q)
            if independent:
                inverse = reference_inverse(reference_complete_basis(independent, dim))
                assert q.tolist() == [list(row) for row in inverse.rows[r:]]
            else:
                assert q.tolist() == [list(row) for row in FpMatrix.identity(mod, dim).rows]
            assert q.shape == (dim - r, dim) and rank_of_vectors(p, q.tolist()) == dim - r
            for v in centre:
                assert apply_map(q, v).is_zero()
        assert 0 < dependent < 300

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_read_only_int64_rows(self, p):
        mod = PrimeModulus(p)
        q = quotient_map([FpVector(mod, (1, 0, p - 1, 0)), FpVector(mod, (0, 0, 1, 1))], 4)
        assert q.dtype == np.int64 and q.shape == (2, 4) and not q.flags.writeable
        assert ((0 <= q) & (q < p)).all()
        with pytest.raises(ValueError):
            q[0, 0] = 1

    def test_centre_spanning_everything_gives_no_rows(self, mod3):
        centre = [FpVector(mod3, row) for row in ((1, 2, 0), (0, 1, 1), (1, 0, 0), (2, 2, 2))]
        q = quotient_map(centre, 3)
        assert q.shape == (0, 3) and q.dtype == np.int64 and not q.flags.writeable

    def test_rejects_empty_or_mislength_centre(self, mod2):
        with pytest.raises(ValueError):
            quotient_map([], 3)
        with pytest.raises(ValueError):
            quotient_map([FpVector(mod2, (1, 0))], 3)


class TestNullSpace:
    @staticmethod
    def random_rows(rng, p, dim):
        """0-4 rows of F_p^dim, with zero, repeated and dependent rows mixed in."""
        rows = [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randrange(5))]
        for i, row in enumerate(rows):
            if i and rng.random() < 0.3:
                c = rng.randrange(p)
                rows[i] = [(c * a + rng.randrange(2) * b) % p for a, b in zip(rows[0], rows[i - 1])]
            elif rng.random() < 0.1:
                rows[i] = [0] * dim
        return rows

    @pytest.mark.parametrize("p", [2, 3, 5, 31])
    def test_property_matches_references(self, p):
        # null_space, kernel_basis and quotient_map against the two-pass kernel
        # and the [C | I] elimination they replace, dim 1-10 and 0-4 rows
        rng = random.Random(1300 + p)
        mod = PrimeModulus(p)
        shapes = set()
        for case in range(400):
            dim = case % 10 + 1
            rows = self.random_rows(rng, p, dim)
            basis = null_space(p, rows, dim)
            m = FpMatrix(mod, tuple(map(tuple, rows)), dim)
            expected = reference_kernel_basis(m)
            assert basis.dtype == np.int64 and not basis.flags.writeable
            assert basis.tolist() == [list(row) for row in expected.rows]
            assert kernel_basis(m) == expected
            if rows:
                centre = [FpVector(mod, row) for row in rows]
                assert np.array_equal(quotient_map(centre, dim), reference_quotient_map(centre, dim))
            # RREF: every row annihilated by the input, of full rank dim - rank(m), equal to its own RREF
            assert basis.shape == (dim - rank(m), dim) and ((0 <= basis) & (basis < p)).all()
            assert not (np.array(rows, dtype=np.int64).reshape(-1, dim) @ basis.T % p).any()
            assert rref(FpMatrix(mod, tuple(map(tuple, basis.tolist())), dim)).matrix.rows[: len(basis)] == tuple(
                map(tuple, basis.tolist())
            )
            shapes.add((len(rows), len(basis) == dim))
        # the empty input, nonzero inputs, and full-rank and deficient cases all occur
        assert {(0, True), (4, False)} <= shapes

    def test_pivots_from_the_last_column(self, mod3):
        # the row (1, 2, 0, 1) pivots at its last column: x3 = -(x0 + 2·x1)
        assert null_space(3, [(1, 2, 0, 1)], 4).tolist() == [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 0]]

    def test_rejects_mislength_rows(self):
        with pytest.raises(ValueError):
            null_space(2, [(1, 0)], 3)


def test_row_space_drops_zero_rows(mod2):
    m = FpMatrix.from_rows(mod2, [(1, 1), (1, 1), (0, 0)], 2)
    assert row_space(m).rows == ((1, 1),)
