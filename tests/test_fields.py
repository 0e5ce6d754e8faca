"""Exact F_p linear algebra, cross-checked against brute force."""

import random

import numpy as np
import pytest

from qsol.fields import (
    FpVector,
    PrimeModulus,
    blocks,
    is_independent,
    is_prime,
    null_space,
    rank_of_vectors,
    rref,
)

from conftest import (
    apply_map,
    in_row_space,
    rank,
    reference_is_independent,
    reference_kernel_basis,
    reference_quotient_map,
    reference_row_space,
    row_space_vectors,
)


def random_matrix(rng, p, nrows, ncols):
    return np.array([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], dtype=np.int64).reshape(
        nrows, ncols
    )


def random_stack(rng, p, nrows, ncols):
    """nrows rows of F_p^ncols, with zero, repeated, scaled and dependent rows mixed in."""
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        kind = rng.random()
        if kind < 0.15:
            rows[i] = [0] * ncols
        elif kind < 0.3:
            rows[i] = list(rng.choice(rows[:i]))
        elif kind < 0.5:
            a, b = rng.choice(rows[:i]), rng.choice(rows[:i])
            c, e = rng.randrange(p), rng.randrange(p)
            rows[i] = [(c * x + e * y) % p for x, y in zip(a, b)]
    return rows


def reference_inverse(p, m):
    """Gauss-Jordan inverse of a square non-singular matrix, written apart from qsol.fields."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(np.asarray(m).tolist())]
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
    return np.array([row[n:] for row in aug], dtype=np.int64)


def reference_complete_basis(p, vs, dim):
    """Non-singular dim x dim matrix over F_p whose first columns are the independent vectors vs.

    The completion is greedy over the standard basis vectors in index order.
    """
    cols = [list(v) for v in vs]
    if rank(p, cols, dim) != len(cols):
        raise ValueError("input vectors are linearly dependent")
    for i in range(dim):
        if len(cols) == dim:
            break
        e = [1 if j == i else 0 for j in range(dim)]
        if rank(p, cols + [e], dim) > len(cols):
            cols.append(e)
    return np.array(cols, dtype=np.int64).T


def greedy_independent(p, vs):
    """The vectors over F_p that are independent of the ones before them, in order."""
    chosen = []
    for v in vs:
        if rank_of_vectors(p, chosen + [v]) > len(chosen):
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

    def test_empty_stack_keeps_its_width(self):
        # no rows: a (0, 3) row space, and the whole of F_p^3 as the null space
        for rows in ([], np.zeros((0, 3), dtype=np.int64)):
            assert rref(5, rows, 3).shape == (0, 3)
            assert null_space(5, rows, 3).tolist() == np.eye(3, dtype=np.int64).tolist()
        assert rank_of_vectors(5, np.zeros((0, 3), dtype=np.int64)) == 0

    def test_ragged_rows_rejected(self):
        for elimination in (rref, null_space):
            with pytest.raises(ValueError):
                elimination(2, [(1, 0), (1,)], 2)
            with pytest.raises(ValueError):
                elimination(3, [(1, 0, 2)], 2)


class TestRref:
    def test_fixed_example(self):
        red = rref(2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert red.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert red.dtype == np.int64 and not red.flags.writeable

    def test_rref_is_idempotent(self):
        rng = random.Random(2)
        for _ in range(50):
            m = random_matrix(rng, 3, 4, 5)
            once = rref(3, m, 5)
            assert np.array_equal(rref(3, once, 5), once)

    def test_rank_via_row_space_enumeration(self):
        # |row space| = p^rank, checked by enumerating the span
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, 3, 3, 4)
            assert len(row_space_vectors(3, m, 4)) == 3 ** len(rref(3, m, 4)) == 3 ** rank(3, m, 4)

    def test_rank_of_vectors_matches_rref_both_paths(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(60):
                vecs = [[rng.randrange(p) for _ in range(5)] for _ in range(rng.randrange(1, 5))]
                assert rank_of_vectors(p, vecs) == len(rref(p, vecs, 5)) == rank(p, vecs, 5)

    def test_rank_of_vectors_empty(self):
        assert rank_of_vectors(2, []) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_independent_matches_rank(self, p):
        # wide and tall stacks, with zero rows, repeats and multiples mixed in
        rng = random.Random(40 + p)
        assert is_independent(p, [])
        for _ in range(120):
            ncols = rng.randrange(1, 9)
            vecs = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randrange(1, 7))]
            if rng.random() < 0.4:
                extra = rng.choice([[0] * ncols, [rng.randrange(1, p) * e for e in rng.choice(vecs)]])
                vecs.insert(rng.randrange(len(vecs) + 1), extra)
            expected = rank(p, vecs, ncols) == len(vecs)
            assert is_independent(p, vecs) == expected


class TestOneElimination:
    """rref, null_space, rank_of_vectors and is_independent against the references they replace."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
    def test_property_matches_references(self, p):
        # wide (up to 4 x 12) and tall (up to 12 x 4) stacks, and the empty one
        rng = random.Random(2600 + p)
        ranks = set()
        for case in range(300):
            nrows, ncols = rng.randrange(13), rng.randrange(1, 13)
            if case % 2:
                nrows = min(nrows, 4)
            else:
                ncols = min(ncols, 4)
            rows = random_stack(rng, p, nrows, ncols)
            if case < 4:
                # a basis of F_p^ncols, in a random order
                nrows = ncols
                rows = [[int(i == j) for j in range(ncols)] for i in rng.sample(range(ncols), ncols)]
            expected = reference_row_space(p, rows, ncols)
            basis = rref(p, rows, ncols)
            assert basis.shape == (len(expected), ncols) and basis.dtype == np.int64 and not basis.flags.writeable
            assert basis.tolist() == expected
            assert null_space(p, rows, ncols).tolist() == reference_kernel_basis(p, rows, ncols)
            assert rank_of_vectors(p, rows) == len(expected)
            assert is_independent(p, rows) == reference_is_independent(p, rows) == (len(expected) == nrows)
            ranks.add((len(expected) == nrows, len(expected) == ncols))
        # independent and dependent stacks, of full and of deficient column rank
        assert ranks == {(True, True), (True, False), (False, True), (False, False)}

    def test_rows_above_a_pivot_are_cleared(self):
        # the third row's pivot must be cleared from the first two: without
        # that the row space would come out as ((1, 1, 1), (0, 1, 1), (0, 0, 1))
        assert rref(2, [(1, 1, 1), (0, 1, 1), (0, 0, 1)], 3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        # and from the last column down: the pivot row of column 3 is cleared
        # at column 2, so x3 = −(x0 + x1) rather than −x0 − x2
        assert null_space(3, [(1, 0, 1, 1), (0, 1, 2, 0)], 4).tolist() == [[1, 0, 0, 2], [0, 1, 1, 2]]


class TestKernelAndInverse:
    def test_kernel_annihilates_and_has_complementary_rank(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            for _ in range(30):
                m = random_matrix(rng, p, 3, 5)
                ker = null_space(p, m, 5)
                assert rank(p, m, 5) + len(ker) == 5
                assert not (m @ ker.T % p).any()

    def test_kernel_basis_is_canonical(self):
        ker = null_space(2, [(1, 0, 1, 1), (0, 1, 1, 0)], 4)
        assert np.array_equal(rref(2, ker, 4), ker)

    def test_inverse_round_trip(self):
        # the reference that TestQuotientMap compares against
        rng = random.Random(17)
        for p in (2, 3, 7):
            ident = np.eye(4, dtype=np.int64)
            found = 0
            while found < 10:
                m = random_matrix(rng, p, 4, 4)
                if rank(p, m, 4) < 4:
                    continue
                found += 1
                assert np.array_equal(m @ reference_inverse(p, m) % p, ident)
                assert np.array_equal(reference_inverse(p, m) @ m % p, ident)

    def test_inverse_of_singular_raises(self):
        with pytest.raises(ValueError):
            reference_inverse(2, [(1, 1), (1, 1)])

    def test_in_row_space(self):
        m = [(1, 0, 2), (0, 1, 1)]
        assert in_row_space(3, m, (2, 1, 2))
        assert not in_row_space(3, m, (0, 0, 1))


class TestCompleteBasis:
    """The reference completion that TestQuotientMap compares against."""

    def test_prefix_columns_and_determinism(self):
        rng = random.Random(23)
        for p in (2, 3):
            for _ in range(40):
                dim = rng.randrange(2, 6)
                vs = []
                while len(vs) < 2:
                    cand = tuple(rng.randrange(p) for _ in range(dim))
                    if rank_of_vectors(p, vs + [cand]) == len(vs) + 1:
                        vs.append(cand)
                a = reference_complete_basis(p, vs, dim)
                assert rank(p, a, dim) == dim
                for col, v in zip(a.T.tolist(), vs):
                    assert tuple(col) == v
                assert np.array_equal(reference_complete_basis(p, vs, dim), a)

    def test_dependent_input_raises(self):
        v = (1, 0, 1)
        with pytest.raises(ValueError):
            reference_complete_basis(2, [v, v], 3)


class TestQuotientMap:
    """The map that projects from the span of a centre: the null_space of the centre's vectors."""

    def test_property_rows_past_the_centre_of_the_reference_inverse(self):
        # a centre maps like its greedy independent subset, through rows r.. of
        # A^{-1} for the greedy completion A of that subset
        rng = random.Random(29)
        dependent = 0
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            dim = rng.randrange(1, 8)
            centre = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(1, dim + 2))]
            q = null_space(p, centre, dim)
            independent = greedy_independent(p, centre)
            r = len(independent)
            if r < len(centre):
                dependent += 1
                if independent:
                    assert np.array_equal(null_space(p, independent, dim), q)
            if independent:
                inverse = reference_inverse(p, reference_complete_basis(p, independent, dim))
                assert q.tolist() == inverse[r:].tolist()
            else:
                assert q.tolist() == np.eye(dim, dtype=np.int64).tolist()
            assert q.shape == (dim - r, dim) and rank_of_vectors(p, q.tolist()) == dim - r
            for v in centre:
                assert not any(apply_map(p, q, v))
        assert 0 < dependent < 300

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_read_only_int64_rows(self, p):
        mod = PrimeModulus(p)
        q = null_space(p, [(1, 0, p - 1, 0), (0, 0, 1, 1)], 4)
        assert q.dtype == np.int64 and q.shape == (2, 4) and not q.flags.writeable
        assert ((0 <= q) & (q < p)).all()
        with pytest.raises(ValueError):
            q[0, 0] = 1

    def test_centre_spanning_everything_gives_no_rows(self):
        q = null_space(3, [(1, 2, 0), (0, 1, 1), (1, 0, 0), (2, 2, 2)], 3)
        assert q.shape == (0, 3) and q.dtype == np.int64 and not q.flags.writeable

    def test_rejects_mislength_centre(self):
        with pytest.raises(ValueError):
            null_space(2, [(1, 0)], 3)


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
        # null_space against the two-pass kernel and the [C | I] elimination
        # of the projection it replaces, dim 1-10 and 0-4 rows
        rng = random.Random(1300 + p)
        shapes = set()
        for case in range(400):
            dim = case % 10 + 1
            rows = self.random_rows(rng, p, dim)
            basis = null_space(p, rows, dim)
            assert basis.dtype == np.int64 and not basis.flags.writeable
            assert basis.tolist() == reference_kernel_basis(p, rows, dim)
            if rows:
                assert np.array_equal(basis, reference_quotient_map(p, rows, dim))
            # RREF: every row annihilated by the input, of full rank dim - rank, equal to its own RREF
            assert basis.shape == (dim - rank(p, rows, dim), dim) and ((0 <= basis) & (basis < p)).all()
            assert not (np.array(rows, dtype=np.int64).reshape(-1, dim) @ basis.T % p).any()
            assert reference_row_space(p, basis, dim) == basis.tolist()
            shapes.add((len(rows), len(basis) == dim))
        # the empty input, nonzero inputs, and full-rank and deficient cases all occur
        assert {(0, True), (4, False)} <= shapes

    def test_pivots_from_the_last_column(self, mod3):
        # the row (1, 2, 0, 1) pivots at its last column: x3 = -(x0 + 2·x1)
        assert null_space(3, [(1, 2, 0, 1)], 4).tolist() == [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 0]]

    def test_rejects_mislength_rows(self):
        with pytest.raises(ValueError):
            null_space(2, [(1, 0)], 3)


def test_row_space_drops_zero_rows():
    assert rref(2, [(1, 1), (1, 1), (0, 0)], 2).tolist() == [[1, 1]]


class TestBudget:
    @pytest.mark.parametrize("count, width", [(0, 5), (1, 0), (7, 2 ** 21), (2 ** 20, 1), (10 ** 6, 20), (12345, 77)])
    def test_blocks_cover_the_rows_in_order(self, count, width):
        # consecutive slices of at least one row, each within 2^20 entries unless one row is wider
        step = max(1, 2 ** 20 // max(width, 1))
        parts = blocks(count, width)
        assert [i for part in parts for i in range(count)[part]] == list(range(count))
        assert all(len(range(count)[part]) <= step for part in parts)
        assert all(len(range(count)[part]) * width <= max(2 ** 20, width) for part in parts)
