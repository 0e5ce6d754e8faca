"""Point codes, projective subspaces, projections, and the subspace enumeration of the test references."""

import itertools
import random

import pytest

from qsol.errors import CollapsedImage, DimensionMismatch, TooLarge
import numpy as np

from qsol.fields import PrimeModulus, null_space, rank_of_vectors
from qsol.geometry import (
    ProjSubspace,
    digits,
    normalise,
    points_of,
    span,
    vector_codes,
)
from qsol.lines import lines_spanned_by, project_lines

from conftest import apply_map, iter_rref_bases, normalised, points, vectors


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n, the reference count for iter_rref_bases."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class TestNormalise:
    def test_first_nonzero_becomes_one(self):
        # (0, 2, 1) over F_3 is the point of (0, 1, 2), code 0·9 + 1·3 + 2 = 5
        assert normalise(3, 3, vector_codes(3, 3, [(0, 2, 1)])).tolist() == [5]

    def test_proportional_vectors_give_one_point(self):
        assert normalise(3, 3, vector_codes(3, 3, [(2, 1, 0), (1, 2, 0)])).tolist() == [15]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalise(2, 3, vector_codes(2, 3, [(0, 0, 0)]))

    @pytest.mark.parametrize("p, m", [(2, 63), (3, 39), (31, 12)])
    def test_codes_stop_at_64_bits(self, p, m):
        # p^m <= 2^63 is the largest space whose codes fit an int64; one more
        # coordinate would wrap them, so it is refused
        top = (1,) + (p - 1,) * (m - 1)
        assert vector_codes(p, m, [top]).tolist() == [2 * p ** (m - 1) - 1]
        assert digits(p, m, [2 * p ** (m - 1) - 1]).tolist() == [list(top)]
        with pytest.raises(TooLarge, match=f"codes up to {p}\\^{m + 1} - 1, past the 64-bit integers"):
            vector_codes(p, m + 1, [(1,) + top])
        with pytest.raises(TooLarge):
            digits(p, m + 1, [1])
        with pytest.raises(TooLarge):
            normalise(p, m + 1, [1])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_scaling_the_first_nonzero_coordinate(self, p):
        # random nonzero vectors, some repeated or proportional, against
        # normalising and deduplicating them one by one
        rng = random.Random(4200 + p)
        for m in range(1, 6):
            vs = [v for v in (tuple(rng.randrange(p) for _ in range(m)) for _ in range(40)) if any(v)]
            vs += [tuple(rng.randrange(1, p) * e % p for e in v) for v in vs[:10]]
            rng.shuffle(vs)
            codes = normalise(p, m, vector_codes(p, m, vs))
            assert vectors(p, m, codes) == sorted({normalised(p, v) for v in vs}), (p, m)


class TestSubspacesAndSpan:
    def test_points_of_line_count(self, mod3):
        line = ProjSubspace(mod3, [(1, 0, 0), (0, 1, 0)])
        assert len(points_of(line)) == 4

    def test_span_of_two_points_is_their_line(self, mod2):
        a = ProjSubspace(mod2, [(1, 0, 0)])
        b = ProjSubspace(mod2, [(0, 1, 1)])
        s = span([a, b])
        assert s.rank == 2
        assert set(points(s)) == {(1, 0, 0), (0, 1, 1), (1, 1, 1)}

    def test_canonical_basis_makes_equality_structural(self, mod2):
        s1 = ProjSubspace(mod2, [(1, 1, 0), (0, 1, 1)])
        s2 = ProjSubspace(mod2, [(1, 0, 1), (1, 1, 0)])
        assert s1 == s2

    def test_direct_construction_is_canonical(self, mod3):
        # over F_3 the RREF of these rows is ((1, 0, 2), (0, 1, 1)); a basis
        # given directly is put in that form too, so equal subspaces are
        # equal values and hash alike
        rows = ((1, 1, 0), (0, 1, 1))
        direct = ProjSubspace(mod3, rows)
        built = ProjSubspace(mod3, np.array(rows))
        assert direct.basis.tolist() == [[1, 0, 2], [0, 1, 1]]
        assert direct.basis.dtype == np.int64 and not direct.basis.flags.writeable
        assert direct == built
        assert direct in {built}

    def test_span_dimension_mismatch(self, mod2):
        a = ProjSubspace(mod2, [(1, 0)])
        b = ProjSubspace(mod2, [(1, 0, 0)])
        with pytest.raises(DimensionMismatch):
            span([a, b])


def product_and_normalise(s):
    """The points of a subspace by the enumeration points_of replaced: every
    nonzero coefficient vector times the basis, normalised and deduplicated."""
    p, rows, ncols = s.p, s.basis.tolist(), s.basis.shape[1]
    seen = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        if any(coeffs):
            v = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(ncols))
            seen.add(normalised(p, v))
    return sorted(seen)


def independent_rows(rng, p, r, m):
    """r random independent vectors of F_p^m, in no normal form."""
    rows = []
    while len(rows) < r:
        cand = tuple(rng.randrange(p) for _ in range(m))
        if rank_of_vectors(p, rows + [cand]) == len(rows) + 1:
            rows.append(cand)
    return rows


class TestPointsOf:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_product_and_normalise(self, p):
        # ranks 1..m for m <= 6, up to p^r = 2401 coefficient vectors, where
        # the reference still takes well under a second per subspace
        rng = random.Random(4100 + p)
        mod = PrimeModulus(p)
        for m in range(1, 7):
            for r in range(1, m + 1):
                if p ** r > 2401:
                    continue
                rows = independent_rows(rng, p, r, m)
                constraints = independent_rows(rng, p, m - r, m)
                cases = [
                    ProjSubspace(mod, rows),
                    ProjSubspace(mod, null_space(p, constraints, m)),
                    # built from an array of rows in no normal form
                    ProjSubspace(mod, np.array(rows)),
                ]
                if r == m:
                    cases.append(ProjSubspace(mod, np.eye(m, dtype=np.int64)))
                for s in cases:
                    codes = points_of(s).tolist()
                    assert codes == sorted(set(codes))
                    assert points(s) == product_and_normalise(s), (p, m, r, s)

    def test_point_count_of_pg(self):
        for p in (2, 3, 5):
            mod = PrimeModulus(p)
            for m in (1, 2, 3):
                expected = (p ** (m + 1) - 1) // (p - 1)
                whole = ProjSubspace(mod, np.eye(m + 1, dtype=np.int64))
                assert len(points_of(whole)) == expected

    def test_rank_zero_has_no_points(self, mod3):
        assert points_of(ProjSubspace(mod3, np.zeros((0, 4), dtype=np.int64))).tolist() == []

    def test_codes_read_coordinates_in_base_p(self, mod3):
        # (0, 1, 2) is 0·9 + 1·3 + 2 = 5; then (1, 0, 0), (1, 1, 2) and (1, 2, 1)
        line = ProjSubspace(mod3, [(1, 0, 0), (0, 1, 2)])
        assert points_of(line).tolist() == [5, 9, 14, 16]
        assert points_of(line).tolist() == vector_codes(3, 3, points(line)).tolist()


class TestProjection:
    def test_image_dimension_drops_by_centre_rank(self, mod2):
        q = null_space(2, [(1, 0, 0, 0)], 4)
        img = apply_map(2, q, (1, 1, 0, 1))
        assert len(img) == 3

    def test_centre_point_collapses(self, mod2):
        q = null_space(2, [(1, 1, 0)], 3)
        assert not any(apply_map(2, q, (1, 1, 0)))

    def test_line_through_centre_collapses(self, mod2):
        line = lines_spanned_by(mod2, [(1, 0, 0)], [(0, 1, 0)])
        with pytest.raises(CollapsedImage):
            project_lines(line, [(1, 0, 0)])

    def test_projection_is_linear_on_representatives(self, mod3):
        rng = random.Random(31)
        for _ in range(40):
            dim = 4
            centre = tuple(rng.randrange(3) for _ in range(dim))
            if not any(centre):
                continue
            q = null_space(3, [centre], dim)
            u = tuple(rng.randrange(3) for _ in range(dim))
            v = tuple(rng.randrange(3) for _ in range(dim))
            u_plus_v = tuple((a + b) % 3 for a, b in zip(u, v))
            assert apply_map(3, q, u_plus_v) == tuple((a + b) % 3 for a, b in zip(apply_map(3, q, u), apply_map(3, q, v)))
            assert not any(apply_map(3, q, centre))

    def test_two_points_of_a_line_project_to_collinear_points(self, mod2):
        # the image of a line is the span of the images of its points
        centre = [(1, 1, 1, 1)]
        line = lines_spanned_by(mod2, [(1, 0, 0, 0)], [(0, 1, 0, 0)])
        (img,) = project_lines(line, centre).points
        q = null_space(2, centre, 4)
        img_points = {normalised(2, apply_map(2, q, pt)) for pt in vectors(2, 4, line.points[0])}
        assert img_points == set(vectors(2, 3, img))


class TestEnumeration:
    def test_gaussian_binomial_small_values(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(3, 1, 3) == 13
        assert gaussian_binomial(5, 0, 2) == 1
        assert gaussian_binomial(2, 3, 2) == 0

    @pytest.mark.parametrize("p,n,r", [(2, 4, 2), (2, 5, 2), (3, 3, 1), (3, 4, 2)])
    def test_iter_rref_bases_counts_subspaces(self, p, n, r):
        bases = list(iter_rref_bases(n, r, p))
        assert len(bases) == gaussian_binomial(n, r, p)
        assert len(set(bases)) == len(bases)

    def test_iter_rref_bases_rows_are_rref(self):
        from qsol.fields import rref

        for rows in iter_rref_bases(4, 2, 2):
            assert rref(2, rows, 4).tolist() == [list(row) for row in rows]
