"""Point codes, projective subspaces, projections, and the subspace enumeration of the test references."""

import itertools
import random

import pytest

from qsol.errors import CollapsedImage, DimensionMismatch, TooLarge
import numpy as np

from qsol.fields import null_space, rank_of_vectors, rref
from qsol.geometry import (
    digits,
    point_code,
    points_of,
    span,
    unique,
)
from qsol.lines import lines_spanned_by, project_lines

from conftest import apply_map, iter_rref_bases, normalised, points, vector_codes, vectors


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
    # point_code is the one normalising routine, and unique keeps each point once
    def test_first_nonzero_becomes_one(self):
        # (0, 2, 1) over F_3 is the point of (0, 1, 2), code 0·9 + 1·3 + 2 = 5
        assert point_code(3, np.array([(0, 2, 1)])).tolist() == [5]

    def test_proportional_vectors_give_one_point(self):
        assert unique(point_code(3, np.array([(2, 1, 0), (1, 2, 0)]))).tolist() == [15]

    def test_zero_vector_has_code_zero(self):
        # the zero vector spans no point; its code 0 is the one outside [1, p^m)
        assert point_code(2, np.array([(0, 0, 0), (0, 1, 1)])).tolist() == [0, 3]

    @pytest.mark.parametrize("p, m", [(2, 63), (3, 39), (31, 12)])
    def test_codes_stop_at_64_bits(self, p, m):
        # p^m <= 2^63 is the largest space whose codes fit an int64; one more
        # coordinate would wrap them, so it is refused
        top = (1,) + (p - 1,) * (m - 1)
        assert point_code(p, np.array([top])).tolist() == [2 * p ** (m - 1) - 1]
        assert digits(p, m, [2 * p ** (m - 1) - 1]).tolist() == [list(top)]
        with pytest.raises(TooLarge, match=f"codes up to {p}\\^{m + 1} - 1, past the 64-bit integers"):
            point_code(p, np.array([(1,) + top]))
        with pytest.raises(TooLarge):
            digits(p, m + 1, [1])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_scaling_the_first_nonzero_coordinate(self, p):
        # random nonzero vectors, some repeated or proportional, against
        # normalising and deduplicating them one by one
        rng = random.Random(4200 + p)
        for m in range(1, 6):
            vs = [v for v in (tuple(rng.randrange(p) for _ in range(m)) for _ in range(40)) if any(v)]
            vs += [tuple(rng.randrange(1, p) * e % p for e in v) for v in vs[:10]]
            rng.shuffle(vs)
            codes = unique(point_code(p, np.array(vs, dtype=np.int64)))
            assert vectors(p, m, codes) == sorted({normalised(p, v) for v in vs}), (p, m)


class TestSubspacesAndSpan:
    def test_points_of_line_count(self):
        line = rref(3, [(1, 0, 0), (0, 1, 0)], 3)
        assert len(points_of(3, line)) == 4

    def test_span_of_two_points_is_their_line(self):
        s = span(2, [np.array([(1, 0, 0)]), np.array([(0, 1, 1)])])
        assert s.tolist() == [[1, 0, 0], [0, 1, 1]]
        assert set(points(2, s)) == {(1, 0, 0), (0, 1, 1), (1, 1, 1)}

    def test_span_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span(2, [np.array([(1, 0)]), np.array([(1, 0, 0)])])


def product_and_normalise(p, basis):
    """The points of a subspace by the enumeration points_of replaced: every
    nonzero coefficient vector times the basis, normalised and deduplicated."""
    rows, ncols = basis.tolist(), basis.shape[1]
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
        for m in range(1, 7):
            for r in range(1, m + 1):
                if p ** r > 2401:
                    continue
                rows = independent_rows(rng, p, r, m)
                constraints = independent_rows(rng, p, m - r, m)
                cases = [rref(p, rows, m), null_space(p, constraints, m)]
                if r == m:
                    cases.append(np.eye(m, dtype=np.int64))
                for basis in cases:
                    codes = points_of(p, basis).tolist()
                    assert codes == sorted(set(codes))
                    assert points(p, basis) == product_and_normalise(p, basis), (p, m, r, basis)

    def test_point_count_of_pg(self):
        for p in (2, 3, 5):
            for m in (1, 2, 3):
                expected = (p ** (m + 1) - 1) // (p - 1)
                assert len(points_of(p, np.eye(m + 1, dtype=np.int64))) == expected

    def test_rank_zero_has_no_points(self):
        assert points_of(3, np.zeros((0, 4), dtype=np.int64)).tolist() == []

    def test_codes_read_coordinates_in_base_p(self):
        # (0, 1, 2) is 0·9 + 1·3 + 2 = 5; then (1, 0, 0), (1, 1, 2) and (1, 2, 1)
        line = rref(3, [(1, 0, 0), (0, 1, 2)], 3)
        assert points_of(3, line).tolist() == [5, 9, 14, 16]
        assert points_of(3, line).tolist() == vector_codes(3, 3, points(3, line)).tolist()


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
