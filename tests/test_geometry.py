"""Projective points, subspaces, projections, and subspace enumeration."""

import itertools
import random

import pytest

from qsol import geometry
from qsol.errors import CollapsedImage, DimensionMismatch
from qsol.fields import FpMatrix, FpVector, PrimeModulus
from qsol.geometry import (
    Projection,
    ProjLine,
    ProjPoint,
    ProjSubspace,
    all_points,
    iter_rref_bases,
    points_of,
    span,
)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n, the reference count for iter_rref_bases."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class TestProjPoint:
    def test_normalization_first_nonzero_is_one(self, mod3):
        pt = ProjPoint(mod3, (0, 2, 1))
        assert pt.coords == (0, 1, 2)

    def test_proportional_vectors_give_equal_points(self, mod3):
        assert ProjPoint(mod3, (2, 1, 0)) == ProjPoint(mod3, (1, 2, 0))

    def test_zero_vector_rejected(self, mod2):
        with pytest.raises(ValueError):
            ProjPoint(mod2, (0, 0, 0))

    def test_point_count_of_pg(self):
        for p in (2, 3, 5):
            mod = PrimeModulus(p)
            for m in (1, 2, 3):
                expected = (p ** (m + 1) - 1) // (p - 1)
                assert len(all_points(m, mod)) == expected


class TestSubspacesAndSpan:
    def test_points_of_line_count(self, mod3):
        line = ProjLine.from_rows(mod3, [(1, 0, 0), (0, 1, 0)], 3)
        assert len(points_of(line)) == 4

    def test_span_of_two_points_is_their_line(self, mod2):
        a = ProjPoint(mod2, (1, 0, 0))
        b = ProjPoint(mod2, (0, 1, 1))
        s = span([a, b])
        assert s.rank == 2
        assert {pt.coords for pt in points_of(s)} == {(1, 0, 0), (0, 1, 1), (1, 1, 1)}

    def test_canonical_basis_makes_equality_structural(self, mod2):
        s1 = ProjSubspace.from_rows(mod2, [(1, 1, 0), (0, 1, 1)], 3)
        s2 = ProjSubspace.from_rows(mod2, [(1, 0, 1), (1, 1, 0)], 3)
        assert s1 == s2

    def test_span_dimension_mismatch(self, mod2):
        a = ProjPoint(mod2, (1, 0))
        b = ProjPoint(mod2, (1, 0, 0))
        with pytest.raises(DimensionMismatch):
            span([a, b])


class TestProjection:
    def test_image_dimension_drops_by_centre_rank(self, mod2):
        centre = [FpVector(mod2, (1, 0, 0, 0))]
        proj = Projection(centre)
        img = proj.apply_point(ProjPoint(mod2, (1, 1, 0, 1)))
        assert len(img.coords) == 3

    def test_centre_point_collapses(self, mod2):
        proj = Projection([FpVector(mod2, (1, 1, 0))])
        with pytest.raises(CollapsedImage):
            proj.apply_point(ProjPoint(mod2, (1, 1, 0)))

    def test_line_through_centre_collapses(self, mod2):
        proj = Projection([FpVector(mod2, (1, 0, 0))])
        line = ProjLine.from_rows(mod2, [(1, 0, 0), (0, 1, 0)], 3)
        with pytest.raises(CollapsedImage):
            proj.apply_line(line)

    def test_projection_is_linear_on_representatives(self, mod3):
        rng = random.Random(31)
        for _ in range(40):
            dim = 4
            centre = FpVector(mod3, tuple(rng.randrange(3) for _ in range(dim)))
            if centre.is_zero():
                continue
            proj = Projection([centre])
            u = FpVector(mod3, tuple(rng.randrange(3) for _ in range(dim)))
            v = FpVector(mod3, tuple(rng.randrange(3) for _ in range(dim)))
            assert proj.apply_vector(u + v) == proj.apply_vector(u) + proj.apply_vector(v)
            assert proj.apply_vector(centre).is_zero()

    def test_two_points_of_a_line_project_to_collinear_points(self, mod2):
        # the image of a line is the span of the images of its points
        centre = [FpVector(mod2, (1, 1, 1, 1))]
        proj = Projection(centre)
        line = ProjLine.from_rows(mod2, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
        img = proj.apply_line(line)
        img_points = {proj.apply_point(pt) for pt in points_of(line)}
        assert img_points == set(points_of(img))


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

    def test_iter_rref_bases_rows_are_rref(self, mod2):
        from qsol.fields import rref

        for rows in iter_rref_bases(4, 2, 2):
            m = FpMatrix(mod2, rows, 4)
            assert rref(m).matrix.rows[:2] == rows
