"""Quantum sets of lines: construction, validation, distance, projection."""

import itertools
import random

import pytest

from qsol import fields, geometry, lines as lines_mod, pauli
from qsol.errors import CollapsedImage, DegenerateLine, TooLarge, UnsupportedModulus
from qsol.fields import FpMatrix, FpVector, PrimeModulus
from qsol.lines import (
    AtLeast,
    QuantumLineSet,
    distance_value,
    incident_points,
    lines_from_matrix,
    matrix_from_lines,
    min_dependent_set,
    min_distance_result,
    project_lines,
    validate_even_skew,
)
from qsol.pauli import SymplecticVector, symplectic_form

from conftest import points, random_group, random_group_with_lines, weight


class TestBoundArithmetic:
    def test_distance_value(self):
        assert distance_value(3) == 3
        assert distance_value(AtLeast(4)) == 4

    def test_min_distance_result_prefers_exact(self):
        assert min_distance_result([AtLeast(5), 3, 4]) == 3
        assert min_distance_result([AtLeast(5), AtLeast(3)]) == AtLeast(3)

    def test_min_distance_result_bound_below_exact(self):
        # an exact 4 next to a bound of 3 leaves the minimum at >= 3
        assert min_distance_result([4, AtLeast(3)]) == AtLeast(3)
        assert min_distance_result([3, AtLeast(3)]) == 3


class TestLinesFromMatrix:
    def test_pentagon_lines(self, five_qubit_lines):
        x = five_qubit_lines
        assert x.n == 5
        assert x.ambient_dim == 4
        # line i = <e_i, adjacency column i> for the (I | A) matrix
        first = set(points(x.lines[0]))
        assert first == {(1, 0, 0, 0, 0), (0, 1, 0, 0, 1), (1, 1, 0, 0, 1)}

    def test_degenerate_column_pair_rejected(self, mod2):
        g = FpMatrix.from_rows(mod2, [(1, 0, 1, 0), (0, 1, 0, 1)], 4)
        with pytest.raises(DegenerateLine):
            lines_from_matrix(g, 2, 0)

    def test_shape_check(self, mod2):
        g = FpMatrix.from_rows(mod2, [(1, 0, 0, 1)], 4)
        with pytest.raises(ValueError):
            lines_from_matrix(g, 3, 0)

    def test_matrix_round_trip(self):
        rng = random.Random(61)
        for p in (2, 3):
            mod = PrimeModulus(p)
            for _ in range(10):
                _, x = random_group_with_lines(rng, mod, 4, 3)
                g2 = matrix_from_lines(x)
                assert lines_from_matrix(g2, x.n, x.n - (x.ambient_dim + 1)) == x


class TestIncidentPoints:
    def test_pentagon_has_15_incident_points(self, five_qubit_lines):
        # 5 lines x 3 points, no two lines sharing a point
        assert len(incident_points(five_qubit_lines)) == 15

    def test_sorted_and_deduplicated(self, five_qubit_lines):
        codes = incident_points(five_qubit_lines).tolist()
        assert codes == sorted(set(codes))


class TestEvenSkew:
    def test_pentagon_is_quantum(self, five_qubit_lines):
        assert validate_even_skew(five_qubit_lines)

    def test_rejects_odd_primes(self, ternary_lines):
        with pytest.raises(UnsupportedModulus):
            validate_even_skew(ternary_lines)

    def test_matches_symplectic_orthogonality_of_rows(self):
        # a line set is quantum exactly when the generator rows pairwise
        # commute; random matrices give both outcomes
        rng = random.Random(71)
        mod = PrimeModulus(2)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 20:
            n, m = 4, 3
            rows = []
            while len(rows) < m:
                cand = tuple(rng.randrange(2) for _ in range(2 * n))
                if fields.rank_of_vectors(2, rows + [cand]) == len(rows) + 1:
                    rows.append(cand)
            g = FpMatrix.from_rows(mod, rows, 2 * n)
            try:
                x = lines_from_matrix(g, n, n - m)
            except DegenerateLine:
                continue
            vs = [SymplecticVector(mod, n, r) for r in rows]
            abelian = all(symplectic_form(u, v) == 0 for u, v in itertools.combinations(vs, 2))
            assert validate_even_skew(x) == abelian
            seen[abelian] += 1


def brute_force_min_dependent_set(x, limit):
    """d(X) by one rank call per choice of one point on each of w lines, w ascending."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    pts_per_line = [points(ln) for ln in x.lines]
    for w in range(1, min(limit, x.n) + 1):
        for idxs in itertools.combinations(range(x.n), w):
            for choice in itertools.product(*(pts_per_line[i] for i in idxs)):
                if fields.rank_of_vectors(x.p, choice) < w:
                    return w
    return AtLeast(limit + 1)


def random_line_set(rng, mod, n, dim):
    """n random lines, each spanned by two vectors of F_p^dim or repeating an earlier one (1 in 5)."""
    lines = []
    while len(lines) < n:
        if lines and rng.randrange(5) == 0:
            lines.append(rng.choice(lines))
            continue
        rows = [tuple(rng.randrange(mod.p) for _ in range(dim)) for _ in range(2)]
        if fields.rank_of_vectors(mod.p, rows) == 2:
            lines.append(geometry.ProjLine.from_rows(mod, rows, dim))
    rng.shuffle(lines)
    return QuantumLineSet(mod, tuple(lines))


class TestMinDependentSet:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_brute_force(self, p):
        # limits 1 up to past n, repeated lines, and n = 0 and 1
        rng = random.Random(800 + p)
        mod = PrimeModulus(p)
        seen = set()
        for case in range(60 if p < 7 else 30):
            n = case % 6 if p < 5 else case % 5
            x = random_line_set(rng, mod, n, rng.randrange(3, 7))
            # the brute force tries w in ascending order, so one run past n
            # gives its answer at every limit
            full = brute_force_min_dependent_set(x, n + 2)
            for limit in range(1, n + 3):
                expected = full if not isinstance(full, AtLeast) and full <= limit else AtLeast(limit + 1)
                assert min_dependent_set(x, limit) == expected
                seen.add(expected)
        # exact answers above 2 and exhausted limits both occur
        assert {2, 3, AtLeast(2)} <= seen and any(isinstance(r, AtLeast) and r.bound > 2 for r in seen)

    def test_empty_and_single_line_sets(self, five_qubit_lines, mod2):
        assert min_dependent_set(QuantumLineSet(mod2, ()), 3) == AtLeast(4)
        assert min_dependent_set(QuantumLineSet(mod2, five_qubit_lines.lines[:1]), 3) == AtLeast(4)

    def test_limit_one_builds_no_table(self, five_qubit_lines, monkeypatch):
        monkeypatch.setattr(lines_mod, "weight_table", None)
        assert min_dependent_set(five_qubit_lines, 1) == AtLeast(2)

    def test_per_line_table_over_budget_is_refused(self, five_qubit_lines, monkeypatch):
        # each of the pentagon's tables has 2^5 entries, over a 16-byte budget
        monkeypatch.setattr(fields, "MAX_TABLE_BYTES", 16)
        with pytest.raises(TooLarge, match=r"32 entries needs about 0\.0 MiB, over the 0 MiB budget"):
            min_dependent_set(five_qubit_lines, 2)

    def test_pentagon_distance_three(self, five_qubit_lines):
        assert min_dependent_set(five_qubit_lines, 5) == 3

    def test_limit_exhaustion(self, five_qubit_lines):
        assert min_dependent_set(five_qubit_lines, 2) == AtLeast(3)

    def test_repeated_line_gives_two(self, five_qubit_lines, mod2):
        doubled = QuantumLineSet(mod2, (five_qubit_lines.lines[0], five_qubit_lines.lines[0]))
        assert min_dependent_set(doubled, 3) == 2

    def test_limit_validation(self, five_qubit_lines):
        with pytest.raises(ValueError):
            min_dependent_set(five_qubit_lines, 0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_equals_min_symplectic_weight_of_kernel(self, p):
        # a dependent choice of points, one on each of w lines, is the same
        # datum as a kernel vector of G of symplectic weight w
        rng = random.Random(600 + p)
        mod = PrimeModulus(p)
        for _ in range(15):
            g, x = random_group_with_lines(rng, mod, 4, rng.choice([2, 3]))
            ker = fields.kernel_basis(g.gmatrix)
            min_wt = min(
                weight(SymplecticVector(mod, 4, v.entries))
                for v in fields.row_space_vectors(ker)
                if not v.is_zero()
            )
            assert min_dependent_set(x, 4) == min_wt


class TestProjectLines:
    def test_projection_drops_ambient_dimension(self, five_qubit_lines, mod2):
        t = FpVector(mod2, (1, 1, 0, 1, 0))
        u = FpVector(mod2, (0, 1, 1, 0, 1))
        projected = project_lines(five_qubit_lines, [t, u])
        assert projected.n == 5
        assert projected.ambient_dim == 2

    def test_collapse_carries_line_index(self, five_qubit_lines, mod2):
        # e_1 lies on line 0, so projecting from it collapses that line
        t = FpVector(mod2, (1, 0, 0, 0, 0))
        with pytest.raises(CollapsedImage) as err:
            project_lines(five_qubit_lines, [t])
        assert err.value.index == 0

    def test_matches_subgroup_line_set(self, five_qubit_group, five_qubit_lines, mod2):
        t = FpVector(mod2, (1, 1, 0, 1, 0))
        u = FpVector(mod2, (0, 1, 1, 0, 1))
        sub = pauli.subgroup_tu(five_qubit_group, t, u)
        assert lines_from_matrix(sub.gmatrix, 5, 2) == project_lines(five_qubit_lines, [t, u])
