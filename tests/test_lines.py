"""Quantum sets of lines: construction, validation, distance, projection."""

import itertools
import random

import numpy as np
import pytest

from qsol import fields, geometry, lines as lines_mod, pauli
from qsol.errors import CollapsedImage, DegenerateLine, TooLarge, UnsupportedModulus
from qsol.fields import FpVector, PrimeModulus
from qsol.lines import (
    AtLeast,
    QuantumLineSet,
    chunk_widths,
    distance_value,
    incident_points,
    lines_from_matrix,
    line_codes,
    lines_spanned_by,
    matrix_from_lines,
    min_dependent_set,
    project_lines,
    validate_even_skew,
    weight_table,
)

from conftest import (
    apply_map,
    assert_as_checked,
    normalised,
    random_group,
    random_group_with_lines,
    reference_even_skew,
    reference_line_codes,
    reference_min_dependent_set,
    row_space_vectors,
    symplectic_form,
    vectors,
    weight,
)


class TestBoundArithmetic:
    def test_distance_value(self):
        assert distance_value(3) == 3
        assert distance_value(AtLeast(4)) == 4


class TestLinesFromMatrix:
    def test_pentagon_lines(self, five_qubit_lines):
        x = five_qubit_lines
        assert x.n == 5
        assert x.dim == 5
        # line i = <e_i, adjacency column i> for the (I | A) matrix
        first = set(vectors(x.p, x.dim, x.points[0]))
        assert first == {(1, 0, 0, 0, 0), (0, 1, 0, 0, 1), (1, 1, 0, 0, 1)}

    def test_degenerate_column_pair_rejected(self):
        g = fields.tagged(2, np.array([(1, 0, 1, 0), (0, 1, 0, 1)]))
        with pytest.raises(DegenerateLine):
            lines_from_matrix(g, 2, 0)

    def test_shape_check(self):
        g = fields.tagged(2, np.array([(1, 0, 0, 1)]))
        with pytest.raises(ValueError, match="expected a 3 x 6 matrix"):
            lines_from_matrix(g, 3, 0)

    def test_matrix_records_its_modulus(self):
        # a bare array says nothing of p, and the lines of its columns depend on it
        with pytest.raises(ValueError, match="does not record its modulus"):
            lines_from_matrix(np.array([(1, 0, 0, 1), (0, 1, 1, 0)]), 2, 0)

    def test_matrix_round_trip(self):
        rng = random.Random(61)
        for p in (2, 3):
            mod = PrimeModulus(p)
            for _ in range(10):
                _, x = random_group_with_lines(rng, mod, 4, 3)
                g2 = matrix_from_lines(x)
                assert g2.dtype == np.int64 and not g2.flags.writeable
                assert lines_from_matrix(g2, x.n, x.n - x.dim) == x
                assert_as_checked(x)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_property_columns_are_the_rref_bases(self, p):
        # each column pair (i, i+n) against fields.rref of the pair that spans line i
        rng = random.Random(970 + p)
        mod = PrimeModulus(p)
        for _ in range(40):
            n, m = rng.randrange(1, 6), rng.randrange(2, 7)
            a, b = independent_pairs(rng, p, n, m)
            g = matrix_from_lines(lines_spanned_by(mod, a, b))
            assert g.shape == (m, 2 * n) and g.dtype.metadata == {"p": p}
            for i in range(n):
                assert g[:, [i, i + n]].T.tolist() == fields.rref(p, [a[i], b[i]], m).tolist()


def independent_pairs(rng, p, n, m):
    """n pairs of independent vectors of F_p^m, as two (n, m) arrays with entries in [-p, 2p)."""
    pairs = []
    while len(pairs) < n:
        pair = [tuple(rng.randrange(-p, 2 * p) for _ in range(m)) for _ in range(2)]
        if fields.rank_of_vectors(p, pair) == 2:
            pairs.append(pair)
    return np.array(pairs, dtype=np.int64).reshape(n, 2, m).transpose(1, 0, 2)


class TestLinesSpannedBy:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_points_are_the_normalised_combinations(self, p):
        # every c1·a + c2·b with (c1, c2) nonzero, normalised, each point once, in code order
        rng = random.Random(900 + p)
        mod = PrimeModulus(p)
        for _ in range(20):
            n, m = rng.randrange(1, 6), rng.randrange(2, 6)
            a, b = independent_pairs(rng, p, n, m)
            x = lines_spanned_by(mod, a, b)
            assert (x.modulus, x.dim, x.points.shape) == (mod, m, (n, p + 1))
            assert_as_checked(x)
            for i in range(n):
                combinations = {
                    normalised(p, tuple((c1 * u + c2 * v) % p for u, v in zip(a[i].tolist(), b[i].tolist())))
                    for c1 in range(p)
                    for c2 in range(p)
                    if c1 or c2
                }
                assert vectors(p, m, x.points[i]) == sorted(combinations)
            # any other basis of each line gives an equal line set
            alpha, beta, gamma, delta = (rng.randrange(p) for _ in range(4))
            if (alpha * delta - beta * gamma) % p:
                assert lines_spanned_by(mod, alpha * a + beta * b, gamma * a + delta * b) == x

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_dependent_pair_names_its_columns(self, p):
        # a zero column or two proportional columns, at a random line, with
        # possibly a second dependent pair after it
        rng = random.Random(950 + p)
        mod = PrimeModulus(p)
        for case in range(24):
            n, m = rng.randrange(1, 6), rng.randrange(2, 5)
            a, b = independent_pairs(rng, p, n, m)
            bad = sorted(rng.sample(range(n), min(n, rng.randrange(1, 3))))
            for i in bad:
                c = rng.randrange(1, p)
                kind = (case + i) % 4
                if kind == 0:
                    a[i] = 0
                elif kind == 1:
                    b[i] = 0
                elif kind == 2:
                    a[i] = c * b[i] + p * rng.randrange(-1, 2)
                else:
                    b[i] = c * a[i]
            match = rf"columns {bad[0]} and {bad[0] + n} are dependent"
            with pytest.raises(DegenerateLine, match=match):
                lines_spanned_by(mod, a, b)
            g = fields.tagged(p, np.hstack([a.T, b.T]))
            with pytest.raises(DegenerateLine, match=match):
                lines_from_matrix(g, n, n - m)

    def test_points_are_read_only(self, five_qubit_lines):
        with pytest.raises(ValueError):
            five_qubit_lines.points[0, 0] = 0

    def test_equality_reads_every_field(self, five_qubit_lines, mod2):
        x = five_qubit_lines
        assert QuantumLineSet(mod2, 5, x.points.tolist()) == x
        assert QuantumLineSet(mod2, 6, x.points) != x
        assert QuantumLineSet(mod2, 5, x.points[::-1]) != x

    def test_equal_sets_hash_alike(self, five_qubit_lines, mod2):
        x = five_qubit_lines
        assert hash(QuantumLineSet(mod2, 5, x.points.tolist())) == hash(x)
        assert len({x, QuantumLineSet(mod2, 5, x.points.tolist()), QuantumLineSet(mod2, 5, x.points[::-1])}) == 2

    @pytest.mark.parametrize("row", [
        (1, 5, 5, 9),  # a repeated point
        (5, 1, 9, 13),  # not increasing
        (0, 1, 5, 9),  # the zero vector
        (1, 5, 9, 19),  # 19 = (0, 2, 0, 1) is not normalised
        (1, 5, 9, 81),  # past F_3^4
        (-1, 5, 9, 13),
    ])
    def test_rows_must_be_increasing_codes_of_points(self, row):
        mod3 = PrimeModulus(3)
        assert QuantumLineSet(mod3, 4, [(1, 5, 9, 13)]).n == 1
        with pytest.raises(ValueError, match="increasing codes of 4 points of PG\\(3, 3\\)"):
            QuantumLineSet(mod3, 4, [(1, 5, 9, 13), row])


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
        seen = {True: 0, False: 0}
        while min(seen.values()) < 20:
            n, m = 4, 3
            rows = []
            while len(rows) < m:
                cand = tuple(rng.randrange(2) for _ in range(2 * n))
                if fields.rank_of_vectors(2, rows + [cand]) == len(rows) + 1:
                    rows.append(cand)
            g = fields.tagged(2, np.array(rows))
            try:
                x = lines_from_matrix(g, n, n - m)
            except DegenerateLine:
                continue
            abelian = all(symplectic_form(2, u, v) == 0 for u, v in itertools.combinations(rows, 2))
            assert validate_even_skew(x) == abelian
            seen[abelian] += 1

    def test_matches_codimension_two_count(self):
        # against counting the skew lines of every co-dimension-2 subspace,
        # on random line sets with and without repeated lines
        rng = random.Random(72)
        mod = PrimeModulus(2)
        seen = {(quantum, repeated): 0 for quantum in (True, False) for repeated in (True, False)}
        for _ in range(240):
            x = random_line_set(rng, mod, rng.randrange(0, 7), rng.randrange(2, 6))
            quantum = reference_even_skew(x)
            assert validate_even_skew(x) == quantum
            seen[quantum, len(set(map(tuple, x.points.tolist()))) < x.n] += 1
        assert min(seen.values()) >= 10


def brute_force_min_dependent_set(x, limit):
    """d(X) by one rank call per choice of one point on each of w lines, w ascending."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    pts_per_line = [vectors(x.p, x.dim, row) for row in x.points]
    for w in range(1, min(limit, x.n) + 1):
        for idxs in itertools.combinations(range(x.n), w):
            for choice in itertools.product(*(pts_per_line[i] for i in idxs)):
                if fields.rank_of_vectors(x.p, choice) < w:
                    return w
    return AtLeast(limit + 1)


def random_line_set(rng, mod, n, dim):
    """n random lines, each spanned by two vectors of F_p^dim or repeating an earlier one (1 in 5)."""
    pairs = []
    while len(pairs) < n:
        if pairs and rng.randrange(5) == 0:
            pairs.append(rng.choice(pairs))
            continue
        rows = [tuple(rng.randrange(mod.p) for _ in range(dim)) for _ in range(2)]
        if fields.rank_of_vectors(mod.p, rows) == 2:
            pairs.append(rows)
    rng.shuffle(pairs)
    a, b = np.array(pairs, dtype=np.int64).reshape(n, 2, dim).transpose(1, 0, 2)
    return lines_spanned_by(mod, a, b)


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
        assert min_dependent_set(QuantumLineSet(mod2, 5, np.zeros((0, 3))), 3) == AtLeast(4)
        assert min_dependent_set(QuantumLineSet(mod2, 5, five_qubit_lines.points[:1]), 3) == AtLeast(4)

    def test_limit_one_builds_no_table(self, five_qubit_lines, monkeypatch):
        monkeypatch.setattr(lines_mod, "weight_table", None)
        assert min_dependent_set(five_qubit_lines, 1) == AtLeast(2)

    def test_per_line_table_over_budget_is_refused(self, five_qubit_lines, monkeypatch):
        # each of the pentagon's depth-2 tables has 2^5 entries, over a 16-byte
        # budget; limit 2 builds none (see test_limit_two_builds_no_table)
        monkeypatch.setattr(fields, "MAX_BYTES", 16)
        with pytest.raises(TooLarge, match=r"32 entries needs about 0\.0 MiB, over the 0 MiB budget"):
            min_dependent_set(five_qubit_lines, 3)

    def test_limit_two_builds_no_table(self, five_qubit_lines, mod2, monkeypatch):
        # d(X) = 2 is a point on two lines, read off the points themselves
        monkeypatch.setattr(fields, "MAX_BYTES", 16)
        assert min_dependent_set(five_qubit_lines, 2) == AtLeast(3)
        meeting = lines_spanned_by(mod2, np.array([[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]), np.eye(5, dtype=np.int64)[1:3])
        assert min_dependent_set(meeting, 2) == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_property_matches_per_line_tables(self, p):
        # limits 1-4 on random line sets with shared points and repeated lines,
        # against one weight table per omitted line from depth 1
        rng = random.Random(1400 + p)
        mod = PrimeModulus(p)
        seen = set()
        for _ in range(40):
            n, dim = rng.randrange(2, 6), rng.randrange(3, 8 if p == 2 else 6)
            x = random_line_set(rng, mod, n, dim)
            if rng.random() < 0.3:
                # a line through a point of another line and a second vector
                shared = geometry.digits(p, dim, x.points[rng.randrange(n), :1])
                other = shared
                while fields.rank_of_vectors(p, np.vstack([shared, other]).tolist()) < 2:
                    other = np.array([[rng.randrange(p) for _ in range(dim)]])
                x = QuantumLineSet(mod, dim, np.vstack([x.points, lines_spanned_by(mod, shared, other).points]))
            for limit in range(1, 5):
                expected = reference_min_dependent_set(x, limit)
                assert min_dependent_set(x, limit) == expected
                seen.add(expected)
        assert {2, 3, AtLeast(2)} <= seen

    def test_pentagon_distance_three(self, five_qubit_lines):
        assert min_dependent_set(five_qubit_lines, 5) == 3

    def test_limit_exhaustion(self, five_qubit_lines):
        assert min_dependent_set(five_qubit_lines, 2) == AtLeast(3)

    def test_repeated_line_gives_two(self, five_qubit_lines, mod2):
        doubled = QuantumLineSet(mod2, 5, five_qubit_lines.points[[0, 0]])
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
            ker = fields.null_space(p, g.gmatrix, 8)
            min_wt = min(weight(v) for v in row_space_vectors(p, ker, 8) if any(v))
            assert min_dependent_set(x, 4) == min_wt


class TestLineCodes:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
    def test_property_matches_reference(self, p):
        # m from 1 to one digit past two chunk widths (the XOR path for p = 2),
        # with empty a or b and the codes 0 and p^m - 1 in every draw
        rng = random.Random(1100 + p)
        for m in range(1, 2 * chunk_widths(p, 2 ** 8)[-1] + 2):
            for _ in range(6):
                a, b = (
                    np.array(
                        [0, p ** m - 1][: rng.randrange(3)] + [rng.randrange(p ** m) for _ in range(rng.randrange(6))],
                        dtype=np.int64,
                    )
                    for _ in range(2)
                )
                for a, b in ((a, b), (a[:0], b), (a, b[:0])):
                    codes = line_codes(p, m, a, b)
                    assert codes.dtype == np.int64 and codes.shape == (p - 1, len(a), len(b))
                    assert np.array_equal(codes, reference_line_codes(p, m, a, b))

    @pytest.mark.parametrize("p, k", [(3, 5), (5, 3), (7, 2), (13, 2), (17, 1), (31, 1)])
    def test_chunk_width_is_the_widest_within_two_bytes(self, p, k):
        assert p ** (2 * k) <= 2 ** 16 < p ** (2 * k + 2)
        assert chunk_widths(p, 3 * k) == [k] * 3 and chunk_widths(p, 3 * k + 1) == [1] + [k] * 3

    def test_sum_tables_stay_within_budget(self):
        # from the chunk plan alone, for every odd prime and every dimension a weight table admits
        for p in (q for q in range(3, 32) if fields.is_prime(q)):
            m = 1
            while p ** m <= fields.MAX_BYTES:
                widths = chunk_widths(p, m)
                assert sum(widths) == m and min(widths) >= 1
                assert len(set(widths[1:])) <= 1 and widths[0] <= widths[-1]
                assert all((p - 1) * p ** (2 * w) <= (p - 1) * 2 ** 16 for w in widths)
                m += 1

    def test_sum_table_is_cached_read_only_bytes(self):
        table = lines_mod._sum_table(3, 5)
        assert table is lines_mod._sum_table(3, 5)
        assert table.dtype == np.uint8 and table.shape == (2, 243 * 243) and not table.flags.writeable
        assert table.nbytes == 2 * 243 ** 2

    def test_weight_table_temporaries_stay_bounded(self, mod2):
        # X_5 of C_20(1,2), i joined to i ± 1 and i ± 2, is a 1 MiB table; its
        # later layers' frontiers reach 13 million line codes, 100 MiB as one
        # array, and are taken in blocks instead. X_5 of C_22(1,2) is a 4 MiB
        # table; each layer's frontier is read off it a block at a time, so no
        # array holds the codes of a whole layer (14 MiB for weight 5)
        import tracemalloc

        from qsol.search import LabelledGraph, graph_to_generators

        def x5_of_circulant(n):
            edges = [(i, (i + s) % n, 1) for i in range(n) for s in (1, 2)]
            group = graph_to_generators(LabelledGraph.from_edges(mod2, n, edges))
            points = incident_points(lines_from_matrix(group.gmatrix, n, 0))
            tracemalloc.start()
            try:
                table = weight_table(2, n, points, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return np.bincount(table)[:6].tolist(), peak

        counts, peak = x5_of_circulant(20)
        assert counts == [1, 60, 1650, 25640, 216041, 632390]
        assert peak < 32 * 2 ** 20
        counts, peak = x5_of_circulant(22)
        assert counts == [1, 66, 2013, 35530, 368742, 1817684]
        assert peak < 24 * 2 ** 20

    @pytest.mark.parametrize("p, m", [(2, 6), (3, 5), (3, 7), (5, 4), (7, 3)])
    def test_weight_table_matches_reference_kernel(self, p, m, monkeypatch):
        rng = random.Random(1200 + 10 * p + m)
        draws = [np.array(sorted({rng.randrange(1, p ** m) for _ in range(rng.randrange(1, 3 * m))})) for _ in range(6)]
        tables = [weight_table(p, m, points, 3) for points in draws]
        monkeypatch.setattr(lines_mod, "line_codes", reference_line_codes)
        for points, table in zip(draws, tables):
            assert table.tobytes() == weight_table(p, m, points, 3).tobytes()


class TestProjectLines:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_projecting_each_point(self, p):
        # against the image under the centre's null_space of every point, normalised and
        # sorted; centres of one vector up to the whole space, dependent ones
        # included, so that lines collapse at random places
        rng = random.Random(980 + p)
        mod = PrimeModulus(p)
        outcomes = {True: 0, False: 0}
        while min(outcomes.values()) < 12:
            m = rng.randrange(3, 6)
            x = random_line_set(rng, mod, rng.randrange(1, 6), m)
            nonzero = [v for v in (tuple(rng.randrange(p) for _ in range(m)) for _ in range(3 * m)) if any(v)]
            centre = nonzero[: rng.randrange(1, m + 1)]
            q = fields.null_space(p, centre, m)
            images = [[apply_map(p, q, v) for v in vectors(p, m, row)] for row in x.points]
            first = next((i for i, image in enumerate(images) if any(not any(v) for v in image)), None)
            if first is None:
                y = project_lines(x, centre)
                assert (y.modulus, y.dim) == (mod, len(q))
                assert_as_checked(y)
                assert [vectors(p, y.dim, row) for row in y.points] == [
                    sorted(normalised(p, v) for v in image) for image in images
                ]
            else:
                with pytest.raises(CollapsedImage) as err:
                    project_lines(x, centre)
                assert err.value.index == first
            outcomes[first is None] += 1

    def test_projection_drops_ambient_dimension(self, five_qubit_lines):
        projected = project_lines(five_qubit_lines, [(1, 1, 0, 1, 0), (0, 1, 1, 0, 1)])
        assert projected.n == 5
        assert projected.dim == 3

    def test_collapse_carries_line_index(self, five_qubit_lines):
        # e_1 lies on line 0, so projecting from it collapses that line
        with pytest.raises(CollapsedImage) as err:
            project_lines(five_qubit_lines, [(1, 0, 0, 0, 0)])
        assert err.value.index == 0

    def test_matches_subgroup_line_set(self, five_qubit_group, five_qubit_lines, mod2):
        t = FpVector(mod2, (1, 1, 0, 1, 0))
        u = FpVector(mod2, (0, 1, 1, 0, 1))
        sub = pauli.subgroup_tu(five_qubit_group, t, u)
        assert lines_from_matrix(sub.gmatrix, 5, 2) == project_lines(five_qubit_lines, [t.entries, u.entries])
