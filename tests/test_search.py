"""Candidate points, compatibility graphs, clique search, and the recipe."""

import collections
import functools
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

import cws_reference
from qsol import fields, geometry, lines as lines_mod, oracle, search
from qsol.errors import (
    CollapsedImage,
    DimensionMismatch,
    IsolatedVertex,
    NoClique,
    TimeLimitExceeded,
    TooLarge,
)
from qsol.fields import FpVector, PrimeModulus
from qsol.geometry import ProjSubspace
from qsol.lines import AtLeast
from qsol.pauli import PauliOperator
from qsol.search import (
    CodingSet,
    CompatibilityGraph,
    LabelledGraph,
    candidate_vertices,
    distance_bound,
    excluded_points,
    find_cliques,
    gamma_graph,
    graph_to_generators,
    is_subspace_t,
    run_recipe,
    singleton_max_k,
)

from conftest import (
    edges,
    in_row_space,
    incident,
    normalised,
    pauli_rows,
    points,
    reference_coding_rows,
    reference_rows,
    vectors,
)


@pytest.fixture(scope="module")
def pentagon_lines(pentagon_graph):
    group = graph_to_generators(pentagon_graph)
    return lines_mod.lines_from_matrix(group.gmatrix, 5, 0)


@pytest.fixture(scope="module")
def nine_cycle_lines(nine_cycle_graph):
    group = graph_to_generators(nine_cycle_graph)
    return lines_mod.lines_from_matrix(group.gmatrix, 9, 0)


class TestLabelledGraph:
    def test_cycle_adjacency(self, mod2):
        g = LabelledGraph.cycle(mod2, 4)
        assert g.adjacency.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        assert g.adjacency.dtype == np.int64 and not g.adjacency.flags.writeable

    def test_cycle_on_three_vertices(self, mod2):
        assert LabelledGraph.cycle(mod2, 3).adjacency.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_needs_three_vertices(self, mod2, n):
        with pytest.raises(ValueError, match=f"a cycle needs at least 3 vertices, got {n}"):
            LabelledGraph.cycle(mod2, n)

    def test_rejects_asymmetric(self, mod2):
        with pytest.raises(ValueError):
            LabelledGraph(mod2, [(0, 1), (0, 0)])

    def test_rejects_loops(self, mod2):
        with pytest.raises(ValueError):
            LabelledGraph(mod2, [(1, 1), (1, 0)])

    def test_labels_reduced_mod_p(self, mod3):
        g = LabelledGraph.from_edges(mod3, 2, [(0, 1, 5)])
        assert g.adjacency[0, 1] == 2

    @pytest.mark.parametrize("label", [0, 3, -3])
    def test_label_zero_mod_p_is_refused(self, mod3, label):
        with pytest.raises(ValueError, match=f"edge \\(0, 1\\) has label {label}, which is 0 mod 3"):
            LabelledGraph.from_edges(mod3, 3, [(1, 2, 1), (0, 1, label)])

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
    def test_repeated_edge_is_refused(self, mod3, i, j):
        # in either order of the ends, a second label would overwrite the first
        with pytest.raises(ValueError, match=f"edge \\({i}, {j}\\) is given twice"):
            LabelledGraph.from_edges(mod3, 3, [(0, 1, 1), (1, 2, 1), (i, j, 2)])


class TestGraphToGenerators:
    def test_pentagon_matches_hand_matrix(self, pentagon_graph, five_qubit_group):
        assert np.array_equal(graph_to_generators(pentagon_graph).gmatrix, five_qubit_group.gmatrix)

    def test_isolated_vertex_rejected(self, mod2):
        g = LabelledGraph.from_edges(mod2, 3, [(0, 1, 1)])
        with pytest.raises(IsolatedVertex):
            graph_to_generators(g)


def nonzero_error_images(adjacency, max_weight):
    """The nonzero CWS images b + A a of the errors of weight 1..max_weight.

    Unlike ``cws_reference.error_images`` this accepts degenerate graphs and
    drops the errors that act as stabiliser elements (image 0).
    """
    n = len(adjacency)
    column = [cws_reference.to_mask(adjacency[j][i] for j in range(n)) for i in range(n)]
    local = [(column[i], 1 << i, column[i] ^ (1 << i)) for i in range(n)]
    images = set()
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product(*(local[i] for i in support)):
                image = 0
                for part in letters:
                    image ^= part
                images.add(image)
    return images - {0}


def graph_lines(g):
    return lines_mod.lines_from_matrix(graph_to_generators(g).gmatrix, g.n, 0)


def cycle_lines(modulus, n):
    return graph_lines(LabelledGraph.cycle(modulus, n))


def gamma_of(x, d, restriction=None):
    """Γ on the candidates of x at distance d, both from one excluded set."""
    excluded = excluded_points(x, d)
    return gamma_graph(x, candidate_vertices(x, excluded, restriction), excluded)


def contains_point(subspace, v):
    """True iff the point of the vector v lies in the subspace."""
    return in_row_space(subspace.p, subspace.basis, v)


class TestExcludedPoints:
    @pytest.mark.parametrize("p, n, d", [(2, 5, 2), (2, 5, 3), (2, 5, 4), (2, 6, 4), (3, 4, 3), (5, 3, 3)])
    def test_equals_union_of_spans(self, p, n, d):
        x = cycle_lines(PrimeModulus(p), n)
        # each point's weight is the least size of a subset whose span holds it
        weights = {}
        for size in range(1, d):
            for subset in itertools.combinations(incident(x), size):
                for pt in points(ProjSubspace(x.modulus, subset)):
                    weights.setdefault(pt, size)
        # the table is indexed by base-p codes, which count the vectors in
        # the order itertools.product lists them
        space = itertools.product(range(p), repeat=x.dim)
        expected = [weights.get(normalised(p, v), search.OUTSIDE) if any(v) else 0 for v in space]
        assert excluded_points(x, d).tolist() == expected


class TestCandidateVertices:
    def test_pentagon_has_16(self, pentagon_lines):
        verts = candidate_vertices(pentagon_lines, excluded_points(pentagon_lines, 2))
        assert len(verts) == 16
        assert not set(lines_mod.incident_points(pentagon_lines).tolist()) & set(verts.tolist())

    @pytest.mark.parametrize("p, n, d", [(2, 5, 2), (2, 6, 4), (3, 4, 3), (5, 3, 2)])
    def test_unrestricted_pool_is_every_point_outside_in_order(self, p, n, d):
        x = cycle_lines(PrimeModulus(p), n)
        excluded = excluded_points(x, d)
        # the table lists the vectors in the order itertools.product gives
        # them, so a vector's position is its code
        space = itertools.product(range(p), repeat=x.dim)
        expected = [
            code
            for code, (v, weight) in enumerate(zip(space, excluded.tolist()))
            if any(v) and normalised(p, v) == v and weight == search.OUTSIDE
        ]
        assert candidate_vertices(x, excluded).tolist() == expected

    def test_nine_cycle_restricted(self, nine_cycle_lines, nine_cycle_restriction):
        # 24 of the 63 points of pi lie in the span of at most two incident
        # points, leaving 39 candidates; the CWS reference in
        # tests/cws_reference.py derives the same set from the adjacency matrix
        excluded = excluded_points(nine_cycle_lines, 3)
        verts = candidate_vertices(nine_cycle_lines, excluded, nine_cycle_restriction)
        assert len(verts) == 39

    def test_restriction_is_respected(self, nine_cycle_lines, nine_cycle_restriction):
        excluded = excluded_points(nine_cycle_lines, 3)
        for v in vectors(2, 9, candidate_vertices(nine_cycle_lines, excluded, nine_cycle_restriction)):
            assert contains_point(nine_cycle_restriction, v)

    @pytest.mark.parametrize("p, n, d, restricted, count, digest", [
        (2, 5, 2, False, 16, "e9eaea14485c0e7e"),
        (2, 9, 3, True, 39, "f55e98515f7060a7"),
        (2, 9, 3, False, 268, "135dceb0a93cd0c4"),
        (3, 5, 2, False, 101, "d5aef567fae417a5"),
        (2, 10, 4, False, 46, "3ec01b642cb55193"),
    ])
    def test_pool_is_pinned(self, nine_cycle_restriction, p, n, d, restricted, count, digest):
        # the candidates in order: their number and the first 16 hex digits
        # of the SHA-256 of their coordinates, one point per line
        x = cycle_lines(PrimeModulus(p), n)
        verts = candidate_vertices(x, excluded_points(x, d), nine_cycle_restriction if restricted else None)
        text = "\n".join("".join(map(str, v)) for v in vectors(p, n, verts))
        assert (len(verts), hashlib.sha256(text.encode()).hexdigest()[:16]) == (count, digest)

    def test_restriction_in_another_space_is_refused(self, nine_cycle_graph, mod2):
        # a restriction in F_2^6 next to lines in F_2^9 has no points in common
        # with them; its codes would index the table of another space
        x = cycle_lines(mod2, 9)
        restriction = ProjSubspace(mod2, np.eye(6, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            candidate_vertices(x, excluded_points(x, 3), restriction)
        with pytest.raises(DimensionMismatch):
            run_recipe(nine_cycle_graph, d=3, restriction=restriction)

    def test_d_validation(self, pentagon_lines):
        # d is checked where X_{d-1} is built; d = 5 is not capped, and
        # X_4 is the whole space, as X_3 of the pentagon already is
        with pytest.raises(ValueError):
            excluded_points(pentagon_lines, 1)
        table = excluded_points(pentagon_lines, 5)
        assert len(table) == 2 ** 5
        assert (table != search.OUTSIDE).all()
        assert table.tolist() == excluded_points(pentagon_lines, 4).tolist()


class TestGammaGraph:
    def test_pentagon_60_edges(self, pentagon_lines):
        gamma = gamma_of(pentagon_lines, 2)
        assert gamma.num_vertices == 16
        assert gamma.num_edges == 60

    def test_nine_cycle_450_edges(self, nine_cycle_lines, nine_cycle_restriction):
        # the CWS reference (tests/cws_reference.py) gives the same 450 pairs:
        # those whose sum is not the image of an error of weight <= 2
        gamma = gamma_of(nine_cycle_lines, 3, nine_cycle_restriction)
        assert gamma.num_edges == 450

    def test_edges_match_projection_criterion(self, pentagon_lines):
        # u ~ v exactly when projecting from (u, v) yields a set of lines
        from qsol.lines import project_lines

        gamma = gamma_of(pentagon_lines, 2)
        edge_set = edges(gamma)
        pts = vectors(2, 5, gamma.vertices)
        for a, b in itertools.combinations(range(len(pts)), 2):
            try:
                project_lines(pentagon_lines, [pts[a], pts[b]])
                projects = True
            except CollapsedImage:
                projects = False
            assert projects == ((a, b) in edge_set)

    def test_ten_cycle_d4_matches_cws(self, mod2):
        # three points of one line are dependent, so the rank form of the
        # rule would reject every pair here; the excluded-point rule gives the
        # CWS edges u + v not in {nonzero Cl_G(E) : |E| <= 3}
        g = LabelledGraph.cycle(mod2, 10)
        x = cycle_lines(mod2, 10)
        gamma = gamma_of(x, 4)
        masks = [cws_reference.to_mask(v) for v in vectors(2, 10, gamma.vertices)]
        images = nonzero_error_images(g.adjacency.tolist(), 3)
        ref_vertices = cws_reference.candidates(images, 10)
        assert (gamma.num_vertices, gamma.num_edges) == (46, 30)
        assert set(masks) == set(ref_vertices)
        assert {frozenset((masks[i], masks[j])) for i, j in edges(gamma)} == cws_reference.edges(images, ref_vertices)

    def test_vertex_in_another_space_is_refused(self, pentagon_lines):
        # a vertex is the code of a nonzero vector of F_2^5, 1..31: 0 is the
        # zero vector, and -1 and 2^5 are no vector of the space (2^5 is one
        # of F_2^6)
        excluded = excluded_points(pentagon_lines, 2)
        verts = candidate_vertices(pentagon_lines, excluded).tolist()
        for stray in (0, -1, 2 ** 5):
            for given in ([stray], verts[:3] + [stray]):
                with pytest.raises(ValueError):
                    gamma_graph(pentagon_lines, given, excluded)

    def test_property_vertices_in_any_order_and_scaling(self):
        # Γ of shuffled, repeated and rescaled candidate codes is Γ of the
        # sorted candidates, vertices and rows alike, on labelled cycles
        rng = random.Random(6016)
        sizes = {2: (5, 7), 3: (3, 5), 5: (3, 4)}
        edges = collections.Counter()
        for case in range(30):
            p = [2, 3, 5][case % 3]
            n = rng.randint(*sizes[p])
            d = rng.choice([2, 3])
            mod = PrimeModulus(p)
            labels = [(i, (i + 1) % n, rng.randrange(1, p)) for i in range(n)]
            group = graph_to_generators(LabelledGraph.from_edges(mod, n, labels))
            x = lines_mod.lines_from_matrix(group.gmatrix, n, 0)
            excluded = excluded_points(x, d)
            candidates = candidate_vertices(x, excluded)
            expected = gamma_graph(x, candidates, excluded)
            assert expected.vertices == tuple(candidates.tolist())
            # each candidate once or twice, times a random nonzero scalar
            given = []
            for v in vectors(p, n, candidates):
                for c in rng.choices(range(1, p), k=rng.randint(1, 2)):
                    given.append(tuple(c * e % p for e in v))
            rng.shuffle(given)
            codes = geometry.vector_codes(p, n, given)
            gamma = gamma_graph(x, codes.tolist() if case % 2 else codes, excluded)
            where = f"case {case}: p={p} n={n} d={d}"
            assert gamma.vertices == expected.vertices and np.array_equal(gamma.adjacency, expected.adjacency), where
            edges[p] += expected.num_edges
        assert all(edges[p] for p in (2, 3, 5)), f"edges compared: {dict(edges)}"

    def test_lookup_table_over_budget_is_refused(self, mod2):
        # the table would hold 2^30 one-byte entries; the guard fires before
        # any of it is allocated, where the one table behind Γ is built
        x = cycle_lines(mod2, 30)
        with pytest.raises(TooLarge, match=r"1073741824 entries needs about 1024\.0 MiB, over the 256 MiB budget"):
            excluded_points(x, 2)

    def test_over_budget_is_refused_before_allocating(self, mod2, monkeypatch):
        # all 4095 points of PG(11, 2) as vertices: 4095² bytes is about 16 MiB,
        # over an 8 MiB budget, and the guard fires before the array exists, so
        # the peak stays far below it; a budget of exactly 16² bytes admits the
        # pentagon's 16 vertices
        import tracemalloc

        x = cycle_lines(mod2, 12)
        excluded = excluded_points(x, 2)
        monkeypatch.setattr(fields, "MAX_TABLE_BYTES", 2 ** 23)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"on 4095 vertices needs about 16\.0 MiB, over the 8 MiB budget"):
                gamma_graph(x, np.arange(1, 2 ** 12), excluded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22
        monkeypatch.setattr(fields, "MAX_TABLE_BYTES", 16 ** 2)
        assert gamma_of(cycle_lines(mod2, 5), 2).num_vertices == 16

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 0]], [[0, 1], [1, 1]], [[1, 1], [1, 1]], [[0, 0], [0, -1]]])
    def test_malformed_rows_are_refused(self, rows):
        # a loop at vertex 0, at vertex 1 beside an edge, at both, and a
        # nonzero entry other than 1, which is a join like any other
        with pytest.raises(ValueError, match="must join vertex"):
            CompatibilityGraph((1, 2), rows)

    @pytest.mark.parametrize("adjacency", [(), [0, 0], [[0, 1, 0], [1, 0, 0]], np.zeros((3, 3), dtype=bool)])
    def test_wrong_shape_adjacency_is_refused(self, adjacency):
        with pytest.raises(ValueError, match=r"need an \(2, 2\) adjacency array for 2 vertices"):
            CompatibilityGraph((1, 2), adjacency)

    @pytest.mark.parametrize("rows, i, j", [
        ([[0, 1, 1], [0, 0, 0], [0, 0, 0]], 0, 1),
        ([[0, 1, 1], [1, 0, 0], [0, 0, 0]], 0, 2),
        ([[0, 0, 0], [0, 0, 1], [0, 0, 0]], 1, 2),
    ])
    def test_one_way_rows_are_refused(self, rows, i, j):
        with pytest.raises(ValueError, match=f"row {i} joins vertex {j}, but row {j} does not join vertex {i}"):
            CompatibilityGraph((1, 2, 3), rows)

    def test_one_way_pair_across_row_blocks(self):
        # row 3 misses the join to 150, and the pair is reported from row 150,
        # the row that has it
        a = np.zeros((200, 200), dtype=bool)
        a[0, 199] = a[199, 0] = True
        assert CompatibilityGraph(tuple(range(1, 201)), a).num_edges == 1
        a[150, 3] = True
        with pytest.raises(ValueError, match="row 150 joins vertex 3, but row 3 does not join vertex 150"):
            CompatibilityGraph(tuple(range(1, 201)), a)

    def test_symmetry_check_matches_bit_tests(self):
        # random graphs on up to 20 vertices, with one entry flipped in every
        # other case, against pairwise entry tests
        rng = random.Random(6016)
        seen = {True: 0, False: 0}
        for case in range(80):
            nv = rng.randint(2, 20)
            a = random_adjacency(rng, nv, rng.random())
            if case % 2:
                i, j = rng.sample(range(nv), 2)
                a[i, j] ^= True
            one_way = [(i, j) for i in range(nv) for j in range(nv) if a[i, j] and not a[j, i]]
            if one_way:
                i, j = one_way[0]
                with pytest.raises(ValueError, match=f"row {i} joins vertex {j}, but row {j} does not join"):
                    CompatibilityGraph(tuple(range(1, nv + 1)), a)
            else:
                assert np.array_equal(CompatibilityGraph(tuple(range(1, nv + 1)), a).adjacency, a)
            seen[not one_way] += 1
        assert min(seen.values()) >= 30

    def test_rows_are_symmetric_without_loops(self, pentagon_lines):
        a = gamma_of(pentagon_lines, 2).adjacency
        assert a.dtype == bool and a.shape == (16, 16) and not a.flags.writeable
        assert not a.diagonal().any() and np.array_equal(a, a.T)


class TestFindCliques:
    def test_pentagon_six_maximum_cliques(self, pentagon_lines):
        gamma = gamma_of(pentagon_lines, 2)
        cliques = find_cliques(gamma)
        assert len(cliques) == 6
        assert all(len(c) == 5 for c in cliques)

    def test_nine_cycle_cliques_contain_printed_t(
        self, nine_cycle_lines, nine_cycle_restriction, nine_cycle_tset
    ):
        gamma = gamma_of(nine_cycle_lines, 3, nine_cycle_restriction)
        cliques = find_cliques(gamma)
        assert all(len(c) == 11 for c in cliques)
        printed = {v.entries for v in nine_cycle_tset.nonzero()}
        as_sets = [set(vectors(2, 9, [gamma.vertices[i] for i in c])) for c in cliques]
        assert printed in as_sets

    def test_edgeless_graph(self, mod2):
        gamma = CompatibilityGraph((1, 2, 4, 8), np.zeros((4, 4), dtype=bool))
        cliques = find_cliques(gamma)
        assert len(cliques) == 4
        assert all(len(c) == 1 for c in cliques)

    def test_empty_graph(self):
        assert find_cliques(CompatibilityGraph((), np.zeros((0, 0), dtype=bool))) == []

    def test_time_limit_carries_best(self, nine_cycle_lines, nine_cycle_restriction):
        # the deadline is checked once the first descent has recorded a
        # clique, so even a zero limit carries maximal cliques
        gamma = gamma_of(nine_cycle_lines, 3, nine_cycle_restriction)
        with pytest.raises(TimeLimitExceeded) as err:
            find_cliques(gamma, time_limit=0.0)
        best = err.value.best
        assert isinstance(best, list) and best
        for clique in best:
            for a, b in itertools.combinations(clique, 2):
                assert gamma.adjacency[a, b]
            for v in range(gamma.num_vertices):
                if v not in clique:
                    assert not gamma.adjacency[v, list(clique)].all()

    @pytest.mark.parametrize("limit", [-1.0, float("nan")])
    def test_bad_time_limit_is_refused(self, limit):
        with pytest.raises(ValueError, match="time limit"):
            find_cliques(CompatibilityGraph((1, 2), [[0, 1], [1, 0]]), time_limit=limit)

    def test_property_matches_brute_force(self):
        # every maximum clique of random graphs on up to 14 vertices, across
        # densities from edgeless to complete, against all vertex subsets
        rng = random.Random(6014)
        for case in range(80):
            nv = 14 if case < 2 else rng.randint(0, 14)
            density = [0.0, 1.0][case] if case < 2 else rng.random()
            a = random_adjacency(rng, nv, density)
            gamma = CompatibilityGraph(tuple(range(1, nv + 1)), a)
            assert find_cliques(gamma) == brute_force_maximum_cliques(a), f"case {case}: {nv} vertices"

    def test_property_same_search_tree_as_reference(self):
        # the same cliques in the same number of nodes as the MCQ search that
        # colours every candidate, and at a zero time limit the same best
        # cliques from the same first descent
        rng = random.Random(6015)
        for case in range(24):
            nv = rng.randint(15, 90)
            density = rng.uniform(0.2, 0.9)
            gamma = CompatibilityGraph(tuple(range(1, nv + 1)), random_adjacency(rng, nv, density))
            where = f"case {case}: {nv} vertices, density {density:.2f}"
            cliques, expected = find_cliques(gamma), reference_find_cliques(gamma)
            assert (cliques, cliques.nodes) == (expected, expected.nodes), where
            assert search_outcome(find_cliques, gamma) == search_outcome(reference_find_cliques, gamma), where

    @pytest.mark.parametrize("nv", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129])
    def test_vertex_counts_at_byte_boundaries(self, nv):
        # the search packs each row into whole bytes and shifts out the
        # padding, so vertex counts on either side of a byte edge must decode
        # to the same cliques and tree as the reference
        rng = random.Random(6017 + nv)
        for density in (0.0, 0.25, 0.5, 1.0):
            a = random_adjacency(rng, nv, density)
            gamma = CompatibilityGraph(tuple(range(1, nv + 1)), a)
            where = f"{nv} vertices, density {density}"
            cliques, expected = find_cliques(gamma), reference_find_cliques(gamma)
            assert (cliques, cliques.nodes) == (expected, expected.nodes), where
            assert search_outcome(find_cliques, gamma) == search_outcome(reference_find_cliques, gamma), where
            if nv <= 14:
                assert cliques == brute_force_maximum_cliques(a), where


def random_adjacency(rng, nv, density):
    """The (nv, nv) bool adjacency array of a random graph with each pair joined with probability density."""
    a = np.zeros((nv, nv), dtype=bool)
    for u, v in itertools.combinations(range(nv), 2):
        if rng.random() < density:
            a[u, v] = a[v, u] = True
    return a


def bitset_rows(a):
    """The adjacency array as one integer per row, bit j of row i set iff i and j are joined."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in a]


def search_outcome(search_fn, graph):
    """What a search at a zero time limit gives: the best cliques it carries out, or its result if it ends first."""
    try:
        cliques = search_fn(graph, time_limit=0.0)
        return "done", list(cliques), cliques.nodes
    except TimeLimitExceeded as err:
        return "timed out", err.best


def reference_find_cliques(g, time_limit=None):
    """Plain MCQ, which colours every candidate of every node, with the same result type as find_cliques.

    find_cliques colours only as far as its bound needs, and must still
    visit the same nodes in the same order as this search.
    """
    rows = bitset_rows(g.adjacency)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    best, best_size, nodes = [], 0, 0

    def as_tuples(cliques):
        return sorted(tuple(i for i in range(len(rows)) if c >> i & 1) for c in cliques)

    def colour(cand):
        order, colours, k = [], [], 0
        while cand:
            k += 1
            free = cand
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~(rows[v] | low)
                cand ^= low
                order.append(v)
                colours.append(k)
        return order, colours

    def expand(clique, size, cand):
        nonlocal best, best_size, nodes
        nodes += 1
        if deadline is not None and best and time.monotonic() > deadline:
            raise TimeLimitExceeded("timed out", best=as_tuples(best))
        if not cand:
            if size > best_size:
                best, best_size = [clique], size
            elif size == best_size:
                best.append(clique)
            return
        order, colours = colour(cand)
        for v, k in zip(reversed(order), reversed(colours)):
            if size + k < best_size:
                return
            bit = 1 << v
            expand(clique | bit, size + 1, cand & rows[v])
            cand ^= bit

    if rows:
        expand(0, 0, (1 << len(rows)) - 1)
    return search.Cliques(as_tuples(best), nodes)


def brute_force_maximum_cliques(a):
    """Every maximum clique of the adjacency array, by testing every vertex subset in turn."""
    rows = bitset_rows(a)
    is_clique = [True] * (1 << len(rows))
    for subset in range(1, 1 << len(rows)):
        low = subset & -subset
        rest = subset ^ low
        is_clique[subset] = is_clique[rest] and rows[low.bit_length() - 1] & rest == rest
    size = max(bin(s).count("1") for s in range(1 << len(rows)) if is_clique[s])
    if size == 0:
        return []
    return sorted(
        tuple(i for i in range(len(rows)) if s >> i & 1)
        for s in range(1 << len(rows))
        if is_clique[s] and bin(s).count("1") == size
    )


def test_cws_reference_cliques_match_brute_force():
    # the reference's greedy-colouring cut against all vertex subsets, on
    # random graphs of 1 to 14 vertices from edgeless to complete; the cut
    # must keep every tied maximum clique
    rng = random.Random(6026)
    for case in range(120):
        nv = 14 if case < 2 else rng.randint(1, 14)
        density = [0.0, 1.0][case] if case < 2 else rng.random()
        a = random_adjacency(rng, nv, density)
        # the vertices are arbitrary distinct integers, here 2i + 3 for vertex i
        edge_set = {frozenset((2 * i + 3, 2 * j + 3)) for i in range(nv) for j in range(i) if a[i, j]}
        found = sorted(sorted((v - 3) // 2 for v in c) for c in cws_reference.maximum_cliques(
            [2 * i + 3 for i in range(nv)], edge_set))
        assert found == [list(c) for c in brute_force_maximum_cliques(a)], f"case {case}: {nv} vertices"


def random_labelled_graph(rng, p, n, density, connected=False):
    """A random graph on n vertices with labels in 1..p-1, spanned by a random tree when connected."""
    labels = {}
    if connected:
        for v in range(1, n):
            labels[rng.randrange(v), v] = rng.randrange(1, p)
    for pair in itertools.combinations(range(n), 2):
        if pair not in labels and rng.random() < density:
            labels[pair] = rng.randrange(1, p)
    return LabelledGraph.from_edges(PrimeModulus(p), n, [(a, b, label) for (a, b), label in labels.items()])


def circulant(n, steps):
    """C_n(S): vertex i joined to i ± s mod n for each s in S, every label 1, over F_2."""
    pairs = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return LabelledGraph.from_edges(PrimeModulus(2), n, [(a, b, 1) for a, b in sorted(pairs)])


def generated_group(perms, n):
    """Every product of the permutations, by closure from the identity."""
    identity = tuple(range(n))
    group, todo = {identity}, [identity]
    for g in todo:
        for s in perms:
            h = tuple(s[v] for v in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def brute_force_automorphisms(g):
    """The label-preserving permutations, by testing all n! of them."""
    a, n = g.adjacency.tolist(), g.n
    return {
        s for s in itertools.permutations(range(n))
        if all(a[s[u]][s[v]] == a[u][v] for u, v in itertools.combinations(range(n), 2))
    }


class TestAutomorphisms:
    def test_property_generates_the_brute_force_group(self):
        # random labelled graphs, edgeless, complete, disconnected and with no
        # automorphism among them, against all n! permutations
        mod2, mod3 = PrimeModulus(2), PrimeModulus(3)
        fixed = [
            LabelledGraph.from_edges(mod2, 7, []),
            LabelledGraph.from_edges(mod2, 7, [(a, b, 1) for a, b in itertools.combinations(range(7), 2)]),
            LabelledGraph.from_edges(mod2, 6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]),
            LabelledGraph.from_edges(mod3, 3, [(0, 1, 1), (1, 2, 2)]),
        ]
        rng = random.Random(6024)
        graphs = fixed + [
            random_labelled_graph(rng, rng.choice([2, 3, 5]), rng.randint(1, 7), rng.random())
            for _ in range(120)
        ]
        orders = collections.Counter()
        for case, g in enumerate(graphs):
            generators = search.automorphisms(g)
            group = brute_force_automorphisms(g)
            assert generated_group(generators, g.n) == group, f"case {case}: {g.adjacency.tolist()}"
            assert tuple(range(g.n)) not in generators
            orders[len(group)] += 1
        assert [len(brute_force_automorphisms(g)) for g in fixed] == [5040, 5040, 72, 1]
        assert orders[1] > 10 and sum(orders.values()) - orders[1] > 10, dict(orders)

    def test_complete_graph_is_not_enumerated(self, mod2):
        # 12! automorphisms from one generator per level of the base
        g = LabelledGraph.from_edges(mod2, 12, [(a, b, 1) for a, b in itertools.combinations(range(12), 2)])
        generators = search.automorphisms(g)
        assert len(generators) == 11
        assert all(sorted(s) == list(range(12)) for s in generators)


class TestGammaSymmetries:
    def test_property_permutations_map_rows_onto_rows(self):
        # each permutation s of Γ's vertices takes the joins of i to the joins of s[i]
        rng = random.Random(6025)
        graphs = [(LabelledGraph.cycle(PrimeModulus(p), n), d) for p, n, d in [(2, 5, 2), (3, 5, 2), (2, 9, 3)]]
        graphs += [
            (random_labelled_graph(rng, p, rng.randint(3, 6 if p == 2 else 4), rng.random(), connected=True),
             rng.choice([2, 3]))
            for p in (2, 3) for _ in range(15)
        ]
        moved = 0
        for case, (g, d) in enumerate(graphs):
            gamma = gamma_of(graph_lines(g), d)
            for s in search.gamma_symmetries(g, gamma):
                assert sorted(s.tolist()) == list(range(gamma.num_vertices)), f"case {case}"
                a = gamma.adjacency
                for i in range(gamma.num_vertices):
                    assert np.array_equal(a[s[i], s], a[i]), f"case {case}: row {i}"
                moved += 1
        assert moved > 10

    def test_image_off_gamma_is_refused(self, pentagon_graph, pentagon_lines):
        # one vertex of the pentagon's Γ alone is not closed under the cycle's symmetry
        gamma = gamma_of(pentagon_lines, 2)
        with pytest.raises(ValueError, match="moves a vertex of Γ off Γ"):
            search.gamma_symmetries(pentagon_graph, CompatibilityGraph(gamma.vertices[:1], [[0]]))


class TestSymmetricRoot:
    @pytest.mark.parametrize("p, n, d, nodes, orbits, symmetric_nodes, symmetric_orbits", [
        (2, 5, 2, 28, 16, 15, 4),
        (3, 5, 2, 2881, 101, 821, 17),
        (2, 9, 3, 10301, 268, 2029, 25),
    ], ids=["pentagon", "c5-p3", "nine-cycle"])
    def test_pinned_counts(self, p, n, d, nodes, orbits, symmetric_nodes, symmetric_orbits):
        # without symmetries the search is MCQ's, with the same node counts as
        # before the symmetric root; with them it finds the same list
        g = LabelledGraph.cycle(PrimeModulus(p), n)
        gamma = gamma_of(graph_lines(g), d)
        plain = find_cliques(gamma)
        symmetric = find_cliques(gamma, symmetries=search.gamma_symmetries(g, gamma))
        assert (plain.nodes, plain.orbits, symmetric.nodes, symmetric.orbits) == (
            nodes, orbits, symmetric_nodes, symmetric_orbits)
        assert symmetric == plain

    def test_property_same_cliques_on_random_graphs(self):
        rng = random.Random(6026)
        symmetric_cases = 0
        for case in range(40):
            p, d = rng.choice([2, 3]), rng.choice([2, 3])
            n = rng.randint(3, {(2, 2): 6, (2, 3): 7, (3, 2): 4, (3, 3): 5}[p, d])
            g = random_labelled_graph(rng, p, n, rng.random(), connected=True)
            gamma = gamma_of(graph_lines(g), d)
            symmetries = search.gamma_symmetries(g, gamma)
            cliques = find_cliques(gamma, symmetries=symmetries)
            assert cliques == find_cliques(gamma), f"case {case}: p={p} d={d} {g.adjacency.tolist()}"
            symmetric_cases += cliques.orbits < gamma.num_vertices
        assert symmetric_cases > 5

    @pytest.mark.parametrize("n, steps, d", [
        (5, (1, 2), 2), (6, (3,), 3), (6, (1, 3), 2), (7, (1, 2, 3), 3), (8, (1,), 2), (8, (1, 4), 3),
        (8, (1, 2, 3), 3), (9, (2,), 3), (9, (1, 3), 3), (10, (1,), 2),
    ])
    def test_same_cliques_on_circulants(self, n, steps, d):
        g = circulant(n, steps)
        gamma = gamma_of(graph_lines(g), d)
        cliques = find_cliques(gamma, symmetries=search.gamma_symmetries(g, gamma))
        assert cliques == find_cliques(gamma)
        assert cliques.orbits < gamma.num_vertices

    def test_time_out_carries_the_unexpanded_first_descent(self, nine_cycle_graph, nine_cycle_lines):
        gamma = gamma_of(nine_cycle_lines, 3)
        outcomes = [search_outcome(find_cliques, gamma)]
        symmetric = functools.partial(find_cliques, symmetries=search.gamma_symmetries(nine_cycle_graph, gamma))
        outcomes.append(search_outcome(symmetric, gamma))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == "timed out" and len(outcomes[0][1]) == 1

    @pytest.mark.parametrize("symmetry", [(0, 0), (1,), (0, 1, 2)])
    def test_symmetry_must_permute_the_vertices(self, symmetry):
        with pytest.raises(ValueError, match="permutation of the 2 vertices"):
            find_cliques(CompatibilityGraph((1, 2), [[0, 1], [1, 0]]), symmetries=[symmetry])


class TestCodingSet:
    def test_requires_zero(self, mod2):
        with pytest.raises(ValueError):
            CodingSet(mod2, [(1, 0)])

    def test_requires_distinct(self, mod2, mod3):
        with pytest.raises(ValueError):
            CodingSet(mod2, [(0, 0), (0, 0)])
        # (1, 2) and (4, -1) are one vector of F_3^2
        with pytest.raises(ValueError, match="distinct"):
            CodingSet(mod3, [(0, 0), (1, 2), (4, -1)])

    @pytest.mark.parametrize("vectors", [(0, 0, 0), [], [[[0, 0]]]])
    def test_requires_a_2d_array(self, mod2, vectors):
        with pytest.raises(ValueError, match=r"\(\|T\|, m\) array"):
            CodingSet(mod2, vectors)

    def test_holds_a_read_only_int64_array(self, mod3):
        t = CodingSet(mod3, [(1, 2, 3), (0, 0, 0), (-1, 4, 0)])
        assert t.vectors.dtype == np.int64 and t.vectors.shape == (3, 3) and t.length == 3
        assert t.vectors.tolist() == [[1, 2, 0], [0, 0, 0], [2, 1, 0]]
        with pytest.raises(ValueError):
            t.vectors[0, 0] = 0

    def test_nonzero_records_in_row_order(self, mod3, ternary_tset):
        t = CodingSet(mod3, [(1, 2), (0, 0), (2, 0), (0, 1)])
        records = t.nonzero()
        assert all(isinstance(v, FpVector) and v.modulus == mod3 for v in records)
        assert [v.entries for v in records] == [(1, 2), (2, 0), (0, 1)]
        assert [v.entries for v in ternary_tset.nonzero()] == [tuple(v) for v in ternary_tset.vectors.tolist()[1:]]

    def test_subspace_detection(self, mod2, ternary_tset, pentagon_tset):
        assert is_subspace_t(ternary_tset)
        assert not is_subspace_t(pentagon_tset)

    def test_property_subspace_matches_closure_rule(self):
        # the rank count |T| = p^rank(T) against closure under addition and
        # scaling, on subspaces, subspaces with one vector added or removed,
        # and random sets
        rng = random.Random(6015)
        seen = collections.Counter()
        for case in range(150):
            p = rng.choice([2, 3, 5])
            mod = PrimeModulus(p)
            length = rng.randint(1, {2: 5, 3: 3, 5: 3}[p])
            space = list(itertools.product(range(p), repeat=length))
            kind = rng.choice(["subspace", "added", "removed", "random"])
            if kind == "random":
                vectors = {(0,) * length, *rng.sample(space, rng.randint(0, min(len(space), 30)))}
            else:
                basis = [rng.choice(space) for _ in range(rng.randint(0, length))]
                vectors = {
                    tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(length))
                    for coeffs in itertools.product(range(p), repeat=len(basis))
                }
                if kind == "added":
                    vectors.add(rng.choice(space))
                elif kind == "removed":
                    # a coding set holds 0, so taking it out is undone
                    vectors.discard(rng.choice(sorted(vectors)))
                    vectors.add((0,) * length)
            t = CodingSet(mod, sorted(vectors))
            expected = closure_rule(t)
            assert is_subspace_t(t) == expected, f"case {case}: p={p} T={sorted(vectors)}"
            seen[kind, expected] += 1
        assert all(seen[kind, outcome] for kind in ("added", "removed", "random") for outcome in (True, False))
        assert seen["subspace", True] and not seen["subspace", False], f"outcomes seen: {dict(seen)}"


def closure_rule(t):
    """True iff the vector set is closed under addition and scaling, tested pair by pair."""
    p = t.p
    vs = set(map(tuple, t.vectors.tolist()))
    closed_sum = all(tuple((x + y) % p for x, y in zip(a, b)) in vs for a, b in itertools.product(vs, repeat=2))
    return closed_sum and all(tuple(c * x % p for x in a) in vs for a in vs for c in range(2, p))


class TestDistanceBound:
    def test_pentagon_bound_two(self, pentagon_lines, pentagon_tset):
        assert distance_bound(pentagon_lines, pentagon_tset, 5) == 2

    def test_vacuous_bound(self, pentagon_lines, mod2):
        t = CodingSet(mod2, [(0,) * 5])
        assert distance_bound(pentagon_lines, t, 3) == AtLeast(4)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="with one coding point _least_weight finds no line, so the pair (0, t) is never read",
    )
    def test_one_point_bound_is_sound(self, five_qubit_group, pentagon_lines, mod2):
        # a weight-1 error maps Q_0 onto Q_{e_1}, so the code detects no error
        # of weight 1 and any sound bound is at most 1
        t = CodingSet(mod2, [(0,) * 5, (1, 0, 0, 0, 0)])
        if oracle.kl_detect(oracle.code_basis(five_qubit_group, t.vectors), 2, oracle.error_classes(2, 5, 1)).passed:
            pytest.fail("the oracle passes T = {0, e_1} at d = 2")
        try:
            bound = distance_bound(pentagon_lines, t, 3)
        except CollapsedImage:
            # e_1 is an incident point, and a coding line through one is refused
            return
        assert lines_mod.distance_value(bound) <= 1


def test_singleton_max_k():
    assert singleton_max_k(5, 2) == 3
    assert singleton_max_k(11, 3) == 7
    with pytest.raises(ValueError):
        singleton_max_k(0, 2)


class TestRunRecipe:
    def test_pentagon_report(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=2)
        assert (report.n, report.k, report.p) == (5, 0, 2)
        assert report.t_size == 6
        assert report.dimension == 6
        assert report.d_bound == 2 and report.d_bound_exact
        assert report.vertices == 16 and report.edges == 60
        assert report.cliques_found == 6 and report.clique_size == 5
        assert not report.is_subspace
        assert report.singleton_k == 3
        assert report.warnings == ()

    def test_pentagon_at_d3_keeps_the_lone_candidate(self, pentagon_graph):
        # only the all-ones point survives; T = {0, v} doubles the dimension
        # and the zero pair caps the certified bound at d
        report = run_recipe(pentagon_graph, d=3)
        assert report.t_size == 2
        assert report.dimension == 2
        assert report.d_bound == 3 and not report.d_bound_exact

    def test_pentagon_at_d4_falls_back_to_additive(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=4)
        assert report.t_size == 1
        assert report.dimension == 1
        # the additive code's own distance is reported
        assert report.d_bound == 3 and report.d_bound_exact
        assert any("T = {0}" in w for w in report.warnings)

    def test_eight_cycle_at_d4_caps_the_bound_at_the_additive_distance(self, mod2):
        # the 8-cycle state has stabiliser elements X_i Z_{i-1} Z_{i+1} of
        # weight 3 with CWS image 0; the candidate condition cannot see them,
        # so the zero pairs are certified to d(X) = 3, not to d = 4
        report = run_recipe(LabelledGraph.cycle(mod2, 8), d=4)
        # the all-ones point is the one candidate, so T = {0, 11111111}
        assert {v.entries for v in report.coding_set.nonzero()} == {(1,) * 8}
        assert (report.n, report.dimension) == (8, 2)
        assert report.d_bound == 3 and not report.d_bound_exact
        assert any("certified to 3" in w for w in report.warnings)

        basis = oracle.code_basis(report.group, report.coding_set.vectors)
        assert oracle.kl_detect(basis, 2, oracle.error_classes(2, 8, 2)).passed
        stabilisers = []
        for i in range(8):
            z = [0] * 8
            z[i - 1] = z[(i + 1) % 8] = 1
            stabilisers.append(PauliOperator(mod2, 8, 0, tuple(int(j == i) for j in range(8)), tuple(z)))
        kl = oracle.kl_detect(basis, 2, pauli_rows(stabilisers))
        assert len(kl.failures) == 8

    def test_builds_the_weight_map_once(self, nine_cycle_graph, nine_cycle_restriction, monkeypatch):
        # one X_{d-1} serves the candidates, Γ and the distance bound
        from qsol import search

        built = []
        weights = search._weights
        monkeypatch.setattr(search, "_weights", lambda x, top: built.append(top) or weights(x, top))
        report = run_recipe(nine_cycle_graph, d=3, restriction=nine_cycle_restriction)
        assert (report.clique_size, report.d_bound, report.d_bound_exact) == (11, 3, True)
        assert built == [2]

    def test_finds_the_additive_distance_once(self, nine_cycle_graph, nine_cycle_restriction, monkeypatch):
        # one d(X) search serves the zero-pair cap and the coding lines
        limits = []
        search_dx = lines_mod.min_dependent_set
        monkeypatch.setattr(lines_mod, "min_dependent_set", lambda x, limit: limits.append(limit) or search_dx(x, limit))
        report = run_recipe(nine_cycle_graph, d=3, restriction=nine_cycle_restriction)
        assert (report.d_bound, report.d_bound_exact) == (3, True)
        assert limits == [2]

    def test_machine_lines_are_key_value(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=2)
        lines = report.machine_lines()
        keys = [ln.split("=", 1)[0] for ln in lines]
        for key in ["n", "k", "p", "T_size", "K", "d_bound", "subspace",
                    "singleton_max_k", "cliques_found", "edges", "vertices", "elapsed_ms",
                    "count.clique_nodes"]:
            assert key in keys
        assert "K=6" in lines

    def test_text_lines_mention_parameters(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=2)
        assert any("((5,6,2))" in ln for ln in report.text_lines())

    def test_k_positive_projects_first(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=2, k=1)
        assert report.k == 1
        assert report.group.n == 5
        assert report.group.num_generators == 4
        assert report.coding_set.length == 4

    @pytest.mark.parametrize("k, code, bound, vertices, edges, cliques", [
        (1, "((9,8,3)) code", "3", 65, 432, 304),
        (2, "((9,8,2)) code", ">= 2", 10, 0, 10),
    ])
    def test_nine_cycle_projected(self, nine_cycle_graph, k, code, bound, vertices, edges, cliques):
        report = run_recipe(nine_cycle_graph, d=3, k=k)
        text = report.text_lines()
        assert text[0] == code and f"  distance bound: {bound}" in text
        assert (report.vertices, report.edges, report.cliques_found) == (vertices, edges, cliques)
        capped = any("additive code has distance 2 < d" in w for w in report.warnings)
        assert capped == (k == 2)
        # the subgroup's generators are the running products of the parent's
        # generators given by the rows of the null space of the centre
        group = graph_to_generators(nine_cycle_graph)
        x = lines_mod.lines_from_matrix(group.gmatrix, 9, 0)
        centre = search._lex_least_independent(2, 9, candidate_vertices(x, excluded_points(x, 3)), k)
        rows = fields.null_space(2, centre, 9)
        assert report.group.rows.tolist() == reference_rows(group, rows).tolist()

    def test_thirteen_circulant_at_d5(self):
        # C_13(1,5) has d(X) = 5: one candidate point, and so ((13,2,5)). With
        # one nonzero coding point no coding line is read, and the bound is d
        # as a lower bound only
        report = run_recipe(circulant(13, (1, 5)), d=5)
        assert (report.vertices, report.edges, report.clique_size) == (1, 0, 1)
        assert (report.dimension, report.d_bound, report.d_bound_exact) == (2, 5, False)
        assert report.coding_set.vectors.tolist() == [[0] * 13, [1] * 13]
        basis = oracle.code_basis(report.group, report.coding_set.vectors)
        assert oracle.kl_detect(basis, 2, oracle.error_classes(2, 13, 4)).passed

    def test_dodecacode_at_d6(self):
        # C_12(1,3,6) is the [[12,0,6]] graph state: no candidate at d = 6,
        # so T = {0} and the bound is d(X) = 6, found exactly
        report = run_recipe(circulant(12, (1, 3, 6)), d=6)
        assert report.coding_set.vectors.tolist() == [[0] * 12]
        assert (report.vertices, report.d_bound, report.d_bound_exact) == (0, 6, True)

    @pytest.mark.parametrize("k", [3, 4])
    def test_nine_cycle_centre_meets_line_5(self, nine_cycle_graph, k):
        with pytest.raises(CollapsedImage) as err:
            run_recipe(nine_cycle_graph, d=3, k=k)
        assert err.value.index == 5

    def test_parameter_validation(self, pentagon_graph):
        with pytest.raises(ValueError):
            run_recipe(pentagon_graph, d=1)
        with pytest.raises(ValueError):
            run_recipe(pentagon_graph, d=2, k=5)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1])
    def test_property_coding_set_matches_point_by_point_assembly(self, p, k, monkeypatch):
        # T of random labelled graphs, row for row, against the zero vector
        # and the multiples of each point of the clique that the search returns
        found = []

        def recording(gamma, *args):
            cliques = find_cliques(gamma, *args)
            found.append((gamma, cliques))
            return cliques

        monkeypatch.setattr(search, "find_cliques", recording)
        rng = random.Random(7100 + 10 * p + k)
        mod = PrimeModulus(p)
        sizes = {2: (3, 6), 3: (3, 5), 5: (3, 4)}[p]
        sizes_seen = []
        while len(sizes_seen) < 8:
            n = rng.randint(*sizes)
            labelled = [(i, j, rng.randrange(1, p)) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            try:
                report = run_recipe(LabelledGraph.from_edges(mod, n, labelled), d=2, k=k)
            except (IsolatedVertex, CollapsedImage, NoClique):
                continue
            gamma, cliques = found[-1]
            clique = cliques[0] if cliques else ()
            rows = reference_coding_rows(p, n - k, vectors(p, n - k, [gamma.vertices[i] for i in clique]))
            t = report.coding_set.vectors
            assert t.dtype == np.int64 and not t.flags.writeable
            assert t.tolist() == [list(row) for row in rows], f"p={p} k={k} edges={labelled}"
            sizes_seen.append(len(clique))
        # cliques of two or more points, except where projecting F_5^n leaves none
        assert max(sizes_seen) >= (1 if (p, k) == (5, 1) else 2), sizes_seen

    def test_ternary_triangle_scalars(self, mod3):
        # for p = 3 every clique point enters T with both nonzero scalars
        g = LabelledGraph.cycle(mod3, 3)
        report = run_recipe(g, d=2)
        assert report.t_size == 1 + 2 * report.clique_size
