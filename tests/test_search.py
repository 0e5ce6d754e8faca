"""Candidate points, compatibility graphs, clique search, and the recipe."""

import itertools
import random

import pytest

import cws_reference
from qsol import geometry, lines as lines_mod, oracle, search
from qsol.errors import IsolatedVertex, TimeLimitExceeded, UnsupportedDistance
from qsol.fields import FpMatrix, FpVector, PrimeModulus, in_row_space
from qsol.geometry import ProjPoint
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
    proportional_pairs,
    run_recipe,
    singleton_max_k,
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
        assert g.adjacency.rows == ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0))

    def test_rejects_asymmetric(self, mod2):
        with pytest.raises(ValueError):
            LabelledGraph(mod2, FpMatrix.from_rows(mod2, [(0, 1), (0, 0)], 2))

    def test_rejects_loops(self, mod2):
        with pytest.raises(ValueError):
            LabelledGraph(mod2, FpMatrix.from_rows(mod2, [(1, 1), (1, 0)], 2))

    def test_labels_reduced_mod_p(self, mod3):
        g = LabelledGraph.from_edges(mod3, 2, [(0, 1, 5)])
        assert g.adjacency.rows[0][1] == 2


class TestGraphToGenerators:
    def test_pentagon_matches_hand_matrix(self, pentagon_graph, five_qubit_group):
        assert graph_to_generators(pentagon_graph).gmatrix == five_qubit_group.gmatrix

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


def cycle_lines(modulus, n):
    group = graph_to_generators(LabelledGraph.cycle(modulus, n))
    return lines_mod.lines_from_matrix(group.gmatrix, n, 0)


def gamma_of(x, d, restriction=None):
    """Γ on the candidates of x at distance d, both from one excluded set."""
    excluded = excluded_points(x, d)
    return gamma_graph(x, candidate_vertices(x, excluded, restriction), excluded)


def contains_point(subspace, pt):
    """True iff the projective point lies in the subspace."""
    return in_row_space(subspace.basis, pt.vector())


class TestExcludedPoints:
    @pytest.mark.parametrize("p, n, d", [(2, 5, 2), (2, 5, 3), (2, 5, 4), (2, 6, 4), (3, 4, 3), (5, 3, 3)])
    def test_equals_union_of_spans(self, p, n, d):
        x = cycle_lines(PrimeModulus(p), n)
        incident = lines_mod.incident_points(x)
        spans = {
            pt.coords
            for size in range(1, d)
            for subset in itertools.combinations(incident, size)
            for pt in geometry.points_of(geometry.span(subset))
        }
        assert excluded_points(x, d) == spans


class TestCandidateVertices:
    def test_pentagon_has_16(self, pentagon_lines):
        verts = candidate_vertices(pentagon_lines, excluded_points(pentagon_lines, 2))
        assert len(verts) == 16
        incident = set(lines_mod.incident_points(pentagon_lines))
        assert not incident & set(verts)

    def test_nine_cycle_restricted(self, nine_cycle_lines, nine_cycle_restriction):
        # 24 of the 63 points of pi lie in the span of at most two incident
        # points, leaving 39 candidates; the CWS reference in
        # tests/cws_reference.py derives the same set from the adjacency matrix
        excluded = excluded_points(nine_cycle_lines, 3)
        verts = candidate_vertices(nine_cycle_lines, excluded, nine_cycle_restriction)
        assert len(verts) == 39

    def test_restriction_is_respected(self, nine_cycle_lines, nine_cycle_restriction):
        excluded = excluded_points(nine_cycle_lines, 3)
        for pt in candidate_vertices(nine_cycle_lines, excluded, nine_cycle_restriction):
            assert contains_point(nine_cycle_restriction, pt)

    def test_d_validation(self, pentagon_lines):
        # d is checked where X_{d-1} is built
        with pytest.raises(ValueError):
            excluded_points(pentagon_lines, 1)
        with pytest.raises(UnsupportedDistance):
            excluded_points(pentagon_lines, 5)


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

    def test_edges_match_projection_criterion(self, pentagon_lines, mod2):
        # u ~ v exactly when projecting from (u, v) yields a set of lines
        from qsol.errors import CollapsedImage
        from qsol.lines import project_lines

        gamma = gamma_of(pentagon_lines, 2)
        edge_set = set(gamma.edges)
        for a, b in itertools.combinations(range(len(gamma.vertices)), 2):
            u = FpVector(mod2, gamma.vertices[a].coords)
            v = FpVector(mod2, gamma.vertices[b].coords)
            try:
                project_lines(pentagon_lines, [u, v])
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
        masks = [cws_reference.to_mask(v.coords) for v in gamma.vertices]
        images = nonzero_error_images(g.adjacency.rows, 3)
        ref_vertices = cws_reference.candidates(images, 10)
        assert (gamma.num_vertices, gamma.num_edges) == (46, 30)
        assert set(masks) == set(ref_vertices)
        assert {frozenset((masks[i], masks[j])) for i, j in gamma.edges} == cws_reference.edges(images, ref_vertices)


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
        as_sets = [{gamma.vertices[i].coords for i in c} for c in cliques]
        assert printed in as_sets

    def test_edgeless_graph(self, mod2):
        pts = [ProjPoint(mod2, tuple(1 if j == i else 0 for j in range(4))) for i in range(4)]
        gamma = CompatibilityGraph(tuple(pts), frozenset())
        cliques = find_cliques(gamma)
        assert len(cliques) == 4
        assert all(len(c) == 1 for c in cliques)

    def test_empty_graph(self):
        assert find_cliques(CompatibilityGraph((), frozenset())) == []

    def test_greedy_mode_returns_maximal_clique(self, pentagon_lines):
        gamma = gamma_of(pentagon_lines, 2)
        (clique,) = find_cliques(gamma, mode="greedy")
        adj = gamma.neighbours()
        for a, b in itertools.combinations(clique, 2):
            assert b in adj[a]
        for v in range(gamma.num_vertices):
            if v not in clique:
                assert not all(v in adj[c] for c in clique)

    def test_time_limit_carries_best(self, nine_cycle_lines, nine_cycle_restriction):
        gamma = gamma_of(nine_cycle_lines, 3, nine_cycle_restriction)
        with pytest.raises(TimeLimitExceeded) as err:
            find_cliques(gamma, time_limit=0.0)
        assert isinstance(err.value.best, list)

    def test_unknown_mode(self, mod2):
        gamma = CompatibilityGraph((ProjPoint(mod2, (1,)),), frozenset())
        with pytest.raises(ValueError):
            find_cliques(gamma, mode="magic")


class TestCodingSet:
    def test_requires_zero(self, mod2):
        with pytest.raises(ValueError):
            CodingSet(mod2, 2, (FpVector(mod2, (1, 0)),))

    def test_requires_distinct(self, mod2):
        z = FpVector(mod2, (0, 0))
        with pytest.raises(ValueError):
            CodingSet(mod2, 2, (z, z))

    def test_subspace_detection(self, mod2, ternary_tset, pentagon_tset):
        assert is_subspace_t(ternary_tset)
        assert not is_subspace_t(pentagon_tset)

    def test_proportional_pairs(self, ternary_tset, pentagon_tset):
        # each nonzero ternary vector appears with both scalars
        assert len(proportional_pairs(ternary_tset)) == 4
        assert proportional_pairs(pentagon_tset) == []


class TestDistanceBound:
    def test_pentagon_bound_two(self, pentagon_lines, pentagon_tset):
        assert distance_bound(pentagon_lines, pentagon_tset, 5) == 2

    def test_vacuous_bound(self, pentagon_lines, mod2):
        t = CodingSet(mod2, 5, (FpVector(mod2, (0,) * 5),))
        assert distance_bound(pentagon_lines, t, 3) == AtLeast(4)


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

        basis = oracle.code_basis(report.group, report.coding_set)
        assert oracle.kl_detect(basis, oracle.error_classes(mod2, 8, 2)).passed
        stabilisers = []
        for i in range(8):
            z = [0] * 8
            z[i - 1] = z[(i + 1) % 8] = 1
            stabilisers.append(PauliOperator(mod2, 8, 0, tuple(int(j == i) for j in range(8)), tuple(z)))
        kl = oracle.kl_detect(basis, stabilisers)
        assert len(kl.failures) == 8

    def test_machine_lines_are_key_value(self, pentagon_graph):
        report = run_recipe(pentagon_graph, d=2)
        lines = report.machine_lines()
        keys = [ln.split("=", 1)[0] for ln in lines]
        for key in ["n", "k", "p", "T_size", "K", "d_bound", "subspace",
                    "singleton_max_k", "cliques_found", "edges", "vertices", "elapsed_ms"]:
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

    def test_parameter_validation(self, pentagon_graph):
        with pytest.raises(ValueError):
            run_recipe(pentagon_graph, d=1)
        with pytest.raises(ValueError):
            run_recipe(pentagon_graph, d=2, k=5)

    def test_ternary_triangle_scalars(self, mod3):
        # for p = 3 every clique point enters T with both nonzero scalars
        g = LabelledGraph.cycle(mod3, 3)
        report = run_recipe(g, d=2)
        assert report.t_size == 1 + 2 * report.clique_size
