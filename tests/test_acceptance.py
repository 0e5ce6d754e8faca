"""Acceptance gate: the eight headline checks, at their stated tolerances.

Criteria 1-7 pin the worked examples; criterion 8 is a set of randomized
property suites (>= 200 cases each) tying the symbolic layer to dense-matrix
ground truth.
"""

import collections
import itertools
import random
import time

import numpy as np
import pytest

from qsol import fields, lines as lines_mod, pauli, search
from qsol.errors import CollapsedImage, DegenerateLine, IsolatedVertex
from qsol.fields import FpVector, PrimeModulus, null_space, rref
from qsol.lines import AtLeast
from qsol.oracle import code_basis, error_classes, kl_detect
from qsol.pauli import (
    PauliOperator,
    StabiliserGroup,
    centraliser_basis,
    extend_to_maximal_abelian,
    forms_vanish,
    multiply,
    split_rows,
    subgroup_tu,
)

import cws_reference
import dense_reference
from conftest import (
    edges,
    group_elements,
    group_of,
    in_row_space,
    incident,
    pauli_rows,
    random_group,
    random_group_with_lines,
    random_symplectic_rows,
    row_space_vectors,
    row_triples,
    symplectic_form,
    vectors,
    weight,
    xz,
)
from dense_reference import subspace_equal


def cws_mismatches(graph, d, constraints=None):
    """Where the program's candidates, edges and maximum cliques differ from the CWS reference.

    Returns the problems found and the program's maximum cliques as
    frozensets of bitmasks.
    """
    x = lines_mod.lines_from_matrix(search.graph_to_generators(graph).gmatrix, graph.n, 0)
    excluded = search.excluded_points(x, d)
    gamma = search.gamma_graph(x, search.candidate_vertices(x, excluded, constraints), excluded)
    masks = [cws_reference.to_mask(v) for v in vectors(2, graph.n, gamma.vertices)]
    vertices = set(masks)
    pairs = {frozenset((masks[i], masks[j])) for i, j in edges(gamma)}
    cliques = {frozenset(masks[i] for i in c) for c in search.find_cliques(gamma)}

    images = cws_reference.error_images(graph.adjacency.tolist(), d - 1)
    ref_vertices = cws_reference.candidates(images, graph.n, () if constraints is None else constraints.tolist())
    ref_edges = cws_reference.edges(images, ref_vertices)
    ref_cliques = set(cws_reference.maximum_cliques(ref_vertices, ref_edges))

    problems = []
    if vertices != set(ref_vertices):
        problems.append(f"candidate set differs from the CWS reference in {sorted(vertices ^ set(ref_vertices))}")
    if pairs != ref_edges:
        problems.append(f"edge set differs from the CWS reference in {len(pairs ^ ref_edges)} pairs")
    if cliques != ref_cliques:
        problems.append(f"maximum cliques differ from the CWS reference in {len(cliques ^ ref_cliques)} cliques")
    return problems, cliques


def test_criterion_1_pentagon_reproduction(pentagon_graph):
    start = time.monotonic()
    report = search.run_recipe(pentagon_graph, d=2, k=0)
    elapsed = time.monotonic() - start
    assert report.vertices == 16
    assert report.edges == 60
    assert report.cliques_found == 6
    assert report.clique_size == 5
    assert (report.n, report.dimension, report.d_bound) == (5, 6, 2)
    assert report.d_bound_exact
    assert elapsed < 5.0
    problems, _ = cws_mismatches(pentagon_graph, 2)
    assert not problems, "; ".join(problems)


def test_criterion_2_nine_cycle_reproduction(
    nine_cycle_graph, nine_cycle_constraints, nine_cycle_tset
):
    start = time.monotonic()
    report = search.run_recipe(nine_cycle_graph, d=3, k=0, restriction=nine_cycle_constraints)
    elapsed = time.monotonic() - start

    problems, cliques = cws_mismatches(nine_cycle_graph, 3, nine_cycle_constraints)
    codes = {c | {0} for c in cliques}
    printed = frozenset(cws_reference.to_mask(v) for v in nine_cycle_tset.vectors.tolist())

    counts = (report.vertices, report.edges, report.cliques_found)
    if counts != (39, 450, 6):
        problems.append(
            f"(candidates, edges, maximum cliques): expected (39, 450, 6), got {counts}; "
            "the errors of weight <= 2 have 243 distinct CWS images b + A a, 24 of them in pi, "
            "so pi keeps 63 - 24 = 39 candidates"
        )
    if report.clique_size != 11:
        problems.append(f"clique size: expected 11, got {report.clique_size}")
    if printed not in codes:
        problems.append("published coding set is not among the maximum cliques")
    # the CWS condition depends only on differences t - u, and pi is a
    # subspace, so translating a code by one of its own words gives a code
    if any(frozenset(a ^ t for a in code) not in codes for code in codes for t in code):
        problems.append("the maximum-clique codes are not closed under translation by their own words")
    if (report.n, report.dimension, report.d_bound) != (9, 12, 3):
        problems.append(f"report: expected ((9,12,3)), got (({report.n},{report.dimension},{report.d_bound}))")
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10 minutes")
    assert not problems, "; ".join(problems)


def test_nine_cycle_unrestricted_recipe(nine_cycle_graph, data_dir, capsys):
    # without the restriction to pi, Γ has 268 vertices and 17 508 edges;
    # its 18 maximum cliques of size 11 each give a ((9,12,3)) code, found
    # in 2 029 search nodes when the root branches once per orbit of the
    # 25 that the cycle's dihedral symmetry leaves (10 301 without it)
    from qsol.cli import EXIT_OK, main

    code = main(["recipe", "--graph", str(data_dir / "nine_cycle.graph"), "--d", "3", "--format", "machine"])
    assert code == EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    keys = ("vertices", "edges", "cliques_found", "T_size", "count.clique_nodes", "count.gamma_orbits")
    assert tuple(int(out[key]) for key in keys) == (268, 17508, 18, 12, 2029, 25)
    assert (out["n"], out["K"], out["d_bound"]) == ("9", "12", "3")

    problems, cliques = cws_mismatches(nine_cycle_graph, 3)
    assert not problems, "; ".join(problems)
    assert len(cliques) == 18 and {len(c) for c in cliques} == {11}


def test_twelve_cycle_unrestricted_at_d4():
    # Γ of the 12-cycle at d = 4 has 1 523 vertices and 211 maximum cliques
    # of size 15; without the symmetric root their search took 84 962 nodes.
    # d(X) = 3 caps the certified bound at 3, and the oracle agrees: the
    # code detects every error of weight 2 but not every one of weight 3
    report = search.run_recipe(search.LabelledGraph.cycle(PrimeModulus(2), 12), d=4)
    counts = (report.vertices, report.cliques_found, report.clique_size, report.clique_nodes, report.gamma_orbits)
    assert counts == (1523, 211, 15, 7245, 88)
    assert (report.dimension, report.d_bound, report.d_bound_exact) == (16, 3, True)
    assert report.warnings == ("additive code has distance 3 < d; pairs with the zero vector are certified to 3 only",)
    basis = code_basis(report.group, report.coding_set.vectors)
    assert kl_detect(basis, 2, error_classes(2, 12, 2)).passed
    assert not kl_detect(basis, 2, error_classes(2, 12, 3)).passed


def test_criterion_3_ternary_example(ternary_lines, ternary_tset):
    start = time.monotonic()
    pairs_checked = 0
    for a, b in itertools.combinations([v for v in ternary_tset.vectors.tolist() if any(v)], 2):
        if fields.rank_of_vectors(3, [a, b]) < 2:
            continue
        projected = lines_mod.project_lines(ternary_lines, [a, b])
        assert lines_mod.min_dependent_set(projected, 2) == AtLeast(3)
        pairs_checked += 1
    assert pairs_checked == 24
    assert search.is_subspace_t(ternary_tset)
    assert search.singleton_max_k(11, 3) == 7
    # [[11, 6, 3]]_3: |T| * p^k = 9 * 3^4 = 3^6
    assert len(ternary_tset.vectors) * 3 ** 4 == 3 ** 6
    assert time.monotonic() - start < 60.0


def test_criterion_4_oracle_562(five_qubit_group, pentagon_tset, mod2):
    start = time.monotonic()
    b = code_basis(five_qubit_group, pentagon_tset.vectors)
    # tr(B^dag B) is the trace of the code projector B B^dag
    trace = np.trace(b.conj().T @ b)
    assert b.shape == (32, 6)
    assert abs(trace.real - 6) <= 1e-9
    assert abs(trace.imag) <= 1e-9
    errs = error_classes(2, 5, 1)
    assert len(errs) == 15
    report = kl_detect(b, 2, errs)
    assert report.passed
    assert report.max_residual <= 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_5_oracle_9123(nine_cycle_graph, nine_cycle_tset, mod2):
    start = time.monotonic()
    group = search.graph_to_generators(nine_cycle_graph)
    b = code_basis(group, nine_cycle_tset.vectors)
    assert b.shape == (512, 12)
    assert abs(np.trace(b.conj().T @ b).real - 12) <= 1e-9
    errs = error_classes(2, 9, 2)
    assert len(errs) == 27 + 324
    report = kl_detect(b, 2, errs)
    assert report.passed
    assert report.max_residual <= 1e-9
    assert time.monotonic() - start < 300.0


def test_criterion_6_non_subspace_coding_set_is_stabiliser(five_qubit_ops, mod2):
    # Q(S, {e1, e2}) coincides with the stabiliser code of
    # <-M1.M2, M3, M4, M5> even though {e1, e2} is not a subspace
    s = group_of(five_qubit_ops)
    t_set = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    left = code_basis(s, t_set)

    m1m2 = multiply(five_qubit_ops[0], five_qubit_ops[1])
    minus_m1m2 = PauliOperator(mod2, 5, m1m2.phase + 2, m1m2.x_part, m1m2.z_part)
    s_prime = group_of([minus_m1m2] + list(five_qubit_ops[2:]))
    right = code_basis(s_prime, [(0, 0, 0, 0)])

    assert subspace_equal(left, right, tolerance=1e-8)


def test_criterion_7_primed_generator_identity(five_qubit_ops, five_qubit_primed_ops):
    for i in range(5):
        prod = multiply(
            multiply(five_qubit_primed_ops[i], five_qubit_primed_ops[(i + 1) % 5]),
            five_qubit_primed_ops[(i + 3) % 5],
        )
        assert xz(prod) == xz(five_qubit_ops[i])


# ----------------------------------------------------------------------------
# criterion 8: randomized property suites, >= 200 cases each
# ----------------------------------------------------------------------------


def test_property_symplectic_form_antisymmetry():
    # the per-pair reference form is alternating, and forms_vanish on the
    # pair of rows (u, v) holds exactly when it is zero
    rng = random.Random(9001)
    for case in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 7)
        u, v = (tuple(rng.randrange(p) for _ in range(2 * n)) for _ in range(2))
        assert symplectic_form(p, u, v) == (-symplectic_form(p, v, u)) % p
        assert symplectic_form(p, u, u) == 0
        pair = np.array([u, v])
        assert forms_vanish(p, pair[:, :n], pair[:, n:]) == (symplectic_form(p, u, v) == 0)


def test_property_abelian_iff_forms_vanish_iff_dense_commuting():
    rng = random.Random(9003)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(1, 3)
        ops = [
            PauliOperator(
                mod, n, 0,
                tuple(rng.randrange(p) for _ in range(n)),
                tuple(rng.randrange(p) for _ in range(n)),
            )
            for _ in range(rng.randrange(2, 4))
        ]
        forms_zero = all(
            symplectic_form(p, xz(a), xz(b)) == 0 for a, b in itertools.combinations(ops, 2)
        )
        dense = [dense_reference.pauli_matrix(p, (m.phase, m.x_part, m.z_part)) for m in ops]
        commuting = all(
            np.allclose(a @ b, b @ a, atol=1e-12) for a, b in itertools.combinations(dense, 2)
        )
        _, x, z = split_rows(pauli_rows(ops))
        assert forms_vanish(p, x, z) == forms_zero == commuting


def test_property_even_skew_iff_rows_commute(mod2):
    rng = random.Random(9004)
    cases = 0
    while cases < 200:
        n = rng.randrange(3, 6)
        m = rng.randrange(2, n)
        rows = []
        while len(rows) < m:
            cand = tuple(rng.randrange(2) for _ in range(2 * n))
            if fields.rank_of_vectors(2, rows + [cand]) == len(rows) + 1:
                rows.append(cand)
        g = fields.tagged(2, np.array(rows))
        try:
            x = lines_mod.lines_from_matrix(g, n, n - m)
        except DegenerateLine:
            continue
        abelian = all(symplectic_form(2, u, v) == 0 for u, v in itertools.combinations(rows, 2))
        assert lines_mod.validate_even_skew(x) == abelian
        cases += 1


def test_property_min_dependent_set_is_kernel_min_weight():
    rng = random.Random(9005)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(3, 5) if p == 3 else rng.randrange(3, 6)
        # short generator columns rarely give independent pairs; keep m close
        # to n so line-compatible groups stay easy to sample
        m = rng.randrange(max(2, n - 2), n)
        if p == 2 and m == 2 and n % 2 == 1:
            # with two binary generators the symplectic form is the sum of the
            # per-site column determinants, so an odd number of sites cannot
            # all carry non-degenerate lines
            m = 3
        _, x = random_group_with_lines(rng, mod, n, m)
        g = lines_mod.matrix_from_lines(x)
        ker = null_space(p, g, 2 * n)
        min_wt = min(weight(v) for v in row_space_vectors(p, ker, 2 * n) if any(v))
        assert lines_mod.min_dependent_set(x, n) == min_wt


def test_property_subgroup_tu_completion_independence():
    rng = random.Random(9006)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(3, 6)
        m = rng.randrange(3, n + 1)
        s = random_group(rng, mod, n, m)
        while True:
            t = FpVector(mod, tuple(rng.randrange(p) for _ in range(m)))
            u = FpVector(mod, tuple(rng.randrange(p) for _ in range(m)))
            if fields.rank_of_vectors(p, [t.entries, u.entries]) == 2:
                break
        base = group_elements(subgroup_tu(s, t, u))
        assert group_elements(subgroup_tu(s, u, t)) == base
        c = rng.randrange(1, p) if p > 2 else 1
        u_plus_ct = FpVector(mod, [a + c * b for a, b in zip(u.entries, t.entries)])
        assert group_elements(subgroup_tu(s, t, u_plus_ct)) == base


def test_property_project_lines_matches_subgroup_lines():
    rng = random.Random(9007)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(3, 6)
        m = rng.randrange(3, n + 1)
        s, x = random_group_with_lines(rng, mod, n, m)
        while True:
            t = FpVector(mod, tuple(rng.randrange(p) for _ in range(m)))
            u = FpVector(mod, tuple(rng.randrange(p) for _ in range(m)))
            if fields.rank_of_vectors(p, [t.entries, u.entries]) == 2:
                break
        sub = subgroup_tu(s, t, u)
        try:
            projected = lines_mod.project_lines(x, [t.entries, u.entries])
        except CollapsedImage:
            with pytest.raises(DegenerateLine):
                lines_mod.lines_from_matrix(sub.gmatrix, n, n - m + 2)
            continue
        assert lines_mod.lines_from_matrix(sub.gmatrix, n, n - m + 2) == projected


def test_property_extension_reaches_self_dual():
    rng = random.Random(9008)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(2, 5) if p == 3 else rng.randrange(2, 6)
        m = rng.randrange(1, n)
        s = random_group(rng, mod, n, m)
        big = extend_to_maximal_abelian(s)
        assert big.num_generators == n
        for row in s.gmatrix:
            assert in_row_space(p, big.gmatrix, row)
        assert np.array_equal(centraliser_basis(big), rref(p, big.gmatrix, 2 * n))


def test_property_subspace_coding_set_is_stabiliser_code():
    # a subspace T of dimension r <= 2 always yields Q(S, T) = Q(S') for the
    # subgroup S' of elements acting trivially on every component of T
    rng = random.Random(9009)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(2, 5) if p == 3 else rng.randrange(2, 6)
        m = rng.randrange(1, n + 1)
        s = random_group(rng, mod, n, m)
        r = rng.randrange(0, min(2, m) + 1)
        basis_rows = []
        while len(basis_rows) < r:
            cand = tuple(rng.randrange(p) for _ in range(m))
            if fields.rank_of_vectors(p, basis_rows + [cand]) == len(basis_rows) + 1:
                basis_rows.append(cand)
        if basis_rows:
            t_vectors = row_space_vectors(p, basis_rows, m)
        else:
            t_vectors = [(0,) * m]
        left = code_basis(s, t_vectors)

        if r:
            gens = s.elements(null_space(p, basis_rows, m))
            if len(gens):
                sub = StabiliserGroup(mod, n, gens)
                right = code_basis(sub, [(0,) * sub.num_generators])
            else:
                right = np.eye(p ** n, dtype=complex)
        else:
            right = code_basis(s, [(0,) * m])
        assert subspace_equal(left, right, tolerance=1e-8)


def rank_rule_compatible(p, u, v, incident, d):
    """The rank form of the Γ edge rule, kept as an independent reference.

    u ~ v iff u, v and any d-1 or fewer incident points are independent.
    For d <= 3 any one or two distinct incident points are independent, so
    this holds exactly when the line uv misses X_{d-1}.
    """
    if fields.rank_of_vectors(p, [u, v]) != 2:
        return False
    for size in range(1, d):
        for subset in itertools.combinations(incident, size):
            if fields.rank_of_vectors(p, (u, v) + subset) != 2 + size:
                return False
    return True


def random_graph_lines(rng, modulus, n):
    """The line set of a random F_p-labelled graph on n vertices with no isolated vertex."""
    p = modulus.p
    while True:
        edges = [(i, j, rng.randrange(1, p)) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        try:
            group = search.graph_to_generators(search.LabelledGraph.from_edges(modulus, n, edges))
        except IsolatedVertex:
            continue
        return lines_mod.lines_from_matrix(group.gmatrix, n, 0)


def test_property_gamma_graph_matches_rank_rule():
    # ranges of n: at d = 3 they start where Γ first has edges, and p = 5
    # stays small to bound the run time of the rank rule
    sizes = {(2, 2): (3, 6), (2, 3): (6, 7), (3, 2): (3, 5), (3, 3): (5, 6), (5, 2): (3, 4), (5, 3): (4, 4)}
    rng = random.Random(9010)
    edges_seen = {2: 0, 3: 0}
    for case in range(200):
        p = rng.choice([2, 3, 5])
        mod = PrimeModulus(p)
        d = rng.choice([2, 3])
        n = rng.randint(*sizes[p, d])
        x = random_graph_lines(rng, mod, n)
        # edges are rare at d = 3, so the ends of up to two edges of Γ on a
        # sample of candidates go in first; random candidates follow, each
        # once and in no order, and the two rules must agree on every pair
        excluded = search.excluded_points(x, d)
        candidates = search.candidate_vertices(x, excluded).tolist()
        pool = search.gamma_graph(x, rng.sample(candidates, min(30, len(candidates))), excluded)
        verts = [pool.vertices[i] for e in rng.sample(sorted(edges(pool)), min(2, pool.num_edges)) for i in e]
        verts += rng.sample(candidates, min(8, len(candidates)))
        verts = list(dict.fromkeys(verts))[:8]
        gamma = search.gamma_graph(x, verts, excluded)
        pts, incident_coords = vectors(p, n, gamma.vertices), incident(x)
        expected = {
            (a, b)
            for a, b in itertools.combinations(range(gamma.num_vertices), 2)
            if rank_rule_compatible(p, pts[a], pts[b], incident_coords, d)
        }
        assert edges(gamma) == expected, f"case {case}: p={p} d={d} n={n}"
        edges_seen[d] += len(expected)
    assert all(edges_seen.values()), f"edges compared: {edges_seen}"


def projection_rule_bound(x, t, limit):
    """The distance bound by projection: min_dependent_set of x projected from every non-proportional pair.

    Each search gives an exact value up to limit or AtLeast(limit + 1), so
    the bound is the least exact value, else AtLeast(limit + 1).
    """
    exact = []
    for a, b in itertools.combinations([v for v in t.vectors.tolist() if any(v)], 2):
        if fields.rank_of_vectors(t.p, [a, b]) < 2:
            continue
        result = lines_mod.min_dependent_set(lines_mod.project_lines(x, [a, b]), limit)
        if not isinstance(result, AtLeast):
            exact.append(result)
    return min(exact, default=AtLeast(limit + 1))


def bound_outcome(bound, x, t, limit):
    try:
        result = bound(x, t, limit)
    except CollapsedImage:
        return "collapsed"
    return type(result).__name__, result


def test_property_distance_bound_matches_projection_rule():
    # the bound read off the weight map against projection from every pair,
    # on random graphs, random groups with k > 0, labelled cycles and
    # cycles with a leaf. The cycles have d(X) = 3, so a weight-2 point on a
    # coding line decides the bound at limit 2, one layer past the map. The
    # leaf gives d(X) = 2, which decides the bound when the coding lines
    # miss X_2. Coding points are pairwise compatible at d = 2 or 3, or
    # random; random ones often span a line through an incident point,
    # which must collapse on both sides. Every nonzero coding point comes
    # with some of its multiples.
    rng = random.Random(9012)
    sizes = {2: (3, 7), 3: (3, 5), 5: (3, 4)}
    seen = collections.Counter()
    for case in range(240):
        p = rng.choice([2, 3, 5])
        mod = PrimeModulus(p)
        n = rng.randint(*sizes[p])
        limit = rng.randint(1, 4)
        kind = rng.choice(["graph", "group", "cycle", "leaf"])
        if kind == "graph":
            x = random_graph_lines(rng, mod, n)
        elif kind == "group":
            _, x = random_group_with_lines(rng, mod, n, rng.randint(max(3, n - 2), n))
        else:
            n = max(n, 4 if p > 2 else 5) if kind == "cycle" else {2: 9, 3: 6, 5: 5}[p]
            ring = n if kind == "cycle" else n - 1
            edges = [(i, (i + 1) % ring, rng.randrange(1, p)) for i in range(ring)]
            if kind == "leaf":
                edges.append((0, ring, rng.randrange(1, p)))
            group = search.graph_to_generators(search.LabelledGraph.from_edges(mod, n, edges))
            x = lines_mod.lines_from_matrix(group.gmatrix, n, 0)
        dim = x.dim
        size = rng.randint(1, 4)
        compatible_at = {"cycle": 2, "leaf": 3}.get(kind) or rng.choice([2, 3, None])
        if compatible_at:
            # no line through two of them meets X_{d-1}, so none collapses
            excluded = search.excluded_points(x, compatible_at)
            candidates = search.candidate_vertices(x, excluded).tolist()
            chosen = []
            for v in rng.sample(candidates, len(candidates)):
                if len(chosen) == size:
                    break
                if search.gamma_graph(x, chosen + [v], excluded).num_edges == len(chosen) * (len(chosen) + 1) // 2:
                    chosen.append(v)
            points = vectors(p, dim, chosen)
        else:
            points = [q for q in (tuple(rng.randrange(p) for _ in range(dim)) for _ in range(size)) if any(q)]
        members = {(0,) * dim}
        for q in points:
            for c in rng.sample(range(1, p), rng.randint(1, p - 1)):
                members.add(tuple(c * e % p for e in q))
        t = search.CodingSet(mod, sorted(members))
        expected = bound_outcome(projection_rule_bound, x, t, limit)
        assert bound_outcome(search.distance_bound, x, t, limit) == expected, f"case {case}: p={p} n={n} limit={limit}"
        if expected == "collapsed":
            seen["collapsed"] += 1
        elif expected[0] == "AtLeast":
            seen["at least"] += 1
        elif expected[1] == limit and isinstance(lines_mod.min_dependent_set(x, limit), AtLeast):
            seen["last layer"] += 1
        elif compatible_at == 3 and expected[1] == 2 and len(points) > 1:
            # the coding lines miss X_2, so d(X) = 2 decides
            seen["d(X)"] += 1
        else:
            seen["exact"] += 1
        seen["proportional"] += len(members) - 1 > len(points)
    assert len(seen) == 6 and min(seen.values()) >= 5, f"outcomes seen: {dict(seen)}"


def test_property_code_basis_matches_dense_reference():
    # the oracle's code basis B against dense projectors built from Kronecker
    # products in tests/dense_reference.py: B B^dag equals the reference
    # projector, and the alphas, residuals and pass/fail of the
    # error-detection check agree, on codes that pass and codes that fail
    rng = random.Random(9011)
    outcomes = {True: 0, False: 0}
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(1, 5)
        m = rng.randrange(1, n + 1)
        phases = [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in range(m)]
        s = StabiliserGroup.from_matrix(mod, n, random_symplectic_rows(rng, mod, n, m), phases)
        t_entries = rng.sample(list(itertools.product(range(p), repeat=m)), min(rng.randrange(1, 4), p ** m))
        errs = error_classes(p, n, 1 if p ** n > 27 else min(2, n))

        b = code_basis(s, t_entries)
        report = kl_detect(b, p, errs)
        proj = dense_reference.code_projector(p, row_triples(s.rows), t_entries)
        reference = dense_reference.kl(p, proj, row_triples(errs))

        label = f"case {case}: p={p} n={n} m={m} T={t_entries}"
        assert b.shape == (p ** n, len(t_entries) * p ** (n - m)), label
        assert np.allclose(b @ b.conj().T, proj, atol=1e-10), label
        assert abs(report.max_residual - max(r for _, r in reference)) <= 1e-10, label
        for i, (alpha, _) in enumerate(reference):
            assert abs(report.alphas[i] - alpha) <= 1e-10, label
        failing = [i for i, (_, r) in enumerate(reference) if r > 1e-9]
        assert report.failures.tolist() == failing, label
        for i in report.failures:
            assert abs(report.residuals[i] - reference[i][1]) <= 1e-10, label
        assert report.passed == (not failing), label
        outcomes[report.passed] += 1
    assert all(outcomes.values()), f"passing and failing codes seen: {outcomes}"
