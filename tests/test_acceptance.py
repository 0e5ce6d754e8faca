"""Acceptance gate: the eight headline checks, at their stated tolerances.

Criteria 1-7 pin the worked examples; criterion 8 is a set of randomized
property suites (>= 200 cases each) tying the symbolic layer to dense-matrix
ground truth.
"""

import itertools
import random
import time

import numpy as np
import pytest

from qsol import fields, geometry, lines as lines_mod, oracle, pauli, search
from qsol.errors import CollapsedImage, DegenerateLine, IsolatedVertex
from qsol.fields import FpMatrix, FpVector, PrimeModulus, in_row_space, kernel_basis, row_space
from qsol.geometry import ProjPoint
from qsol.lines import AtLeast
from qsol.oracle import code_basis, component_basis, error_classes, kl_detect, subspace_equal
from qsol.pauli import (
    PauliOperator,
    StabiliserGroup,
    SymplecticVector,
    centraliser_basis,
    extend_to_maximal_abelian,
    is_abelian,
    multiply,
    subgroup_tu,
    symplectic_form,
    tau,
    tau_inv,
    weight,
)

import cws_reference
import dense_reference
from conftest import group_elements, random_group, random_group_with_lines, random_symplectic_rows


def cws_mismatches(graph, d, restriction=None, constraints=()):
    """Where the program's candidates, edges and maximum cliques differ from the CWS reference.

    Returns the problems found and the program's maximum cliques as
    frozensets of bitmasks.
    """
    x = lines_mod.lines_from_matrix(search.graph_to_generators(graph).gmatrix, graph.n, 0)
    excluded = search.excluded_points(x, d)
    gamma = search.gamma_graph(x, search.candidate_vertices(x, excluded, restriction), excluded)
    masks = [cws_reference.to_mask(v.coords) for v in gamma.vertices]
    vertices = set(masks)
    edges = {frozenset((masks[i], masks[j])) for i, j in gamma.edges}
    cliques = {frozenset(masks[i] for i in c) for c in search.find_cliques(gamma)}

    images = cws_reference.error_images(graph.adjacency.rows, d - 1)
    ref_vertices = cws_reference.candidates(images, graph.n, constraints)
    ref_edges = cws_reference.edges(images, ref_vertices)
    ref_cliques = set(cws_reference.maximum_cliques(ref_vertices, ref_edges))

    problems = []
    if vertices != set(ref_vertices):
        problems.append(f"candidate set differs from the CWS reference in {sorted(vertices ^ set(ref_vertices))}")
    if edges != ref_edges:
        problems.append(f"edge set differs from the CWS reference in {len(edges ^ ref_edges)} pairs")
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
    nine_cycle_graph, nine_cycle_constraints, nine_cycle_restriction, nine_cycle_tset
):
    start = time.monotonic()
    report = search.run_recipe(nine_cycle_graph, d=3, k=0, restriction=nine_cycle_restriction)
    elapsed = time.monotonic() - start

    problems, cliques = cws_mismatches(nine_cycle_graph, 3, nine_cycle_restriction, nine_cycle_constraints.rows)
    codes = {c | {0} for c in cliques}
    printed = frozenset(cws_reference.to_mask(v.entries) for v in nine_cycle_tset.vectors)

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


def test_criterion_3_ternary_example(ternary_lines, ternary_tset):
    start = time.monotonic()
    pairs_checked = 0
    for a, b in itertools.combinations(ternary_tset.nonzero(), 2):
        if fields.rank_of_vectors(3, [a.entries, b.entries]) < 2:
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
    b = code_basis(five_qubit_group, pentagon_tset)
    # tr(B^dag B) is the trace of the code projector B B^dag
    trace = np.trace(b.conj().T @ b)
    assert b.shape == (32, 6)
    assert abs(trace.real - 6) <= 1e-9
    assert abs(trace.imag) <= 1e-9
    errs = error_classes(mod2, 5, 1)
    assert len(errs) == 15
    report = kl_detect(b, errs, tolerance=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_5_oracle_9123(nine_cycle_graph, nine_cycle_tset, mod2):
    start = time.monotonic()
    group = search.graph_to_generators(nine_cycle_graph)
    b = code_basis(group, nine_cycle_tset)
    assert b.shape == (512, 12)
    assert abs(np.trace(b.conj().T @ b).real - 12) <= 1e-9
    errs = error_classes(mod2, 9, 2)
    assert len(errs) == 27 + 324
    report = kl_detect(b, errs, tolerance=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-9
    assert time.monotonic() - start < 300.0


def test_criterion_6_non_subspace_coding_set_is_stabiliser(five_qubit_ops, mod2):
    # Q(S, {e1, e2}) coincides with the stabiliser code of
    # <-M1.M2, M3, M4, M5> even though {e1, e2} is not a subspace
    s = StabiliserGroup.from_generators(five_qubit_ops)
    t_set = [FpVector(mod2, (1, 0, 0, 0, 0)), FpVector(mod2, (0, 1, 0, 0, 0))]
    left = code_basis(s, t_set)

    m1m2 = multiply(five_qubit_ops[0], five_qubit_ops[1])
    minus_m1m2 = PauliOperator(mod2, 5, m1m2.phase + 2, m1m2.x_part, m1m2.z_part)
    s_prime = StabiliserGroup.from_generators([minus_m1m2] + list(five_qubit_ops[2:]))
    right = component_basis(s_prime, (0, 0, 0, 0))

    assert subspace_equal(left, right, tolerance=1e-8)


def test_criterion_7_primed_generator_identity(five_qubit_ops, five_qubit_primed_ops):
    for i in range(5):
        prod = multiply(
            multiply(five_qubit_primed_ops[i], five_qubit_primed_ops[(i + 1) % 5]),
            five_qubit_primed_ops[(i + 3) % 5],
        )
        assert tau(prod) == tau(five_qubit_ops[i])


# ----------------------------------------------------------------------------
# criterion 8: randomized property suites, >= 200 cases each
# ----------------------------------------------------------------------------


def random_symplectic_vector(rng, modulus, n):
    return SymplecticVector(modulus, n, tuple(rng.randrange(modulus.p) for _ in range(2 * n)))


def test_property_symplectic_form_antisymmetry():
    rng = random.Random(9001)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(1, 7)
        u = random_symplectic_vector(rng, mod, n)
        v = random_symplectic_vector(rng, mod, n)
        assert symplectic_form(u, v) == (-symplectic_form(v, u)) % p
        assert symplectic_form(u, u) == 0


def test_property_tau_round_trip():
    rng = random.Random(9002)
    for case in range(200):
        p = rng.choice([2, 3])
        mod = PrimeModulus(p)
        n = rng.randrange(1, 7)
        v = random_symplectic_vector(rng, mod, n)
        assert tau(tau_inv(v)) == v
        m = PauliOperator(
            mod, n,
            rng.randrange(4 if p == 2 else p),
            tuple(rng.randrange(p) for _ in range(n)),
            tuple(rng.randrange(p) for _ in range(n)),
        )
        assert tau_inv(tau(m)) == PauliOperator(mod, n, 0, m.x_part, m.z_part)


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
            symplectic_form(tau(a), tau(b)) == 0 for a, b in itertools.combinations(ops, 2)
        )
        dense = [oracle.pauli_dense(m) for m in ops]
        commuting = all(
            np.allclose(a @ b, b @ a, atol=1e-12) for a, b in itertools.combinations(dense, 2)
        )
        assert is_abelian(ops) == forms_zero == commuting


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
        g = FpMatrix.from_rows(mod2, rows, 2 * n)
        try:
            x = lines_mod.lines_from_matrix(g, n, n - m)
        except DegenerateLine:
            continue
        vs = [SymplecticVector(mod2, n, r) for r in rows]
        abelian = all(symplectic_form(u, v) == 0 for u, v in itertools.combinations(vs, 2))
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
        ker = kernel_basis(g)
        min_wt = min(
            weight(SymplecticVector(mod, n, v.entries))
            for v in fields.row_space_vectors(ker)
            if not v.is_zero()
        )
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
        assert group_elements(subgroup_tu(s, t, u + t.scale(c))) == base


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
            projected = lines_mod.project_lines(x, [t, u])
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
        for row in s.gmatrix.rows:
            assert in_row_space(big.gmatrix, FpVector(mod, row))
        assert row_space(centraliser_basis(big)) == row_space(big.gmatrix)


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
            t_vectors = fields.row_space_vectors(FpMatrix.from_rows(mod, basis_rows, m))
        else:
            t_vectors = [FpVector(mod, (0,) * m)]
        left = code_basis(s, t_vectors)

        if r:
            annihilator = kernel_basis(FpMatrix.from_rows(mod, basis_rows, m))
            gens = [s.element(row) for row in annihilator.rows]
            if gens:
                sub = StabiliserGroup.from_generators(gens)
                right = component_basis(sub, (0,) * sub.num_generators)
            else:
                right = np.eye(p ** n, dtype=complex)
        else:
            right = component_basis(s, (0,) * m)
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
        incident = lines_mod.incident_points(x)
        # edges are rare at d = 3, so the ends of up to two edges of Γ on a
        # sample of candidates go in first; random candidates, an incident
        # point and random points follow, and the two rules must agree on
        # every pair of the list
        excluded = search.excluded_points(x, d)
        candidates = search.candidate_vertices(x, excluded)
        pool = search.gamma_graph(x, rng.sample(candidates, min(30, len(candidates))), excluded)
        verts = [pool.vertices[i] for e in rng.sample(sorted(pool.edges), min(2, pool.num_edges)) for i in e]
        verts += rng.sample(candidates, min(2, len(candidates))) + rng.sample(incident, 1)
        while len(verts) < 8:
            coords = tuple(rng.randrange(p) for _ in range(n))
            if any(coords):
                verts.append(ProjPoint(mod, coords))
        gamma = search.gamma_graph(x, verts, excluded)
        incident_coords = [pt.coords for pt in incident]
        expected = {
            (a, b)
            for a, b in itertools.combinations(range(gamma.num_vertices), 2)
            if rank_rule_compatible(p, gamma.vertices[a].coords, gamma.vertices[b].coords, incident_coords, d)
        }
        assert set(gamma.edges) == expected, f"case {case}: p={p} d={d} n={n}"
        edges_seen[d] += len(expected)
    assert all(edges_seen.values()), f"edges compared: {edges_seen}"


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
        t_set = [FpVector(mod, t) for t in t_entries]
        errs = error_classes(mod, n, 1 if p ** n > 27 else min(2, n))

        b = code_basis(s, t_set)
        report = kl_detect(b, errs)
        gens = [(g.phase, g.x_part, g.z_part) for g in s.generators]
        proj = dense_reference.code_projector(p, gens, t_entries)
        reference = dict(zip(
            [(e.x_part, e.z_part) for e in errs],
            dense_reference.kl(p, proj, [(e.phase, e.x_part, e.z_part) for e in errs]),
        ))

        label = f"case {case}: p={p} n={n} m={m} T={t_entries}"
        assert b.shape == (p ** n, len(t_set) * p ** (n - m)), label
        assert np.allclose(b @ b.conj().T, proj, atol=1e-10), label
        assert abs(report.max_residual - max(r for _, r in reference.values())) <= 1e-10, label
        for key, (alpha, _) in reference.items():
            assert abs(report.alphas[key] - alpha) <= 1e-10, label
        failing = {key for key, (_, r) in reference.items() if r > 1e-9}
        assert {key for key, _ in report.failures} == failing, label
        for key, residual in report.failures:
            assert abs(residual - reference[key][1]) <= 1e-10, label
        assert report.passed == (not failing), label
        outcomes[report.passed] += 1
    assert all(outcomes.values()), f"passing and failing codes seen: {outcomes}"
