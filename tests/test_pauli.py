"""Pauli operators, phases, the symplectic form, and stabiliser groups held as (phase | x | z) rows.

Phase bookkeeping is checked against the Kronecker-product matrices of
tests/dense_reference.py, which need nothing from qsol.
"""

import itertools
import random

import numpy as np
import pytest

import dense_reference
from qsol import pauli
from qsol.errors import DependentCentre, InvalidGroup, NonCommutingGenerators
from qsol.fields import FpVector, PrimeModulus, null_space, rref
from qsol.pauli import (
    PauliOperator,
    StabiliserGroup,
    centraliser_basis,
    extend_to_maximal_abelian,
    forms_vanish,
    multiply,
    split_rows,
    subgroup_fixing,
    subgroup_tu,
)

from conftest import (
    from_letters,
    generators,
    group_elements,
    group_of,
    identity,
    in_row_space,
    letters,
    pauli_rows,
    random_group,
    rank,
    reference_extend,
    reference_power,
    reference_rows,
    symplectic_form,
    xz,
)


def dense(op):
    """The operator's matrix as a Kronecker product."""
    return dense_reference.pauli_matrix(op.p, (op.phase, op.x_part, op.z_part))


def random_op(rng, modulus, n):
    return PauliOperator(
        modulus,
        n,
        rng.randrange(4 if modulus.p == 2 else modulus.p),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
    )


class TestLetters:
    def test_round_trip(self):
        m = from_letters("XZIYZ")
        assert letters(m) == "XZIYZ"
        assert m.x_part == (1, 0, 0, 1, 0)
        assert m.z_part == (0, 1, 0, 1, 1)

    def test_single_qubit_matrices(self):
        x = dense(from_letters("X"))
        z = dense(from_letters("Z"))
        y = dense(from_letters("Y"))
        assert np.allclose(x, [[0, 1], [1, 0]])
        assert np.allclose(z, [[1, 0], [0, -1]])
        assert np.allclose(y, [[0, -1j], [1j, 0]])

    def test_letters_only_for_qubits(self, mod3):
        m = PauliOperator(mod3, 1, 0, (1,), (0,))
        with pytest.raises(ValueError):
            letters(m)


class TestMultiply:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_dense_product(self, p):
        rng = random.Random(100 + p)
        mod = PrimeModulus(p)
        for _ in range(60):
            n = rng.randrange(1, 3)
            a, b = random_op(rng, mod, n), random_op(rng, mod, n)
            product = dense(a) @ dense(b)
            assert np.allclose(product, dense(multiply(a, b)), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_inverse_and_power(self, p):
        rng = random.Random(200 + p)
        mod = PrimeModulus(p)
        ident = identity(mod, 2)
        for _ in range(40):
            a = random_op(rng, mod, 2)
            # every operator's order divides the phase modulus, so its inverse is a power
            inv = reference_power(a, a.phase_modulus - 1)
            assert multiply(a, inv) == ident
            assert multiply(inv, a) == ident
            acc = ident
            for e in range(4):
                assert reference_power(a, e) == acc
                acc = multiply(acc, a)

    def test_negative_power_rejected(self, mod2):
        with pytest.raises(ValueError):
            reference_power(from_letters("X"), -1)

    def test_mismatched_systems_rejected(self, mod2, mod3):
        a = PauliOperator(mod2, 1, 0, (1,), (0,))
        b = PauliOperator(mod3, 1, 0, (1,), (0,))
        with pytest.raises(Exception):
            multiply(a, b)


class TestTauAndForm:
    def test_tau_discards_phase(self, mod2):
        # the generator matrix holds the symplectic images, without phases; the group keeps them
        a = StabiliserGroup(mod2, 2, [(2, 1, 0, 1, 1)])
        b = StabiliserGroup(mod2, 2, [(0, 1, 0, 1, 1)])
        assert np.array_equal(a.gmatrix, b.gmatrix)
        assert a != b

    @pytest.mark.parametrize("p", [2, 3])
    def test_commutation_bridge(self, p):
        # dense commutator vanishes exactly when the symplectic form is zero
        rng = random.Random(300 + p)
        mod = PrimeModulus(p)
        for _ in range(40):
            n = rng.randrange(1, 3)
            a, b = random_op(rng, mod, n), random_op(rng, mod, n)
            da, db = dense(a), dense(b)
            commute = np.allclose(da @ db, db @ da, atol=1e-12)
            assert commute == (symplectic_form(p, xz(a), xz(b)) == 0)

    def test_twisted_commutation_scalar(self, mod3):
        # E.M = omega^{(tau M, tau E)} M.E, verified entrywise on qutrits
        rng = random.Random(41)
        omega = np.exp(2j * np.pi / 3)
        for _ in range(40):
            n = rng.randrange(1, 3)
            e, m = random_op(rng, mod3, n), random_op(rng, mod3, n)
            de, dm = dense(e), dense(m)
            c = symplectic_form(3, xz(m), xz(e))
            assert np.allclose(de @ dm, omega ** c * (dm @ de), atol=1e-12)


class TestStabiliserGroup:
    def test_rejects_non_commuting(self, mod2):
        with pytest.raises(NonCommutingGenerators):
            group_of([from_letters("XI"), from_letters("ZI")])

    def test_rejects_rank_deficient(self, mod2):
        with pytest.raises(InvalidGroup):
            group_of([from_letters("XX"), from_letters("XX")])

    def test_rejects_minus_identity_via_odd_phase(self):
        with pytest.raises(InvalidGroup):
            group_of([from_letters("XX", phase=1)])

    def test_rejects_rank_deficient_odd_p(self, mod3):
        # g and g^2 commute but span one line of F_3^4
        g = PauliOperator(mod3, 2, 0, (1, 2), (0, 1))
        with pytest.raises(InvalidGroup):
            group_of([g, reference_power(g, 2)])

    @pytest.mark.parametrize("rows", [[(0, 1, 0, 1)], [(0, 1, 0, 1, 0, 0)], [0, 1, 0, 1, 0], [[(0, 1, 0, 1, 0)]]])
    def test_rejects_rows_of_wrong_width(self, mod2, rows):
        with pytest.raises(ValueError, match="rows of width 5"):
            StabiliserGroup(mod2, 2, rows)

    @pytest.mark.parametrize("p, row, reduced", [
        (2, (6, -1, 0, 1, 0), (2, 1, 0, 1, 0)),
        (3, (-1, -1, 4, 0, 5), (2, 2, 1, 0, 2)),
    ])
    def test_rows_are_reduced_and_read_only(self, p, row, reduced):
        s = StabiliserGroup(PrimeModulus(p), 2, [row])
        assert s.rows.dtype == np.int64 and s.rows.tolist() == [list(reduced)]
        with pytest.raises(ValueError):
            s.rows[0, 0] = 0

    def test_equality_and_hash_follow_the_rows(self, five_qubit_group):
        mod, rows = five_qubit_group.modulus, five_qubit_group.rows
        same = [StabiliserGroup(mod, 5, rows.tolist()), StabiliserGroup.from_matrix(mod, 5, five_qubit_group.gmatrix)]
        for s in same:
            assert s == five_qubit_group and hash(s) == hash(five_qubit_group)
        phased = rows.copy()
        phased[2, 0] = 2
        assert StabiliserGroup(mod, 5, phased) != five_qubit_group

    def test_no_generators(self, mod3):
        s = StabiliserGroup(mod3, 2, ())
        assert s.k == 2 and s.gmatrix.shape == (0, 4)
        assert s.rows.shape == (0, 5) and generators(s) == ()
        assert s.elements([()]).tolist() == [[0] * 5]
        assert s.elements([]).shape == (0, 5)

    def test_elements_of_no_exponent_rows(self, ternary_group, mod3):
        # as arrays: no generators with some rows, and no rows with or without generators
        s = StabiliserGroup(mod3, 2, ())
        assert s.elements(np.zeros((3, 0), dtype=np.int64)).tolist() == [[0] * 5] * 3
        assert s.elements(np.zeros((0, 0), dtype=np.int64)).shape == (0, 5)
        for empty in ([], np.zeros((0, 7), dtype=np.int64)):
            assert ternary_group.elements(empty).shape == (0, 23)

    def test_elements_read_arrays_and_rows_alike(self, ternary_group):
        rng = random.Random(77)
        exponents = [[rng.randrange(-3, 6) for _ in range(7)] for _ in range(10)]
        frozen = np.array(exponents, dtype=np.int64)
        frozen.setflags(write=False)
        expected = reference_rows(ternary_group, exponents)
        out = ternary_group.elements(frozen)
        assert np.array_equal(out, expected) and np.array_equal(ternary_group.elements(exponents), expected)
        # the output is a fresh array: writing to it leaves the group's rows and cached products alone
        out[:] = 0
        assert np.array_equal(ternary_group.elements(frozen), expected)

    @pytest.mark.parametrize(
        "bad",
        [[(1, 0)], [(0,) * 8], np.zeros(7, dtype=np.int64), np.zeros((2, 6), dtype=np.int64)],
        ids=["short-row", "long-row", "one-dimensional", "six-columns"],
    )
    def test_elements_need_one_exponent_per_generator(self, ternary_group, bad):
        with pytest.raises(ValueError):
            ternary_group.elements(bad)

    def test_element_exponents(self, five_qubit_ops):
        s = group_of(five_qubit_ops)
        prod = multiply(five_qubit_ops[1], five_qubit_ops[3])
        expected = pauli_rows([identity(s.modulus, 5), five_qubit_ops[0], prod])
        assert np.array_equal(s.elements([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 1, 0)]), expected)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_element_matches_reference_fold(self, p):
        # phased generators, exponents outside [0, p) and the zero vector
        rng = random.Random(700 + p)
        mod = PrimeModulus(p)
        for _ in range(20):
            n = rng.randrange(2, 5)
            base = random_group(rng, mod, n, rng.randrange(1, n + 1))
            # the first generator is always phased; an even phase keeps
            # -identity out of a qubit group
            phases = [2 if p == 2 else rng.randrange(1, p)]
            phases += [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in generators(base)[1:]]
            s = StabiliserGroup.from_matrix(mod, n, base.gmatrix, phases)
            zero = (0,) * s.num_generators
            assert s.elements([zero]).tolist() == reference_rows(s, [zero]).tolist() == [[0] * (2 * n + 1)]
            exponents = [[rng.randrange(-2 * p, 3 * p) for _ in range(s.num_generators)] for _ in range(25)]
            assert np.array_equal(s.elements(exponents), reference_rows(s, exponents))

    def test_gmatrix_rows_are_tau_images(self, ternary_group):
        # and the generators view holds the same rows as operators
        assert np.array_equal(pauli_rows(generators(ternary_group)), ternary_group.rows)
        assert np.array_equal(ternary_group.gmatrix, ternary_group.rows[:, 1:]) and not ternary_group.gmatrix.flags.writeable
        for g, row in zip(generators(ternary_group), ternary_group.gmatrix.tolist()):
            assert xz(g) == tuple(row)

    @pytest.mark.parametrize("phases", [[0], [0, 0, 0, 0]])
    def test_from_matrix_needs_one_phase_per_row(self, five_qubit_group, phases):
        # pairing rows with phases would drop whatever the shorter list lacks
        g = five_qubit_group.gmatrix[:3]
        with pytest.raises(ValueError, match=f"{len(phases)} phases for 3 rows"):
            StabiliserGroup.from_matrix(five_qubit_group.modulus, 5, g, phases)

    def test_k_property(self, ternary_group):
        assert ternary_group.n == 11
        assert ternary_group.num_generators == 7
        assert ternary_group.k == 4


def is_abelian(p, n, ops):
    """pauli.forms_vanish on the (phase | x | z) rows of a list of operators on n qupits."""
    _, x, z = split_rows(pauli_rows(ops).reshape(len(ops), 2 * n + 1))
    return forms_vanish(p, x, z)


class TestIsAbelian:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_pairwise_forms(self, p):
        # random lists, and generators of random groups with random operators appended
        rng = random.Random(800 + p)
        mod = PrimeModulus(p)
        seen = set()
        for _ in range(150):
            n = rng.randrange(1, 4)
            ops = [random_op(rng, mod, n) for _ in range(rng.randrange(0, 5))]
            if rng.random() < 0.5:
                ops = list(generators(random_group(rng, mod, n, rng.randrange(1, n + 1)))) + ops[:1]
            pairwise = all(symplectic_form(p, xz(a), xz(b)) == 0 for a, b in itertools.combinations(ops, 2))
            assert is_abelian(p, n, ops) == pairwise
            seen.add(pairwise)
        assert seen == {True, False}

    def test_small_cases(self):
        mod5 = PrimeModulus(5)
        x, z = PauliOperator(mod5, 1, 3, (1,), (0,)), PauliOperator(mod5, 1, 0, (0,), (4,))
        assert is_abelian(5, 1, [])
        assert is_abelian(5, 1, [x])
        assert is_abelian(5, 1, [x, reference_power(x, 3)])
        assert not is_abelian(5, 1, [x, z])
        assert not is_abelian(5, 1, [x, x, z])


class TestCentraliser:
    @pytest.mark.parametrize("p,n,m", [(2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_dual_rank_and_orthogonality(self, p, n, m):
        rng = random.Random(p * 100 + n)
        mod = PrimeModulus(p)
        for _ in range(10):
            s = random_group(rng, mod, n, m)
            dual = centraliser_basis(s)
            assert dual.shape == (2 * n - m, 2 * n) and not dual.flags.writeable
            for drow in dual.tolist():
                for grow in s.gmatrix.tolist():
                    assert symplectic_form(p, grow, drow) == 0

    def test_dual_contains_group_rows(self, five_qubit_group):
        dual = centraliser_basis(five_qubit_group)
        for row in five_qubit_group.gmatrix:
            assert in_row_space(2, dual, row)


def random_centre(rng, mod, m, r):
    """r independent vectors of F_p^m, and a list of them shuffled with zero vectors and combinations of them."""
    p = mod.p
    basis = []
    while len(basis) < r:
        cand = [rng.randrange(p) for _ in range(m)]
        if rank(p, basis + [cand], m) == len(basis) + 1:
            basis.append(cand)
    extra = [[0] * m for _ in range(rng.randrange(2))]
    for _ in range(rng.randrange(3)):
        coeffs = [rng.randrange(p) for _ in basis]
        extra.append([sum(c * v[i] for c, v in zip(coeffs, basis)) % p for i in range(m)])
    centre = basis + extra
    rng.shuffle(centre)
    return basis, centre


class TestSubgroupTu:
    def test_rejects_proportional_centre(self, five_qubit_group, mod2):
        t = FpVector(mod2, (1, 0, 0, 0, 0))
        with pytest.raises(DependentCentre):
            subgroup_tu(five_qubit_group, t, t)

    def test_rejects_dependent_centre_odd_p(self, ternary_group, mod3):
        t = FpVector(mod3, (1, 0, 2, 0, 0, 1, 0))
        zero = FpVector(mod3, (0,) * 7)
        for a, b in [(t, FpVector(mod3, [2 * e for e in t.entries])), (zero, t), (t, zero)]:
            with pytest.raises(DependentCentre):
                subgroup_tu(ternary_group, a, b)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_property_generators_are_reference_elements(self, p):
        # phased parents; centres of rank 1 to 3 listed with zero and dependent vectors
        rng = random.Random(900 + p)
        mod = PrimeModulus(p)
        for _ in range(25):
            n = rng.randrange(3, 6)
            m = rng.randrange(3, n + 1)
            base = random_group(rng, mod, n, m)
            phases = [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in range(m)]
            s = StabiliserGroup.from_matrix(mod, n, base.gmatrix, phases)
            r = rng.randrange(1, 4)
            basis, centre = random_centre(rng, mod, m, r)
            expected = reference_rows(s, null_space(p, centre, m))
            sub = subgroup_fixing(s, centre)
            assert np.array_equal(sub.rows, expected) and sub.num_generators == m - r
            assert StabiliserGroup(mod, n, expected) == sub
            assert np.array_equal(sub.gmatrix, expected[:, 1:])
            if r == 2:
                expected = reference_rows(s, null_space(p, basis, m))
                assert np.array_equal(subgroup_tu(s, *(FpVector(mod, b) for b in basis)).rows, expected)

    def test_centre_spanning_everything_leaves_no_generators(self, ternary_group):
        sub = subgroup_fixing(ternary_group, np.eye(7, dtype=np.int64))
        assert sub.rows.shape == (0, 23) and sub.k == 11

    def test_elements_belong_to_parent_and_annihilate_t_u(self, mod2, five_qubit_group):
        t = FpVector(mod2, (1, 0, 0, 0, 0))
        u = FpVector(mod2, (0, 1, 0, 0, 0))
        sub = subgroup_tu(five_qubit_group, t, u)
        assert sub.num_generators == 3
        parent = group_elements(five_qubit_group)
        for elem in group_elements(sub):
            assert elem in parent
        assert rank(2, sub.gmatrix, 10) == 3
        for row in sub.gmatrix:
            assert in_row_space(2, five_qubit_group.gmatrix, row)

    @pytest.mark.parametrize("p", [2, 3])
    def test_order_and_representative_independence(self, p):
        # the subgroup is an invariant of the pair of components, not of the
        # completion: swapping t, u or adding multiples gives the same set
        rng = random.Random(500 + p)
        mod = PrimeModulus(p)
        for _ in range(8):
            s = random_group(rng, mod, 4, 3)
            t = FpVector(mod, (1, 0, 0))
            u = FpVector(mod, (0, 1, 1))
            base = group_elements(subgroup_tu(s, t, u))
            assert group_elements(subgroup_tu(s, u, t)) == base
            u_minus_t = FpVector(mod, [a + (p - 1) * b for a, b in zip(u.entries, t.entries)])
            assert group_elements(subgroup_tu(s, t, u_minus_t)) == base


class TestExtendToMaximalAbelian:
    @pytest.mark.parametrize("p,n,m", [(2, 3, 1), (2, 4, 2), (3, 3, 2)])
    def test_reaches_self_dual_and_contains_input(self, p, n, m):
        rng = random.Random(p * 10 + n + m)
        mod = PrimeModulus(p)
        for _ in range(10):
            s = random_group(rng, mod, n, m)
            big = extend_to_maximal_abelian(s)
            assert big.num_generators == n
            for row in s.gmatrix:
                assert in_row_space(p, big.gmatrix, row)
            assert np.array_equal(centraliser_basis(big), rref(p, big.gmatrix, 2 * n))

    def test_deterministic(self, five_qubit_group):
        sub = StabiliserGroup(five_qubit_group.modulus, 5, five_qubit_group.rows[:3])
        assert extend_to_maximal_abelian(sub) == extend_to_maximal_abelian(sub)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_lex_least_reference(self, p):
        # against listing the sorted dual and adjoining its first vector
        # outside the row space, from phased groups of 0 up to n - 1 generators
        rng = random.Random(360 + p)
        mod = PrimeModulus(p)
        sizes = {2: (1, 5), 3: (1, 4), 5: (1, 3)}[p]
        for _ in range(30):
            n = rng.randint(*sizes)
            base = random_group(rng, mod, n, rng.randrange(0, n))
            phases = [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in generators(base)]
            s = StabiliserGroup.from_matrix(mod, n, base.gmatrix, phases)
            assert extend_to_maximal_abelian(s) == reference_extend(s)


def test_five_qubit_primed_identity(five_qubit_ops, five_qubit_primed_ops):
    # M'_i M'_{i+1} M'_{i+3} = M_i, indices mod 5, on tau images
    for i in range(5):
        prod = multiply(
            multiply(five_qubit_primed_ops[i], five_qubit_primed_ops[(i + 1) % 5]),
            five_qubit_primed_ops[(i + 3) % 5],
        )
        assert xz(prod) == xz(five_qubit_ops[i])
