"""The error-detection oracle: Pauli actions, code bases and the KL check."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

import dense_reference
from qsol import oracle
from qsol.errors import DimensionMismatch, InvalidGroup, NonCommutingGenerators, TooLarge
from qsol.fields import FpVector, PrimeModulus
from qsol.oracle import (
    code_basis,
    component_basis,
    component_projector,
    error_classes,
    kl_detect,
    pauli_dense,
    subspace_equal,
)
from qsol.pauli import PauliOperator, StabiliserGroup
from qsol.search import LabelledGraph, graph_to_generators

from conftest import random_group


def random_op(rng, modulus, n):
    return PauliOperator(
        modulus,
        n,
        rng.randrange(4 if modulus.p == 2 else modulus.p),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
    )


def triple(op):
    return (op.phase, op.x_part, op.z_part)


class TestPauliDense:
    @pytest.mark.parametrize("p", [2, 3])
    def test_unitary(self, p):
        rng = random.Random(800 + p)
        mod = PrimeModulus(p)
        for _ in range(25):
            n = rng.randrange(1, 3)
            m = pauli_dense(random_op(rng, mod, n))
            assert np.allclose(m @ m.conj().T, np.eye(p ** n), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_kronecker_reference(self, p):
        rng = random.Random(810 + p)
        mod = PrimeModulus(p)
        for _ in range(40):
            op = random_op(rng, mod, rng.randrange(1, 4))
            assert np.allclose(pauli_dense(op), dense_reference.pauli_matrix(p, triple(op)), atol=1e-12)

    def test_apply_right_matches_dense(self, mod3):
        rng = random.Random(31)
        for _ in range(20):
            e = random_op(rng, mod3, 2)
            mat = rng.random() * np.eye(9) + np.ones((9, 9)) * 1j * rng.random()
            assert np.allclose(oracle.apply_right(mat, e), mat @ pauli_dense(e), atol=1e-12)

    def test_apply_right_checks_dimension(self, mod2):
        with pytest.raises(DimensionMismatch):
            oracle.apply_right(np.eye(4), PauliOperator.from_letters("XZZ"))

    def test_scale_guard(self):
        big = PauliOperator(PrimeModulus(2), 15, 0, (1,) * 15, (0,) * 15)
        with pytest.raises(TooLarge):
            pauli_dense(big)

    def test_tensor_structure(self):
        xz = PauliOperator.from_letters("XZ")
        x = pauli_dense(PauliOperator.from_letters("X"))
        z = pauli_dense(PauliOperator.from_letters("Z"))
        assert np.allclose(pauli_dense(xz), np.kron(x, z))


class TestComponentProjector:
    """Q_t, held as the orthonormal basis B of component_basis; its projector is B B^dag."""

    @pytest.mark.parametrize("p,n,m", [(2, 3, 2), (2, 4, 4), (3, 2, 2), (3, 3, 2)])
    def test_idempotent_with_correct_trace(self, p, n, m):
        rng = random.Random(p * 1000 + n * 10 + m)
        mod = PrimeModulus(p)
        for _ in range(5):
            s = random_group(rng, mod, n, m)
            t = tuple(rng.randrange(p) for _ in range(m))
            b = component_basis(s, t)
            assert b.shape == (p ** n, p ** (n - m))
            assert np.allclose(b.conj().T @ b, np.eye(p ** (n - m)), atol=1e-12)
            pr = component_projector(s, t)
            assert np.allclose(pr, b @ b.conj().T, atol=1e-12)
            assert np.allclose(pr @ pr, pr, atol=1e-12)
            assert np.allclose(pr, pr.conj().T, atol=1e-12)
            assert abs(np.trace(pr) - p ** (n - m)) < 1e-9

    def test_distinct_components_are_orthogonal(self, five_qubit_group):
        signs = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 1, 0)]
        bases = [component_basis(five_qubit_group, t) for t in signs]
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert np.linalg.norm(bases[i].conj().T @ bases[j]) < 1e-12

    def test_generators_act_with_assigned_eigenvalues(self, five_qubit_group, mod3):
        t = (1, 0, 0, 1, 0)
        b = component_basis(five_qubit_group, t)
        for gen, ti in zip(five_qubit_group.generators, t):
            assert np.allclose(pauli_dense(gen) @ b, (-1) ** ti * b, atol=1e-10)
        # p = 3: g B = omega^t B
        rng = random.Random(820)
        omega = np.exp(2j * np.pi / 3)
        for _ in range(5):
            s = random_group(rng, mod3, 3, 2)
            t = (rng.randrange(3), rng.randrange(3))
            b = component_basis(s, t)
            for gen, ti in zip(s.generators, t):
                assert np.allclose(pauli_dense(gen) @ b, omega ** ti * b, atol=1e-10)

    def test_sign_count_validation(self, five_qubit_group):
        with pytest.raises(ValueError):
            component_basis(five_qubit_group, (0, 0))

    def test_rank_other_than_p_to_the_k_raises(self):
        # a repeated generator leaves a rank-2 eigenspace where p^k = 1 is
        # expected, and an empty one for inconsistent signs
        zi = PauliOperator.from_letters("ZI")
        repeated = SimpleNamespace(p=2, n=2, k=0, num_generators=2, generators=(zi, zi))
        for t in [(0, 0), (0, 1)]:
            with pytest.raises(InvalidGroup):
                component_basis(repeated, t)

    def test_non_commuting_generators_rejected(self):
        gens = (PauliOperator.from_letters("X"), PauliOperator.from_letters("Z"))
        s = SimpleNamespace(p=2, n=1, k=0, num_generators=2, generators=gens)
        with pytest.raises(NonCommutingGenerators):
            component_basis(s, (0, 0))


class TestCodeProjector:
    def test_sums_components(self, five_qubit_group, pentagon_tset):
        b = code_basis(five_qubit_group, pentagon_tset)
        assert b.shape == (32, 6)
        assert np.allclose(b.conj().T @ b, np.eye(6), atol=1e-12)
        total = sum(component_projector(five_qubit_group, t) for t in pentagon_tset.vectors)
        assert np.allclose(b @ b.conj().T, total, atol=1e-12)

    def test_accepts_raw_vector_lists(self, five_qubit_group, mod2):
        ts = [FpVector(mod2, (1, 0, 0, 0, 0)), FpVector(mod2, (0, 1, 0, 0, 0))]
        assert code_basis(five_qubit_group, ts).shape == (32, 2)

    def test_repeated_component_is_not_orthonormal(self, five_qubit_group, mod2):
        t = FpVector(mod2, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            code_basis(five_qubit_group, [t, t])

    def test_budget_refuses_with_an_estimate(self, mod2):
        # 2^24 x 3 complex entries are 768 MiB, over the 256 MiB budget
        group = graph_to_generators(LabelledGraph.cycle(mod2, 24))
        tset = [FpVector(mod2, (0,) * 24), FpVector(mod2, (1,) * 24)]
        with pytest.raises(TooLarge, match=r"16777216 x 3 array needs about 768\.0 MiB"):
            code_basis(group, tset)


class TestErrorClasses:
    def test_counts(self, mod2, mod3):
        assert len(error_classes(mod2, 5, 1)) == 15
        assert len(error_classes(mod2, 9, 1)) == 27
        assert len(error_classes(mod2, 9, 2)) == 27 + 324
        assert len(error_classes(mod3, 2, 1)) == 16

    def test_weights_and_phases(self, mod2):
        from qsol.pauli import weight

        for e in error_classes(mod2, 4, 2):
            assert 1 <= weight(e) <= 2
            assert e.phase == 0


class TestKlDetect:
    def test_five_qubit_code_detects_weight_two(self, five_qubit_group, mod2):
        # the [[5,0,3]] component is pure: every low-weight error has alpha 0
        b = component_basis(five_qubit_group, (0,) * 5)
        report = kl_detect(b, error_classes(mod2, 5, 2))
        assert report.passed
        assert report.max_residual <= 1e-9
        assert all(abs(a) < 1e-9 for a in report.alphas.values())

    def test_detects_failure(self, mod2):
        # span{|00>, |11>} does not detect single-qubit Z (a logical operator)
        s = StabiliserGroup.from_generators([PauliOperator.from_letters("ZZ")])
        b = component_basis(s, (0,))
        report = kl_detect(b, error_classes(mod2, 2, 1))
        assert not report.passed
        assert report.failures

    def test_rejects_non_projector(self, mod2):
        # B B^dag is a projector only for an orthonormal B
        with pytest.raises(ValueError):
            kl_detect(np.ones((2, 2)), error_classes(mod2, 1, 1))


class TestSubspaceEqual:
    def test_equal_and_unequal(self, five_qubit_group, mod2):
        a = component_basis(five_qubit_group, (0,) * 5)
        b = component_basis(five_qubit_group, (1, 0, 0, 0, 0))
        assert subspace_equal(a, a.copy())
        assert not subspace_equal(a, b)
        ab = code_basis(five_qubit_group, [FpVector(mod2, (0,) * 5), FpVector(mod2, (1, 0, 0, 0, 0))])
        # a unitary change of basis spans the same space; a larger space differs
        q, _ = np.linalg.qr(np.array([[1, 2j], [3, -1]]))
        assert subspace_equal(ab, ab @ q)
        assert not subspace_equal(a, ab)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_equal(np.eye(2), np.eye(4))

    def test_non_idempotent_rejected(self):
        # 2I is no orthonormal basis: its B B^dag = 4I is not idempotent
        with pytest.raises(ValueError):
            subspace_equal(2 * np.eye(2), np.eye(2))
