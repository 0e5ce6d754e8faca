"""The error-detection oracle: Pauli actions, code bases and the KL check."""

import collections
import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import dense_reference
from qsol import fields, oracle, search
from qsol.cli import main
from qsol.errors import DimensionMismatch, InvalidGroup, TooLarge
from qsol.fields import PrimeModulus
from qsol.oracle import (
    code_basis,
    component_projector,
    error_classes,
    kl_detect,
)
from qsol.pauli import PauliOperator, StabiliserGroup
from qsol.search import LabelledGraph, graph_to_generators

from conftest import (
    from_letters,
    generators,
    group_of,
    pauli_rows,
    random_group,
    random_symplectic_rows,
    reference_check_weight,
    row_triples,
)
from dense_reference import subspace_equal


def random_op(rng, modulus, n):
    return PauliOperator(
        modulus,
        n,
        rng.randrange(4 if modulus.p == 2 else modulus.p),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
        tuple(rng.randrange(modulus.p) for _ in range(n)),
    )


def row(op):
    """One operator as the oracle's (phase | x | z) row."""
    return pauli_rows([op])[0]


def reference(op):
    """The operator's matrix as a Kronecker product, from tests/dense_reference.py."""
    return dense_reference.pauli_matrix(op.p, (op.phase, op.x_part, op.z_part))


def dense(op):
    """The operator's matrix as the oracle applies it: the identity times the operator."""
    return oracle.apply_right(np.eye(op.p ** op.n, dtype=complex), op.p, row(op))


class TestPauliDense:
    @pytest.mark.parametrize("p", [2, 3])
    def test_unitary(self, p):
        rng = random.Random(800 + p)
        mod = PrimeModulus(p)
        for _ in range(25):
            n = rng.randrange(1, 3)
            m = dense(random_op(rng, mod, n))
            assert np.allclose(m @ m.conj().T, np.eye(p ** n), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_kronecker_reference(self, p):
        rng = random.Random(810 + p)
        mod = PrimeModulus(p)
        for _ in range(40):
            op = random_op(rng, mod, rng.randrange(1, 4))
            assert np.allclose(dense(op), reference(op), atol=1e-12)

    def test_apply_right_matches_dense(self, mod3):
        rng = random.Random(31)
        for _ in range(20):
            e = random_op(rng, mod3, 2)
            mat = rng.random() * np.eye(9) + np.ones((9, 9)) * 1j * rng.random()
            assert np.allclose(oracle.apply_right(mat, 3, row(e)), mat @ reference(e), atol=1e-12)

    def test_apply_right_checks_dimension(self, mod2):
        with pytest.raises(DimensionMismatch):
            oracle.apply_right(np.eye(4), 2, row(from_letters("XZZ")))

    def test_tensor_structure(self):
        xz = from_letters("XZ")
        x = dense(from_letters("X"))
        z = dense(from_letters("Z"))
        assert np.allclose(dense(xz), np.kron(x, z))


class TestComponentProjector:
    """Q_t, held as the orthonormal basis B = code_basis(s, [t]); its projector is B B^dag."""

    @pytest.mark.parametrize("p,n,m", [(2, 3, 2), (2, 4, 4), (3, 2, 2), (3, 3, 2)])
    def test_idempotent_with_correct_trace(self, p, n, m):
        rng = random.Random(p * 1000 + n * 10 + m)
        mod = PrimeModulus(p)
        for _ in range(5):
            s = random_group(rng, mod, n, m)
            t = tuple(rng.randrange(p) for _ in range(m))
            b = code_basis(s, [t])
            assert b.shape == (p ** n, p ** (n - m))
            assert np.allclose(b.conj().T @ b, np.eye(p ** (n - m)), atol=1e-12)
            pr = component_projector(s, t)
            assert np.allclose(pr, b @ b.conj().T, atol=1e-12)
            assert np.allclose(pr @ pr, pr, atol=1e-12)
            assert np.allclose(pr, pr.conj().T, atol=1e-12)
            assert abs(np.trace(pr) - p ** (n - m)) < 1e-9

    def test_distinct_components_are_orthogonal(self, five_qubit_group):
        signs = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 1, 0)]
        bases = [code_basis(five_qubit_group, [t]) for t in signs]
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert np.linalg.norm(bases[i].conj().T @ bases[j]) < 1e-12

    def test_generators_act_with_assigned_eigenvalues(self, five_qubit_group, mod3):
        t = (1, 0, 0, 1, 0)
        b = code_basis(five_qubit_group, [t])
        for gen, ti in zip(generators(five_qubit_group), t):
            assert np.allclose(reference(gen) @ b, (-1) ** ti * b, atol=1e-10)
        # p = 3: g B = omega^t B
        rng = random.Random(820)
        omega = np.exp(2j * np.pi / 3)
        for _ in range(5):
            s = random_group(rng, mod3, 3, 2)
            t = (rng.randrange(3), rng.randrange(3))
            b = code_basis(s, [t])
            for gen, ti in zip(generators(s), t):
                assert np.allclose(reference(gen) @ b, omega ** ti * b, atol=1e-10)

    def test_sign_count_validation(self, five_qubit_group):
        with pytest.raises(ValueError):
            code_basis(five_qubit_group, [(0, 0)])

    def test_rank_other_than_p_to_the_k_raises(self):
        # a repeated generator leaves a rank-2 eigenspace where p^k = 1 is
        # expected, and an empty one for inconsistent signs
        zi = from_letters("ZI")
        repeated = SimpleNamespace(p=2, n=2, k=0, num_generators=2, rows=pauli_rows([zi, zi]))
        for t in [(0, 0), (0, 1)]:
            with pytest.raises(InvalidGroup):
                code_basis(repeated, [t])


class TestCodeProjector:
    def test_sums_components(self, five_qubit_group, pentagon_tset):
        b = code_basis(five_qubit_group, pentagon_tset.vectors)
        assert b.shape == (32, 6)
        assert np.allclose(b.conj().T @ b, np.eye(6), atol=1e-12)
        total = sum(component_projector(five_qubit_group, t) for t in pentagon_tset.vectors)
        assert np.allclose(b @ b.conj().T, total, atol=1e-12)

    def test_accepts_raw_vector_lists(self, five_qubit_group):
        # the rows of an int64 array, as a coding set holds them, and int tuples give one basis
        ts = np.array([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], dtype=np.int64)
        b = code_basis(five_qubit_group, ts)
        assert b.shape == (32, 2)
        assert np.array_equal(code_basis(five_qubit_group, [tuple(t) for t in ts.tolist()]), b)

    def test_repeated_component_is_not_orthonormal(self, five_qubit_group):
        t = (1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            code_basis(five_qubit_group, [t, t])

    def test_acts_with_each_generator_once(self, nine_cycle_graph, nine_cycle_tset, monkeypatch):
        # 9 generator actions, one per call, serve all 12 components, not 12 x 9 = 108
        actions = []
        act = oracle._pauli_action
        monkeypatch.setattr(oracle, "_pauli_action", lambda p, ops: actions.append(len(ops)) or act(p, ops))
        assert code_basis(graph_to_generators(nine_cycle_graph), nine_cycle_tset.vectors).shape == (512, 12)
        assert actions == [1] * 9

    def test_holds_the_actions_as_small_integers(self, five_qubit_group, monkeypatch):
        # each of the 5 actions on 32 indices is an int32 index and a uint8 power
        perm, power = oracle._pauli_action(2, five_qubit_group.rows)
        assert (perm.dtype, power.dtype) == (np.int32, np.uint8)
        # the basis and start block take 32 x 2 x 16 = 1024 bytes, the actions 5 x 32 x 5 = 800
        t = [(0,) * 5]
        monkeypatch.setattr(fields, "MAX_BYTES", 1824)
        assert code_basis(five_qubit_group, t).shape == (32, 1)
        monkeypatch.setattr(fields, "MAX_BYTES", 1823)
        with pytest.raises(TooLarge, match=r"32 x 2 array with the actions of 5 generators needs about 0\.0 MiB"):
            code_basis(five_qubit_group, t)

    def test_budget_refuses_with_an_estimate(self, mod2):
        # 2^24 x 3 complex entries are 768 MiB, over the 256 MiB budget
        group = graph_to_generators(LabelledGraph.cycle(mod2, 24))
        tset = [(0,) * 24, (1,) * 24]
        with pytest.raises(TooLarge, match=r"16777216 x 3 array needs about 768\.0 MiB"):
            code_basis(group, tset)


@pytest.fixture(scope="module")
def ternary_five_cycle_code(mod3):
    """The ((5,27,2))_3 code that the recipe finds on the 5-cycle over F_3."""
    report = search.run_recipe(LabelledGraph.cycle(mod3, 5), d=2)
    assert (report.dimension, report.t_size) == (27, 27)
    return report.group, report.coding_set.vectors


@pytest.fixture(scope="module")
def nine_cycle_code(nine_cycle_graph, nine_cycle_tset):
    return graph_to_generators(nine_cycle_graph), nine_cycle_tset.vectors


@pytest.fixture(scope="module")
def pentagon_code(five_qubit_group, pentagon_tset):
    return five_qubit_group, pentagon_tset.vectors


@pytest.fixture(scope="module")
def odd_y_code():
    """YZ and ZY commute, and each has one Y letter, so i.X.Z puts phases +-i in its action."""
    return group_of([from_letters(g) for g in ("YZ", "ZY")]), [(0, 0), (1, 0), (1, 1)]


class TestBasisField:
    """The basis is real when every generator acts with phases +-1, and complex otherwise."""

    @pytest.mark.parametrize("code, dtype, w_max, sample", [
        ("nine_cycle", np.float64, 3, 16),
        ("pentagon", np.float64, 2, None),
        ("odd_y", np.complex128, 2, None),
        ("ternary_five_cycle", np.complex128, 2, 40),
    ])
    def test_matches_dense_reference(self, request, code, dtype, w_max, sample):
        # the ((9,12,3)) and ((5,6,2)) codes have graph-state generators, real
        # for p = 2; p = 3 phases are cube roots of unity. The dense check of
        # the 9-cycle takes a sample of its errors, weight-3 ones included,
        # where the code fails; the reference builds a dense 512 x 512
        # product for every error
        s, vectors = request.getfixturevalue(f"{code}_code")
        b = code_basis(s, vectors)
        assert b.dtype == dtype
        proj = dense_reference.code_projector(s.p, row_triples(s.rows), [tuple(t) for t in vectors])
        assert np.abs(b @ b.conj().T - proj).max() <= 1e-12
        errs = error_classes(s.p, s.n, w_max)
        if sample:
            errs = errs[random.Random(1100).sample(range(len(errs)), sample)]
        report = kl_detect(b, s.p, errs)
        reference = dense_reference.kl(s.p, proj, row_triples(errs))
        assert np.abs(report.alphas - [alpha for alpha, _ in reference]).max() <= 1e-12
        assert np.abs(report.residuals - [residual for _, residual in reference]).max() <= 1e-12
        # every code fails some of the compared errors, so residuals of order 1 agree too
        assert report.residuals.max() > 0.1

    @pytest.mark.parametrize("w_max", [2, 3])
    def test_real_basis_checks_as_its_complex_copy(self, nine_cycle_code, w_max):
        # kl_detect follows B's dtype: at d = 3 the ((9,12,3)) code passes, at d = 4 it fails
        b = code_basis(*nine_cycle_code)
        errs = error_classes(2, 9, w_max)
        real, complex_ = kl_detect(b, 2, errs), kl_detect(b.astype(complex), 2, errs)
        assert np.abs(real.alphas - complex_.alphas).max() <= 1e-12
        assert np.abs(real.residuals - complex_.residuals).max() <= 1e-12
        assert real.failures.tolist() == complex_.failures.tolist()
        assert real.passed == complex_.passed == (w_max == 2)

    @pytest.mark.parametrize("code", ["nine_cycle", "ternary_five_cycle"])
    def test_chunks_give_the_same_basis(self, request, code, monkeypatch):
        # a chunk of c components holds the block, acc, term and a multiple of
        # term, 4 (p^k + 1) x dim arrays each, within 1/2 of MAX_BYTES: the 12
        # components of ((9,12,3)) and the 27 of ((5,27,2))_3 go 1, 2 or 5 at a time
        s, vectors = request.getfixturevalue(f"{code}_code")
        whole = code_basis(s, vectors)
        per_component = 4 * 2 * whole.shape[0] * whole.itemsize
        batches = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: batches.append(len(a)) or svd(a, **kw))
        for c in (1, 2, 5):
            batches.clear()
            monkeypatch.setattr(fields, "MAX_BYTES", 2 * (c + 1) * per_component - 2)
            assert np.array_equal(code_basis(s, vectors), whole)
            assert batches == [c] * (len(vectors) // c) + [len(vectors) % c] * bool(len(vectors) % c)


def error_class_operators(modulus, n, w_max):
    """The error classes as PauliOperators, one object per error: the reference for error_classes."""
    p = modulus.p
    site_values = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    out = []
    for w in range(1, w_max + 1):
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(site_values, repeat=w):
                x = [0] * n
                z = [0] * n
                for site, (a, b) in zip(support, values):
                    x[site] = a
                    z[site] = b
                out.append(PauliOperator(modulus, n, 0, tuple(x), tuple(z)))
    return out


class TestErrorClasses:
    def test_counts(self):
        assert len(error_classes(2, 5, 1)) == 15
        assert len(error_classes(2, 9, 1)) == 27
        assert len(error_classes(2, 9, 2)) == 27 + 324
        assert len(error_classes(3, 2, 1)) == 16
        assert error_classes(2, 9, 2).shape == (351, 19)

    def test_weights_and_phases(self):
        rows = error_classes(2, 4, 2)
        weights = ((rows[:, 1:5] != 0) | (rows[:, 5:] != 0)).sum(axis=1)
        assert ((1 <= weights) & (weights <= 2)).all()
        assert (rows[:, 0] == 0).all()

    def test_matches_the_operator_loop_row_for_row(self):
        # every (p, n, w_max) with p in {2, 3, 5}, n <= 5 and w_max <= n whose
        # reference loop builds at most 20 000 operators: that leaves out
        # n = 5 at w_max >= 4 for p = 3, and n = 4, 5 at w_max >= 3 for p = 5
        checked = collections.Counter()
        for p in (2, 3, 5):
            mod = PrimeModulus(p)
            for n in range(6):
                for w_max in range(n + 1):
                    if sum(math.comb(n, w) * (p * p - 1) ** w for w in range(1, w_max + 1)) > 20000:
                        continue
                    rows = error_classes(p, n, w_max)
                    expected = pauli_rows(error_class_operators(mod, n, w_max))
                    assert rows.shape == (len(expected), 2 * n + 1) and rows.dtype == np.int64
                    assert np.array_equal(rows, expected.reshape(-1, 2 * n + 1)), (p, n, w_max)
                    checked[p] += 1
        assert checked == {2: 21, 3: 19, 5: 16}

    def test_budget_refuses_before_allocating(self):
        # the 1 630 083 classes of weight <= 6 on 13 qubits would take 335.8
        # MiB; they are counted, not built, before the refusal. The 379 119
        # of weight <= 5 take 78 MiB, and are held once: one array filled
        # weight by weight
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"^1630083 error classes of 27 int64 entries needs about 335\.8 MiB, over the 256 MiB budget$"):
                error_classes(2, 13, 6)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rows = error_classes(2, 13, 5)
            peak_of_rows = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert rows.shape == (379119, 27)
        assert peak_of_rows < 1.2 * rows.nbytes
        assert ((rows[-1, 1:14] != 0) | (rows[-1, 14:] != 0)).sum() == 5


class TestKlDetect:
    def test_five_qubit_code_detects_weight_two(self, five_qubit_group):
        # the [[5,0,3]] component is pure: every low-weight error has alpha 0
        b = code_basis(five_qubit_group, [(0,) * 5])
        report = kl_detect(b, 2, error_classes(2, 5, 2))
        assert report.passed
        assert report.max_residual <= 1e-9
        assert all(abs(a) < 1e-9 for a in report.alphas)

    def test_detects_failure(self):
        # span{|00>, |11>} does not detect single-qubit Z (a logical operator)
        s = group_of([from_letters("ZZ")])
        b = code_basis(s, [(0,)])
        report = kl_detect(b, 2, error_classes(2, 2, 1))
        assert not report.passed
        assert len(report.failures)

    def test_rejects_non_projector(self):
        # B B^dag is a projector only for an orthonormal B
        with pytest.raises(ValueError):
            kl_detect(np.ones((2, 2)), 2, error_classes(2, 1, 1))

    def test_rows_with_one_x_and_z_part_keep_their_own_phase(self, five_qubit_group, pentagon_tset):
        # X.I.I.I.I and -X.I.I.I.I on the ((5,6,2)) code are two rows of the report
        pentagon = code_basis(five_qubit_group, pentagon_tset.vectors)
        x_and_minus_x = pauli_rows([from_letters("XIIII", phase) for phase in (0, 2)])
        report = kl_detect(pentagon, 2, x_and_minus_x)
        assert len(report) == 2 and report.passed
        # on Q_0 of the five-qubit group the generator XZIIZ has alpha 1, and
        # i^phase XZIIZ has alpha i^phase
        b = code_basis(five_qubit_group, [(0,) * 5])
        phased = pauli_rows([from_letters("XZIIZ", phase) for phase in range(4)])
        report = kl_detect(b, 2, phased)
        assert len(report) == 4 and report.passed
        assert np.allclose(report.alphas, [1, 1j, -1, -1j], atol=1e-12)

    def test_property_matches_dense_reference_on_phased_errors(self):
        # kl_detect against tests/dense_reference.kl on random codes, with
        # phased errors of every weight from 0 to n (Y letters and phases
        # 0-3 for p = 2, phases mod p otherwise), listed in shuffled order;
        # rows that repeat an (x, z) part keep their own entries
        rng = random.Random(1010)
        seen = collections.Counter()
        for case in range(60):
            while True:
                p = rng.choice([2, 3, 5])
                mod = PrimeModulus(p)
                n = rng.randrange(1, {2: 6, 3: 4, 5: 3}[p])
                m = rng.randrange(1, n + 1)
                t_size = min(rng.randrange(1, 4), p ** m)
                cols = t_size * p ** (n - m)
                # the reduced Gram tensor of a weight-n error holds p^{2n} K^2 entries
                if p ** (2 * n) * cols ** 2 <= 2 ** 18:
                    break
            phases = [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in range(m)]
            s = StabiliserGroup.from_matrix(mod, n, random_symplectic_rows(rng, mod, n, m), phases)
            t_entries = rng.sample(list(itertools.product(range(p), repeat=m)), t_size)
            b = code_basis(s, t_entries)
            errs = []
            for w in range(n + 1):
                for _ in range(4):
                    x, z = [0] * n, [0] * n
                    for site in rng.sample(range(n), w):
                        x[site], z[site] = rng.choice([(a, c) for a in range(p) for c in range(p) if a or c])
                    errs.append(PauliOperator(mod, n, rng.randrange(4 if p == 2 else p), tuple(x), tuple(z)))
            rng.shuffle(errs)

            report = kl_detect(b, p, pauli_rows(errs))
            proj = dense_reference.code_projector(p, row_triples(s.rows), t_entries)
            reference = dense_reference.kl(p, proj, [(e.phase, e.x_part, e.z_part) for e in errs])

            label = f"case {case}: p={p} n={n} m={m} T={t_entries}"
            assert len(report) == len(report.residuals) == len(errs), label
            for i, (alpha, residual) in enumerate(reference):
                assert abs(report.alphas[i] - alpha) <= 1e-10, label
                assert abs(report.residuals[i] - residual) <= 1e-10, label
            failing = [i for i, (_, r) in enumerate(reference) if r > 1e-9]
            assert report.failures.tolist() == failing, label
            assert abs(report.max_residual - max(r for _, r in reference)) <= 1e-10, label
            seen[f"p={p}"] += 1
            seen["fails"] += bool(failing)
            seen["passes"] += not failing
            seen["odd phase"] += any(e.phase % 2 for e in errs)
            seen["Y"] += p == 2 and any(a and c for e in errs for a, c in zip(e.x_part, e.z_part))
            seen["repeated (x, z)"] += len({(e.x_part, e.z_part) for e in errs}) < len(errs)
        assert min(seen.values()) >= 5 and len(seen) == 8, dict(seen)

    def test_property_matches_the_per_error_reference(self, monkeypatch):
        # kl_detect against the check it replaced, one Pauli action per error
        # and one product per run of an x part (conftest.reference_check_weight),
        # on random codes over F_2, F_3 and F_5 with real and complex bases:
        # phased errors of every weight (Y letters for p = 2), rows that repeat
        # an (x, z) part with another phase, shuffled. Under the default budget
        # and under one that fits a single column of the whole support's R_S,
        # which forces column blocks and blocks of x on the top weight
        rng = random.Random(1060)
        seen = collections.Counter()
        for case in range(30):
            p = [2, 3, 5][case % 3]
            mod = PrimeModulus(p)
            # every other p = 2 code has a real basis, and the others are checked as complex ones
            want_real = p == 2 and case % 2 == 0
            while True:
                n = rng.randrange(2, {2: 6, 3: 4, 5: 4}[p])
                m = rng.randrange(1, n + 1)
                t_size = min(rng.randrange(1, 4), p ** m)
                cols = t_size * p ** (n - m)
                if p ** (2 * n) * cols ** 2 > 2 ** 16:
                    continue
                phases = [rng.randrange(0, 4, 2) if p == 2 else rng.randrange(p) for _ in range(m)]
                s = StabiliserGroup.from_matrix(mod, n, random_symplectic_rows(rng, mod, n, m), phases)
                b = code_basis(s, rng.sample(list(itertools.product(range(p), repeat=m)), t_size))
                if b.dtype == np.float64 or not want_real:
                    break
            if not want_real:
                b = b.astype(complex)
            letters = [(a, c) for a in range(p) for c in range(p) if a or c]
            errs = []
            for w in range(1, n + 1):
                for _ in range(6):
                    x, z = [0] * n, [0] * n
                    for site in rng.sample(range(n), w):
                        x[site], z[site] = rng.choice(letters)
                    errs.append(PauliOperator(mod, n, rng.randrange(4 if p == 2 else p), tuple(x), tuple(z)))
            errs += [PauliOperator(mod, n, rng.randrange(4 if p == 2 else p), e.x_part, e.z_part) for e in rng.sample(errs, 4)]
            rng.shuffle(errs)
            ops = pauli_rows(errs)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_check_weight", reference_check_weight)
                reference = kl_detect(b, p, ops)

            label = f"case {case}: p={p} n={n} m={m} K={cols} {b.dtype}"
            calls = collections.Counter()
            gram = oracle._reduced_gram
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_reduced_gram", lambda b, p, s, *cols: calls.update([(s.tobytes(), *cols)]) or gram(b, p, s, *cols))
                for budget in (fields.MAX_BYTES, 4 * p ** n * cols ** 2 * 16):
                    patch.setattr(fields, "MAX_BYTES", budget)
                    calls.clear()
                    report = kl_detect(b, p, ops)
                    assert np.abs(report.alphas - reference.alphas).max() <= 1e-12, label
                    assert np.abs(report.residuals - reference.residuals).max() <= 1e-12, label
                    assert report.failures.tolist() == reference.failures.tolist(), label
            # the small budget took the whole support's R_S a column at a
            # time, and formed some column more than once: once per x-block
            whole = [key for key in calls if key[0] == np.ones(n, dtype=bool).tobytes()]
            assert len(whole) == p ** n and max(calls[key] for key in whole) > 1, label
            seen[f"p={p} {b.dtype}"] += 1
            seen["fails"] += bool(len(reference.failures))
            seen["odd phase"] += any(e.phase % 2 for e in errs)
            seen["Y"] += p == 2 and any(a and c for e in errs for a, c in zip(e.x_part, e.z_part))
        assert min(seen.values()) >= 5 and len(seen) == 7, dict(seen)

    def test_empty_error_list_passes(self, five_qubit_group):
        report = kl_detect(code_basis(five_qubit_group, [(0,) * 5]), 2, np.zeros((0, 11), dtype=np.int64))
        assert report.passed and len(report) == 0 and report.max_residual == 0

    def test_checks_the_qupit_count(self, five_qubit_group):
        b = code_basis(five_qubit_group, [(0,) * 5])
        with pytest.raises(DimensionMismatch):
            kl_detect(b, 2, error_classes(2, 4, 1))
        # one row on its own, rows without a phase column, and rows over another field
        for ops, p in [(error_classes(2, 5, 1)[0], 2), (error_classes(2, 5, 1)[:, 1:], 2), (error_classes(3, 5, 1), 3)]:
            with pytest.raises(DimensionMismatch):
                kl_detect(b, p, ops)

    def test_reduced_gram_budget_refuses_with_an_estimate(self, five_qubit_group, pentagon_tset, monkeypatch):
        # R_S of a weight-2 support of the ((5,6,2)) code holds 2^4 * 6^2 = 576
        # entries; one of its columns, 2^2 * 6^2 = 144 entries, must fit 1/4 of the budget
        # the 105 error classes take 9 240 bytes, over this budget, so they
        # are built first
        b = code_basis(five_qubit_group, pentagon_tset.vectors)
        errs = error_classes(2, 5, 2)
        monkeypatch.setattr(fields, "MAX_BYTES", 4 * 144 * 16 - 1)
        assert kl_detect(b, 2, error_classes(2, 5, 1)).passed
        with pytest.raises(TooLarge, match=r"2\^2\*6\^2 = 144 entries of a reduced Gram tensor of 2\^4\*6\^2 = 576 entries needs about 0\.0 MiB, over 1/4 of"):
            kl_detect(b, 2, errs)

    def test_blocks_and_chunks_under_a_small_budget(self, five_qubit_group, pentagon_tset, monkeypatch):
        # R_S of a weight-2 support holds 4 columns of 2^2 * 6^2 entries; 1/4 of
        # the budget has room for 2 of them, so R_S comes in 2 blocks, and for
        # the table of all 4 x of the real basis, 4 * 2^2 * 6^2 * 8 bytes.
        # R_S is formed once per support and column block, whatever the
        # number of errors on the support
        b = code_basis(five_qubit_group, pentagon_tset.vectors)
        errs = error_classes(2, 5, 2)
        full = kl_detect(b, 2, errs)
        blocks = []
        gram = oracle._reduced_gram
        monkeypatch.setattr(oracle, "_reduced_gram", lambda *args: blocks.append(args[3:]) or gram(*args))
        monkeypatch.setattr(fields, "MAX_BYTES", 4 * 2 * 144 * 16)
        report = kl_detect(b, 2, errs)
        assert report.failures.tolist() == full.failures.tolist() and not report.passed
        assert np.abs(report.residuals - full.residuals).max() <= 1e-12
        assert np.abs(report.alphas - full.alphas).max() <= 1e-12
        assert abs(report.max_residual - full.max_residual) <= 1e-12
        # each of the 5 weight-1 supports forms its R_S of 2 columns once
        assert collections.Counter(blocks) == {(0, 2): 5 + 10, (2, 4): 10}
        # at half that budget R_S comes a column at a time and the table 2 x
        # at a time, so each weight-2 support forms each column once per x-block
        blocks.clear()
        monkeypatch.setattr(fields, "MAX_BYTES", 4 * 144 * 16)
        report = kl_detect(b, 2, errs)
        assert report.failures.tolist() == full.failures.tolist()
        assert np.abs(report.residuals - full.residuals).max() <= 1e-12
        assert np.abs(report.alphas - full.alphas).max() <= 1e-12
        assert collections.Counter(blocks) == {(0, 2): 5, (0, 1): 20, (1, 2): 20, (2, 3): 20, (3, 4): 20}

    def test_p5_whole_support_matches_dense_reference_within_the_budget(self, monkeypatch):
        # all 15 624 error classes of weight <= 3 on a p = 5, n = 3, K = 5 code:
        # the 13 824 of weight 3 share the whole system as support. Their dense
        # restrictions alone would take 13 824 * 5^6 * 16 bytes, 3.2 GiB; under
        # an 8 MiB budget R_S comes in blocks and the errors in chunks
        rng = random.Random(1050)
        mod = PrimeModulus(5)
        s = StabiliserGroup.from_matrix(mod, 3, random_symplectic_rows(rng, mod, 3, 2), [1, 3])
        t = (2, 4)
        b = code_basis(s, [t])
        errs = error_classes(5, 3, 3)
        errs[:, 0] = [rng.randrange(5) for _ in range(len(errs))]
        order = list(range(len(errs)))
        rng.shuffle(order)
        errs = errs[order]
        monkeypatch.setattr(fields, "MAX_BYTES", 2 ** 23)
        tracemalloc.start()
        try:
            report = kl_detect(b, 5, errs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the budget, and about 8 MiB for the report's alphas and the sorted rows
        assert peak < 2 ** 24, peak
        assert len(report) == len(report.residuals) == 15624
        proj = dense_reference.code_projector(5, row_triples(s.rows), [t])
        # the stabiliser's own elements, up to phase, have |alpha| = 1
        span = {
            tuple((a * g1 + c * g2) % 5 for g1, g2 in zip(*s.rows[:, 1:].tolist()))
            for a, c in itertools.product(range(5), repeat=2)
        }
        sample = rng.sample(range(len(errs)), 200) + [i for i, e in enumerate(errs) if tuple(e[1:].tolist()) in span]
        reference = dense_reference.kl(5, proj, row_triples(errs[sample]))
        assert sum(abs(alpha) > 0.5 for alpha, _ in reference) == 24
        assert 5 <= sum(residual > 1e-9 for _, residual in reference) < len(sample) - 5
        for i, (alpha, residual) in zip(sample, reference):
            assert abs(report.alphas[i] - alpha) <= 1e-10
            assert abs(report.residuals[i] - residual) <= 1e-10
            assert (i in report.failures) == (residual > 1e-9)

    def test_one_gram_product_per_support(self, data_dir, nine_cycle_graph, nine_cycle_tset, monkeypatch, capsys):
        # the ((9,12,3)) check: 351 error classes on 9 + 36 supports, read off
        # one R_S each with no Pauli action
        b = code_basis(graph_to_generators(nine_cycle_graph), nine_cycle_tset.vectors)
        supports = []
        gram = oracle._reduced_gram
        monkeypatch.setattr(oracle, "_reduced_gram", lambda b, p, s, *cols: supports.append(s.tobytes()) or gram(b, p, s, *cols))
        monkeypatch.setattr(oracle, "apply_right", None)
        actions = []
        act = oracle._pauli_action
        monkeypatch.setattr(oracle, "_pauli_action", lambda p, ops: actions.append(len(ops)) or act(p, ops))
        report = kl_detect(b, 2, error_classes(2, 9, 2))
        assert report.passed and len(report) == 351
        assert len(supports) == len(set(supports)) == 45
        assert actions == []
        # a whole verify acts with each of the 9 generators once, in code_basis
        argv = ["verify", "--gens", str(data_dir / "nine_cycle.gens"), "--tset", str(data_dir / "nine_cycle.tset"),
                "--d", "3", "--format", "machine"]
        assert main(argv) == 0
        assert "kl_pass=1" in capsys.readouterr().out.splitlines()
        assert len(actions) == graph_to_generators(nine_cycle_graph).num_generators == 9


class TestSubspaceEqual:
    def test_equal_and_unequal(self, five_qubit_group):
        a = code_basis(five_qubit_group, [(0,) * 5])
        b = code_basis(five_qubit_group, [(1, 0, 0, 0, 0)])
        assert subspace_equal(a, a.copy())
        assert not subspace_equal(a, b)
        ab = code_basis(five_qubit_group, [(0,) * 5, (1, 0, 0, 0, 0)])
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
