"""Numerical ground truth for constructed codes, on an orthonormal code basis.

A code Q(S, T) is the direct sum of the joint eigenspaces Q_t, t in T, so it
has dimension K = |T|.p^k, far below p^n. Each Q_t is found by applying the
generator projectors (1/p) sum_j w^{-j t_i} g_i^j to a fixed start block.
Every Pauli acts on the computational basis as a permutation with phases,
so each application is a gather and a phase multiply, and no dim x dim
matrix is formed. The error-detection conditions are checked as the K x K
matrices B^dag E B = alpha_E I for the dim x K code basis B. Memory is
guarded by one byte budget, MAX_BYTES.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import pauli as pauli_mod
from .errors import DimensionMismatch, InvalidGroup, NonCommutingGenerators, TooLarge
from .fields import FpVector, PrimeModulus
from .pauli import PauliOperator, StabiliserGroup

MAX_BYTES = 2 ** 28

ORTHONORMAL_TOL = 1e-9
RANK_TOL = 1e-9
KL_TOL = 1e-9
EQUAL_TOL = 1e-8

# the start block of every component basis, fixed so that runs repeat exactly
_START_SEED = 0


def _check_budget(p: int, n: int, columns: int) -> int:
    """dim = p^n, after checking that a complex dim x columns array fits MAX_BYTES."""
    dim = p ** n
    estimate = dim * columns * 16
    if estimate > MAX_BYTES:
        raise TooLarge(
            f"a complex {dim} x {columns} array needs about {estimate / 2 ** 20:.1f} MiB, "
            f"over the {MAX_BYTES / 2 ** 20:.0f} MiB budget"
        )
    return dim


@lru_cache(maxsize=1)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digits of every basis index, one column per site, most significant first.

    Only the table of the last (p, n) is kept; every Pauli of one check shares it.
    """
    idx = np.arange(p ** n)
    digits = np.empty((p ** n, n), dtype=np.uint8)
    for site in range(n - 1, -1, -1):
        digits[:, site] = idx % p
        idx = idx // p
    digits.flags.writeable = False
    return digits


def _pauli_action(m: PauliOperator) -> tuple[np.ndarray, np.ndarray]:
    """Column action of the operator: index map and per-column phases.

    M |x> = phases[x] |perm[x]>, so M[perm[x], x] = phases[x]. Only the
    sites in the support of the operator are visited.
    """
    p, n = m.p, m.n
    digits = _digits(p, n)
    perm = np.arange(p ** n)
    exponents = np.zeros(p ** n, dtype=np.int64)
    for site, (a, b) in enumerate(zip(m.x_part, m.z_part)):
        if not (a or b):
            continue
        digit = digits[:, site].astype(np.int64)
        if a:
            perm += ((digit + a) % p - digit) * p ** (n - 1 - site)
        if b:
            exponents += b * digit
    omega_powers = np.exp(2j * np.pi * np.arange(p) / p)
    if p == 2:
        scalar = 1j ** ((m.phase + int(np.dot(m.x_part, m.z_part))) % 4)
    else:
        scalar = omega_powers[m.phase]
    return perm, scalar * omega_powers[exponents % p]


def pauli_dense(m: PauliOperator) -> np.ndarray:
    """The operator as a dense unitary matrix."""
    dim = _check_budget(m.p, m.n, m.p ** m.n)
    perm, phases = _pauli_action(m)
    out = np.zeros((dim, dim), dtype=complex)
    out[perm, np.arange(dim)] = phases
    return out


def apply_right(mat: np.ndarray, m: PauliOperator) -> np.ndarray:
    """mat @ M without forming M densely."""
    if mat.shape[-1] != m.p ** m.n:
        raise DimensionMismatch(f"{mat.shape[-1]} columns, operator dimension {m.p ** m.n}")
    perm, phases = _pauli_action(m)
    # (mat @ M)[i, x] = mat[i, perm[x]] * phases[x]
    return mat[:, perm] * phases[np.newaxis, :]


def component_basis(s: StabiliserGroup, t: FpVector | Sequence[int]) -> np.ndarray:
    """An orthonormal dim x p^k basis of Q_t, where generator i acts as omega^{t_i}.

    The projector onto Q_t is Hermitian, so it is applied from the right to
    the rows of a fixed (p^k + 1) x dim start block; the row space that
    survives is the conjugate of Q_t. Exactly p^k singular values must stay
    above tolerance.
    """
    p, n = s.p, s.n
    expected = p ** s.k
    dim = _check_budget(p, n, expected + 1)
    t_entries = list(t.entries if isinstance(t, FpVector) else t)
    if len(t_entries) != s.num_generators:
        raise ValueError("one sign per generator required")
    if not pauli_mod.is_abelian(s.generators):
        raise NonCommutingGenerators("generators do not commute")
    omega = np.exp(2j * np.pi / p)
    rows = np.random.default_rng(_START_SEED).standard_normal((expected + 1, dim)).astype(complex)
    for gen, ti in zip(s.generators, t_entries):
        acc = rows
        term = rows
        for j in range(1, p):
            term = apply_right(term, gen)
            acc = acc + omega ** (-j * ti) * term
        rows = acc / p
    # the start entries are of order 1, and so are the singular values of the
    # directions that survive; rounding leaves the others near 1e-16
    _, sing, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.count_nonzero(sing > RANK_TOL * max(sing[0], 1.0)))
    if rank != expected:
        raise InvalidGroup(f"component Q_t has rank {rank} != p^k = {expected}")
    return vh[:rank].conj().T


def component_projector(s: StabiliserGroup, t: FpVector | Sequence[int]) -> np.ndarray:
    """The dense projector B B^dag onto Q_t, for inspection at small sizes.

    The oracle itself works on bases and never calls this. The benchmark's
    tracer (perfbench/tracer.py) looks the name up, so it stays until the
    benchmark drops it.
    """
    _check_budget(s.p, s.n, s.p ** s.n)
    b = component_basis(s, t)
    return b @ b.conj().T


def code_basis(s: StabiliserGroup, t_set) -> np.ndarray:
    """The component bases of a coding set (or any vector list), side by side.

    Raises ValueError unless the result is orthonormal, which also catches
    components that are not mutually orthogonal.
    """
    vectors = list(getattr(t_set, "vectors", t_set))
    _check_budget(s.p, s.n, len(vectors) * s.p ** s.k + 1)
    b = np.hstack([component_basis(s, t) for t in vectors])
    _check_orthonormal(b)
    return b


def _check_orthonormal(b: np.ndarray) -> None:
    cols = b.shape[1]
    gram = b.conj().T @ b
    if np.linalg.norm(gram - np.eye(cols)) > ORTHONORMAL_TOL * max(1.0, np.sqrt(cols)):
        raise ValueError("basis is not orthonormal within tolerance")


def error_classes(modulus: PrimeModulus, n: int, w_max: int) -> list[PauliOperator]:
    """One phase-0 Pauli per symplectic class of weight 1..w_max."""
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


@dataclass(frozen=True)
class KLReport:
    """Error-detection check: alpha table and residuals per error class."""

    passed: bool
    max_residual: float
    tolerance: float
    alphas: dict
    failures: tuple

    def __len__(self):
        return len(self.alphas)


def kl_detect(b: np.ndarray, errs: Iterable[PauliOperator], tolerance: float = KL_TOL) -> KLReport:
    """Check B^dag E B = alpha_E I for every error class.

    b is an orthonormal dim x K basis of the code. alpha_E = tr(B^dag E B) / K
    and the residual is ||B^dag E B - alpha_E I||_F / sqrt(K), which equal
    tr(P E) / tr(P) and ||P E P - alpha_E P||_F / ||P||_F for P = B B^dag.
    """
    _check_orthonormal(b)
    cols = b.shape[1]
    bh = np.ascontiguousarray(b.conj().T)
    identity = np.eye(cols)
    alphas = {}
    failures = []
    max_residual = 0.0
    for e in errs:
        m = apply_right(bh, e) @ b
        alpha = np.trace(m) / cols
        residual = float(np.linalg.norm(m - alpha * identity)) / np.sqrt(cols)
        key = (e.x_part, e.z_part)
        alphas[key] = complex(alpha)
        max_residual = max(max_residual, residual)
        if residual > tolerance:
            failures.append((key, residual))
    return KLReport(
        passed=not failures,
        max_residual=max_residual,
        tolerance=tolerance,
        alphas=alphas,
        failures=tuple(failures),
    )


def subspace_equal(a: np.ndarray, b: np.ndarray, tolerance: float = EQUAL_TOL) -> bool:
    """True iff two orthonormal bases span the same subspace.

    That is, the column counts agree and every singular value of a^dag b,
    the cosine of a principal angle, is 1: the sine of every angle is at
    most tolerance. The sines are the singular values of b - a a^dag b,
    which avoids the cancellation in 1 - cos.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("bases of different ambient dimension")
    for m in (a, b):
        _check_orthonormal(m)
    if a.shape[1] != b.shape[1]:
        return False
    sines = np.linalg.svd(b - a @ (a.conj().T @ b), compute_uv=False)
    return bool(np.all(sines <= tolerance))
