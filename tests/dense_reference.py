"""Independent dense-matrix reference for the error-detection oracle.

Every Pauli is a Kronecker product of single-qupit matrices X^a Z^b, with
X|j> = |j+1 mod p> and Z|j> = w^j |j> for w = exp(2 pi i / p). For p = 2 the
factor at a site is i^{ab} X^a Z^b (so Y = iXZ) and the overall phase is
i^phase; for odd p the phase is w^phase. The projector onto the joint
eigenspace Q_t is the product over generators of (1/p) sum_j w^{-j t_i} g_i^j,
and the code projector is the sum over t in T. The Knill-Laflamme check is
P E P = alpha_E P with alpha_E = tr(P E) / tr(P).

Operators are plain (phase, x, z) triples and only numpy is used, nothing
from qsol but its DimensionMismatch error, so the results can be compared
with ``qsol.oracle``, which works on a code basis and on permutation actions
instead. Sized for small n.
"""

from __future__ import annotations

import numpy as np

from qsol.errors import DimensionMismatch


def _omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def site_matrix(p: int, a: int, b: int) -> np.ndarray:
    """The single-qupit factor for x-part a and z-part b."""
    x = np.roll(np.eye(p), 1, axis=0)
    z = np.diag([_omega(p) ** j for j in range(p)])
    out = np.linalg.matrix_power(x, a % p) @ np.linalg.matrix_power(z, b % p)
    return out * 1j ** (a * b % 2) if p == 2 else out


def pauli_matrix(p: int, op) -> np.ndarray:
    """The dense matrix of a (phase, x, z) triple."""
    phase, x, z = op
    out = np.array([[1.0 + 0j]])
    for a, b in zip(x, z):
        out = np.kron(out, site_matrix(p, a, b))
    scalar = 1j ** (phase % 4) if p == 2 else _omega(p) ** (phase % p)
    return scalar * out


def projector(p: int, generators, t) -> np.ndarray:
    """The projector onto Q_t, where generator i acts as w^{t_i}."""
    dim = p ** len(generators[0][1])
    out = np.eye(dim, dtype=complex)
    for op, ti in zip(generators, t):
        # the j = 0 term is the identity; only g^1..g^(p-1) are formed
        g = power = pauli_matrix(p, op)
        acc = np.eye(dim, dtype=complex) + _omega(p) ** (-ti) * g
        for j in range(2, p):
            power = power @ g
            acc += _omega(p) ** (-j * ti) * power
        out = out @ (acc / p)
    return out


def code_projector(p: int, generators, t_set) -> np.ndarray:
    return sum(projector(p, generators, t) for t in t_set)


def kl(p: int, proj: np.ndarray, errors) -> list[tuple[complex, float]]:
    """(alpha_E, ||P E P - alpha_E P||_F / ||P||_F) for each (phase, x, z) error."""
    out = []
    for op in errors:
        e = pauli_matrix(p, op)
        alpha = np.trace(proj @ e) / np.trace(proj)
        residual = np.linalg.norm(proj @ e @ proj - alpha * proj) / np.linalg.norm(proj)
        out.append((complex(alpha), float(residual)))
    return out


def subspace_equal(a: np.ndarray, b: np.ndarray, tolerance: float = 1e-8) -> bool:
    """True iff two orthonormal bases span the same subspace.

    That is, the column counts agree and every singular value of a^dag b,
    the cosine of a principal angle, is 1: the sine of every angle is at
    most tolerance. The sines are the singular values of b - a a^dag b,
    which avoids the cancellation in 1 - cos.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("bases of different ambient dimension")
    for m in (a, b):
        cols = m.shape[1]
        if np.linalg.norm(m.conj().T @ m - np.eye(cols)) > 1e-9 * max(1.0, np.sqrt(cols)):
            raise ValueError("basis is not orthonormal within tolerance")
    if a.shape[1] != b.shape[1]:
        return False
    sines = np.linalg.svd(b - a @ (a.conj().T @ b), compute_uv=False)
    return bool(np.all(sines <= tolerance))
