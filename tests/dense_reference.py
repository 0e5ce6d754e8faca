"""Independent dense-matrix reference for the error-detection oracle.

Every Pauli is a Kronecker product of single-qupit matrices X^a Z^b, with
X|j> = |j+1 mod p> and Z|j> = w^j |j> for w = exp(2 pi i / p). For p = 2 the
factor at a site is i^{ab} X^a Z^b (so Y = iXZ) and the overall phase is
i^phase; for odd p the phase is w^phase. The projector onto the joint
eigenspace Q_t is the product over generators of (1/p) sum_j w^{-j t_i} g_i^j,
and the code projector is the sum over t in T. The Knill-Laflamme check is
P E P = alpha_E P with alpha_E = tr(P E) / tr(P).

Operators are plain (phase, x, z) triples and only numpy is used, nothing
from qsol, so the results can be compared with ``qsol.oracle``, which works
on a code basis and on permutation actions instead. Sized for small n.
"""

from __future__ import annotations

import numpy as np


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
        g = pauli_matrix(p, op)
        acc = np.zeros((dim, dim), dtype=complex)
        power = np.eye(dim, dtype=complex)
        for j in range(p):
            acc += _omega(p) ** (-j * ti) * power
            power = power @ g
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
