"""Pauli operators over prime qupits and their symplectic representation.

Phase conventions
-----------------
p = 2:  an operator is i^phase times a tensor product of the letters
        I, X, Z, Y with Y = i.X.Z; phases live mod 4.
p >= 3: an operator is w^phase X(a) Z(b) with w = exp(2 pi i / p); phases
        live mod p and compose via X(a)Z(b) X(a')Z(b') = w^{b.a'} X(a+a')Z(b+b').

tau maps an operator to (x_part | z_part) in F_p^{2n}, discarding the phase.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fields
from .errors import (
    DependentCentre,
    InvalidGroup,
    LengthMismatch,
    NonCommutingGenerators,
    ParameterMismatch,
)
from .fields import FpMatrix, FpVector, PrimeModulus

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


@dataclass(frozen=True, order=True)
class PauliOperator:
    """An n-qupit Pauli operator: phase + X-part + Z-part."""

    modulus: PrimeModulus
    n: int
    phase: int
    x_part: tuple[int, ...]
    z_part: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        if len(self.x_part) != self.n or len(self.z_part) != self.n:
            raise ValueError("x/z part length must equal n")
        object.__setattr__(self, "x_part", tuple(int(e) % p for e in self.x_part))
        object.__setattr__(self, "z_part", tuple(int(e) % p for e in self.z_part))
        object.__setattr__(self, "phase", int(self.phase) % self.phase_modulus)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def phase_modulus(self) -> int:
        return 4 if self.modulus.p == 2 else self.modulus.p

    @classmethod
    def identity(cls, modulus: PrimeModulus, n: int) -> "PauliOperator":
        return cls(modulus, n, 0, (0,) * n, (0,) * n)

    @classmethod
    def from_letters(cls, letters: str, phase: int = 0) -> "PauliOperator":
        """Qubit-only constructor from a string like 'XZIIZ'."""
        xz = [_LETTER_TO_XZ[ch] for ch in letters]
        return cls(PrimeModulus(2), len(xz), phase, tuple(x for x, _ in xz), tuple(z for _, z in xz))

    def letters(self) -> str:
        if self.p != 2:
            raise ValueError("letter form only defined for qubits")
        return "".join(_XZ_TO_LETTER[(x, z)] for x, z in zip(self.x_part, self.z_part))


@dataclass(frozen=True, order=True)
class SymplecticVector:
    """An element of F_p^{2n}: x block then z block."""

    modulus: PrimeModulus
    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        if len(self.entries) != 2 * self.n:
            raise ValueError("length must be exactly 2n")
        object.__setattr__(self, "entries", tuple(int(e) % p for e in self.entries))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def x_part(self) -> tuple[int, ...]:
        return self.entries[: self.n]

    @property
    def z_part(self) -> tuple[int, ...]:
        return self.entries[self.n :]


def tau(m: PauliOperator) -> SymplecticVector:
    """Forget the phase; concatenate x and z parts."""
    return SymplecticVector(m.modulus, m.n, m.x_part + m.z_part)


def tau_inv(v: SymplecticVector) -> PauliOperator:
    """Phase-0 operator with the given symplectic parts."""
    return PauliOperator(v.modulus, v.n, 0, v.x_part, v.z_part)


def symplectic_form(u: SymplecticVector, v: SymplecticVector) -> int:
    """sum_i (u_i v_{i+n} - v_i u_{i+n}) mod p."""
    if u.modulus != v.modulus or u.n != v.n:
        raise LengthMismatch("symplectic vectors of different shape")
    n, p = u.n, u.p
    total = 0
    for i in range(n):
        total += u.entries[i] * v.entries[i + n] - v.entries[i] * u.entries[i + n]
    return total % p


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product, with exact phase bookkeeping."""
    if a.modulus != b.modulus or a.n != b.n:
        raise ParameterMismatch("operators on different systems")
    p = a.p
    x = tuple((s + t) % p for s, t in zip(a.x_part, b.x_part))
    z = tuple((s + t) % p for s, t in zip(a.z_part, b.z_part))
    if p == 2:
        # sitewise letter product: sigma_{x,z} = i^{xz} X^x Z^z
        phase = a.phase + b.phase
        for x1, z1, x2, z2, x3, z3 in zip(a.x_part, a.z_part, b.x_part, b.z_part, x, z):
            phase += x1 * z1 + x2 * z2 - x3 * z3 + 2 * z1 * x2
        return PauliOperator(a.modulus, a.n, phase, x, z)
    phase = a.phase + b.phase + sum(s * t for s, t in zip(a.z_part, b.x_part))
    return PauliOperator(a.modulus, a.n, phase, x, z)


def operator_rows(ops: Sequence[PauliOperator], n: int) -> np.ndarray:
    """Operators on n qupits as (phase | x | z) integer rows, one per operator."""
    return np.array([(op.phase, *op.x_part, *op.z_part) for op in ops], dtype=np.int64).reshape(len(ops), 2 * n + 1)


def split_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The phase column and the x and z blocks of (phase | x | z) operator rows."""
    n = rows.shape[1] // 2
    return rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:]


def forms_vanish(p: int, x: np.ndarray, z: np.ndarray) -> bool:
    """True iff X·Zᵀ − Z·Xᵀ = 0 mod p: its entry (i, j) is the symplectic form of rows i and j of (X | Z)."""
    return not ((x @ z.T - z @ x.T) % p).any()


def is_abelian(gens: Sequence[PauliOperator]) -> bool:
    """True iff all pairwise symplectic forms vanish."""
    if not gens:
        return True
    first = gens[0]
    if any(g.modulus != first.modulus or g.n != first.n for g in gens):
        raise LengthMismatch("operators of different shape")
    _, x, z = split_rows(operator_rows(gens, first.n))
    return forms_vanish(first.p, x, z)


@dataclass(frozen=True)
class StabiliserGroup:
    """An abelian Pauli subgroup that does not contain -identity.

    The gmatrix rows are the tau images of the stored generators, in order;
    operations that depend on the generator order (the sign vectors t) are
    always relative to this stored list.
    """

    modulus: PrimeModulus
    n: int
    generators: tuple[PauliOperator, ...]
    _rows: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for g in self.generators:
            if g.modulus != self.modulus or g.n != self.n:
                raise ParameterMismatch("generator on a different system")
        rows = operator_rows(self.generators, self.n)
        rows.flags.writeable = False
        _, x, z = split_rows(rows)
        if not forms_vanish(self.p, x, z):
            raise NonCommutingGenerators("generators do not pairwise commute")
        if not fields.is_independent(self.p, rows[:, 1:].tolist()):
            raise InvalidGroup("generator matrix is not full rank")
        if self.modulus.p == 2:
            # i^c (tensor of letters) squares to (-1)^c; an odd phase puts
            # -identity into the group.
            if (rows[:, 0] % 2).any():
                raise InvalidGroup("generator squares to -identity")
        object.__setattr__(self, "_rows", rows)

    @functools.cached_property
    def gmatrix(self) -> FpMatrix:
        """The generator matrix: one row tau(g) per generator."""
        return FpMatrix(self.modulus, self._rows[:, 1:].tolist(), 2 * self.n)

    @classmethod
    def from_generators(cls, gens: Sequence[PauliOperator]) -> "StabiliserGroup":
        if not gens:
            raise ValueError("need modulus and n for an empty group")
        return cls(gens[0].modulus, gens[0].n, tuple(gens))

    @classmethod
    def from_matrix(
        cls,
        modulus: PrimeModulus,
        n: int,
        g: FpMatrix,
        phases: Sequence[int] | None = None,
    ) -> "StabiliserGroup":
        """Group with generators tau^{-1}(row_j), optionally phased."""
        if g.ncols != 2 * n:
            raise ValueError("generator matrix must have 2n columns")
        if phases is None:
            phases = [0] * g.nrows
        if len(phases) != g.nrows:
            raise ValueError(f"need one phase per generator row: {len(phases)} phases for {g.nrows} rows")
        gens = tuple(
            PauliOperator(modulus, n, ph, row[:n], row[n:])
            for ph, row in zip(phases, g.rows)
        )
        return cls(modulus, n, gens)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def k(self) -> int:
        return self.n - len(self.generators)

    def element(self, exponents: Sequence[int]) -> PauliOperator:
        """The product g_1^(e_1) ... g_m^(e_m) of the generators, each exponent taken mod p.

        Over the generator rows (c_i | x_i | z_i), the x|z parts of the
        product are e·G mod p, and its phase is the sum that a running
        product of multiply calls accumulates, in closed form:

        p odd:  Σ e_i c_i + Σ C(e_i, 2) (z_i·x_i) + Σ_{i<j} e_i e_j (z_i·x_j)   mod p
        p = 2:  Σ e_i c_i + Σ e_i (x_i·z_i) − x̄·z̄ + 2 Σ_{i<j} e_i e_j (z_i·x_j)   mod 4

        where x̄ and z̄ are the reduced x and z parts of the product. For odd
        p, X(x) Z(z) X(x') Z(z') = ω^(z·x') X(x + x') Z(z + z'); for p = 2 an
        operator i^c σ is i^(c + x·z) X^x Z^z, and moving Z^(z_i) past
        X^(x_j) gives (−1)^(z_i·x_j). The all-zero exponents give the identity.
        """
        return self.elements([exponents])[0]

    def elements(self, exponents: Sequence[Sequence[int]]) -> tuple[PauliOperator, ...]:
        """element of each row of exponents, as one stack: the x|z parts are E·G mod p."""
        p, m, n = self.p, len(self.generators), self.n
        if any(len(row) != m for row in exponents):
            raise ValueError("one exponent per generator")
        e = np.array([[int(v) % p for v in row] for row in exponents], dtype=np.int64).reshape(len(exponents), m)
        c, x, z = split_rows(self._rows)
        zx = z @ x.T
        x_bar, z_bar = e @ x % p, e @ z % p
        cross = np.sum(e @ np.triu(zx, 1) * e, axis=1)
        if p == 2:
            phases = e @ (c + np.diag(zx)) - np.sum(x_bar * z_bar, axis=1) + 2 * cross
        else:
            phases = e @ c + (e * (e - 1) // 2) @ np.diag(zx) + cross
        return tuple(
            PauliOperator(self.modulus, n, phase, xs, zs)
            for phase, xs, zs in zip(phases.tolist(), x_bar.tolist(), z_bar.tolist())
        )


def centraliser_basis(s: StabiliserGroup) -> FpMatrix:
    """Canonical basis of the symplectic dual of the group's row space."""
    p = s.p
    n = s.n
    swapped = FpMatrix(
        s.modulus,
        tuple(tuple((-e) % p for e in row[n:]) + row[:n] for row in s.gmatrix.rows),
        2 * n,
    )
    return fields.kernel_basis(swapped)


def subgroup_tu(s: StabiliserGroup, t: FpVector, u: FpVector) -> StabiliserGroup:
    """The subgroup fixing both Q_t and Q_u componentwise.

    Generated by M'_3..M'_{n-k}, the elements given by the rows of the
    quotient map from the span of the centre (t, u) (see subgroup_fixing).
    Phases are composed exactly, so the generators are genuine elements of
    the parent group.
    """
    m = s.num_generators
    if len(t) != m or len(u) != m:
        raise ValueError("t, u must have one entry per generator")
    q = fields.quotient_map([t, u], m)
    if q.nrows > m - 2:
        raise DependentCentre("t and u are proportional or zero")
    return StabiliserGroup(s.modulus, s.n, s.elements(q.rows))


def subgroup_fixing(s: StabiliserGroup, centre: Sequence[FpVector]) -> StabiliserGroup:
    """The subgroup acting trivially on Q_c for every vector c in the span of the centre.

    The generators are the elements given by the rows of fields.quotient_map
    of the centre, which vanish on the span of the centre; there are
    num_generators - rank(centre) of them.
    """
    q = fields.quotient_map(list(centre), s.num_generators)
    return StabiliserGroup(s.modulus, s.n, s.elements(q.rows))


def extend_to_maximal_abelian(s: StabiliserGroup) -> StabiliserGroup:
    """Grow the group until its code C' satisfies C' = C'^{perp_s}.

    At each step the lexicographically least vector of the symplectic dual
    not already in the row space W is adjoined with phase 0. Let r_1..r_s be
    the dual's RREF basis, pivots increasing. The vector Σ c_i r_i has c_i at
    the i-th pivot and, before it, only entries that c_1..c_{i-1} fix, so the
    dual's vectors sort as their coefficient tuples. The least one outside W
    is therefore r_j for the largest j with r_j outside W: every combination
    of r_{j+1}..r_s lies in W.
    """
    current = s
    while current.num_generators < current.n:
        rows = current.gmatrix.rows
        v = next(r for r in reversed(centraliser_basis(current).rows) if fields.is_independent(s.p, rows + (r,)))
        new_gen = tau_inv(SymplecticVector(s.modulus, s.n, v))
        current = StabiliserGroup(s.modulus, s.n, current.generators + (new_gen,))
    return current
