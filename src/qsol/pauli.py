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

import itertools
from dataclasses import dataclass, field
from typing import Sequence

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

    def inverse(self) -> "PauliOperator":
        p = self.p
        if p == 2:
            return PauliOperator(self.modulus, self.n, -self.phase, self.x_part, self.z_part)
        ab = sum(a * b for a, b in zip(self.x_part, self.z_part))
        return PauliOperator(
            self.modulus,
            self.n,
            -self.phase + ab,
            tuple(-a for a in self.x_part),
            tuple(-b for b in self.z_part),
        )


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


def weight(x: PauliOperator | SymplecticVector) -> int:
    """Number of qupit positions with a non-identity component."""
    return sum(1 for a, b in zip(x.x_part, x.z_part) if a or b)


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


def power(a: PauliOperator, e: int) -> PauliOperator:
    if e < 0:
        raise ValueError("negative exponent; use inverse()")
    out = PauliOperator.identity(a.modulus, a.n)
    for _ in range(e):
        out = multiply(out, a)
    return out


def is_abelian(gens: Sequence[PauliOperator]) -> bool:
    """True iff all pairwise symplectic forms vanish."""
    vs = [tau(g) for g in gens]
    return all(symplectic_form(u, v) == 0 for u, v in itertools.combinations(vs, 2))


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
    gmatrix: FpMatrix = field(init=False, compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.modulus != self.modulus or g.n != self.n:
                raise ParameterMismatch("generator on a different system")
        if not is_abelian(self.generators):
            raise NonCommutingGenerators("generators do not pairwise commute")
        rows = tuple(tau(g).entries for g in self.generators)
        gmatrix = FpMatrix(self.modulus, rows, 2 * self.n)
        if fields.rank(gmatrix) != len(self.generators):
            raise InvalidGroup("generator matrix is not full rank")
        if self.modulus.p == 2:
            # i^c (tensor of letters) squares to (-1)^c; an odd phase puts
            # -identity into the group.
            for g in self.generators:
                if g.phase % 2:
                    raise InvalidGroup("generator squares to -identity")
        object.__setattr__(self, "gmatrix", gmatrix)

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
        """The product of generators with the given exponents."""
        if len(exponents) != len(self.generators):
            raise ValueError("one exponent per generator")
        out = PauliOperator.identity(self.modulus, self.n)
        for g, e in zip(self.generators, exponents):
            out = multiply(out, power(g, int(e) % self.p))
        return out


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

    Generated by M'_3..M'_{n-k}, the elements given by rows 3.. of
    A_{t,u}^{-1} for the deterministic completion A_{t,u} of (t, u) (see
    subgroup_fixing). Phases are composed exactly, so the generators are
    genuine elements of the parent group.
    """
    m = s.num_generators
    if len(t) != m or len(u) != m:
        raise ValueError("t, u must have one entry per generator")
    if fields.rank_of_vectors(s.p, [t.entries, u.entries]) != 2:
        raise DependentCentre("t and u are proportional or zero")
    return subgroup_fixing(s, [t, u])


def subgroup_fixing(s: StabiliserGroup, centre: Sequence[FpVector]) -> StabiliserGroup:
    """The subgroup acting trivially on Q_c for every vector c of the centre.

    The centre vectors must be independent. The generators are the
    elements given by rows len(centre).. of A^{-1}, for the deterministic
    completion A of the centre to a basis; A^{-1} A = I makes those rows
    orthogonal to every centre vector.
    """
    m = s.num_generators
    a_inv = fields.inverse(fields.complete_basis(list(centre), m))
    gens = [s.element(a_inv.rows[i]) for i in range(len(centre), m)]
    return StabiliserGroup(s.modulus, s.n, tuple(gens))


def extend_to_maximal_abelian(s: StabiliserGroup) -> StabiliserGroup:
    """Grow the group until its code C' satisfies C' = C'^{perp_s}.

    At each step the lexicographically least vector of the symplectic dual
    not already in the row space is adjoined with phase 0.
    """
    current = s
    while current.num_generators < current.n:
        dual = centraliser_basis(current)
        candidates = [
            v
            for v in fields.row_space_vectors(dual)
            if not v.is_zero() and not fields.in_row_space(current.gmatrix, v)
        ]
        v = min(candidates)
        new_gen = tau_inv(SymplecticVector(s.modulus, s.n, v.entries))
        current = StabiliserGroup(s.modulus, s.n, current.generators + (new_gen,))
    return current
