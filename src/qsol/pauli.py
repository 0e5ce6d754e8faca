"""Pauli operators over prime qupits and stabiliser groups held as integer rows.

Phase conventions
-----------------
p = 2:  an operator is i^phase times a tensor product of the letters
        I, X, Z, Y with Y = i.X.Z; phases live mod 4.
p >= 3: an operator is w^phase X(a) Z(b) with w = exp(2 pi i / p); phases
        live mod p and compose via X(a)Z(b) X(a')Z(b') = w^{b.a'} X(a+a')Z(b+b').

A stack of operators on n qupits is an (m, 2n + 1) int64 array of
(phase | x | z) rows; its x|z block, the phase dropped, is the symplectic
image (x_part | z_part) in F_p^{2n} of each operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fields
from .errors import DependentCentre, InvalidGroup, NonCommutingGenerators, ParameterMismatch
from .fields import PrimeModulus


def _phase_modulus(p: int) -> int:
    return 4 if p == 2 else p


@dataclass(frozen=True, order=True)
class PauliOperator:
    """An n-qupit Pauli operator: phase + X-part + Z-part.

    The library builds none; they stay as the operands of multiply, which
    the benchmark's tracer (perfbench/tracer.py) looks up by name.
    """

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
        return _phase_modulus(self.modulus.p)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product, with exact phase bookkeeping.

    The library calls none (StabiliserGroup.elements forms products in closed
    form); it stays because the benchmark's tracer looks the name up.
    """
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


def split_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The phase column and the x and z blocks of (phase | x | z) operator rows."""
    n = rows.shape[1] // 2
    return rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:]


def forms_vanish(p: int, x: np.ndarray, z: np.ndarray) -> bool:
    """True iff X·Zᵀ − Z·Xᵀ = 0 mod p: its entry (i, j) is the symplectic form of rows i and j of (X | Z)."""
    return not ((x @ z.T - z @ x.T) % p).any()


@dataclass(frozen=True, eq=False)
class StabiliserGroup:
    """An abelian Pauli subgroup that does not contain -identity.

    rows is a read-only (m, 2n + 1) int64 array, one (phase | x | z) row per
    generator: x and z reduced mod p, the phase mod 4 for p = 2 and mod p
    otherwise. The gmatrix rows are its x|z blocks, in order; operations that
    depend on the generator order (the sign vectors t) are always relative to
    this stored order. Two groups are equal when their moduli, n and rows are.
    The constructor reduces and checks the rows; the groups derived from a
    checked one are built by fields._derived, without the checks.
    """

    modulus: PrimeModulus
    n: int
    rows: np.ndarray

    def __post_init__(self):
        p, width = self.p, 2 * self.n + 1
        rows = np.array(self.rows, dtype=np.int64)
        if rows.shape == (0,):
            rows = rows.reshape(0, width)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"need (phase | x | z) rows of width {width}, got an array of shape {rows.shape}")
        rows[:, 0] %= _phase_modulus(p)
        rows[:, 1:] %= p
        rows.setflags(write=False)
        _, x, z = split_rows(rows)
        if not forms_vanish(p, x, z):
            raise NonCommutingGenerators("generators do not pairwise commute")
        if not fields.is_independent(p, rows[:, 1:].tolist()):
            raise InvalidGroup("generator matrix is not full rank")
        # i^c (tensor of letters) squares to (-1)^c; an odd phase puts
        # -identity into the group.
        if p == 2 and (rows[:, 0] % 2).any():
            raise InvalidGroup("generator squares to -identity")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, StabiliserGroup):
            return NotImplemented
        return (self.modulus, self.n) == (other.modulus, other.n) and np.array_equal(self.rows, other.rows)

    def __hash__(self):
        return hash((self.modulus, self.n, self.rows.shape, self.rows.tobytes()))

    @functools.cached_property
    def gmatrix(self) -> np.ndarray:
        """The generator matrix: the read-only view rows[:, 1:], tagged with p (fields.tagged)."""
        return fields.tagged(self.p, self.rows[:, 1:])

    @classmethod
    def from_matrix(
        cls, modulus: PrimeModulus, n: int, g: np.ndarray, phases: Sequence[int] | None = None
    ) -> "StabiliserGroup":
        """Group whose generator rows are the rows of the (m, 2n) integer array g, optionally phased."""
        phases = [0] * len(g) if phases is None else phases
        if len(phases) != len(g):
            raise ValueError(f"need one phase per generator row: {len(phases)} phases for {len(g)} rows")
        return cls(modulus, n, np.column_stack([np.asarray(phases, dtype=np.int64), g]))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def num_generators(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return self.n - len(self.rows)

    @functools.cached_property
    def _zx_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The strict upper triangle and the diagonal of z·xᵀ over the generator rows (see elements)."""
        _, x, z = split_rows(self.rows)
        zx = z @ x.T
        return np.triu(zx, 1), np.diag(zx)

    def elements(self, exponents: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        """The products g_1^(e_1) ... g_m^(e_m) of the generators, one (phase | x | z) row per row e of exponents.

        exponents is an (r, m) integer array, or its rows; each exponent is
        taken mod p. Over the generator rows (c_i | x_i | z_i), the x|z parts
        of the products are E·G mod p, and the phase of each is the sum that
        a running product of multiply calls accumulates, in closed form:

        p odd:  Σ e_i c_i + Σ C(e_i, 2) (z_i·x_i) + Σ_{i<j} e_i e_j (z_i·x_j)   mod p
        p = 2:  Σ e_i c_i + Σ e_i (x_i·z_i) − x̄·z̄ + 2 Σ_{i<j} e_i e_j (z_i·x_j)   mod 4

        where x̄ and z̄ are the reduced x and z parts of the product. For odd
        p, X(x) Z(z) X(x') Z(z') = ω^(z·x') X(x + x') Z(z + z'); for p = 2 an
        operator i^c σ is i^(c + x·z) X^x Z^z, and moving Z^(z_i) past
        X^(x_j) gives (−1)^(z_i·x_j). The all-zero exponents give the identity.
        """
        p, n, m = self.p, self.n, self.num_generators
        e = np.asarray(exponents, dtype=np.int64)
        if e.shape == (0,):
            e = e.reshape(0, m)
        if e.ndim != 2 or e.shape[1] != m:
            raise ValueError("one exponent per generator")
        e = e % p
        upper, diagonal = self._zx_parts
        # (Σ e_i c_i | E·X | E·Z), then x̄ and z̄ reduced in place
        out = e @ self.rows
        out[:, 1:] %= p
        cross = np.sum(e @ upper * e, axis=1)
        if p == 2:
            phases = out[:, 0] + e @ diagonal - np.sum(out[:, 1:n + 1] * out[:, n + 1:], axis=1) + 2 * cross
        else:
            phases = out[:, 0] + (e * (e - 1) // 2) @ diagonal + cross
        out[:, 0] = phases % _phase_modulus(p)
        return out


def centraliser_basis(s: StabiliserGroup) -> np.ndarray:
    """The RREF basis of the symplectic dual of the group's row space, the null space of the rows (−z | x)."""
    _, x, z = split_rows(s.rows)
    return fields.null_space(s.p, np.hstack([-z, x]), 2 * s.n)


def subgroup_tu(s: StabiliserGroup, t: fields.FpVector, u: fields.FpVector) -> StabiliserGroup:
    """The subgroup fixing both Q_t and Q_u componentwise.

    Generated by M'_3..M'_{n-k}, the generators that subgroup_fixing gives
    for the centre (t, u), which must have rank 2. Phases are composed
    exactly, so the generators are genuine elements of the parent group.
    """
    m = s.num_generators
    if len(t) != m or len(u) != m:
        raise ValueError("t, u must have one entry per generator")
    sub = subgroup_fixing(s, [t.entries, u.entries])
    if sub.num_generators > m - 2:
        raise DependentCentre("t and u are proportional or zero")
    return sub


def subgroup_fixing(s: StabiliserGroup, centre: np.ndarray | Sequence[Sequence[int]]) -> StabiliserGroup:
    """The subgroup acting trivially on Q_c for every vector c in the span of the centre's rows.

    The generators are the elements given by the rows of fields.null_space
    of the centre, the map that projects from its span: they vanish on that
    span, and there are num_generators - rank(centre) of them. Elements of a
    valid group commute and square to identity, and independent exponent rows
    of independent generators give independent rows, so the subgroup is built
    without the constructor's checks (fields._derived).
    """
    q = fields.null_space(s.p, centre, s.num_generators)
    return fields._derived(StabiliserGroup, s.modulus, s.n, s.elements(q))


def extend_to_maximal_abelian(s: StabiliserGroup) -> StabiliserGroup:
    """Grow the group until its code C' satisfies C' = C'^{perp_s}.

    At each step the lexicographically least vector of the symplectic dual
    not already in the row space W is adjoined with phase 0. Let r_1..r_s be
    the dual's RREF basis, pivots increasing. The vector Σ c_i r_i has c_i at
    the i-th pivot and, before it, only entries that c_1..c_{i-1} fix, so the
    dual's vectors sort as their coefficient tuples. The least one outside W
    is therefore r_j for the largest j with r_j outside W: every combination
    of r_{j+1}..r_s lies in W. It commutes with the rows, is independent of
    them and has phase 0, so each larger group is built without the
    constructor's checks (fields._derived).
    """
    current = s
    while current.num_generators < current.n:
        rows = current.rows[:, 1:].tolist()
        v = next(r for r in reversed(centraliser_basis(current).tolist()) if fields.is_independent(s.p, rows + [r]))
        current = fields._derived(StabiliserGroup, s.modulus, s.n, np.vstack([current.rows, (0, *v)]))
    return current
