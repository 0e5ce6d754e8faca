"""Shared fixtures: worked examples, parsed data files, random generators."""

import dataclasses
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from qsol import fields, geometry, io, oracle
from qsol.fields import PrimeModulus, rank_of_vectors
from qsol.pauli import PauliOperator, StabiliserGroup, centraliser_basis, multiply, split_rows
from qsol.search import LabelledGraph
from qsol import lines as lines_mod

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def mod2():
    return PrimeModulus(2)


@pytest.fixture(scope="session")
def mod3():
    return PrimeModulus(3)


# ---------------------------------------------------------------- pentagon

@pytest.fixture(scope="session")
def pentagon_graph(mod2):
    return LabelledGraph.cycle(mod2, 5)


@pytest.fixture(scope="session")
def five_qubit_group(data_dir):
    return io.parse_generators((data_dir / "pentagon.gens").read_text())


@pytest.fixture(scope="session")
def five_qubit_lines(five_qubit_group):
    return lines_mod.lines_from_matrix(five_qubit_group.gmatrix, 5, 0)


@pytest.fixture(scope="session")
def pentagon_tset(data_dir):
    return io.parse_coding_set((data_dir / "pentagon.tset").read_text())


FIVE_QUBIT_LETTERS = ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]
FIVE_QUBIT_PRIMED_LETTERS = ["ZYXYZ", "ZZYXY", "YZZYX", "XYZZY", "YXYZZ"]


@pytest.fixture(scope="session")
def five_qubit_ops():
    return [from_letters(s) for s in FIVE_QUBIT_LETTERS]


@pytest.fixture(scope="session")
def five_qubit_primed_ops():
    return [from_letters(s) for s in FIVE_QUBIT_PRIMED_LETTERS]


# --------------------------------------------------------------- nine-cycle

@pytest.fixture(scope="session")
def nine_cycle_graph(mod2):
    return LabelledGraph.cycle(mod2, 9)


@pytest.fixture(scope="session")
def nine_cycle_constraints(data_dir, mod2):
    return io.parse_restriction((data_dir / "nine_cycle.restrict").read_text(), mod2, 9)


@pytest.fixture(scope="session")
def nine_cycle_tset(data_dir):
    return io.parse_coding_set((data_dir / "nine_cycle.tset").read_text())


# ------------------------------------------------------------------ ternary

@pytest.fixture(scope="session")
def ternary_group(data_dir):
    return io.parse_generators((data_dir / "ternary.gens").read_text())


@pytest.fixture(scope="session")
def ternary_lines(ternary_group):
    return lines_mod.lines_from_matrix(ternary_group.gmatrix, 11, 4)


@pytest.fixture(scope="session")
def ternary_tset(data_dir):
    return io.parse_coding_set((data_dir / "ternary.tset").read_text())


# ------------------------------------------------------------ random helpers

def symplectic_form(p: int, u, v) -> int:
    """sum_i (u_i v_{i+n} - v_i u_{i+n}) mod p for two (x | z) vectors of F_p^{2n}: the per-pair reference for pauli.forms_vanish."""
    n = len(u) // 2
    return sum(u[i] * v[i + n] - v[i] * u[i + n] for i in range(n)) % p


def xz(op) -> tuple[int, ...]:
    """The symplectic image (x_part | z_part) of a Pauli operator: its (phase | x | z) row without the phase."""
    return op.x_part + op.z_part


def random_symplectic_rows(rng: random.Random, modulus: PrimeModulus, n: int, m: int) -> np.ndarray:
    """m independent, pairwise symplectically orthogonal vectors of F_p^{2n}."""
    rows: list[tuple[int, ...]] = []
    attempts = 0
    while len(rows) < m:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("random group generation stalled")
        cand = tuple(rng.randrange(modulus.p) for _ in range(2 * n))
        if not any(cand):
            continue
        if any(symplectic_form(modulus.p, r, cand) for r in rows):
            continue
        if rank_of_vectors(modulus.p, rows + [cand]) != len(rows) + 1:
            continue
        rows.append(cand)
    return np.array(rows, dtype=np.int64).reshape(m, 2 * n)


def random_group(rng: random.Random, modulus: PrimeModulus, n: int, m: int) -> StabiliserGroup:
    """A random stabiliser group with m phase-zero generators on n qupits."""
    return StabiliserGroup.from_matrix(modulus, n, random_symplectic_rows(rng, modulus, n, m))


def random_group_with_lines(rng: random.Random, modulus: PrimeModulus, n: int, m: int):
    """A random group whose generator matrix has independent column pairs."""
    from qsol.errors import DegenerateLine

    for _ in range(2000):
        g = random_group(rng, modulus, n, m)
        try:
            x = lines_mod.lines_from_matrix(g.gmatrix, n, n - m)
        except DegenerateLine:
            continue
        return g, x
    raise RuntimeError("no line-compatible random group found")


def apply_map(p: int, q: np.ndarray, v) -> tuple[int, ...]:
    """The image of the vector v under an int64 matrix such as a centre's fields.null_space, reduced mod p."""
    return tuple((q @ np.array(v, dtype=np.int64) % p).tolist())


def reference_rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan elimination, pivots from the first column on; returns (rows, pivot columns).

    The reference for fields.rref, fields.null_space and fields.rank_of_vectors.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            rows[r] = [(inv * e) % p for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_row_space(p: int, rows, ncols: int) -> list[list[int]]:
    """The RREF basis of the row space, zero rows dropped, by reference_rref_rows: the reference for fields.rref."""
    reduced, pivots = reference_rref_rows([[int(e) % p for e in row] for row in rows], ncols, p)
    return reduced[: len(pivots)]


def reference_is_independent(p: int, vectors) -> bool:
    """True iff the vectors are independent, by forward elimination: the reference for fields.is_independent.

    Unlike Gauss-Jordan it clears only the rows below each pivot, and it
    stops once every vector has a pivot.
    """
    rows = [[int(e) % p for e in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank == len(rows)


def rank(p: int, rows, ncols: int) -> int:
    """The rank of a stack of rows, read off reference_rref_rows."""
    return len(reference_rref_rows([[int(e) % p for e in row] for row in rows], ncols, p)[1])


def reference_kernel_basis(p: int, rows, ncols: int) -> list[list[int]]:
    """The RREF basis of the right null space by two eliminations: the reference for fields.null_space.

    One basis vector per free column f of the RREF of the rows (1 at f,
    minus the pivot rows' entries in column f at the pivots), then an RREF
    of those.
    """
    reduced, pivots = reference_rref_rows([[int(e) % p for e in row] for row in rows], ncols, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f] % p
        basis.append(v)
    return reference_row_space(p, basis, ncols)


def reference_quotient_map(p: int, vectors, dim: int) -> np.ndarray:
    """The projection from the span of the vectors by one elimination of [C | I]: the reference for their null_space.

    With the vectors as the columns of C, the pivots in C are the greedy
    independent subset of the vectors, r of them, and the pivots in I
    complete it greedily to a basis A; the right-hand block is A^{-1}, and
    its rows past the first r vanish on the span of the vectors.
    """
    r = len(vectors)
    aug = [[v[i] for v in vectors] + [1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    reduced, pivots = reference_rref_rows(aug, r + dim, p)
    centre_rank = sum(1 for c in pivots if c < r)
    return np.array([row[r:] for row in reduced[centre_rank:]], dtype=np.int64).reshape(dim - centre_rank, dim)


def reference_coding_rows(p: int, length: int, points) -> list[tuple[int, ...]]:
    """The coding set of a clique, assembled point by point: the zero vector, then c·point for c = 1..p-1, point after point.

    The reference for the one array expression of search.run_recipe.
    """
    rows = [(0,) * length]
    for point in points:
        rows.extend(tuple(c * e % p for e in point) for c in range(1, p))
    return rows


def reference_min_dependent_set(x, limit: int):
    """lines.min_dependent_set by one weight table per omitted line from depth 1, repeated points included."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if x.n < 2 or limit < 2:
        return lines_mod.AtLeast(limit + 1)
    for depth in range(1, min(limit, x.n)):
        for i in range(x.n):
            table = lines_mod.weight_table(x.p, x.dim, np.delete(x.points, i, axis=0).ravel(), depth)
            if (table[x.points[i]] != lines_mod.OUTSIDE).any():
                return depth + 1
    return lines_mod.AtLeast(limit + 1)


def in_row_space(p: int, rows, v) -> bool:
    """True iff the vector v lies in the row space of the (r, m) rows: appending it leaves the rank unchanged."""
    rows = np.asarray(rows, dtype=np.int64).tolist()
    if rows and len(v) != len(rows[0]):
        raise ValueError("shape mismatch")
    return rank_of_vectors(p, rows + [[int(e) for e in v]]) == rank_of_vectors(p, rows)


def normalised(p: int, v) -> tuple[int, ...]:
    """A nonzero vector scaled so that its first nonzero coordinate is 1: the reference for geometry.point_code."""
    lead = next(c for c in v if c % p)
    inv = pow(lead, -1, p)
    return tuple(inv * c % p for c in v)


def vector_codes(p: int, m: int, coords) -> np.ndarray:
    """The base-p codes of vectors of length m, most significant coordinate first: geometry.digits inverted."""
    return np.array(coords, dtype=np.int64).reshape(-1, m) @ p ** np.arange(m - 1, -1, -1)


def vectors(p: int, m: int, codes) -> list[tuple[int, ...]]:
    """The vectors of F_p^m with the given codes, as coordinate tuples: geometry.digits decoded."""
    return [tuple(v) for v in geometry.digits(p, m, codes).tolist()]


def points(p: int, basis) -> list[tuple[int, ...]]:
    """The points of the span of an RREF basis as normalised vectors, in order: geometry.points_of decoded."""
    return vectors(p, basis.shape[1], geometry.points_of(p, basis))


def incident(x) -> list[tuple[int, ...]]:
    """The incident points of a line set as normalised vectors, in order: lines.incident_points decoded."""
    return vectors(x.p, x.dim, lines_mod.incident_points(x))


def edges(gamma) -> set[tuple[int, int]]:
    """The edges of a compatibility graph as index pairs (i, j) with i < j, read off its adjacency array."""
    return {(i, j) for i, j in np.argwhere(np.triu(gamma.adjacency, 1)).tolist()}


def assert_as_checked(value) -> None:
    """Assert that a value the library derives unchecked (fields._derived) is what its checked constructor gives.

    The class's own constructor must accept the value's fields, and give
    fields equal to the value's; the value's arrays must be read-only, with
    the dtype the constructor gives them.
    """
    checked = type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))
    for f in dataclasses.fields(value):
        mine, theirs = getattr(value, f.name), getattr(checked, f.name)
        if isinstance(theirs, np.ndarray):
            assert isinstance(mine, np.ndarray) and not mine.flags.writeable, f.name
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs, f.name


def pauli_rows(ops) -> np.ndarray:
    """Pauli operators as the oracle's (phase | x | z) integer rows."""
    return np.array([(op.phase, *op.x_part, *op.z_part) for op in ops], dtype=np.int64)


def group_of(ops) -> StabiliserGroup:
    """The stabiliser group generated by a nonempty list of Pauli operators, in order."""
    return StabiliserGroup(ops[0].modulus, ops[0].n, pauli_rows(ops))


def row_triples(rows) -> list[tuple]:
    """Operator rows as the (phase, x, z) triples of tests/dense_reference.py."""
    n = len(rows[0]) // 2 if len(rows) else 0
    return [(int(r[0]), tuple(r[1:n + 1].tolist()), tuple(r[n + 1:].tolist())) for r in rows]


def weight(v) -> int:
    """Number of qupit positions where an (x | z) vector of F_p^{2n} is not the identity."""
    n = len(v) // 2
    return sum(1 for a, b in zip(v[:n], v[n:]) if a or b)


_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


def identity(modulus: PrimeModulus, n: int) -> PauliOperator:
    """The identity operator on n qupits, phase 0."""
    return PauliOperator(modulus, n, 0, (0,) * n, (0,) * n)


def from_letters(letters: str, phase: int = 0) -> PauliOperator:
    """The qubit operator i^phase times a string of letters such as 'XZIIZ', with Y = i·X·Z."""
    xz = [_LETTER_TO_XZ[ch] for ch in letters]
    return PauliOperator(PrimeModulus(2), len(xz), phase, tuple(x for x, _ in xz), tuple(z for _, z in xz))


def letters(op: PauliOperator) -> str:
    """The letter string of a qubit operator, its phase dropped; other moduli raise ValueError."""
    if op.p != 2:
        raise ValueError("letter form only defined for qubits")
    return "".join(_XZ_TO_LETTER[(x, z)] for x, z in zip(op.x_part, op.z_part))


def reference_power(a, e):
    """a^e as a fresh identity followed by e multiply calls."""
    if e < 0:
        raise ValueError("negative exponent")
    out = identity(a.modulus, a.n)
    for _ in range(e):
        out = multiply(out, a)
    return out


def generators(s: StabiliserGroup) -> tuple[PauliOperator, ...]:
    """The group's (phase | x | z) rows as PauliOperator objects, in order."""
    n = s.n
    return tuple(PauliOperator(s.modulus, n, row[0], row[1:n + 1], row[n + 1:]) for row in s.rows.tolist())


def reference_element(s, exponents):
    """The product of the generator powers g^(e mod p), folded into a fresh identity."""
    out = identity(s.modulus, s.n)
    for g, e in zip(generators(s), exponents):
        out = multiply(out, reference_power(g, int(e) % s.p))
    return out


def reference_rows(s, exponents) -> np.ndarray:
    """The (phase | x | z) rows of reference_element for each row of exponents: the reference for s.elements."""
    return pauli_rows([reference_element(s, e) for e in exponents]).reshape(len(exponents), 2 * s.n + 1)


def group_elements(s: StabiliserGroup) -> set:
    """Every element of the group as a (phase | x | z) tuple."""
    exponents = list(itertools.product(range(s.p), repeat=s.num_generators))
    return set(map(tuple, s.elements(exponents).tolist()))


def reference_line_codes(p: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The codes of a_i + c·b_j, c = 1..p-1, indexed [c-1, i, j], digit by digit: the reference for geometry.line_codes."""
    codes = np.zeros((p - 1, len(a), len(b)), dtype=np.int64)
    # most significant digit first, and scalar by scalar, so temporaries stay (len(a), len(b))
    for a_digit, b_digit in zip(np.unravel_index(a, (p,) * m), np.unravel_index(b, (p,) * m)):
        for c in range(1, p):
            codes[c - 1] = codes[c - 1] * p + (a_digit[:, None] + c * b_digit) % p
    return codes


# ------------------------------------------------- brute-force enumerations

def row_space_vectors(p: int, rows, ncols: int) -> list[tuple[int, ...]]:
    """Every vector of the row space, sorted lexicographically: one per coefficient tuple of its RREF basis."""
    basis = reference_row_space(p, rows, ncols)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * ncols
        for c, row in zip(coeffs, basis):
            v = [(a + c * b) % p for a, b in zip(v, row)]
        out.append(tuple(v))
    return sorted(out)


def iter_rref_bases(ncols: int, r: int, p: int):
    """All rank-r RREF matrices with ncols columns, as row tuples: one per r-dimensional subspace of F_p^ncols."""
    for pivots in itertools.combinations(range(ncols), r):
        free_positions = [(i, c) for i in range(r) for c in range(pivots[i] + 1, ncols) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * ncols for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_positions, values):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


def reference_even_skew(x) -> bool:
    """lines.validate_even_skew by counting, for every co-dimension-2 subspace of F_2^dim, the lines skew to it.

    The subspace is the kernel of a rank-2 matrix of constraints, and a line
    is skew to it when none of its three points lies in it.
    """
    line_vectors = geometry.digits(2, x.dim, x.points)
    for rows in iter_rref_bases(x.dim, 2, 2):
        skew = (line_vectors @ np.array(rows).T % 2).any(axis=2).all(axis=1)
        if np.count_nonzero(skew) & 1:
            return False
    return True


def reference_extend(s: StabiliserGroup) -> StabiliserGroup:
    """pauli.extend_to_maximal_abelian by listing the dual, sorted, and adjoining its first vector outside the row space."""
    current = s
    while current.num_generators < current.n:
        rows = set(row_space_vectors(s.p, current.gmatrix, 2 * s.n))
        v = next(v for v in row_space_vectors(s.p, centraliser_basis(current), 2 * s.n) if v not in rows)
        current = StabiliserGroup(s.modulus, s.n, np.vstack([current.rows, (0, *v)]))
    return current


def reference_check_weight(b: np.ndarray, p: int, supports: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha_E and the residual of each error of one weight, by one Pauli action per error: the reference for oracle._check_weight.

    The errors come sorted by support and then by x part, as kl_detect
    passes them. With E_S |y> = u^power[y] |perm[y]> from
    oracle._pauli_action on the w sites of E's support S, B^dag E B is
    sum_y u^power[y] R_S[perm[y], y] over the p^w columns y of R_S; the
    errors on S with the same x part have the same perm, so each run of
    them is one product of its phases with the gathered R_S[perm[y], y].
    R_S is formed in blocks of columns within 1/4 of fields.MAX_BYTES, and
    the errors are taken in chunks within 1/2 of it, one action per chunk.
    """
    cols = b.shape[1]
    count, w = len(ops), int(supports[0].sum())
    size, square = p ** w, cols * cols
    width = min(size, fields.MAX_BYTES // 4 // (size * square * 16))
    chunk = max(1, fields.MAX_BYTES // 2 // (size * 64 + square * 32))
    blocks = [(y0, min(y0 + width, size)) for y0 in range(0, size, width)]
    phase, x, z = split_rows(ops)
    x = x[supports].reshape(count, w)
    local = np.column_stack((phase, x, z[supports].reshape(count, w)))
    new_support = np.ones(count, dtype=bool)
    new_support[1:] = np.diff(supports, axis=0).any(axis=1)
    new_run = new_support.copy()
    new_run[1:] |= np.diff(x, axis=0).any(axis=1)
    roots = oracle._roots(p)
    diagonal = np.arange(cols)
    alphas = np.empty(count, dtype=complex)
    residuals = np.empty(count)
    whole = None
    for first in range(0, count, chunk):
        part = slice(first, first + chunk)
        perm, power = oracle._pauli_action(p, local[part])
        phases = roots[power]
        m = np.zeros((len(perm), square), dtype=complex)
        begins_support, begins_run = new_support[part].copy(), new_run[part].copy()
        begins_support[0] = begins_run[0] = True
        run_starts = np.flatnonzero(begins_run)
        edges = [*np.flatnonzero(begins_support), len(perm)]
        for lo, hi in zip(edges, edges[1:]):
            support = supports[first + lo]
            starts = run_starts[np.searchsorted(run_starts, lo):np.searchsorted(run_starts, hi)]
            runs = list(zip(starts, [*starts[1:], hi]))
            if len(blocks) == 1 and new_support[first + lo]:
                whole = oracle._reduced_gram(b, p, support, 0, size)
            for y0, y1 in blocks:
                gram = whole if len(blocks) == 1 else oracle._reduced_gram(b, p, support, y0, y1)
                gathered = gram[perm[starts, y0:y1], :, np.arange(y1 - y0), :]
                for run, (r0, r1) in zip(gathered.reshape(len(starts), y1 - y0, square), runs):
                    m[r0:r1] += phases[r0:r1, y0:y1] @ run
        cube = m.reshape(-1, cols, cols)
        alpha = np.trace(cube, axis1=1, axis2=2) / cols
        cube[:, diagonal, diagonal] -= alpha[:, np.newaxis]
        alphas[part] = alpha
        squares = np.einsum("ij,ij->i", m.real, m.real) + np.einsum("ij,ij->i", m.imag, m.imag)
        residuals[part] = np.sqrt(squares / cols)
    return alphas, residuals
