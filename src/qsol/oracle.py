"""Numerical ground truth for constructed codes, on an orthonormal code basis.

A code Q(S, T) is the direct sum of the joint eigenspaces Q_t, t in T, so it
has dimension K = |T|.p^k, far below p^n. Each Q_t is found by applying the
generator projectors (1/p) sum_j w^{-j t_i} g_i^j to a fixed start block.
Every Pauli acts on the computational basis as a permutation with phases,
so each application is a gather and a phase multiply, and no dim x dim
matrix is formed; the action of each generator is computed once per code
and held as small integers. Each generator acts once on the start blocks of
all components, stacked, with its eigenvalue coefficients per component,
and one batched SVD ends the pass; the components are taken in chunks that
fit the byte budget. For p = 2, when every generator acts with phases +-1,
the basis is real, and so are the Gram products of the KL check.

A stack of n-qupit Pauli operators is one integer array, one row per
operator, with columns phase | x_1..x_n | z_1..z_n and entries reduced mod p
(the phase mod 4 for p = 2): the phase, then the X block and the Z block of
a generator file, and the rows of a StabiliserGroup, which code_basis reads.

The error-detection conditions are the K x K matrices B^dag E B = alpha_E I
for the dim x K code basis B. B^dag E B depends only on the restriction of
E to its support S, of weight w, and on the code's reduced Gram tensor R_S,
p^w x p^w blocks of K x K: one R_S serves every error on S. On S an error
is u^c X^x Z^z, and B^dag E B = u^c sum_y omega^(z.y) R_S[y + x, y]: for
each x, the blocks of every z at once are the character transform over
F_p^w of the shifted diagonal R_S[y + x, y], so each support takes one
gather and w products with the p x p character matrix, and no Pauli
action. Memory is guarded by the one byte budget, fields.MAX_BYTES.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import fields
from .errors import DimensionMismatch, InvalidGroup
from .pauli import StabiliserGroup, split_rows

ORTHONORMAL_TOL = 1e-9
RANK_TOL = 1e-9
KL_TOL = 1e-9

# the start block of every component basis, fixed so that runs repeat exactly
_START_SEED = 0


def _check_budget(p: int, n: int, columns: int) -> int:
    """dim = p^n, after checking that a complex dim x columns array fits fields.MAX_BYTES."""
    dim = p ** n
    fields.check_bytes(f"a complex {dim} x {columns} array", dim * columns * 16)
    return dim


@lru_cache(maxsize=4)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digits of every basis index, one column per site, most significant first.

    A few tables are kept: one check alternates between the whole system and
    the small error supports.
    """
    idx = np.arange(p ** n)
    digits = np.empty((p ** n, n), dtype=np.uint8)
    for site in range(n - 1, -1, -1):
        digits[:, site] = idx % p
        idx = idx // p
    digits.flags.writeable = False
    return digits


def _roots(p: int) -> np.ndarray:
    """The powers of the phase unit u of a Pauli action: u = i for p = 2, omega otherwise."""
    if p == 2:
        return np.array([1, 1j, -1, -1j])
    return np.exp(2j * np.pi * np.arange(p) / p)


def _action_dtypes(p: int, n: int) -> tuple[np.dtype, np.dtype]:
    """The integer types of an action's permutation and of its phase powers."""
    index = np.int32 if p ** n < 2 ** 31 else np.int64
    return np.dtype(index), np.min_scalar_type(3 if p == 2 else p - 1)


def _pauli_action(p: int, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column actions of a stack of operator rows.

    M_e |y> = u^power[e, y] |perm[e, y]>, so M_e[perm[e, y], y] is
    _roots(p)[power[e, y]]. For p = 2 an operator is i^(phase + x.z) X^x Z^z,
    which makes each Y letter i.X.Z, and u = i; for odd p it is
    w^phase X^x Z^z and u = w. Both arrays have the small integer types of
    _action_dtypes. Only the sites where some row is nonzero are visited.
    """
    phase, x, z = split_rows(ops)
    rows, n = x.shape
    index, small = _action_dtypes(p, n)
    order = 4 if p == 2 else p
    digits = _digits(p, n)
    perm = np.empty((rows, p ** n), dtype=index)
    perm[:] = np.arange(p ** n)
    exponents = np.zeros((rows, p ** n), dtype=np.int64)
    for site in np.flatnonzero(x.any(axis=0) | z.any(axis=0)):
        digit = digits[:, site]
        perm += ((digit + x[:, site, np.newaxis]) % p - digit) * p ** (n - 1 - site)
        exponents += z[:, site, np.newaxis] * digit
    scalar = (phase + np.sum(x * z, axis=1)) % 4 if p == 2 else phase % p
    # Z^z gives w^(z.y), which for p = 2 is i^(2 z.y)
    power = (scalar[:, np.newaxis] + order // p * exponents) % order
    return perm, power.astype(small)


def apply_right(mat: np.ndarray, p: int, op: np.ndarray) -> np.ndarray:
    """mat @ M for one operator row M, without forming M densely."""
    op = np.asarray(op, dtype=np.int64).reshape(1, -1)
    dim = p ** (op.shape[1] // 2)
    if mat.shape[-1] != dim:
        raise DimensionMismatch(f"{mat.shape[-1]} columns, operator dimension {dim}")
    (perm,), (power,) = _pauli_action(p, op)
    # (mat @ M)[i, x] = mat[i, perm[x]] * phases[x]
    return mat[:, perm] * _roots(p)[power][np.newaxis, :]


def component_projector(s: StabiliserGroup, t: Sequence[int]) -> np.ndarray:
    """The dense projector B B^dag onto Q_t, where generator i acts as omega^{t_i}.

    The oracle itself works on bases and never calls this. The benchmark's
    tracer (perfbench/tracer.py) looks the name up, so it stays until the
    benchmark drops it.
    """
    _check_budget(s.p, s.n, s.p ** s.n)
    b = code_basis(s, [t])
    return b @ b.conj().T


def code_basis(s: StabiliserGroup, vectors: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The component bases of the rows of sign vectors t, side by side.

    The vectors are the rows of a coding set (CodingSet.vectors) or any
    rows of integers, one sign per generator: generator i acts on Q_t as
    omega^{t_i}. Each Q_t gets an orthonormal dim x p^k basis. The
    projector onto Q_t is Hermitian, so it is applied from the right to the
    rows of a fixed (p^k + 1) x dim start block; the row space that
    survives is the conjugate of Q_t, and exactly p^k singular values must
    stay above tolerance.

    The action of each generator row of s.rows is computed once. All
    components go through one pass over the generators: each generator
    acts on a (components, p^k + 1, dim) block, with omega^{-j t_i} as a
    per-component coefficient, and one batched SVD follows. The
    components are taken in chunks: each holds its block, the running sum
    acc, the gathered term and its multiple, four (p^k + 1) x dim arrays,
    and a chunk takes as many components as fit 1/2 of fields.MAX_BYTES, at
    least one. For p = 2, when every generator acts
    with phases +-1 only (an even power table: no odd count of Y letters),
    the start block, the phases and the coefficients are real, and so is
    the basis; otherwise it is complex. The up-front budget counts the
    actions, held as small integers, with a complex basis. Raises
    ValueError unless the result is orthonormal, which also catches
    components that are not mutually orthogonal.
    """
    signs = np.array(vectors, dtype=np.int64)
    p, n = s.p, s.n
    expected = p ** s.k
    columns = len(signs) * expected + 1
    dim = _check_budget(p, n, columns)
    action_bytes = sum(t.itemsize for t in _action_dtypes(p, n))
    fields.check_bytes(
        f"a complex {dim} x {columns} array with the actions of {s.num_generators} generators",
        dim * (columns * 16 + s.num_generators * action_bytes),
    )
    if signs.ndim != 2 or signs.shape[1] != s.num_generators:
        raise ValueError("one sign per generator required")
    # one generator per call, so that the integer temporaries of only one are held
    actions = [_pauli_action(p, s.rows[i:i + 1]) for i in range(s.num_generators)]
    roots = _roots(p)
    if p == 2 and not any((power & 1).any() for _, power in actions):
        roots = roots.real
    # omega = u^(order / p), so omega^{-j t} is a root too, and +-1 when p = 2
    order = len(roots)
    start = np.random.default_rng(_START_SEED).standard_normal((expected + 1, dim)).astype(roots.dtype)
    chunk = max(1, fields.MAX_BYTES // 2 // (4 * start.nbytes))
    b = np.empty((dim, len(signs) * expected), dtype=roots.dtype)
    for first in range(0, len(signs), chunk):
        t = signs[first:first + chunk]
        rows = np.broadcast_to(start, (len(t), *start.shape))
        for ((perm,), (power,)), ti in zip(actions, t.T):
            phase = roots[power]
            acc = rows
            term = rows
            for j in range(1, p):
                term = term[..., perm] * phase
                acc = acc + roots[-j * ti * (order // p) % order][:, np.newaxis, np.newaxis] * term
            rows = acc / p
        # the start entries are of order 1, and so are the singular values of the
        # directions that survive; rounding leaves the others near 1e-16
        _, sing, vh = np.linalg.svd(rows, full_matrices=False)
        ranks = np.count_nonzero(sing > RANK_TOL * np.maximum(sing[:, :1], 1.0), axis=1)
        if (ranks != expected).any():
            bad = np.flatnonzero(ranks != expected)[0]
            raise InvalidGroup(f"component Q_t, t = {tuple(t[bad].tolist())}, has rank {ranks[bad]} != p^k = {expected}")
        cols = slice(first * expected, (first + len(t)) * expected)
        b[:, cols] = vh[:, :expected].conj().transpose(2, 0, 1).reshape(dim, -1)
    _check_orthonormal(b)
    return b


def _check_orthonormal(b: np.ndarray) -> None:
    cols = b.shape[1]
    gram = b.conj().T @ b
    if np.linalg.norm(gram - np.eye(cols)) > ORTHONORMAL_TOL * max(1.0, np.sqrt(cols)):
        raise ValueError("basis is not orthonormal within tolerance")


def error_classes(p: int, n: int, w_max: int) -> np.ndarray:
    """One phase-0 operator row per symplectic class of weight 1..w_max.

    The rows come by weight, then by support, then by the letters
    (a, b) != (0, 0) at the support's sites in itertools.product order.
    They are counted first and refused with TooLarge, before any is built,
    over fields.MAX_BYTES; then one array is filled weight by weight.
    """
    letters = np.array([(a, b) for a in range(p) for b in range(p) if a or b], dtype=np.int64)
    width = 2 * n + 1
    rows = sum(math.comb(n, w) * len(letters) ** w for w in range(1, min(w_max, n) + 1))
    fields.check_bytes(f"{rows} error classes of {width} int64 entries", rows * width * 8)
    out = np.zeros((rows, width), dtype=np.int64)
    start = 0
    for w in range(1, min(w_max, n) + 1):
        supports = np.array(list(itertools.combinations(range(n), w)))[:, np.newaxis, :]
        # one row of w letters per value, the first site slowest
        values = letters[np.indices((len(letters),) * w).reshape(w, -1).T]
        block = out[start:start + len(supports) * len(values)].reshape(len(supports), len(values), width)
        np.put_along_axis(block, 1 + supports, values[..., 0], axis=2)
        np.put_along_axis(block, 1 + n + supports, values[..., 1], axis=2)
        start += len(supports) * len(values)
    return out


@dataclass(frozen=True, eq=False)
class KLReport:
    """alpha_E and the residual of each error row, in input order, and the failing rows' indices."""

    passed: bool
    max_residual: float
    alphas: np.ndarray
    residuals: np.ndarray
    failures: np.ndarray

    def __len__(self):
        return len(self.alphas)


def _reduced_gram(b: np.ndarray, p: int, support: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the code's reduced Gram tensor R_S on a support.

    support is a boolean mask over the n sites. With its w sites moved to the
    front of each basis index,
    R_S[alpha, beta, i, j] = sum_r conj(B[(alpha, r), i]) B[(beta, r), j],
    summed over the p^(n-w) values r of the other sites. A block of columns
    beta is one product F^dag F_beta, where F is B with the other sites as
    rows; it is returned as block[alpha, i, beta - start, j].
    """
    dim, cols = b.shape
    n = len(support)
    sites, rest = np.flatnonzero(support), np.flatnonzero(~support)
    size = p ** len(sites)
    f = b.reshape((p,) * n + (cols,)).transpose([*rest, *sites, n]).reshape(dim // size, size * cols)
    return (f.conj().T @ f[:, start * cols:stop * cols]).reshape(size, cols, stop - start, cols)


@lru_cache(maxsize=2)
def _shifted_diagonals(p: int, w: int, x0: int, x1: int, y0: int, y1: int) -> tuple:
    """The index that gathers R_S[y + x, y] for x in [x0, x1) from columns y0..y1-1 of R_S.

    A block of R_S is indexed [alpha, i, y - y0, j], as _reduced_gram
    returns it: shift[x - x0, y - y0] = code(y + x), the digits of F_p^w
    added site by site mod p, picks the rows alpha, and the block's own
    columns run alongside, so the gather is (x1 - x0, y1 - y0, K, K). Two
    indices are kept: one check alternates between its weights.
    """
    digits = _digits(p, w)
    shift = np.zeros((x1 - x0, y1 - y0), dtype=np.int64)
    for site in range(w):
        shift += np.add(digits[x0:x1, site, np.newaxis], digits[y0:y1, site], dtype=np.int64) % p * p ** (w - 1 - site)
    columns = np.arange(y1 - y0)
    shift.flags.writeable = columns.flags.writeable = False
    return shift, slice(None), columns, slice(None)


@lru_cache(maxsize=4)
def _characters(p: int) -> np.ndarray:
    """The p x p character matrix omega^(z y) of F_p, real (+-1) for p = 2."""
    order = 4 if p == 2 else p
    chars = _roots(p)[order // p * np.outer(np.arange(p), np.arange(p)) % order]
    chars = np.ascontiguousarray(chars.real) if p == 2 else chars
    chars.flags.writeable = False
    return chars


def _transformed_table(
    b: np.ndarray, p: int, support: np.ndarray, w: int, x0: int, x1: int, blocks: list
) -> tuple[np.ndarray, np.ndarray]:
    """alpha and K times the squared residual of M_S[x, z] for x in [x0, x1) and every z, x-major.

    support is a boolean mask of the w sites of S. M_S[x, z] =
    sum_y omega^(z.y) G_x[y] for the shifted diagonals
    G_x[y] = R_S[y + x, y]. R_S is formed a block of columns (y0, y1) at
    a time, which gathers the columns y0..y1-1 of G; then the character
    transform over F_p^w takes one product with the p x p character matrix
    per site (a Hadamard transform for p = 2). alpha = tr(M) / K, and the
    squared Frobenius norm of M - alpha I is summed with a complex entry
    read as two reals.
    """
    cols = b.shape[1]
    parts = [_reduced_gram(b, p, support, y0, y1)[_shifted_diagonals(p, w, x0, x1, y0, y1)] for y0, y1 in blocks]
    table = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    # so that only the transform's own copy is held next to the table
    del parts
    for site in range(w):
        table = _characters(p) @ table.reshape((x1 - x0) * p ** site, p, -1)
    table = table.reshape(-1, cols * cols)
    diagonal = table[:, ::cols + 1]
    alpha = diagonal.sum(axis=1) / cols
    diagonal -= alpha[:, np.newaxis]
    flat = table.view(np.float64)
    return alpha, np.einsum("ij,ij->i", flat, flat)


def _check_weight(b: np.ndarray, p: int, supports: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha_E and the residual of each error of one weight w.

    The errors are operator rows with their supports as boolean masks,
    sorted by support and then by x part. On its support S an error is
    E_S = u^c X^x Z^z, with u = i and c = phase + x.z mod 4 for p = 2 (each
    Y letter is i.X.Z), and u = omega and c = phase for odd p; it maps |y>
    to u^c omega^(z.y) |y + x>, so
    B^dag E B = u^c sum_y omega^(z.y) R_S[y + x, y] = u^c M_S[x, z].
    For each x the shifted diagonal G_x[y] = R_S[y + x, y] is one gather,
    and M_S[x, .] is its character transform over F_p^w, w products with
    the p x p character matrix: w p^(2w+1) K^2 operations for the whole
    table (_transformed_table). Each error reads alpha and the residual of
    its entry M_S[x, z]; alpha takes the phase u^c, and the residual does
    not change under it.

    R_S is formed in blocks of columns, each within 1/4 of fields.MAX_BYTES.
    The table is built for blocks of consecutive x, from the first x of the
    support's errors to the last, each within another 1/4 of it; the
    gather and the transform hold a second copy. The table for every x is
    no larger than R_S, so when R_S is one block each support forms it once.
    """
    cols = b.shape[1]
    count, w = len(ops), int(supports[0].sum())
    size, square = p ** w, cols * cols
    fields.check_bytes(
        f"one column of {p}^{w}*{cols}^2 = {size * square} entries of a reduced Gram tensor "
        f"of {p}^{2 * w}*{cols}^2 = {size * size * square} entries",
        size * square * 16,
        part=4,
    )
    width = min(size, fields.MAX_BYTES // 4 // (size * square * 16))
    # the number of x whose table rows fit 1/4 of the budget: at least one,
    # as a row is no larger than a column of R_S
    rows = fields.MAX_BYTES // 4 // (size * square * b.itemsize)
    blocks = [(y0, min(y0 + width, size)) for y0 in range(0, size, width)]
    # each error restricted to its own w sites, as codes of F_p^w
    phase, x, z = split_rows(ops)
    x, z = x[supports].reshape(count, w), z[supports].reshape(count, w)
    place = p ** np.arange(w - 1, -1, -1)
    xcodes = x @ place
    # an error's entry in the table that starts at x0 is codes - x0 * size
    codes = xcodes * size + z @ place
    power = (phase + np.sum(x * z, axis=1)) % 4 if p == 2 else phase % p
    xs = xcodes.tolist()
    edges = [0, *(np.flatnonzero(np.diff(supports, axis=0).any(axis=1)) + 1).tolist(), count]
    alphas = np.empty(count, dtype=complex)
    squares = np.empty(count)
    for lo, hi in zip(edges, edges[1:]):
        first = lo
        while first < hi:
            x0 = xs[first]
            x1 = min(x0 + rows, xs[hi - 1] + 1)
            last = bisect.bisect_left(xs, x1, first, hi)
            alpha, square_norms = _transformed_table(b, p, supports[lo], w, x0, x1, blocks)
            entry = codes[first:last] - x0 * size
            alphas[first:last] = alpha[entry]
            squares[first:last] = square_norms[entry]
            first = last
    alphas *= _roots(p)[power]
    return alphas, np.sqrt(squares / cols)


def kl_detect(b: np.ndarray, p: int, ops: np.ndarray) -> KLReport:
    """Check B^dag E B = alpha_E I for every error row E.

    b is an orthonormal dim x K basis of the code. alpha_E = tr(B^dag E B) / K
    and the residual is ||B^dag E B - alpha_E I||_F / sqrt(K), which equal
    tr(P E) / tr(P) and ||P E P - alpha_E P||_F / ||P||_F for P = B B^dag.

    B^dag E B depends only on E's restriction E_S = u^c X^x Z^z to its
    support S: it is u^c sum_y omega^(z.y) R_S[y + x, y] for the reduced
    Gram tensor R_S, that is u^c M_S[x, z], where M_S[x, .] is the
    character transform over F_p^w of the shifted diagonal R_S[y + x, y].
    The errors are sorted by weight, support and x part, and each support's
    errors are read off one table M_S (_check_weight), global phase
    included. The report keeps the order of ops; an error whose residual
    exceeds KL_TOL fails.
    """
    _check_orthonormal(b)
    ops = np.asarray(ops, dtype=np.int64)
    dim = b.shape[0]
    if ops.ndim != 2 or ops.shape[1] % 2 == 0 or p ** (ops.shape[1] // 2) != dim:
        raise DimensionMismatch(f"{dim} basis rows, operator rows of shape {ops.shape} for p = {p}")
    _, x, z = split_rows(ops)
    on_support = (x != 0) | (z != 0)
    weights = on_support.sum(axis=1)
    order = np.lexsort((*x.T[::-1], *on_support.T[::-1], weights))
    ops, on_support = ops[order], on_support[order]
    alphas = np.zeros(len(ops), dtype=complex)
    residuals = np.zeros(len(ops))
    bounds = np.searchsorted(weights[order], np.arange(x.shape[1] + 2))
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            alphas[order[lo:hi]], residuals[order[lo:hi]] = _check_weight(b, p, on_support[lo:hi], ops[lo:hi])
    failures = np.flatnonzero(residuals > KL_TOL)
    return KLReport(
        passed=not len(failures),
        max_residual=float(residuals.max(initial=0.0)),
        alphas=alphas,
        residuals=residuals,
        failures=failures,
    )
