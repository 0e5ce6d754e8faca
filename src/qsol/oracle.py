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
p^w x p^w blocks of K x K: one R_S serves every error on S.
Memory is guarded by one byte budget, MAX_BYTES.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidGroup, TooLarge
from .pauli import StabiliserGroup, split_rows

MAX_BYTES = 2 ** 28

ORTHONORMAL_TOL = 1e-9
RANK_TOL = 1e-9
KL_TOL = 1e-9

# the start block of every component basis, fixed so that runs repeat exactly
_START_SEED = 0


def _check_bytes(what: str, estimate: int, part: int = 1) -> None:
    """Raise TooLarge, with the estimate, unless estimate bytes fit MAX_BYTES / part."""
    if estimate * part > MAX_BYTES:
        share = "" if part == 1 else f"1/{part} of "
        raise TooLarge(
            f"{what} needs about {estimate / 2 ** 20:.1f} MiB, "
            f"over {share}the {MAX_BYTES / 2 ** 20:.0f} MiB budget"
        )


def _check_budget(p: int, n: int, columns: int) -> int:
    """dim = p^n, after checking that a complex dim x columns array fits MAX_BYTES."""
    dim = p ** n
    _check_bytes(f"a complex {dim} x {columns} array", dim * columns * 16)
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
    and a chunk takes as many components as fit 1/2 of MAX_BYTES, at
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
    _check_bytes(
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
    chunk = max(1, MAX_BYTES // 2 // (4 * start.nbytes))
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
    """
    letters = np.array([(a, b) for a in range(p) for b in range(p) if a or b], dtype=np.int64)
    width = 2 * n + 1
    blocks = [np.zeros((0, width), dtype=np.int64)]
    for w in range(1, min(w_max, n) + 1):
        supports = np.array(list(itertools.combinations(range(n), w)))[:, np.newaxis, :]
        # one row of w letters per value, the first site slowest
        values = letters[np.indices((len(letters),) * w).reshape(w, -1).T]
        block = np.zeros((len(supports), len(values), width), dtype=np.int64)
        np.put_along_axis(block, 1 + supports, values[..., 0], axis=2)
        np.put_along_axis(block, 1 + n + supports, values[..., 1], axis=2)
        blocks.append(block.reshape(-1, width))
    return np.concatenate(blocks)


@dataclass(frozen=True, eq=False)
class KLReport:
    """alpha_E and the residual of each error row, in input order, and the failing rows' indices."""

    passed: bool
    max_residual: float
    tolerance: float
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


def _check_weight(b: np.ndarray, p: int, supports: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha_E and the residual of each error of one weight w.

    The errors are operator rows with their supports as boolean masks,
    sorted by support and then by x part. With E_S |y> = u^power[y] |perm[y]>
    from _pauli_action on the w sites of E's support S,
    B^dag E B = sum_y u^power[y] R_S[perm[y], y] over the p^w columns y of
    R_S. The errors on S with the same x part have the same perm, so each
    run of them is one product of its phases with the gathered R_S[perm[y], y].
    R_S is formed in blocks of columns, each within 1/4 of MAX_BYTES and
    gathered once; when it fits in one block, it is formed once per support.
    The errors are taken in chunks within 1/2 of MAX_BYTES, with one action
    per chunk.
    """
    cols = b.shape[1]
    count, w = len(ops), int(supports[0].sum())
    size, square = p ** w, cols * cols
    _check_bytes(
        f"one column of {p}^{w}*{cols}^2 = {size * square} entries of a reduced Gram tensor "
        f"of {p}^{2 * w}*{cols}^2 = {size * size * square} entries",
        size * square * 16,
        part=4,
    )
    width = min(size, MAX_BYTES // 4 // (size * square * 16))
    # per error: the integer action and its temporaries, its phases and its K x K product
    chunk = max(1, MAX_BYTES // 2 // (size * 64 + square * 32))
    blocks = [(y0, min(y0 + width, size)) for y0 in range(0, size, width)]
    # each error restricted to its own w sites
    phase, x, z = split_rows(ops)
    x = x[supports].reshape(count, w)
    local = np.column_stack((phase, x, z[supports].reshape(count, w)))
    new_support = np.ones(count, dtype=bool)
    new_support[1:] = np.diff(supports, axis=0).any(axis=1)
    new_run = new_support.copy()
    new_run[1:] |= np.diff(x, axis=0).any(axis=1)
    roots = _roots(p)
    diagonal = np.arange(cols)
    alphas = np.empty(count, dtype=complex)
    residuals = np.empty(count)
    whole = None
    for first in range(0, count, chunk):
        part = slice(first, first + chunk)
        perm, power = _pauli_action(p, local[part])
        phases = roots[power]
        m = np.zeros((len(perm), square), dtype=complex)
        # the rows of this chunk where a support, or a run of one x part, begins
        begins_support, begins_run = new_support[part].copy(), new_run[part].copy()
        begins_support[0] = begins_run[0] = True
        run_starts = np.flatnonzero(begins_run)
        edges = [*np.flatnonzero(begins_support), len(perm)]
        for lo, hi in zip(edges, edges[1:]):
            support = supports[first + lo]
            starts = run_starts[np.searchsorted(run_starts, lo):np.searchsorted(run_starts, hi)]
            runs = list(zip(starts, [*starts[1:], hi]))
            if len(blocks) == 1 and new_support[first + lo]:
                whole = _reduced_gram(b, p, support, 0, size)
            for y0, y1 in blocks:
                gram = whole if len(blocks) == 1 else _reduced_gram(b, p, support, y0, y1)
                gathered = gram[perm[starts, y0:y1], :, np.arange(y1 - y0), :]
                for run, (r0, r1) in zip(gathered.reshape(len(starts), y1 - y0, square), runs):
                    m[r0:r1] += phases[r0:r1, y0:y1] @ run
        cube = m.reshape(-1, cols, cols)
        alpha = np.trace(cube, axis1=1, axis2=2) / cols
        cube[:, diagonal, diagonal] -= alpha[:, np.newaxis]
        alphas[part] = alpha
        # the Frobenius norms, without a temporary the size of m
        squares = np.einsum("ij,ij->i", m.real, m.real) + np.einsum("ij,ij->i", m.imag, m.imag)
        residuals[part] = np.sqrt(squares / cols)
    return alphas, residuals


def kl_detect(b: np.ndarray, p: int, ops: np.ndarray, tolerance: float = KL_TOL) -> KLReport:
    """Check B^dag E B = alpha_E I for every error row E.

    b is an orthonormal dim x K basis of the code. alpha_E = tr(B^dag E B) / K
    and the residual is ||B^dag E B - alpha_E I||_F / sqrt(K), which equal
    tr(P E) / tr(P) and ||P E P - alpha_E P||_F / ||P||_F for P = B B^dag.

    B^dag E B depends only on E's restriction E_S to its support S: it is
    sum_{alpha, beta} E_S[alpha, beta] R_S[alpha, beta] for the reduced Gram
    tensor R_S. The errors are sorted by weight, support and x part, and
    each support's errors are checked against one R_S (_check_weight),
    global phase included. The report keeps the order of ops.
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
    failures = np.flatnonzero(residuals > tolerance)
    return KLReport(
        passed=not len(failures),
        max_residual=float(residuals.max(initial=0.0)),
        tolerance=tolerance,
        alphas=alphas,
        residuals=residuals,
        failures=failures,
    )
