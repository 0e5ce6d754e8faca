"""Text file formats: generator matrices, graphs, coding sets, restrictions.

Generator format: header line "p n k", then n-k lines of 2n residues
(X block then Z block), matching printed matrices column for column.
Graph format: header "p n", then "i j label" lines (0-based, label in [1, p)),
each vertex pair at most once.
Coding-set format: header "p len", then one vector per line.
Restriction format: one homogeneous constraint (coefficient row) per line.
"""

from __future__ import annotations

import numpy as np

from .errors import InputFormatError
from .fields import PrimeModulus
from .pauli import StabiliserGroup
from .search import CodingSet, LabelledGraph


def _int_fields(line: str, lineno: int, expected: int | None = None) -> list[int]:
    parts = line.split()
    try:
        values = [int(x) for x in parts]
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: non-integer field", line=lineno) from exc
    if expected is not None and len(values) != expected:
        raise InputFormatError(
            f"line {lineno}: expected {expected} fields, got {len(values)}", line=lineno
        )
    return values


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _header(text: str, kind: str, count: int) -> tuple[int, PrimeModulus, list[int], list[tuple[int, str]]]:
    """The header's line number, its modulus p and the fields after p, and the content lines below it.

    The header is the first content line, "p" and then count - 1 more
    integer fields; a file with no content lines is an empty kind file.
    """
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError(f"empty {kind} file")
    lineno, header = lines[0]
    p, *rest = _int_fields(header, lineno, count)
    try:
        modulus = PrimeModulus(p)
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: {exc}", line=lineno) from exc
    return lineno, modulus, rest, lines[1:]


def parse_generators(text: str) -> StabiliserGroup:
    lineno, modulus, (n, k), body = _header(text, "generator", 3)
    if n < 1 or not 0 <= k <= n:
        raise InputFormatError(f"line {lineno}: need n >= 1 and 0 <= k <= n, got n = {n}, k = {k}", line=lineno)
    if len(body) != n - k:
        # the first surplus row, or the header when rows are missing
        ln = body[n - k][0] if len(body) > n - k else lineno
        raise InputFormatError(f"line {ln}: expected {n - k} generator rows, got {len(body)}", line=ln)
    rows = [_int_fields(line, ln, 2 * n) for ln, line in body]
    return StabiliserGroup.from_matrix(modulus, n, np.array(rows, dtype=np.int64).reshape(n - k, 2 * n))


def format_generators(s: StabiliserGroup) -> str:
    lines = [f"{s.p} {s.n} {s.k}"]
    for row in s.gmatrix.tolist():
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabelledGraph:
    _, modulus, (n,), body = _header(text, "graph", 2)
    p = modulus.p
    edges = []
    # the line of each edge so far, keyed by its ends in either order
    seen: dict[tuple[int, int], int] = {}
    for ln, line in body:
        i, j, label = _int_fields(line, ln, 3)
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise InputFormatError(f"line {ln}: bad edge ({i}, {j})", line=ln)
        if not (1 <= label < p):
            raise InputFormatError(f"line {ln}: label must be in [1, {p})", line=ln)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InputFormatError(f"line {ln}: edge ({i}, {j}) repeats the edge of line {seen[key]}", line=ln)
        seen[key] = ln
        edges.append((i, j, label))
    return LabelledGraph.from_edges(modulus, n, edges)


def parse_coding_set(text: str) -> CodingSet:
    lineno, modulus, (length,), body = _header(text, "coding-set", 2)
    # the line of each vector so far, reduced mod p, so that a repeat names both lines
    seen: dict[tuple[int, ...], int] = {}
    for ln, line in body:
        v = tuple(e % modulus.p for e in _int_fields(line, ln, length))
        if v in seen:
            raise InputFormatError(f"line {ln}: vector {v} repeats the vector of line {seen[v]}", line=ln)
        seen[v] = ln
    if (0,) * length not in seen:
        raise InputFormatError(f"line {lineno}: coding set must contain the zero vector", line=lineno)
    return CodingSet(modulus, np.array(list(seen), dtype=np.int64).reshape(len(seen), length))


def format_coding_set(t: CodingSet) -> str:
    lines = [f"{t.p} {t.length}"]
    for row in t.vectors.tolist():
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_restriction(text: str, modulus: PrimeModulus, width: int) -> np.ndarray:
    """Constraint rows of a homogeneous system, as a read-only int64 array mod p; solutions form the subspace."""
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty restriction file")
    rows = np.array([_int_fields(line, ln, width) for ln, line in lines], dtype=np.int64) % modulus.p
    rows.setflags(write=False)
    return rows
