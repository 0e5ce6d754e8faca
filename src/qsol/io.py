"""Text file formats: generator matrices, graphs, coding sets, restrictions.

Generator format: header line "p n k", then n-k lines of 2n residues
(X block then Z block), matching printed matrices column for column.
Graph format: header "p n", then "i j label" lines (0-based, label in [1, p)),
each vertex pair at most once.
Coding-set format: header "p len", then one vector per line.
Restriction format: one homogeneous constraint (coefficient row) per line.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputFormatError
from .fields import FpMatrix, FpVector, PrimeModulus
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


def parse_generators(text: str) -> StabiliserGroup:
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty generator file")
    lineno, header = lines[0]
    p, n, k = _int_fields(header, lineno, 3)
    try:
        modulus = PrimeModulus(p)
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: {exc}", line=lineno) from exc
    if n < 1 or not 0 <= k <= n:
        raise InputFormatError(f"line {lineno}: need n >= 1 and 0 <= k <= n, got n = {n}, k = {k}", line=lineno)
    body = lines[1:]
    if len(body) != n - k:
        # the first surplus row, or the header when rows are missing
        ln = body[n - k][0] if len(body) > n - k else lineno
        raise InputFormatError(f"line {ln}: expected {n - k} generator rows, got {len(body)}", line=ln)
    rows = [tuple(_int_fields(line, ln, 2 * n)) for ln, line in body]
    return StabiliserGroup.from_matrix(modulus, n, FpMatrix.from_rows(modulus, rows, 2 * n))


def format_generators(s: StabiliserGroup) -> str:
    lines = [f"{s.p} {s.n} {s.k}"]
    for row in s.gmatrix.rows:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabelledGraph:
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty graph file")
    lineno, header = lines[0]
    p, n = _int_fields(header, lineno, 2)
    try:
        modulus = PrimeModulus(p)
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: {exc}", line=lineno) from exc
    edges = []
    # the line of each edge so far, keyed by its ends in either order
    seen: dict[tuple[int, int], int] = {}
    for ln, line in lines[1:]:
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
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty coding-set file")
    lineno, header = lines[0]
    p, length = _int_fields(header, lineno, 2)
    try:
        modulus = PrimeModulus(p)
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: {exc}", line=lineno) from exc
    # the line of each vector so far, so that a repeat names both lines
    seen: dict[FpVector, int] = {}
    for ln, line in lines[1:]:
        v = FpVector(modulus, tuple(_int_fields(line, ln, length)))
        if v in seen:
            raise InputFormatError(f"line {ln}: vector {v.entries} repeats the vector of line {seen[v]}", line=ln)
        seen[v] = ln
    if FpVector(modulus, (0,) * length) not in seen:
        raise InputFormatError(f"line {lineno}: coding set must contain the zero vector", line=lineno)
    return CodingSet(modulus, length, tuple(seen))


def format_coding_set(t: CodingSet) -> str:
    lines = [f"{t.p} {t.length}"]
    for v in t.vectors:
        lines.append(" ".join(str(e) for e in v.entries))
    return "\n".join(lines) + "\n"


def parse_restriction(text: str, modulus: PrimeModulus, width: int) -> FpMatrix:
    """Constraint rows of a homogeneous system; solutions form the subspace."""
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty restriction file")
    rows = [tuple(_int_fields(line, ln, width)) for ln, line in lines]
    return FpMatrix.from_rows(modulus, rows, width)
