"""Command-line interface.

Every subcommand is a one-shot, fully deterministic computation: files in,
report out.  Machine format emits stable key=value lines; text format says
the same thing in prose.  Exit codes: 0 success, 1 verification failure or
a reader of stdout gone early (as `| head` does; no message), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import geometry, io, lines as lines_mod, oracle, pauli, search
from .errors import InputFormatError, QsolError
from .lines import AtLeast

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qsol parser, built once per process; each parse gets fresh defaults."""
    parser = argparse.ArgumentParser(prog="qsol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that several subcommands share, each declared once
    fmt, gens, tset, graph, time_limit = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    fmt.add_argument("--format", choices=["text", "machine"], default="text")
    gens.add_argument("--gens", required=True)
    tset.add_argument("--tset", required=True)
    graph.add_argument("--graph", required=True)
    graph.add_argument("--d", type=int, required=True)
    graph.add_argument("--restrict")
    time_limit.add_argument("--time-limit", type=float)

    def add(name, help_text, *shared):
        return sub.add_parser(name, help=help_text, parents=[fmt, *shared])

    add("validate", "check stabiliser-group and line-set invariants", gens)
    sp = add("distance", "dependent-point distance of the line set", gens)
    sp.add_argument("--limit", type=int, required=True)
    add("project", "project the line set from the coding-set vectors", gens, tset)
    add("gamma", "candidate vertices and compatibility-graph statistics", graph)
    add("cliques", "maximum cliques of the compatibility graph", graph, time_limit)
    sp = add("recipe", "full graph-to-code construction run", graph, time_limit)
    sp.add_argument("--k", type=int, default=0)
    sp = add("verify", "error-detection check of a constructed code", gens, tset)
    sp.add_argument("--d", type=int, required=True)
    add("extend", "complete a group to a maximal abelian (self-dual) one", gens)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, pairs: list[tuple[str, object]], text: list[str]) -> None:
    if args.format == "machine":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        for line in text:
            print(line)


def _restriction(args, modulus, width):
    return io.parse_restriction(_read(args.restrict), modulus, width) if args.restrict else None


def _read_code(args):
    """The generators and the coding set of a code, refused unless they match in field and length."""
    group = io.parse_generators(_read(args.gens))
    tset = io.parse_coding_set(_read(args.tset))
    if tset.p != group.p:
        raise ValueError(f"coding set over F_{tset.p}, generators over F_{group.p}")
    if tset.length != group.num_generators:
        raise ValueError(f"coding set of length {tset.length}, {group.num_generators} generators")
    return group, tset


def _gamma_pipeline(args):
    graph = io.parse_graph(_read(args.graph))
    group = search.graph_to_generators(graph)
    x = lines_mod.lines_from_matrix(group.gmatrix, graph.n, 0)
    restriction = _restriction(args, graph.modulus, graph.n)
    excluded = search.excluded_points(x, args.d)
    return graph, search.gamma_graph(x, search.candidate_vertices(x, excluded, restriction), excluded)


def cmd_validate(args) -> int:
    group = io.parse_generators(_read(args.gens))
    x = lines_mod.lines_from_matrix(group.gmatrix, group.n, group.k)
    even_skew = lines_mod.validate_even_skew(x) if group.p == 2 else None
    ok = even_skew is not False
    pairs = [("valid", int(ok)), ("n", group.n), ("k", group.k), ("p", group.p)]
    text = [
        f"group on {group.n} qupits (p={group.p}, k={group.k}): "
        + ("valid" if ok else "INVALID"),
    ]
    if even_skew is not None:
        pairs.append(("even_skew", int(even_skew)))
        text.append(f"even-skew line-set property: {'holds' if even_skew else 'FAILS'}")
    _emit(args, pairs, text)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_distance(args) -> int:
    group = io.parse_generators(_read(args.gens))
    x = lines_mod.lines_from_matrix(group.gmatrix, group.n, group.k)
    result = lines_mod.min_dependent_set(x, args.limit)
    if isinstance(result, AtLeast):
        pairs = [("d_lower", result.bound), ("exact", 0)]
        text = [f"d(X) >= {result.bound} (search limit {args.limit} exhausted)"]
    else:
        pairs = [("d_lower", result), ("exact", 1)]
        text = [f"{result}"]
    _emit(args, pairs, text)
    return EXIT_OK


def cmd_project(args) -> int:
    group, tset = _read_code(args)
    x = lines_mod.lines_from_matrix(group.gmatrix, group.n, group.k)
    projected = lines_mod.project_lines(x, tset.vectors)
    g = lines_mod.matrix_from_lines(projected)
    n = projected.n
    k = n - len(g)
    out = [f"{group.p} {n} {k}"] + [" ".join(str(e) for e in row) for row in g.tolist()]
    print("\n".join(out))
    return EXIT_OK


def cmd_gamma(args) -> int:
    _, gamma = _gamma_pipeline(args)
    pairs = [("vertices", gamma.num_vertices), ("edges", gamma.num_edges)]
    text = [f"compatibility graph: {gamma.num_vertices} vertices, {gamma.num_edges} edges"]
    _emit(args, pairs, text)
    return EXIT_OK


def cmd_cliques(args) -> int:
    graph, gamma = _gamma_pipeline(args)
    symmetries = () if args.restrict else search.gamma_symmetries(graph, gamma)
    cliques = search.find_cliques(gamma, args.time_limit, symmetries)
    size = len(cliques[0]) if cliques else 0
    pairs = [
        ("vertices", gamma.num_vertices),
        ("edges", gamma.num_edges),
        ("cliques_found", len(cliques)),
        ("clique_size", size),
        ("count.clique_nodes", cliques.nodes),
        ("count.gamma_orbits", cliques.orbits),
    ]
    text = [f"{len(cliques)} clique(s) of size {size}, {cliques.nodes} search nodes"]
    for c in cliques:
        vectors = geometry.digits(graph.modulus.p, graph.n, [gamma.vertices[i] for i in c]).tolist()
        text.append("  " + " ".join("".join(map(str, v)) for v in vectors))
    _emit(args, pairs, text)
    return EXIT_OK


def cmd_recipe(args) -> int:
    graph = io.parse_graph(_read(args.graph))
    restriction = _restriction(args, graph.modulus, graph.n - args.k)
    report = search.run_recipe(
        graph,
        d=args.d,
        k=args.k,
        restriction=restriction,
        time_limit=args.time_limit,
    )
    _emit(args, [tuple(kv.split("=", 1)) for kv in report.machine_lines()], report.text_lines())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.d < 2:
        raise ValueError("d must be at least 2")
    group, tset = _read_code(args)
    basis = oracle.code_basis(group, tset.vectors)
    # every component contributes its measured rank, and the stacked basis
    # is checked orthonormal, so its column count is the code's dimension
    dim = basis.shape[1]
    expected = len(tset.vectors) * group.p ** group.k
    errs = oracle.error_classes(group.p, group.n, args.d - 1)
    report = oracle.kl_detect(basis, group.p, errs)
    ok = report.passed and dim == expected
    pairs = [
        ("kl_pass", int(report.passed)),
        ("dim", dim),
        ("expected_dim", expected),
        ("error_classes", len(report)),
        ("max_residual", f"{report.max_residual:.3e}"),
    ]
    text = [
        f"KL {'pass' if report.passed else 'FAIL'}, dim={dim} (expected {expected})",
        f"{len(report)} error classes, max residual {report.max_residual:.3e}",
    ]
    _emit(args, pairs, text)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_extend(args) -> int:
    group = io.parse_generators(_read(args.gens))
    extended = pauli.extend_to_maximal_abelian(group)
    sys.stdout.write(io.format_generators(extended))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "distance": cmd_distance,
    "project": cmd_project,
    "gamma": cmd_gamma,
    "cliques": cmd_cliques,
    "recipe": cmd_recipe,
    "verify": cmd_verify,
    "extend": cmd_extend,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone; devnull takes its place, so that the flush at exit succeeds
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (InputFormatError, OSError, ValueError) as exc:
        # the library raises ValueError for a parameter out of its range
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QsolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
