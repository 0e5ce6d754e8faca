"""Command-line interface.

Every subcommand is a one-shot, fully deterministic computation: files in,
report out.  Machine format emits stable key=value lines; text format says
the same thing in prose.  Exit codes: 0 success, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import sys

from . import io, lines as lines_mod, oracle, pauli, search
from .errors import InputFormatError, QsolError
from .fields import kernel_basis
from .geometry import ProjSubspace
from .lines import AtLeast

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--format", choices=["text", "machine"], default="text")
        return sp

    sp = add("validate", "check stabiliser-group and line-set invariants")
    sp.add_argument("--gens", required=True)

    sp = add("distance", "dependent-point distance of the line set")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--limit", type=int, required=True)

    sp = add("project", "project the line set from the coding-set vectors")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--tset", required=True)

    sp = add("gamma", "candidate vertices and compatibility-graph statistics")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--restrict")

    sp = add("cliques", "maximum cliques of the compatibility graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--restrict")
    sp.add_argument("--clique-mode", choices=["exact", "greedy"], default="exact")
    sp.add_argument("--time-limit", type=float)

    sp = add("recipe", "full graph-to-code construction run")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--restrict")
    sp.add_argument("--clique-mode", choices=["exact", "greedy"], default="exact")
    sp.add_argument("--time-limit", type=float)

    sp = add("verify", "error-detection check of a constructed code")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--tset", required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = add("extend", "complete a group to a maximal abelian (self-dual) one")
    sp.add_argument("--gens", required=True)

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


def _restriction_subspace(args, modulus, width):
    if not args.restrict:
        return None
    constraints = io.parse_restriction(_read(args.restrict), modulus, width)
    return ProjSubspace(modulus, kernel_basis(constraints))


def _gamma_pipeline(args):
    graph = io.parse_graph(_read(args.graph))
    group = search.graph_to_generators(graph)
    x = lines_mod.lines_from_matrix(group.gmatrix, graph.n, 0)
    restriction = _restriction_subspace(args, graph.modulus, graph.n)
    excluded = search.excluded_points(x, args.d)
    verts = search.candidate_vertices(x, excluded, restriction)
    return graph, x, verts, search.gamma_graph(x, verts, excluded)


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
    group = io.parse_generators(_read(args.gens))
    tset = io.parse_coding_set(_read(args.tset))
    x = lines_mod.lines_from_matrix(group.gmatrix, group.n, group.k)
    projected = lines_mod.project_lines(x, tset.nonzero())
    g = lines_mod.matrix_from_lines(projected)
    n = projected.n
    k = n - g.nrows
    out = [f"{group.p} {n} {k}"] + [" ".join(str(e) for e in row) for row in g.rows]
    print("\n".join(out))
    return EXIT_OK


def cmd_gamma(args) -> int:
    _, _, verts, gamma = _gamma_pipeline(args)
    pairs = [("vertices", gamma.num_vertices), ("edges", gamma.num_edges)]
    text = [f"compatibility graph: {gamma.num_vertices} vertices, {gamma.num_edges} edges"]
    _emit(args, pairs, text)
    return EXIT_OK


def cmd_cliques(args) -> int:
    _, _, _, gamma = _gamma_pipeline(args)
    cliques = search.find_cliques(gamma, args.clique_mode, args.time_limit)
    size = len(cliques[0]) if cliques else 0
    pairs = [
        ("vertices", gamma.num_vertices),
        ("edges", gamma.num_edges),
        ("cliques_found", len(cliques)),
        ("clique_size", size),
    ]
    text = [f"{len(cliques)} clique(s) of size {size}"]
    for c in cliques:
        text.append("  " + " ".join("".join(str(e) for e in gamma.vertices[i].coords) for i in c))
    _emit(args, pairs, text)
    return EXIT_OK


def cmd_recipe(args) -> int:
    graph = io.parse_graph(_read(args.graph))
    restriction = _restriction_subspace(args, graph.modulus, graph.n - args.k)
    report = search.run_recipe(
        graph,
        d=args.d,
        k=args.k,
        restriction=restriction,
        clique_mode=args.clique_mode,
        time_limit=args.time_limit,
    )
    _emit(args, [tuple(kv.split("=", 1)) for kv in report.machine_lines()], report.text_lines())
    return EXIT_OK


def cmd_verify(args) -> int:
    group = io.parse_generators(_read(args.gens))
    tset = io.parse_coding_set(_read(args.tset))
    basis = oracle.code_basis(group, tset)
    # every component contributes its measured rank, and the stacked basis
    # is checked orthonormal, so its column count is the code's dimension
    dim = basis.shape[1]
    expected = len(tset.vectors) * group.p ** group.k
    errs = oracle.error_classes(group.modulus, group.n, max(args.d - 1, 0))
    report = oracle.kl_detect(basis, errs)
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
        return _COMMANDS[args.command](args)
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QsolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
