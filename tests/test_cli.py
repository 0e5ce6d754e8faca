"""End-to-end CLI runs through main(argv), checking output and exit codes."""

import os
import re
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import qsol
from qsol.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, build_parser, main


def machine(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs.setdefault(key, []).append(value)
    return pairs


class TestParser:
    def test_one_parser_with_fresh_defaults_per_parse(self):
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["recipe", "--graph", "g", "--d", "3", "--k", "2", "--restrict", "r"])
        second = parser.parse_args(["recipe", "--graph", "g", "--d", "3"])
        assert (first.k, first.restrict) == (2, "r")
        assert (second.k, second.restrict, second.time_limit, second.format) == (0, None, None, "text")

    @pytest.mark.parametrize("command, options", [
        ("validate", {"gens"}),
        ("distance", {"gens", "limit"}),
        ("project", {"gens", "tset"}),
        ("gamma", {"graph", "d", "restrict"}),
        ("cliques", {"graph", "d", "restrict", "time_limit"}),
        ("recipe", {"graph", "d", "restrict", "time_limit", "k"}),
        ("verify", {"gens", "tset", "d"}),
        ("extend", {"gens"}),
    ])
    def test_options_of_each_command(self, command, options):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
        assert dests == options | {"format"}


class TestValidate:
    def test_pentagon_machine(self, data_dir, capsys):
        code = main(["validate", "--gens", str(data_dir / "pentagon.gens"), "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["valid"] == ["1"]
        assert pairs["even_skew"] == ["1"]

    def test_ternary_has_no_even_skew_key(self, data_dir, capsys):
        code = main(["validate", "--gens", str(data_dir / "ternary.gens"), "--format", "machine"])
        assert code == EXIT_OK
        assert "even_skew" not in machine(capsys)

    def test_text_format(self, data_dir, capsys):
        assert main(["validate", "--gens", str(data_dir / "pentagon.gens")]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_twelve_cycle_graph_state(self, tmp_path, capsys):
        # F_2^12 has 2 794 155 co-dimension-2 subspaces, far too many to enumerate here
        from qsol import io
        from qsol.fields import PrimeModulus
        from qsol.search import LabelledGraph, graph_to_generators

        gens = tmp_path / "c12.gens"
        gens.write_text(io.format_generators(graph_to_generators(LabelledGraph.cycle(PrimeModulus(2), 12))))
        assert main(["validate", "--gens", str(gens), "--format", "machine"]) == EXIT_OK
        pairs = machine(capsys)
        assert (pairs["valid"], pairs["n"], pairs["k"], pairs["even_skew"]) == (["1"], ["12"], ["0"], ["1"])


class TestDistance:
    def test_exact(self, data_dir, capsys):
        code = main(["distance", "--gens", str(data_dir / "pentagon.gens"),
                     "--limit", "5", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["d_lower"] == ["3"] and pairs["exact"] == ["1"]

    def test_exhausted_limit(self, data_dir, capsys):
        code = main(["distance", "--gens", str(data_dir / "pentagon.gens"),
                     "--limit", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["d_lower"] == ["3"] and pairs["exact"] == ["0"]

    @pytest.mark.parametrize("limit, machine_out, text_out", [
        (1, "d_lower=2\nexact=0\n", "d(X) >= 2 (search limit 1 exhausted)\n"),
        (2, "d_lower=3\nexact=0\n", "d(X) >= 3 (search limit 2 exhausted)\n"),
        (3, "d_lower=3\nexact=1\n", "3\n"),
        (4, "d_lower=3\nexact=1\n", "3\n"),
    ])
    def test_ternary_limits(self, data_dir, capsys, limit, machine_out, text_out):
        argv = ["distance", "--gens", str(data_dir / "ternary.gens"), "--limit", str(limit)]
        assert main(argv + ["--format", "machine"]) == EXIT_OK
        assert capsys.readouterr().out == machine_out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == text_out


class TestProject:
    def test_emits_parseable_generator_file(self, data_dir, tmp_path, capsys):
        from qsol import io

        pair = tmp_path / "pair.tset"
        pair.write_text("2 5\n0 0 0 0 0\n1 1 0 1 0\n0 1 1 0 1\n")
        code = main(["project", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(pair)])
        assert code == EXIT_OK
        group = io.parse_generators(capsys.readouterr().out)
        assert (group.p, group.n, group.k) == (2, 5, 2)

    def test_subspace_coding_set_projects_from_its_span(self, data_dir, tmp_path, capsys):
        # ternary.tset is a 2-dimensional subspace with 8 nonzero vectors; the
        # projection is from its span, the same as from the basis 1000001, 1011011
        gens = str(data_dir / "ternary.gens")
        assert main(["project", "--gens", gens, "--tset", str(data_dir / "ternary.tset")]) == EXIT_OK
        full = capsys.readouterr().out
        basis = tmp_path / "basis.tset"
        basis.write_text("3 7\n0 0 0 0 0 0 0\n1 0 0 0 0 0 1\n1 0 1 1 0 1 1\n")
        assert main(["project", "--gens", gens, "--tset", str(basis)]) == EXIT_OK
        assert capsys.readouterr().out == full
        header, *rows = full.splitlines()
        assert header == "3 11 6" and len(rows) == 5

    def test_zero_coding_set_projects_by_the_identity(self, data_dir, tmp_path, capsys):
        # T = {0} is a valid coding set with no nonzero vector: the centre is
        # the zero subspace, and the output has the five-qubit code's lines
        from qsol import io, lines

        zero = tmp_path / "zero.tset"
        zero.write_text("2 5\n0 0 0 0 0\n")
        gens = data_dir / "pentagon.gens"
        assert main(["project", "--gens", str(gens), "--tset", str(zero)]) == EXIT_OK
        out = capsys.readouterr()
        assert (out.out, out.err) == (PENTAGON_ZERO_PROJECT, "")
        group, projected = io.parse_generators(gens.read_text()), io.parse_generators(out.out)
        assert np.array_equal(lines.lines_from_matrix(projected.gmatrix, 5, 0).points,
                              lines.lines_from_matrix(group.gmatrix, 5, 0).points)

    def test_collapsing_centre_exits_one(self, data_dir, tmp_path, capsys):
        # e_1 is incident with a line, so projecting from it collapses
        centre = tmp_path / "centre.tset"
        centre.write_text("2 5\n0 0 0 0 0\n1 0 0 0 0\n")
        code = main(["project", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(centre)])
        assert code == EXIT_FAIL

    def test_pentagon_coding_set_collapses(self, data_dir, capsys):
        # the span of the ((5,6,2)) coding set is the whole F_2^5, so the
        # quotient is 0-dimensional and every line meets the centre
        code = main(["project", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(data_dir / "pentagon.tset")])
        assert code == EXIT_FAIL
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: CollapsedImage: line 0 meets the projection centre\n")

    def test_codes_past_64_bits_are_refused(self, tmp_path, capsys):
        # F_31^13 has codes up to 31^13 - 1 > 2^63, which int64 codes cannot hold;
        # F_31^12 still fits, so the 12-cycle state validates
        from qsol import io
        from qsol.fields import PrimeModulus
        from qsol.search import LabelledGraph, graph_to_generators

        for n in (12, 13):
            gens = tmp_path / f"cycle{n}.gens"
            gens.write_text(io.format_generators(graph_to_generators(LabelledGraph.cycle(PrimeModulus(31), n))))
        assert main(["validate", "--gens", str(tmp_path / "cycle12.gens"), "--format", "machine"]) == EXIT_OK
        assert capsys.readouterr().out == "valid=1\nn=12\nk=0\np=31\n"
        tset = tmp_path / "one.tset"
        tset.write_text("31 13\n" + " ".join(["0"] * 13) + "\n" + " ".join(["1"] + ["0"] * 12) + "\n")
        message = "error: TooLarge: the vectors of F_31^13 have codes up to 31^13 - 1, past the 64-bit integers\n"
        for argv in (["validate"], ["project", "--tset", str(tset)]):
            assert main(argv + ["--gens", str(tmp_path / "cycle13.gens")]) == EXIT_FAIL
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", message)


class TestGammaAndCliques:
    def test_pentagon_gamma(self, data_dir, capsys):
        code = main(["gamma", "--graph", str(data_dir / "pentagon.graph"),
                     "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["vertices"] == ["16"] and pairs["edges"] == ["60"]

    def test_pentagon_cliques(self, data_dir, capsys):
        code = main(["cliques", "--graph", str(data_dir / "pentagon.graph"),
                     "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["cliques_found"] == ["6"] and pairs["clique_size"] == ["5"]
        assert int(pairs["count.clique_nodes"][0]) > 0

    def test_restricted_gamma(self, data_dir, capsys):
        code = main(["gamma", "--graph", str(data_dir / "nine_cycle.graph"),
                     "--d", "3", "--restrict", str(data_dir / "nine_cycle.restrict"),
                     "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["vertices"] == ["39"] and pairs["edges"] == ["450"]

    @pytest.mark.parametrize("command", ["cliques", "recipe"])
    def test_time_out_reports_best_so_far(self, data_dir, capsys, command):
        # a zero limit stops the unrestricted 9-cycle search right after the
        # first descent, which records exactly one maximal 7-clique
        code = main([command, "--graph", str(data_dir / "nine_cycle.graph"), "--d", "3", "--time-limit", "0"])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert "clique search timed out; best so far: 1 maximal clique(s) of size 7" in err


def masked(out):
    """The output with its elapsed times, the one part that changes from run to run, masked."""
    return re.sub(r"(elapsed_ms=|elapsed: )\d+", r"\1*", out)


PENTAGON_CLIQUES = """\
6 clique(s) of size 5, 15 search nodes
  00011 01100 10110 11011 11101
  00011 01111 10101 11000 11110
  00110 01011 10001 11101 11110
  00110 01101 10111 11000 11011
  01011 01101 10101 10110 11010
  01100 01111 10001 10111 11010
"""

RESTRICTED_NINE_CYCLE_CLIQUES = """\
6 clique(s) of size 11, 80 search nodes
  000110001 001010011 010001100 011001010 011111111 100010101 100100100 101110111 110101000 111011011 111101110
  000110001 001100010 010111101 011001110 011111011 100010101 100100100 101000110 110011001 111011111 111101010
  000110101 001000110 010011001 011001010 011111011 100010001 100100100 101100010 110111101 111011111 111101110
  000110101 001110011 010101100 011001110 011111111 100010001 100100100 101010111 110001000 111011011 111101010
  001000110 001110011 010001100 010111101 011011111 100100100 101010111 101100010 110011001 110101000 111111011
  001010011 001100010 010011001 010101100 011011111 100100100 101000110 101110111 110001000 110111101 111111011
"""

NINE_CYCLE_K1_TEXT = """\
((9,8,3)) code
  |T| = 4, K = |T|*p^k = 8
  distance bound: 3
  T is a subspace: yes
  Singleton bound: k <= 5
  graph: 65 vertices, 432 edges, 304 maximum clique(s) of size 3, 503 search nodes
  elapsed: * ms
"""

NINE_CYCLE_K1_MACHINE = """\
n=9
k=1
p=2
T_size=4
K=8
d_bound=3
subspace=1
singleton_max_k=5
cliques_found=304
edges=432
vertices=65
elapsed_ms=*
count.clique_nodes=503
count.gamma_orbits=65
"""

NINE_CYCLE_K2_TEXT = """\
((9,8,2)) code
  |T| = 2, K = |T|*p^k = 8
  distance bound: >= 2
  T is a subspace: yes
  Singleton bound: k <= 7
  graph: 10 vertices, 0 edges, 10 maximum clique(s) of size 1, 11 search nodes
  elapsed: * ms
  warning: additive code has distance 2 < d; pairs with the zero vector are certified to 2 only
"""

NINE_CYCLE_K2_MACHINE = """\
n=9
k=2
p=2
T_size=2
K=8
d_bound=2
subspace=1
singleton_max_k=7
cliques_found=10
edges=0
vertices=10
elapsed_ms=*
count.clique_nodes=11
count.gamma_orbits=10
warning=additive code has distance 2 < d; pairs with the zero vector are certified to 2 only
"""


PENTAGON_VERIFY_D2_TEXT = """\
KL pass, dim=6 (expected 6)
15 error classes, max residual *
"""

PENTAGON_VERIFY_D2_MACHINE = """\
kl_pass=1
dim=6
expected_dim=6
error_classes=15
max_residual=*
"""

PENTAGON_VERIFY_D3_TEXT = """\
KL FAIL, dim=6 (expected 6)
105 error classes, max residual *
"""

PENTAGON_VERIFY_D3_MACHINE = """\
kl_pass=0
dim=6
expected_dim=6
error_classes=105
max_residual=*
"""

NINE_CYCLE_VERIFY_TEXT = """\
KL pass, dim=12 (expected 12)
351 error classes, max residual *
"""

NINE_CYCLE_VERIFY_MACHINE = """\
kl_pass=1
dim=12
expected_dim=12
error_classes=351
max_residual=*
"""


TERNARY_PROJECT = """\
3 11 6
1 1 1 1 1 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 1 0 0 0 0 1 1 0 1 1 0 0 1 1 1 0
1 0 2 0 2 0 0 0 0 1 1 0 0 0 1 0 1 0 1 0 2 0
0 1 0 1 1 1 0 0 0 0 2 2 2 1 2 1 1 1 0 0 2 0
2 2 1 0 1 1 2 1 2 1 0 2 1 2 2 2 2 0 0 2 0 1
"""

PENTAGON_PAIR_PROJECT = """\
2 5 2
1 1 1 1 0 0 0 0 0 0
0 0 0 0 1 0 1 0 1 0
0 1 0 0 0 1 0 1 0 1
"""

PENTAGON_ZERO_PROJECT = """\
2 5 0
1 1 0 0 1 0 0 0 0 0
0 0 1 0 0 1 1 0 0 0
0 1 0 1 0 0 0 1 0 0
0 0 1 0 1 0 0 0 1 0
0 0 0 1 0 1 0 0 0 1
"""

TERNARY_EXTEND = """\
3 11 0
1 2 2 0 0 2 0 2 0 2 2 0 1 2 2 2 0 0 0 1 2 0
0 1 0 2 2 0 1 1 1 0 0 2 0 0 2 2 0 2 0 1 1 0
1 0 2 1 1 0 2 0 0 2 0 0 1 1 0 1 0 0 1 2 0 0
0 1 2 2 1 1 2 2 0 0 1 0 2 0 0 0 0 2 1 2 1 0
2 2 1 1 0 0 2 2 0 2 2 0 2 0 1 1 2 1 1 1 2 1
0 0 1 2 0 2 2 2 0 0 2 2 1 2 1 1 2 0 1 2 2 0
0 0 0 1 1 1 2 0 1 0 2 2 0 1 1 2 0 1 2 0 0 0
0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 2 0 1 2 0 2 2
0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 2 1 0 0 1
0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 2 0 0 0 1 2 0
0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 2 0 1 0 1 2 2
"""

PENTAGON_EXTEND = """\
2 5 0
1 0 0 0 0 0 1 0 0 1
0 1 0 0 0 1 0 1 0 0
0 0 1 0 0 0 1 0 1 0
0 0 0 1 0 0 0 1 0 1
0 0 0 0 1 1 0 0 1 0
"""

PENTAGON_VALIDATE_TEXT = """\
group on 5 qupits (p=2, k=0): valid
even-skew line-set property: holds
"""

PENTAGON_VALIDATE_MACHINE = """\
valid=1
n=5
k=0
p=2
even_skew=1
"""

TERNARY_VALIDATE_TEXT = """\
group on 11 qupits (p=3, k=4): valid
"""

TERNARY_VALIDATE_MACHINE = """\
valid=1
n=11
k=4
p=3
"""


def masked_residual(out):
    """The output with its max_residual value masked, and that value."""
    (value,) = re.findall(r"(?:max_residual=|max residual )(\S+)", out)
    return re.sub(r"(max_residual=|max residual )\S+", r"\1*", out), float(value)


class TestPinnedOutput:
    """Whole outputs byte for byte, elapsed times masked: the printed vertices
    are the clique points decoded from their codes, so a change in how points
    are held or ordered shows here."""

    @pytest.mark.parametrize("argv, expected", [
        (["cliques", "--graph", "pentagon.graph", "--d", "2"], PENTAGON_CLIQUES),
        (["cliques", "--graph", "nine_cycle.graph", "--d", "3", "--restrict", "nine_cycle.restrict"],
         RESTRICTED_NINE_CYCLE_CLIQUES),
        (["recipe", "--graph", "nine_cycle.graph", "--d", "3", "--k", "1"], NINE_CYCLE_K1_TEXT),
        (["recipe", "--graph", "nine_cycle.graph", "--d", "3", "--k", "1", "--format", "machine"],
         NINE_CYCLE_K1_MACHINE),
        (["recipe", "--graph", "nine_cycle.graph", "--d", "3", "--k", "2"], NINE_CYCLE_K2_TEXT),
        (["recipe", "--graph", "nine_cycle.graph", "--d", "3", "--k", "2", "--format", "machine"],
         NINE_CYCLE_K2_MACHINE),
    ], ids=["pentagon-cliques", "nine-cycle-restricted-cliques", "k1-text", "k1-machine", "k2-text", "k2-machine"])
    def test_whole_output(self, data_dir, capsys, argv, expected):
        argv = [str(data_dir / a) if a.endswith((".graph", ".restrict")) else a for a in argv]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr()
        assert (masked(out.out), out.err) == (expected, "")

    @pytest.mark.parametrize("gens, tset, d, form, code, expected", [
        ("pentagon.gens", "pentagon.tset", "2", "text", EXIT_OK, PENTAGON_VERIFY_D2_TEXT),
        ("pentagon.gens", "pentagon.tset", "2", "machine", EXIT_OK, PENTAGON_VERIFY_D2_MACHINE),
        ("pentagon.gens", "pentagon.tset", "3", "text", EXIT_FAIL, PENTAGON_VERIFY_D3_TEXT),
        ("pentagon.gens", "pentagon.tset", "3", "machine", EXIT_FAIL, PENTAGON_VERIFY_D3_MACHINE),
        ("nine_cycle.gens", "nine_cycle.tset", "3", "text", EXIT_OK, NINE_CYCLE_VERIFY_TEXT),
        ("nine_cycle.gens", "nine_cycle.tset", "3", "machine", EXIT_OK, NINE_CYCLE_VERIFY_MACHINE),
    ], ids=["pentagon-d2-text", "pentagon-d2-machine", "pentagon-d3-text", "pentagon-d3-machine",
            "nine-cycle-d3-text", "nine-cycle-d3-machine"])
    def test_verify_output(self, data_dir, tmp_path, capsys, gens, tset, d, form, code, expected):
        from qsol import io, search

        gens_path = data_dir / gens
        if not gens_path.exists():
            # the ((9,12,3)) code's generators are those of the 9-cycle graph state
            gens_path = tmp_path / gens
            gens_path.write_text(io.format_generators(search.graph_to_generators(
                io.parse_graph((data_dir / "nine_cycle.graph").read_text()))))
        argv = ["verify", "--gens", str(gens_path), "--tset", str(data_dir / tset), "--d", d, "--format", form]
        assert main(argv) == code
        out = capsys.readouterr()
        text, residual = masked_residual(out.out)
        assert (text, out.err) == (expected, "")
        if code == EXIT_OK:
            assert residual <= 1e-9
        else:
            # each of the 60 weight-2 errors that the ((5,6,2)) code fails leaves a residual of 1/sqrt(3)
            assert abs(residual - 3 ** -0.5) < 1e-3

    @pytest.mark.parametrize("argv, expected", [
        (["project", "--gens", "ternary.gens", "--tset", "ternary.tset"], TERNARY_PROJECT),
        (["project", "--gens", "pentagon.gens", "--tset", "pair.tset"], PENTAGON_PAIR_PROJECT),
        (["extend", "--gens", "ternary.gens"], TERNARY_EXTEND),
        (["extend", "--gens", "pentagon.gens"], PENTAGON_EXTEND),
        (["validate", "--gens", "pentagon.gens"], PENTAGON_VALIDATE_TEXT),
        (["validate", "--gens", "pentagon.gens", "--format", "machine"], PENTAGON_VALIDATE_MACHINE),
        (["validate", "--gens", "ternary.gens"], TERNARY_VALIDATE_TEXT),
        (["validate", "--gens", "ternary.gens", "--format", "machine"], TERNARY_VALIDATE_MACHINE),
        (["distance", "--gens", "pentagon.gens", "--limit", "2"], "d(X) >= 3 (search limit 2 exhausted)\n"),
        (["distance", "--gens", "pentagon.gens", "--limit", "5"], "3\n"),
        (["distance", "--gens", "pentagon.gens", "--limit", "2", "--format", "machine"], "d_lower=3\nexact=0\n"),
        (["distance", "--gens", "pentagon.gens", "--limit", "5", "--format", "machine"], "d_lower=3\nexact=1\n"),
        (["distance", "--gens", "ternary.gens", "--limit", "3"], "3\n"),
        (["distance", "--gens", "ternary.gens", "--limit", "3", "--format", "machine"], "d_lower=3\nexact=1\n"),
    ], ids=["ternary-project", "pentagon-pair-project", "ternary-extend", "pentagon-extend", "pentagon-validate-text",
            "pentagon-validate-machine", "ternary-validate-text", "ternary-validate-machine", "pentagon-distance-2-text",
            "pentagon-distance-5-text", "pentagon-distance-2-machine", "pentagon-distance-5-machine",
            "ternary-distance-3-text", "ternary-distance-3-machine"])
    def test_line_set_output(self, data_dir, tmp_path, capsys, argv, expected):
        # pair.tset is the pair of sign vectors of TestProject's pentagon projection
        (tmp_path / "pair.tset").write_text("2 5\n0 0 0 0 0\n1 1 0 1 0\n0 1 1 0 1\n")
        argv = [str((tmp_path if a == "pair.tset" else data_dir) / a) if a.endswith((".gens", ".tset")) else a
                for a in argv]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == (expected, "")

    def test_nine_cycle_k3_collapses(self, data_dir, capsys):
        # the lexicographically least independent centre meets line 5
        code = main(["recipe", "--graph", str(data_dir / "nine_cycle.graph"), "--d", "3", "--k", "3"])
        assert code == EXIT_FAIL
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: CollapsedImage: line 5 meets the projection centre\n")


class TestRecipe:
    def test_pentagon(self, data_dir, capsys):
        code = main(["recipe", "--graph", str(data_dir / "pentagon.graph"),
                     "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["n"] == ["5"] and pairs["K"] == ["6"] and pairs["d_bound"] == ["2"]

    def test_python_m_qsol_runs_the_command(self, data_dir):
        # the command as CI runs it, in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(Path(qsol.__file__).parents[1]))
        argv = ["recipe", "--graph", str(data_dir / "pentagon.graph"), "--d", "2", "--format", "machine"]
        run = subprocess.run([sys.executable, "-m", "qsol", *argv], env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr) == (EXIT_OK, "")
        assert "cliques_found=6" in run.stdout.splitlines()

    def test_node_count_repeats(self, data_dir, capsys):
        argv = ["recipe", "--graph", str(data_dir / "pentagon.graph"), "--d", "2", "--format", "machine"]
        counts = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            counts += machine(capsys)["count.clique_nodes"]
        assert counts[0] == counts[1] and int(counts[0]) > 0

    def test_ternary_five_cycle_search_tree(self, tmp_path, capsys):
        # the c5-p3 benchmark op: the 5-cycle over F_3 at d = 2, unrestricted,
        # whose 75 maximum cliques of size 13 take the search 821 nodes when
        # its root branches once per orbit of the 17 that the cycle's
        # dihedral symmetry leaves (2 881 without it)
        graph = tmp_path / "c5.graph"
        graph.write_text("3 5\n" + "".join(f"{i} {(i + 1) % 5} 1\n" for i in range(5)))
        assert main(["recipe", "--graph", str(graph), "--d", "2", "--format", "machine"]) == EXIT_OK
        pairs = machine(capsys)
        keys = ("vertices", "edges", "cliques_found", "T_size", "count.clique_nodes", "count.gamma_orbits")
        assert tuple(pairs[key][0] for key in keys) == ("101", "3450", "75", "27", "821", "17")

    @pytest.mark.parametrize("command", ["cliques", "recipe"])
    @pytest.mark.parametrize("graph, d, restrict, nodes, orbits", [
        ("pentagon.graph", "2", None, "15", "4"),
        ("nine_cycle.graph", "3", "nine_cycle.restrict", "80", "39"),
    ])
    def test_root_orbits(self, data_dir, capsys, command, graph, d, restrict, nodes, orbits):
        # the pentagon's 16 vertices fall into 4 orbits under its dihedral
        # symmetry; a restricted search is given no symmetries, so each of
        # its 39 vertices is an orbit and the tree is MCQ's
        argv = [command, "--graph", str(data_dir / graph), "--d", d, "--format", "machine"]
        if restrict:
            argv += ["--restrict", str(data_dir / restrict)]
        assert main(argv) == EXIT_OK
        pairs = machine(capsys)
        assert (pairs["count.clique_nodes"], pairs["count.gamma_orbits"]) == ([nodes], [orbits])


class TestVerify:
    def test_pentagon_code(self, data_dir, capsys):
        code = main(["verify", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(data_dir / "pentagon.tset"),
                     "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["kl_pass"] == ["1"]
        assert pairs["dim"] == ["6"] and pairs["expected_dim"] == ["6"]
        assert pairs["error_classes"] == ["15"]

    def test_failing_verification_exits_one(self, data_dir, capsys):
        # the ((5,6,2)) code cannot detect weight-2 errors
        code = main(["verify", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(data_dir / "pentagon.tset"),
                     "--d", "3", "--format", "machine"])
        assert code == EXIT_FAIL
        assert machine(capsys)["kl_pass"] == ["0"]

    @pytest.mark.parametrize("command", [["verify", "--d", "3"], ["project"]])
    @pytest.mark.parametrize("header, width, message", [
        ("3 9", 9, "coding set over F_3, generators over F_2"),
        ("2 8", 8, "coding set of length 8, 9 generators"),
    ], ids=["other-prime", "other-length"])
    def test_coding_set_must_match_the_generators(self, data_dir, tmp_path, capsys, monkeypatch,
                                                  command, header, width, message):
        # the ((9,12,3)) coding set read over F_3, or cut to 8 signs, against
        # the 9 generators of the 9-cycle over F_2: both are refused before
        # any basis is built, with a message that names both sides
        from qsol import io, oracle, search

        gens = tmp_path / "c9.gens"
        gens.write_text(io.format_generators(search.graph_to_generators(
            io.parse_graph((data_dir / "nine_cycle.graph").read_text()))))
        rows = [line.split()[:width] for line in (data_dir / "nine_cycle.tset").read_text().splitlines()[2:]]
        tset = tmp_path / "c9.tset"
        tset.write_text("\n".join([header] + [" ".join(r) for r in rows]) + "\n")
        monkeypatch.setattr(oracle, "code_basis", None)
        assert main(command + ["--gens", str(gens), "--tset", str(tset)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: {message}\n")

    def test_fifteen_qubit_code_within_budget(self, tmp_path, capsys):
        # the ((15,2,2)) code of the 15-cycle graph state with T = {0, 1^15}:
        # the weight-15 vector is the image of no weight-1 error. Its basis is
        # 2^15 x 2, about 1 MiB, where a 2^15 x 2^15 projector would be 16 GiB
        n = 15
        rows = []
        for i in range(n):
            x = [int(j == i) for j in range(n)]
            z = [int(j in ((i - 1) % n, (i + 1) % n)) for j in range(n)]
            rows.append(" ".join(map(str, x + z)))
        gens = tmp_path / "c15.gens"
        gens.write_text(f"2 {n} 0\n" + "\n".join(rows) + "\n")
        tset = tmp_path / "c15.tset"
        tset.write_text(f"2 {n}\n" + " ".join(["0"] * n) + "\n" + " ".join(["1"] * n) + "\n")
        code = main(["verify", "--gens", str(gens), "--tset", str(tset), "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["kl_pass"] == ["1"]
        assert pairs["dim"] == ["2"] and pairs["expected_dim"] == ["2"]
        assert pairs["error_classes"] == ["45"]
        assert float(pairs["max_residual"][0]) <= 1e-9


class TestExtend:
    def test_output_is_self_dual_group(self, data_dir, tmp_path, capsys):
        from qsol import io
        from qsol.fields import rref
        from qsol.pauli import centraliser_basis

        partial = tmp_path / "partial.gens"
        partial.write_text("2 3 2\n1 0 0 0 0 0\n")
        assert main(["extend", "--gens", str(partial)]) == EXIT_OK
        out = capsys.readouterr().out
        extended = io.parse_generators(out)
        assert extended.num_generators == 3
        assert np.array_equal(centraliser_basis(extended), rref(2, extended.gmatrix, 6))

    def test_eleven_qubit_one_generator_group(self, tmp_path, capsys):
        # one generator on 11 qubits leaves a 21-dimensional dual of 2^21
        # vectors, too many to list
        from qsol import io
        from qsol.fields import rref
        from qsol.pauli import centraliser_basis

        from conftest import in_row_space

        row = [1] + [0] * 21
        lonely = tmp_path / "lonely.gens"
        lonely.write_text("2 11 10\n" + " ".join(map(str, row)) + "\n")
        assert main(["extend", "--gens", str(lonely)]) == EXIT_OK
        extended = io.parse_generators(capsys.readouterr().out)
        assert extended.num_generators == 11
        assert np.array_equal(centraliser_basis(extended), rref(2, extended.gmatrix, 22))
        assert in_row_space(2, extended.gmatrix, row)


class ClosedPipe(StringIO):
    """A stdout whose reader has gone, such as `head` after its lines: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestErrorPaths:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--gens", str(tmp_path / "nope.gens")]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["project", "--gens", "ternary.gens", "--tset", "ternary.tset"],
        ["extend", "--gens", "ternary.gens"],
        ["validate", "--gens", "ternary.gens", "--format", "machine"],
    ], ids=["project", "extend", "validate"])
    def test_closed_stdout_exits_one_without_a_message(self, data_dir, monkeypatch, capsys, argv):
        argv = [str(data_dir / a) if a.endswith((".gens", ".tset")) else a for a in argv]
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == EXIT_FAIL
        assert capsys.readouterr().err == ""

    def test_closed_stdout_with_a_missing_file_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", ClosedPipe())
            assert main(["validate", "--gens", str(tmp_path / "nope.gens")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: [Errno 2]")

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gens"
        bad.write_text("2 2 0\n1 0 0 1\n")
        assert main(["validate", "--gens", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("text, fields", [
        ("2 3 -1\n" + "1 0 0 0 0 0\n" * 4, "n = 3, k = -1"),
        ("2 3 4\n", "n = 3, k = 4"),
        ("2 0 0\n", "n = 0, k = 0"),
    ], ids=["negative-k", "k-above-n", "no-qupits"])
    def test_bad_generator_header_exits_two(self, tmp_path, capsys, text, fields):
        bad = tmp_path / "bad.gens"
        bad.write_text(text)
        assert main(["validate", "--gens", str(bad)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: line 1: need n >= 1 and 0 <= k <= n, got {fields}\n")

    @pytest.mark.parametrize("command", ["gamma", "recipe"])
    @pytest.mark.parametrize("header, n", [("2 0", 0), ("2 -3", -3)], ids=["no-vertices", "negative"])
    def test_graph_without_vertices_exits_two(self, tmp_path, capsys, command, header, n):
        # the header is refused on its line before any graph is built, by every command that reads one
        graph = tmp_path / "empty.graph"
        graph.write_text(header + "\n")
        assert main([command, "--graph", str(graph), "--d", "2"]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: line 1: need n >= 1, got n = {n}\n")

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
    def test_repeated_graph_edge_exits_two(self, tmp_path, capsys, i, j):
        graph = tmp_path / "twice.graph"
        graph.write_text(f"3 3\n0 1 1\n1 2 1\n{i} {j} 2\n")
        assert main(["gamma", "--graph", str(graph), "--d", "2"]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: line 4: edge ({i}, {j}) repeats the edge of line 2\n")

    @pytest.mark.parametrize("text, message", [
        ("2 2 0\n1 0 0 1\n", "line 1: expected 2 generator rows, got 1"),
        ("2 2 1\n1 0 0 1\n# surplus\n0 1 1 0\n", "line 4: expected 1 generator rows, got 2"),
    ], ids=["missing-row", "surplus-row"])
    def test_wrong_number_of_generator_rows_names_its_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "rows.gens"
        bad.write_text(text)
        assert main(["validate", "--gens", str(bad)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("2 5\n1 0 0 0 0\n0 1 0 0 0\n", "line 1: coding set must contain the zero vector"),
        ("2 5\n0 0 0 0 0\n1 0 1 0 0\n\n1 0 1 0 0\n", "line 5: vector (1, 0, 1, 0, 0) repeats the vector of line 3"),
    ], ids=["no-zero", "repeat"])
    @pytest.mark.parametrize("command", [["project"], ["verify", "--d", "2"]], ids=["project", "verify"])
    def test_bad_coding_set_names_its_line(self, data_dir, tmp_path, capsys, text, message, command):
        bad = tmp_path / "bad.tset"
        bad.write_text(text)
        assert main(command + ["--gens", str(data_dir / "pentagon.gens"), "--tset", str(bad)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("rows, message", [
        ("1 0 0 0\n0 0 1 0\n", "NonCommutingGenerators: generators do not pairwise commute"),
        ("1 0 0 1\n1 0 0 1\n", "InvalidGroup: generator matrix is not full rank"),
    ], ids=["non-commuting", "dependent"])
    @pytest.mark.parametrize("command", [
        ["validate"], ["distance", "--limit", "3"], ["extend"], ["verify", "--d", "2"],
    ], ids=["validate", "distance", "extend", "verify"])
    def test_invalid_group_file_exits_one(self, tmp_path, capsys, rows, message, command):
        # X and Z on one qubit, or one row twice: the parsed group keeps every
        # check of the StabiliserGroup constructor, and each command that
        # reads a generator file refuses it before any other work
        gens = tmp_path / "bad.gens"
        gens.write_text("2 2 0\n" + rows)
        tset = tmp_path / "zero.tset"
        tset.write_text("2 2\n0 0\n")
        extra = ["--tset", str(tset)] if command[0] == "verify" else []
        assert main(command + ["--gens", str(gens)] + extra) == EXIT_FAIL
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")

    def test_domain_error_exits_one(self, tmp_path, capsys):
        # a graph with an isolated vertex cannot seed the recipe
        lonely = tmp_path / "lonely.graph"
        lonely.write_text("2 3\n0 1 1\n")
        assert main(["recipe", "--graph", str(lonely), "--d", "2"]) == EXIT_FAIL
        assert "IsolatedVertex" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["distance", "--gens", "pentagon.gens", "--limit", "0"],
        ["recipe", "--graph", "pentagon.graph", "--d", "1"],
        ["gamma", "--graph", "pentagon.graph", "--d", "1"],
        ["recipe", "--graph", "pentagon.graph", "--d", "2", "--k", "5"],
        ["verify", "--gens", "pentagon.gens", "--tset", "pentagon.tset", "--d", "0"],
        ["verify", "--gens", "pentagon.gens", "--tset", "pentagon.tset", "--d", "1"],
        ["cliques", "--graph", "pentagon.graph", "--d", "2", "--time-limit", "nan"],
        ["cliques", "--graph", "pentagon.graph", "--d", "2", "--time-limit", "-1"],
        ["recipe", "--graph", "pentagon.graph", "--d", "2", "--time-limit", "nan"],
        ["recipe", "--graph", "pentagon.graph", "--d", "2", "--time-limit", "-1"],
    ])
    def test_out_of_range_option_exits_two(self, data_dir, capsys, argv):
        argv = [str(data_dir / a) if a.endswith((".gens", ".graph", ".tset")) else a for a in argv]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
