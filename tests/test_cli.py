"""End-to-end CLI runs through main(argv), checking output and exit codes."""

import pytest

from qsol.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main


def machine(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs.setdefault(key, []).append(value)
    return pairs


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

    def test_collapsing_centre_exits_one(self, data_dir, tmp_path, capsys):
        # e_1 is incident with a line, so projecting from it collapses
        centre = tmp_path / "centre.tset"
        centre.write_text("2 5\n0 0 0 0 0\n1 0 0 0 0\n")
        code = main(["project", "--gens", str(data_dir / "pentagon.gens"),
                     "--tset", str(centre)])
        assert code == EXIT_FAIL


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

    def test_restricted_gamma(self, data_dir, capsys):
        code = main(["gamma", "--graph", str(data_dir / "nine_cycle.graph"),
                     "--d", "3", "--restrict", str(data_dir / "nine_cycle.restrict"),
                     "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["vertices"] == ["39"] and pairs["edges"] == ["450"]


class TestRecipe:
    def test_pentagon(self, data_dir, capsys):
        code = main(["recipe", "--graph", str(data_dir / "pentagon.graph"),
                     "--d", "2", "--format", "machine"])
        assert code == EXIT_OK
        pairs = machine(capsys)
        assert pairs["n"] == ["5"] and pairs["K"] == ["6"] and pairs["d_bound"] == ["2"]


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
        from qsol.fields import row_space
        from qsol.pauli import centraliser_basis

        partial = tmp_path / "partial.gens"
        partial.write_text("2 3 2\n1 0 0 0 0 0\n")
        assert main(["extend", "--gens", str(partial)]) == EXIT_OK
        out = capsys.readouterr().out
        extended = io.parse_generators(out)
        assert extended.num_generators == 3
        assert row_space(centraliser_basis(extended)) == row_space(extended.gmatrix)


class TestErrorPaths:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--gens", str(tmp_path / "nope.gens")]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gens"
        bad.write_text("2 2 0\n1 0 0 1\n")
        assert main(["validate", "--gens", str(bad)]) == EXIT_INPUT

    def test_domain_error_exits_one(self, tmp_path, capsys):
        # a graph with an isolated vertex cannot seed the recipe
        lonely = tmp_path / "lonely.graph"
        lonely.write_text("2 3\n0 1 1\n")
        assert main(["recipe", "--graph", str(lonely), "--d", "2"]) == EXIT_FAIL
        assert "IsolatedVertex" in capsys.readouterr().err
