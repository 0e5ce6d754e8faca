"""Text formats: parsing, formatting, round trips, and error reporting."""

import numpy as np
import pytest

from qsol import io
from qsol.errors import InputFormatError, InvalidGroup, NonCommutingGenerators
from qsol.fields import PrimeModulus


class TestGenerators:
    def test_parse_pentagon_file(self, data_dir):
        s = io.parse_generators((data_dir / "pentagon.gens").read_text())
        assert (s.p, s.n, s.k) == (2, 5, 0)
        assert s.gmatrix[0].tolist() == [1, 0, 0, 0, 0, 0, 1, 0, 0, 1]

    def test_round_trip(self, five_qubit_group):
        text = io.format_generators(five_qubit_group)
        assert np.array_equal(io.parse_generators(text).gmatrix, five_qubit_group.gmatrix)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n2 1 0  # inline\n1 1\n"
        s = io.parse_generators(text)
        assert s.n == 1

    def test_empty_file(self):
        with pytest.raises(InputFormatError):
            io.parse_generators("")

    def test_wrong_row_count(self):
        with pytest.raises(InputFormatError):
            io.parse_generators("2 2 0\n1 0 0 1\n")

    @pytest.mark.parametrize("text, line, got", [
        ("2 2 0\n1 0 0 1\n", 1, 1),
        ("# header\n2 2 1\n1 0 0 1\n\n0 1 1 0\n1 1 1 1\n", 5, 3),
        ("2 2 1\n", 1, 0),
    ], ids=["missing-row", "surplus-rows", "no-rows"])
    def test_wrong_row_count_reports_line(self, text, line, got):
        # a surplus names its first extra row, a shortfall the header
        with pytest.raises(InputFormatError, match=rf"^line {line}: expected \d generator rows, got {got}$") as err:
            io.parse_generators(text)
        assert err.value.line == line

    @pytest.mark.parametrize("rows, error, message", [
        ("1 0 0 0\n0 0 1 0\n", NonCommutingGenerators, "generators do not pairwise commute"),
        ("1 0 0 1\n1 0 0 1\n", InvalidGroup, "generator matrix is not full rank"),
    ], ids=["non-commuting", "dependent"])
    def test_group_checks_run_on_parsed_rows(self, rows, error, message):
        with pytest.raises(error, match=message):
            io.parse_generators("2 2 0\n" + rows)

    def test_non_integer_field_reports_line(self):
        with pytest.raises(InputFormatError) as err:
            io.parse_generators("2 1 0\nx y\n")
        assert err.value.line == 2

    def test_bad_modulus(self):
        with pytest.raises(InputFormatError):
            io.parse_generators("4 1 0\n1 0\n")


class TestGraph:
    def test_parse(self, data_dir):
        g = io.parse_graph((data_dir / "pentagon.graph").read_text())
        assert g.n == 5
        assert g.adjacency[0].tolist() == [0, 1, 0, 0, 1]

    def test_bad_edge_index(self):
        with pytest.raises(InputFormatError):
            io.parse_graph("2 3\n0 3 1\n")

    def test_loop_rejected(self):
        with pytest.raises(InputFormatError):
            io.parse_graph("2 3\n1 1 1\n")

    @pytest.mark.parametrize("text, n", [("2 0\n", 0), ("# header\n2 -3\n", -3)], ids=["no-vertices", "negative"])
    def test_header_without_vertices_reports_its_line(self, text, n):
        # like parse_generators, a header with n < 1 is refused on its line,
        # before any edge is read or any array is shaped
        with pytest.raises(InputFormatError, match=rf"^line (\d): need n >= 1, got n = {n}$") as err:
            io.parse_graph(text)
        assert err.value.line == text.count("\n")

    def test_label_out_of_range(self):
        with pytest.raises(InputFormatError):
            io.parse_graph("3 3\n0 1 3\n")
        with pytest.raises(InputFormatError):
            io.parse_graph("2 3\n0 1 0\n")

    @pytest.mark.parametrize("second", ["0 1 2", "1 0 2", "1 0 1"])
    def test_repeated_edge_reports_its_line(self, second):
        # over F_3 the edge 0-1 given again, in the same or the reversed
        # order and with another label or the same one
        text = f"3 3\n0 1 1\n# a comment line\n1 2 1\n{second}\n"
        with pytest.raises(InputFormatError, match=r"line 5: edge \(\d, \d\) repeats the edge of line 2") as err:
            io.parse_graph(text)
        assert err.value.line == 5


class TestCodingSet:
    def test_parse_and_round_trip(self, data_dir):
        t = io.parse_coding_set((data_dir / "ternary.tset").read_text())
        assert t.p == 3 and t.length == 7 and len(t.vectors) == 9
        u = io.parse_coding_set(io.format_coding_set(t))
        assert u.modulus == t.modulus and np.array_equal(u.vectors, t.vectors)

    def test_missing_zero_rejected(self):
        with pytest.raises(InputFormatError):
            io.parse_coding_set("2 2\n1 0\n")

    def test_wrong_width(self):
        with pytest.raises(InputFormatError):
            io.parse_coding_set("2 3\n0 0 0\n1 0\n")

    def test_missing_zero_reports_header_line(self):
        with pytest.raises(InputFormatError, match=r"^line 2: coding set must contain the zero vector$") as err:
            io.parse_coding_set("# T\n3 2\n1 0\n0 1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("repeat", ["1 2", "4 5", "1 -1"])
    def test_repeated_vector_reports_its_line(self, repeat):
        # the same vector of F_3^2, written as given or through other representatives
        with pytest.raises(InputFormatError, match=r"^line 5: vector \(1, 2\) repeats the vector of line 3$") as err:
            io.parse_coding_set(f"3 2\n0 0\n1 2\n# comment\n{repeat}\n")
        assert err.value.line == 5

    def test_vectors_keep_their_order(self):
        t = io.parse_coding_set("3 2\n1 2\n0 0\n2 0\n")
        assert t.vectors.tolist() == [[1, 2], [0, 0], [2, 0]]


class TestRestriction:
    def test_parse(self, data_dir, mod2):
        m = io.parse_restriction((data_dir / "nine_cycle.restrict").read_text(), mod2, 9)
        assert m.shape == (3, 9) and m.dtype == np.int64 and not m.flags.writeable
        assert m[0].tolist() == [0, 1, 0, 0, 0, 1, 0, 0, 0]

    def test_empty_rejected(self, mod2):
        with pytest.raises(InputFormatError):
            io.parse_restriction("# nothing\n", mod2, 9)
