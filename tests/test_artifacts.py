"""Artifact table tests: the CSV writer quotes cells that need it (a bare
carriage return included) and the reader gives them back exactly."""

import csv
import io
import random

import pytest

from hypermap import artifacts


class TestTable:
    def test_plain_cells_are_written_bare(self, tmp_path):
        path = tmp_path / "t.csv"
        artifacts.write_table(path, ["a", "b"], [["1", "x y"], ["0.25", "-inf"]])
        assert path.read_bytes() == b"a,b\n1,x y\n0.25,-inf\n"

    def test_cells_with_comma_quote_or_newline_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["1", 'mineral, "A"'], ["2", "two\nlines"], ["3", ' padded ']]
        artifacts.write_table(path, ["class_id", "name"], rows)
        assert path.read_text().startswith('class_id,name\n1,"mineral, ""A"""\n')
        assert artifacts.read_table(path, ["class_id"]) == [["class_id", "name"], *rows]

    def test_row_numbers_skip_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("class_id,name\n\n1,a\n ,\n2\n")
        with pytest.raises(ValueError, match=r"t\.csv row 3 has 1 cells, expected 2"):
            artifacts.read_table(path, ["class_id"])

    def test_carriage_return_cell_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        artifacts.write_table(path, ["a", "b"], [["x\ry", "1"], ["\r", "2"]])
        assert path.read_bytes() == b'a,b\n"x\ry",1\n"\r",2\n'
        assert artifacts.read_table(path, ["a", "b"]) == [["a", "b"], ["x\ry", "1"], ["\r", "2"]]

    def test_library_name_with_carriage_return_round_trips(self, tmp_path):
        from hypermap.envi_io import (read_spectral_library, read_spectral_library_file,
                                      write_spectral_library_file)

        lib = read_spectral_library('wavelength_nm,"a\rb",c\n500,0.5,0.25\n600,0.5,0.75\n')
        assert lib.names() == ["a\rb", "c"]
        write_spectral_library_file(lib, tmp_path / "lib.csv")
        assert read_spectral_library_file(tmp_path / "lib.csv").names() == ["a\rb", "c"]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings_end_rows(self, tmp_path, ending):
        # A quoted cell keeps the line ending it holds.
        path = tmp_path / "t.csv"
        path.write_bytes('a,b\n1,"x\ny"\n\n2,z\n'.replace("\n", ending).encode())
        rows = artifacts.read_table(path, ["a", "b"])
        assert rows == [["a", "b"], ["1", f"x{ending}y"], ["2", "z"]]

    def test_cells_without_carriage_return_are_written_as_csv_writes_them(self):
        # Rows of two or more cells: a row of one empty cell is written as
        # an empty line, where `csv` writes `""`.
        rng = random.Random(5)
        pieces = ["a", " ", ",", '"', "\n", "", "1.5", '""']
        for _ in range(2000):
            rows = [["".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))
                     for _ in range(rng.randint(2, 4))] for _ in range(3)]
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows(rows)
            written = io.StringIO()
            artifacts._write_rows(written, rows)
            assert written.getvalue() == expected.getvalue()
