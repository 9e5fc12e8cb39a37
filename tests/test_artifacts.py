"""Artifact table tests: the CSV writer quotes cells that need it and the
reader gives them back exactly."""

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
