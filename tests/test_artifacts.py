"""Artifact table tests: the CSV writer quotes cells that need it (a bare
carriage return included) and the reader gives them back exactly; the
truth-abundance and matrix writers that reuse formatted text write the
bytes of a cell-by-cell writer."""

import csv
import io
import random
import re
import tracemalloc

import numpy as np
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


class TestStreamedSpectra:
    """Library and endmember files are read a row at a time: the same
    names, values, messages and row numbers as parsing the whole text."""

    TEXT = ('wavelength_nm,"quartz, pure","say ""hi""",c\r\n'
            "\r\n"
            "500,0.2,0.3,0.1_5\r\n"
            " , ,,\r\n"
            "6_00,0.25,0.35,0.45\r\n"
            "700.5,0.3,0.4,0.5\r\n")

    def read_both(self, tmp_path, text):
        """(text parse, library file read, endmember file read) of `text`,
        each as its result or its error message."""
        from hypermap.envi_io import read_spectral_library_file

        path = tmp_path / "lib.csv"
        path.write_bytes(text.encode())

        def outcome(fn, *args):
            try:
                names, wavelengths, spectra = fn(*args)
            except ValueError as exc:
                return str(exc)
            return names, wavelengths.tobytes(), np.ascontiguousarray(spectra).tobytes()

        def library(path):
            lib = read_spectral_library_file(path)
            return (lib.names(), lib.entries[0].wavelengths,
                    np.stack([e.reflectance for e in lib.entries]))

        return (outcome(artifacts.parse_spectra, text, str(path)),
                outcome(artifacts.read_endmembers, path),
                outcome(library, path))

    def test_file_reads_equal_the_text_parse(self, tmp_path):
        parsed, endmembers, library = self.read_both(tmp_path, self.TEXT)
        assert parsed == endmembers == library
        names, wavelengths, spectra = parsed
        assert names == ["quartz, pure", 'say "hi"', "c"]
        assert np.frombuffer(wavelengths).tolist() == [500.0, 600.0, 700.5]
        assert np.frombuffer(spectra).reshape(3, 3)[2].tolist() == [0.15, 0.45, 0.5]

    @pytest.mark.parametrize("text, message", [
        ("wavelength_nm,a,b\n500,0.2,0.3\n\n600,0.3\n", "lib.csv row 3 has 2 cells, expected 3"),
        ("wavelength_nm,a,b\n500,0.2,0.3\n600,0.3,x\n", "lib.csv row 3: unparseable number"),
        ("wl,a\n500,0.2\n", "lib.csv: expected CSV header starting 'wavelength_nm'"),
        ("wavelength_nm,a,a\n500,0.2,0.3\n", "duplicate spectrum names in .*lib.csv header"),
        ("wavelength_nm\n500\n", "lib.csv header names no spectrum"),
        ("", "lib.csv: expected CSV header starting 'wavelength_nm'"),
        # Several faults: widths first, then names, then numbers, as a
        # check of the whole table found them.
        ("wavelength_nm,a,a\n500,x,0.3\n600,0.2\n", "lib.csv row 3 has 2 cells, expected 3"),
        ("wavelength_nm,a,a\n500,x,0.3\n600,0.2,0.1\n", "duplicate spectrum names"),
    ])
    def test_errors_name_the_same_row(self, tmp_path, text, message):
        parsed, endmembers, _ = self.read_both(tmp_path, text)
        assert parsed == endmembers
        assert re.search(message, parsed)

    def test_library_file_errors_name_the_library(self, tmp_path):
        _, _, library = self.read_both(tmp_path, "wavelength_nm,a\n500,0.2\n600,y\n")
        assert library == "library row 3: unparseable number"

    def test_writers_write_the_text_layout(self, tmp_path):
        from hypermap.envi_io import (read_spectral_library, write_spectral_library,
                                      write_spectral_library_file)

        lib = read_spectral_library(self.TEXT)
        write_spectral_library_file(lib, tmp_path / "lib.csv")
        assert (tmp_path / "lib.csv").read_bytes() == write_spectral_library(lib).encode()
        names = lib.names()
        wavelengths = lib.entries[0].wavelengths
        spectra = np.stack([e.reflectance for e in lib.entries])
        artifacts.write_spectra(tmp_path / "e.csv", names, wavelengths, spectra)
        assert (tmp_path / "e.csv").read_bytes() == \
            artifacts.spectra_text(names, wavelengths, spectra).encode()


def plain_rows(rows) -> str:
    """Each row of floats as its `repr` cells joined by commas."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def plain_truth(abundances) -> str:
    """The truth table written a row at a time, with no reuse."""
    lines, samples, k = abundances.shape
    head = ",".join(["line", "sample"] + [f"a_{i + 1}" for i in range(k)]) + "\n"
    return head + "".join(f"{line},{sample}," + plain_rows([abundances[line, sample].tolist()])
                          for line in range(lines) for sample in range(samples))


def dirichlet(shape, seed):
    e = np.random.default_rng(seed).exponential(size=shape)
    return e / e.sum(axis=-1, keepdims=True)


def block_field(lines, samples, k, block, seed=1):
    """A field of `block` x `block` patches, one pixel planted one-hot."""
    coarse = dirichlet((lines // block, samples // block, k), seed)
    field = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)
    field[1, 2] = 0.0
    field[1, 2, 0] = 1.0
    return field


class TestTruthAbundances:
    SIGNED_ZEROS = np.array([[[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
                             [[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]],
                             [[0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]])

    @pytest.mark.parametrize("field", [
        block_field(12, 15, 3, 3),
        dirichlet((9, 7, 4), 2),
        SIGNED_ZEROS,
    ], ids=["block-repeated", "no-repeated-row", "signed-zeros"])
    def test_matches_a_row_by_row_writer(self, tmp_path, field):
        artifacts.write_truth_abundances(tmp_path / "t.csv", field)
        assert (tmp_path / "t.csv").read_text() == plain_truth(field)

    @pytest.mark.parametrize("block", [1, 4])
    def test_held_text_does_not_grow_with_the_lines(self, tmp_path, block):
        def peak(lines):
            field = block_field(lines, 32, 4, block)
            tracemalloc.start()
            try:
                artifacts.write_truth_abundances(tmp_path / f"{lines}.csv", field)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Holding the table's text would make the 20x taller field's peak
        # about 20x the short one's.
        assert peak(320) < 2 * peak(16)


class TestReadPurePixels:
    def test_reads_a_row_at_a_time(self, tmp_path):
        path = tmp_path / "pure_pixels.csv"
        n = 20000
        artifacts.write_table(path, ["line", "sample", "count"],
                              ([str(i // 100), str(i % 100), "3"] for i in range(n)))
        tracemalloc.start()
        try:
            pixels = artifacts.read_pure_pixels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pixels == [(i // 100, i % 100) for i in range(n)]
        # The (line, sample) tuples and their list; every row's cells held
        # at once would pass 3x that.
        assert peak <= 1.5 * 64 * n + (64 << 10)

    @pytest.mark.parametrize("text, error", [
        ("line,sample,count\n1,x,3\n2\n", r"pure_pixels\.csv row 3 has 1 cells, expected 3"),
        ("line,sample,count\n1,x,3\n2,y,4\n", r"invalid literal for int\(\) with base 10: 'x'"),
    ])
    def test_a_row_width_is_reported_before_a_number(self, tmp_path, text, error):
        (tmp_path / "pure_pixels.csv").write_text(text)
        with pytest.raises(ValueError, match=error):
            artifacts.read_pure_pixels(tmp_path / "pure_pixels.csv")


class TestWriteMatrix:
    def written(self, tmp_path, monkeypatch, m):
        """The text `write_matrix` writes for `m`, and how many values it
        formatted."""
        formatted = []
        floats = artifacts._floats

        def counting(values):
            cells = floats(values)
            formatted.append(len(cells))
            return cells

        monkeypatch.setattr(artifacts, "_floats", counting)
        artifacts.write_matrix(tmp_path / "m.csv", m)
        return (tmp_path / "m.csv").read_text(), sum(formatted)

    def test_symmetric_matrix_is_written_row_by_row(self, tmp_path, monkeypatch):
        a = np.random.default_rng(3).normal(size=(7, 7))
        m = a @ a.T
        assert m.tobytes() == m.T.tobytes()
        text, _ = self.written(tmp_path, monkeypatch, m)
        assert text == plain_rows(m.tolist())

    def test_square_matrix_formats_each_value_once(self, tmp_path, monkeypatch):
        m = np.random.default_rng(4).normal(size=(6, 6))
        text, formatted = self.written(tmp_path, monkeypatch, m)
        assert text == plain_rows(m.tolist())
        assert formatted == 36

    def test_signed_zero_keeps_its_sign(self, tmp_path, monkeypatch):
        m = np.array([[1.0, 0.0, 2.5], [-0.0, 3.0, 0.5], [2.5, 0.5, 4.0]])
        assert np.array_equal(m, m.T)
        text, formatted = self.written(tmp_path, monkeypatch, m)
        assert text == "1.0,0.0,2.5\n-0.0,3.0,0.5\n2.5,0.5,4.0\n"
        assert formatted == 9

    @pytest.mark.parametrize("m", [np.arange(5.0), np.ones((2, 3)), np.array([[7.0]])])
    def test_vectors_and_other_shapes(self, tmp_path, monkeypatch, m):
        text, _ = self.written(tmp_path, monkeypatch, m)
        assert text == plain_rows(np.atleast_2d(m).tolist())
        assert np.array_equal(artifacts.read_matrix(tmp_path / "m.csv"), np.atleast_2d(m))
