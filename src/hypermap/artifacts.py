"""On-disk formats of the pipeline's CSV and text artifacts.

This is the one module that reads and writes CSV text. Tables are
written by :func:`write_table`, which quotes a cell that holds a comma, a
double quote or a line break (a carriage return too), and parsed through
the `csv` module a row at a time by :func:`_table_rows`, which checks the
header and every row's width: :func:`parse_table` on text, :func:`read_table`
on a file opened by :func:`open_lines`. The spectral-library layout
(:func:`write_spectra`, :func:`parse_spectra`), which the library CSV and
`endmembers.csv` share, and the Hyperion band tables are built on them;
the MNF model bundle's headerless float matrices use :func:`write_matrix`
and :func:`read_matrix`. CSV files are written and read one row at a time.

This module imports no pipeline stage module, so every stage can use it
without paying for the others' imports.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .endmember import EndmemberSet
    from .mapping import ClassMap
    from .ppi import PpiImage
    from .spectral_match import MatchScore

HYPERION_BANDS = 242
# Stock calibrated-band keep list (1-based, inclusive) and radiance gains.
HYPERION_KEEP_RANGES = ((8, 57), (79, 224))
HYPERION_VNIR_GAIN = 40.0
HYPERION_SWIR_GAIN = 80.0
HYPERION_VNIR_LAST_BAND = 70


def _create(path):
    """`path` opened for writing text, its parent directory created."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def write_text(path, text: str) -> None:
    """Write `text` to `path`, creating the parent directory."""
    with _create(path) as fp:
        fp.write(text)


def open_lines(path):
    """`path` opened for reading with its line endings untranslated
    (`newline=""`), as the `csv` module needs them to read a quoted cell
    that holds a carriage return."""
    return open(path, "r", encoding="utf-8", newline="")


def read_text(path) -> str:
    """The text of `path`, line endings untranslated; line-based parsers
    split it with `str.splitlines`, which takes every ending."""
    with open_lines(path) as fp:
        return fp.read()


# Rows of a table formatted and written at once by `_write_rows`.
_ROWS_PER_WRITE = 64


def _quoted(cell: str) -> str:
    """`cell` in double quotes, its quotes doubled, when it holds a comma,
    a double quote or a line break; otherwise as it is."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_rows(fp, rows) -> None:
    """Write each row of cells as a CSV line. A row whose cells hold a
    comma, a double quote or a line break has those cells quoted, as the
    `csv` writer quotes them (it leaves a bare carriage return unquoted
    when lines end in a line feed, and its reader then splits the cell);
    any other row is written as its cells joined by commas. Rows go out
    _ROWS_PER_WRITE at a time, their text checked once: when it holds no
    quote or carriage return and only the commas and line feeds that join
    the cells, no cell needs quoting, and there is no per-row cost."""
    rows = iter(rows)
    while batch := list(itertools.islice(rows, _ROWS_PER_WRITE)):
        text = "\n".join(map(",".join, batch))
        if ('"' in text or "\r" in text or text.count("\n") != len(batch) - 1
                or text.count(",") != sum(map(len, batch)) - len(batch)):
            text = "\n".join(",".join(map(_quoted, row)) for row in batch)
        fp.write(text + "\n")


def write_table(path, header, rows) -> None:
    """Write a header and rows of formatted cells as CSV lines."""
    with _create(path) as fp:
        _write_rows(fp, itertools.chain((header,), rows))


def _table_rows(source, header, label: str):
    """Yield the rows of CSV `source` (text, or a file opened by
    :func:`open_lines`, read a row at a time), whose header must start
    with the cells `header`: the header, its cells stripped, then the data
    rows. Rows of blank cells are skipped; every other row must have as
    many cells as the header. Errors name `label` and the row, counting
    the header as row 1 and skipped rows not at all."""
    lines = io.StringIO(source, newline="") if isinstance(source, str) else source
    rows = (row for row in csv.reader(lines) if any(cell.strip() for cell in row))
    head = [cell.strip() for cell in next(rows, [])]
    if head[:len(header)] != list(header):
        raise ValueError(f"{label}: expected CSV header starting '{','.join(header)}'")
    yield head
    for number, row in enumerate(rows, start=2):
        if len(row) != len(head):
            raise ValueError(f"{label} row {number} has {len(row)} cells, expected {len(head)}")
        yield row


def parse_table(text: str, header, label: str) -> list[list[str]]:
    """The rows of CSV `text`, as :func:`_table_rows` checks them."""
    return list(_table_rows(text, header, label))


def read_table(path, header) -> list[list[str]]:
    """:func:`parse_table` of the file at `path`, errors naming the file."""
    with open_lines(path) as fp:
        return list(_table_rows(fp, header, str(path)))


def write_matrix(path, m) -> None:
    """A float matrix as headerless CSV rows; a vector is written as one row."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    with _create(path) as fp:
        _write_rows(fp, map(_floats, m))


def read_matrix(path) -> np.ndarray:
    """A matrix written by :func:`write_matrix`, blank rows skipped."""
    with open_lines(path) as fp:
        return np.array([[float(c) for c in row] for row in csv.reader(fp) if row])


def _floats(values) -> list[str]:
    """Shortest round-tripping text of each float (`repr`)."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _float_table(rows, label: str, check=None) -> tuple[list[str], np.ndarray]:
    """The header of :func:`_table_rows` `rows`, and their data as one
    float64 array, filled a row at a time. Errors come in a whole-table
    check's order: every row's width, then `check(header)`, then the
    first unparseable row."""
    head = next(rows)
    filled, bad = [], None
    for number, row in enumerate(rows, start=2):
        if bad is None:
            try:
                filled.append(np.fromiter(map(float, row), dtype=np.float64, count=len(head)))
            except ValueError as exc:
                bad = number, exc
    if check is not None:
        check(head)
    if bad is not None:
        raise ValueError(f"{label} row {bad[0]}: unparseable number") from bad[1]
    return head, np.reshape(filled, (-1, len(head)))


def _spectra_rows(names, wavelengths, spectra):
    """The spectral-library layout: header `wavelength_nm,<name>,...`, then
    one row per wavelength of each spectrum's value there (`spectra` holds
    one spectrum per row)."""
    rows = map(_floats, np.column_stack((wavelengths, np.transpose(spectra))))
    return itertools.chain((["wavelength_nm", *names],), rows)


def spectra_text(names, wavelengths, spectra) -> str:
    out = io.StringIO()
    _write_rows(out, _spectra_rows(names, wavelengths, spectra))
    return out.getvalue()


def write_spectra(path, names, wavelengths, spectra) -> None:
    with _create(path) as fp:
        _write_rows(fp, _spectra_rows(names, wavelengths, spectra))


def parse_spectra(source, label: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Names, wavelengths and spectra (one per row, a view of one float64
    table) of the layout :func:`write_spectra` writes, from text or an open
    file (as :func:`_table_rows` takes them); no range checks."""
    def check(head):
        if len(head) == 1:
            raise ValueError(f"{label} header names no spectrum")
        if len(set(head[1:])) != len(head) - 1:
            raise ValueError(f"duplicate spectrum names in {label} header")

    head, values = _float_table(_table_rows(source, ["wavelength_nm"], label), label, check)
    return head[1:], values[:, 0].copy(), values[:, 1:].T


# ---------------------------------------------------------------------------
# per-artifact tables


def write_pure_pixels(path, ppi: PpiImage, pixels: list[tuple[int, int]]) -> None:
    """Selected pure pixels with their PPI counts: line,sample,count."""
    counts = ppi.counts[tuple(np.array(pixels, dtype=np.int64).reshape(-1, 2).T)].tolist()
    write_table(path, ["line", "sample", "count"],
                ((str(line), str(sample), str(count))
                 for (line, sample), count in zip(pixels, counts)))


def read_pure_pixels(path) -> list[tuple[int, int]]:
    """The (line, sample) pairs, read a row at a time so that no row's
    cells outlive it; a row of the wrong width is reported before an
    unparseable number, as a check of the whole table reports them."""
    with open_lines(path) as fp:
        rows = _table_rows(fp, ["line", "sample", "count"], str(path))
        next(rows)
        pixels, bad = [], None
        for row in rows:
            try:
                pixels.append((int(row[0]), int(row[1])))
            except ValueError as exc:
                bad = bad or exc
    if bad is not None:
        raise bad
    return pixels


def write_ppi_trace(path, trace: list[int]) -> None:
    """Cumulative number of distinct pixels counted, per PPI iteration."""
    write_table(path, ["iteration", "cumulative_pure_pixels"],
                zip(map(str, range(1, len(trace) + 1)), map(str, trace)))


def write_endmembers(path, es: EndmemberSet) -> None:
    """Reflectance means in spectral-library layout (`class_<id>` columns).

    Written directly (not through SpectrumRecord) because scene-derived
    relative reflectance can exceed the laboratory range check.
    """
    write_spectra(path, [f"class_{cid}" for cid in es.class_ids()],
                  es.wavelengths, es.reflectance_means)


def read_endmembers(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read back (names, wavelengths, spectra-by-row) without range checks."""
    with open_lines(path) as fp:
        return parse_spectra(fp, str(path))


def write_manifest(path, es: EndmemberSet) -> None:
    write_table(path, ["class_id", "member_count"],
                ([str(cid), str(int(count))]
                 for cid, count in zip(es.class_ids(), es.member_counts)))


def write_mnf_means(path, es: EndmemberSet) -> None:
    """MNF-space class centroids: class_id,comp_1,...,comp_d."""
    d = es.mnf_means.shape[1]
    write_table(path, ["class_id"] + [f"comp_{i + 1}" for i in range(d)],
                ([str(cid)] + _floats(row) for cid, row in zip(es.class_ids(), es.mnf_means)))


def read_mnf_means(path) -> np.ndarray:
    """The MNF centroid matrix, classes in id order."""
    table = _float_table(iter(read_table(path, ["class_id"])), str(path))[1]
    return np.ascontiguousarray(table[:, 1:])


def write_rankings(path, scores: list[MatchScore]) -> None:
    write_table(path, ["rank", "mineral", "sam", "sff", "be", "weighted"],
                ([str(rank), m.mineral_name, f"{m.sam_score:.6f}", f"{m.sff_score:.6f}",
                  f"{m.be_score:.6f}", f"{m.weighted:.6f}"]
                 for rank, m in enumerate(scores, start=1)))


def write_match_summary(path, tops: list[MatchScore]) -> None:
    """Rank-1 match of each class, class ids counting from 1."""
    write_table(path, ["class_id", "top_mineral", "weighted_score"],
                ([str(cid), m.mineral_name, f"{m.weighted:.6f}"]
                 for cid, m in enumerate(tops, start=1)))


def read_match_summary(path) -> dict[int, tuple[str, float]]:
    rows = read_table(path, ["class_id", "top_mineral", "weighted_score"])[1:]
    return {int(r[0]): (r[1], float(r[2])) for r in rows}


def write_class_statistics(path, class_map: ClassMap) -> None:
    from .mapping import class_statistics

    write_table(path, ["class_id", "pixel_count", "percent"],
                ([str(cid), str(count), f"{percent:.6f}"]
                 for cid, count, percent in class_statistics(class_map)))


def read_class_statistics(path) -> dict[int, tuple[int, float]]:
    rows = read_table(path, ["class_id", "pixel_count", "percent"])[1:]
    return {int(r[0]): (int(r[1]), float(r[2])) for r in rows}


def write_class_legend(path, top: dict[int, tuple[str, float]]) -> None:
    write_table(path, ["class_id", "matched_mineral", "weighted_score"],
                ([str(cid), mineral, f"{score:.6f}"]
                 for cid, (mineral, score) in sorted(top.items())))


def write_report(path, top: dict[int, tuple[str, float]],
                 stats: dict[int, tuple[int, float]]) -> None:
    """One row per matched class joined with its pixel count and percent."""
    rows = []
    for cid, (mineral, score) in sorted(top.items()):
        count, percent = stats.get(cid, (0, 0.0))
        rows.append([str(cid), mineral, f"{score:.6f}", str(count), f"{percent:.6f}"])
    write_table(path, ["class_id", "top_mineral", "weighted_score", "pixel_count",
                       "percent"], rows)


def write_ppi_histogram(path, counts: np.ndarray) -> None:
    values, freq = np.unique(counts, return_counts=True)
    write_table(path, ["count", "pixels"],
                ([str(int(v)), str(int(f))] for v, f in zip(values, freq)))


def write_eigenvalue_curve(path, eigenvalues_path) -> None:
    """Plot table of the MNF bundle's eigenvalues (one CSV row)."""
    eigenvalues = _floats(read_matrix(eigenvalues_path).ravel())
    write_table(path, ["component", "eigenvalue"],
                ([str(i + 1), v] for i, v in enumerate(eigenvalues)))


def write_truth_abundances(path, abundances: np.ndarray) -> None:
    """Per-pixel ground-truth abundances of a (lines, samples, k) field.

    Each distinct abundance row of a line is formatted once, keyed by its
    bytes (so `0.0` and `-0.0` stay apart); the formatted rows of the line
    before are reused too, and a line whose rows are all those of the line
    before reuses its text but for the line number. So a block-repeated
    field is formatted about once per block while the text held stays two
    lines' worth. The file is written a line of rows at a time."""
    lines, samples, k = abundances.shape
    rows = np.ascontiguousarray(abundances, dtype=np.float64)
    row_bytes = np.dtype((np.void, 8 * k))
    with _create(path) as fp:
        _write_rows(fp, [["line", "sample"] + [f"a_{i + 1}" for i in range(k)]])
        before: dict[bytes, str] = {}
        keys_before = None
        for line in range(lines):
            keys = rows[line].view(row_bytes).ravel().tolist()
            if keys != keys_before:
                # `tails[1:]` are the line's rows after its line number.
                current: dict[bytes, str] = {}
                tails = [""]
                for sample, (key, row) in enumerate(zip(keys, rows[line].tolist())):
                    text = current.get(key)
                    if text is None:
                        text = before.get(key)
                        if text is None:
                            text = ",".join(map(repr, row))
                        current[key] = text
                    tails.append(f",{sample},{text}\n")
                before, keys_before = current, keys
            fp.write(str(line).join(tails))


def write_truth_pure_pixels(path, plan, names: list[str]) -> None:
    write_table(path, ["line", "sample", "endmember_index", "endmember_name"],
                ([str(line), str(sample), str(idx), names[idx]]
                 for line, sample, idx in plan))


def write_hyperion_tables(mask_path, gains_path) -> None:
    """The stock band mask (band_index,keep) and radiance gains (band_index,gain)."""
    bands = range(1, HYPERION_BANDS + 1)
    keep = (any(lo <= band <= hi for lo, hi in HYPERION_KEEP_RANGES) for band in bands)
    write_table(mask_path, ["band_index", "keep"],
                ([str(band), str(int(k))] for band, k in zip(bands, keep)))
    gains = (HYPERION_VNIR_GAIN if band <= HYPERION_VNIR_LAST_BAND else HYPERION_SWIR_GAIN
             for band in bands)
    write_table(gains_path, ["band_index", "gain"],
                ([str(band), f"{gain:g}"] for band, gain in zip(bands, gains)))


def read_band_table(text: str, n_bands: int, value_name: str) -> np.ndarray:
    """The values of a `band_index,<value_name>` table, the layout
    :func:`write_hyperion_tables` writes: each band 1..`n_bands` on exactly
    one row, with a finite number."""
    label = f"{value_name} table"
    table = parse_table(text, ["band_index", value_name], label)
    if len(table[0]) != 2:
        raise ValueError(f"{label}: expected CSV header 'band_index,{value_name}'")
    values = np.empty(n_bands, dtype=np.float64)
    row_of = np.zeros(n_bands, dtype=np.int64)  # the row that gave each band, 0 for none yet
    for number, (index, cell) in enumerate(table[1:], start=2):
        where = f"{label} row {number}"
        try:
            band = int(index)
        except ValueError:
            raise ValueError(f"{where}: band index {index.strip()!r} is not an integer") from None
        if not 1 <= band <= n_bands:
            raise ValueError(f"{where}: band index {band} outside 1..{n_bands}")
        if row_of[band - 1]:
            raise ValueError(f"{where}: band {band} already given on row {row_of[band - 1]}")
        try:
            values[band - 1] = float(cell)
        except ValueError:
            values[band - 1] = np.nan
        if not np.isfinite(values[band - 1]):
            raise ValueError(f"{where}: {value_name} {cell.strip()!r} is not a finite number")
        row_of[band - 1] = number
    if not row_of.all():
        raise ValueError(f"{label}: band {int(np.argmin(row_of)) + 1} missing from CSV")
    return values
