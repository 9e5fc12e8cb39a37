"""On-disk formats of the pipeline's CSV and text artifacts.

Tables are written by :func:`write_table` and read back by
:func:`read_table`, which checks the header and every row's width; the
MNF model bundle's headerless float matrices use :func:`write_matrix`
and :func:`read_matrix`. Both write one line at a time. The ENVI cubes,
spectral libraries and band tables keep their own formats in `envi_io`
and `preprocess`.

This module imports no pipeline stage module, so every stage can use it
without paying for the others' imports.
"""

from __future__ import annotations

import csv
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


def write_text(path, text: str) -> None:
    """Write `text` to `path`, creating the parent directory."""
    _write_lines(path, (text,), end="")


def _write_lines(path, lines, end: str = "\n") -> None:
    """Write each of `lines` followed by `end`, creating the parent directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        for line in lines:
            fp.write(line + end)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def write_table(path, header, rows) -> None:
    """Write a header and rows of formatted cells as comma-joined lines."""
    _write_lines(path, (",".join(row) for row in itertools.chain((header,), rows)))


def read_table(path, header) -> list[list[str]]:
    """Read a table whose header starts with the cells `header`.

    Returns the header row followed by the data rows, blank rows skipped;
    every row must have as many cells as the header.
    """
    reader = csv.reader(read_text(path).splitlines())
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or rows[0][1][:len(header)] != list(header):
        raise ValueError(f"{path}: expected CSV header starting '{','.join(header)}'")
    width = len(rows[0][1])
    for line_num, row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"{path}: row {line_num} has {len(row)} cells, header has {width}")
    return [row for _, row in rows]


def write_matrix(path, m) -> None:
    """A float matrix as headerless CSV rows; a vector is written as one row."""
    _write_lines(path, (",".join(_floats(row)) for row in np.atleast_2d(m)))


def read_matrix(path) -> np.ndarray:
    """A matrix written by :func:`write_matrix`, blank rows skipped."""
    rows = csv.reader(read_text(path).splitlines())
    return np.array([[float(c) for c in row] for row in rows if row], dtype=np.float64)


def _floats(values) -> list[str]:
    """Shortest round-tripping text of each float (`repr`)."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _float_matrix(rows, width: int) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in rows]).reshape(-1, width)


# ---------------------------------------------------------------------------
# per-artifact tables


def write_band_stats(path, means, stds) -> None:
    write_table(path, ["band", "mean", "std"],
                ([str(i + 1), m, s]
                 for i, (m, s) in enumerate(zip(_floats(means), _floats(stds)))))


def write_pure_pixels(path, ppi: PpiImage, pixels: list[tuple[int, int]]) -> None:
    """Selected pure pixels with their PPI counts: line,sample,count."""
    write_table(path, ["line", "sample", "count"],
                ([str(line), str(sample), str(int(ppi.counts[line, sample]))]
                 for line, sample in pixels))


def read_pure_pixels(path) -> list[tuple[int, int]]:
    return [(int(r[0]), int(r[1])) for r in read_table(path, ["line", "sample", "count"])[1:]]


def write_ppi_trace(path, trace: list[int]) -> None:
    """Cumulative number of distinct pixels counted, per PPI iteration."""
    write_table(path, ["iteration", "cumulative_pure_pixels"],
                ([str(i), str(v)] for i, v in enumerate(trace, start=1)))


def write_endmembers(path, es: EndmemberSet) -> None:
    """Reflectance means in spectral-library CSV layout (`class_<id>` columns).

    Written directly (not through SpectrumRecord) because scene-derived
    relative reflectance can exceed the laboratory range check.
    """
    header = ["wavelength_nm"] + [f"class_{cid}" for cid in es.class_ids()]
    write_table(path, header,
                ([repr(float(wl))] + _floats(es.reflectance_means[:, i])
                 for i, wl in enumerate(es.wavelengths)))


def read_endmembers(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read back (names, wavelengths, spectra-by-row) without range checks."""
    header, *rows = read_table(path, ["wavelength_nm"])
    data = _float_matrix(rows, len(header))
    return [c.strip() for c in header[1:]], data[:, 0], data[:, 1:].T


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
    header, *rows = read_table(path, ["class_id"])
    return _float_matrix((r[1:] for r in rows), len(header) - 1)


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
    """Per-pixel ground-truth abundances of a (lines, samples, k) field."""
    lines, samples, k = abundances.shape
    write_table(path, ["line", "sample"] + [f"a_{i + 1}" for i in range(k)],
                ([str(line), str(sample)] + _floats(row)
                 for (line, sample), row in zip(np.ndindex(lines, samples),
                                                abundances.reshape(-1, k))))


def write_truth_pure_pixels(path, plan, names: list[str]) -> None:
    write_table(path, ["line", "sample", "endmember_index", "endmember_name"],
                ([str(line), str(sample), str(idx), names[idx]]
                 for line, sample, idx in plan))


def read_pure_pixel_plan(path) -> list[tuple[int, int, int]]:
    """A synth pure-pixel plan: line,sample,endmember_index[,...]."""
    rows = read_table(path, ["line", "sample", "endmember_index"])[1:]
    return [(int(r[0]), int(r[1]), int(r[2])) for r in rows]


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
