"""Bad-band removal, ROI subsetting, radiance scaling, reflectance retrieval
and per-band standardization.

Reflectance here is scene-derived: either division by the scene-mean
spectrum (internal average relative reflectance) or by the mean spectrum
of a designated flat-field region. Both preserve the pipeline contract of
radiance in, reflectance out, without a radiative-transfer model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_band_table
from .envi_io import BLOCK_BYTES, SpectralCube, check_keep_mask

_MEAN_EPS = 1e-12


@dataclass(frozen=True)
class Roi:
    """Rectangular region of interest in (line, sample) space."""

    first_line: int
    first_sample: int
    n_lines: int
    n_samples: int

    def __post_init__(self):
        if self.first_line < 0 or self.first_sample < 0:
            raise ValueError("ROI origin must be non-negative")
        if self.n_lines <= 0 or self.n_samples <= 0:
            raise ValueError("ROI extent must be positive")

    def check_within(self, lines: int, samples: int) -> None:
        if self.first_line + self.n_lines > lines or \
                self.first_sample + self.n_samples > samples:
            raise ValueError(
                f"ROI {self} extends past cube extent {lines}x{samples}")


def remove_bad_bands(cube: SpectralCube, keep) -> SpectralCube:
    """Keep only the bands flagged true in `keep` (length = cube bands)."""
    keep = check_keep_mask(keep, cube.bands)
    return SpectralCube(values=cube.values[:, :, keep],
                        wavelengths=cube.wavelengths[keep],
                        bad_band_mask=cube.bad_band_mask[keep],
                        units_tag=cube.units_tag)


def subset_roi(cube: SpectralCube, roi: Roi) -> SpectralCube:
    """Spatial crop; spectra are untouched."""
    roi.check_within(cube.lines, cube.samples)
    block = cube.values[roi.first_line:roi.first_line + roi.n_lines,
                        roi.first_sample:roi.first_sample + roi.n_samples, :]
    return cube.copy_with(values=block.copy())


# Each step below that returns a new cube has a private core that works
# in the cube's own values, which are then the result's: a stage that
# owns its cube calls the core and keeps a single cube-sized array. The
# public function runs the same core on a copy, so both give the same
# bits and memory order.


def _own_copy(cube: SpectralCube) -> SpectralCube:
    return cube.copy_with(values=cube.values.copy(order="K"))


def scale_radiance(cube: SpectralCube, gains) -> SpectralCube:
    """Divide each band by its gain (Hyperion-style radiance scaling)."""
    return _scale_in_place(_own_copy(cube), gains)


def _scale_in_place(cube: SpectralCube, gains) -> SpectralCube:
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    gains = np.asarray(gains, dtype=np.float64)
    if gains.shape != (cube.bands,):
        raise ValueError(f"gains length {gains.size} != cube bands {cube.bands}")
    if np.any(gains <= 0):
        raise ValueError("gains must all be positive")
    cube.values /= gains
    return cube.copy_with(values=cube.values)


def _pixel_mean(values: np.ndarray) -> np.ndarray:
    """`values.reshape(-1, bands).mean(axis=0)`, to the bit, without the
    cube-sized copy that reshape makes when the pixels are not a view.
    NumPy sums the rows of that C-ordered copy one after another, so the
    copy is made a block of lines at a time, behind a first row that holds
    the running total, and each block's sum starts from it."""
    lines, samples, bands = values.shape
    if lines == 1 or samples == 1 or values.strides[0] == samples * values.strides[1]:
        # Lines step over whole rows of samples (BSQ and BIP reads, not BIL).
        return values.reshape(-1, bands).mean(axis=0)
    step = max(1, BLOCK_BYTES // (8 * samples * bands))
    rows = np.zeros((1 + step * samples, bands))
    for l0 in range(0, lines, step):
        block = values[l0:l0 + step]
        end = 1 + block.shape[0] * samples
        rows[1:end].reshape(block.shape)[...] = block
        rows[0] = rows[:end].sum(axis=0)
    return rows[0] / (lines * samples)


def _divide_by_mean(cube: SpectralCube, mean: np.ndarray, what: str) -> SpectralCube:
    if np.any(np.abs(mean) < _MEAN_EPS):
        raise ValueError(f"{what} spectrum has a near-zero band; cannot normalize")
    cube.values /= mean
    return cube.copy_with(values=cube.values, units_tag="reflectance")


def reflectance_iarr(cube: SpectralCube) -> SpectralCube:
    """Internal average relative reflectance: divide every pixel spectrum
    by the scene-mean spectrum."""
    return _iarr_in_place(_own_copy(cube))


def _iarr_in_place(cube: SpectralCube) -> SpectralCube:
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    return _divide_by_mean(cube, _pixel_mean(cube.values), "scene-mean")


def reflectance_flat_field(cube: SpectralCube, field_roi: Roi) -> SpectralCube:
    """Flat-field reflectance: divide every pixel spectrum by the mean
    spectrum of the given region (e.g. a spectrally flat calibration area)."""
    return _flat_field_in_place(_own_copy(cube), field_roi)


def _flat_field_in_place(cube: SpectralCube, field_roi: Roi) -> SpectralCube:
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    field_roi.check_within(cube.lines, cube.samples)
    block = cube.values[field_roi.first_line:field_roi.first_line + field_roi.n_lines,
                        field_roi.first_sample:field_roi.first_sample + field_roi.n_samples, :]
    return _divide_by_mean(cube, block.reshape(-1, cube.bands).mean(axis=0), "flat-field mean")


def _column_std(flat: np.ndarray) -> np.ndarray:
    """`flat.std(axis=0)`, to the bit, a block of columns at a time so the
    temporary stays near BLOCK_BYTES. Blocks are at least two columns
    wide: NumPy sums one column of a C-ordered (n, b) array pairwise, but
    two or more row after row, as it sums the whole array."""
    n, b = flat.shape
    count = max(1, b // max(2, BLOCK_BYTES // (8 * n)))
    edges = [b * i // count for i in range(count + 1)]
    return np.concatenate([flat[:, e0:e1].std(axis=0) for e0, e1 in zip(edges, edges[1:])])


def standardize(cube: SpectralCube) -> tuple[SpectralCube, np.ndarray, np.ndarray]:
    """Shift each band to mean 0 and scale to standard deviation 1.

    Constant bands map to 0 with their std recorded as 1 so the transform
    stays invertible. Returns (cube, band means, band stds).
    """
    return _standardize_in_place(_own_copy(cube))


def _standardize_in_place(cube: SpectralCube) -> tuple[SpectralCube, np.ndarray, np.ndarray]:
    flat = cube.pixels()
    if flat.shape[0] < 2:
        raise ValueError("standardize needs at least 2 pixels")
    means = flat.mean(axis=0)
    stds = _column_std(flat)
    stds = np.where(stds == 0.0, 1.0, stds)
    cube.values -= means
    cube.values /= stds
    return cube.copy_with(values=cube.values), means, stds


# ---------------------------------------------------------------------------
# band tables: `band_index,keep` and `band_index,gain`, 1-based rows


def read_band_mask_csv(text: str, n_bands: int) -> np.ndarray:
    """Parse a `band_index,keep` CSV into a boolean keep mask."""
    values = read_band_table(text, n_bands, "keep")
    if not np.isin(values, (0.0, 1.0)).all():
        raise ValueError("keep values must be 0 or 1")
    return values.astype(bool)


def read_gains_csv(text: str, n_bands: int) -> np.ndarray:
    """Parse a `band_index,gain` CSV into per-band divisors, all positive."""
    gains = read_band_table(text, n_bands, "gain")
    if np.any(gains <= 0):
        raise ValueError("gains must all be positive")
    return gains
