"""Bad-band removal, ROI subsetting, radiance scaling, reflectance retrieval
and per-band standardization.

Reflectance here is scene-derived: either division by the scene-mean
spectrum (internal average relative reflectance) or by the mean spectrum
of a designated flat-field region. Both preserve the pipeline contract of
radiance in, reflectance out, without a radiative-transfer model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .envi_io import SpectralCube

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
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (cube.bands,):
        raise ValueError(f"band mask length {keep.size} != cube bands {cube.bands}")
    if not keep.any():
        raise ValueError("band mask removes every band")
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


def scale_radiance(cube: SpectralCube, gains) -> SpectralCube:
    """Divide each band by its gain (Hyperion-style radiance scaling)."""
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    gains = np.asarray(gains, dtype=np.float64)
    if gains.shape != (cube.bands,):
        raise ValueError(f"gains length {gains.size} != cube bands {cube.bands}")
    if np.any(gains <= 0):
        raise ValueError("gains must all be positive")
    return cube.copy_with(values=cube.values / gains)


def reflectance_iarr(cube: SpectralCube) -> SpectralCube:
    """Internal average relative reflectance: divide every pixel spectrum
    by the scene-mean spectrum."""
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    mean = cube.pixels().mean(axis=0)
    if np.any(np.abs(mean) < _MEAN_EPS):
        raise ValueError("scene-mean spectrum has a near-zero band; cannot normalize")
    return cube.copy_with(values=cube.values / mean, units_tag="reflectance")


def reflectance_flat_field(cube: SpectralCube, field_roi: Roi) -> SpectralCube:
    """Flat-field reflectance: divide every pixel spectrum by the mean
    spectrum of the given region (e.g. a spectrally flat calibration area)."""
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")
    field_roi.check_within(cube.lines, cube.samples)
    block = cube.values[field_roi.first_line:field_roi.first_line + field_roi.n_lines,
                        field_roi.first_sample:field_roi.first_sample + field_roi.n_samples, :]
    mean = block.reshape(-1, cube.bands).mean(axis=0)
    if np.any(np.abs(mean) < _MEAN_EPS):
        raise ValueError("flat-field mean spectrum has a near-zero band; cannot normalize")
    return cube.copy_with(values=cube.values / mean, units_tag="reflectance")


def standardize(cube: SpectralCube) -> tuple[SpectralCube, np.ndarray, np.ndarray]:
    """Shift each band to mean 0 and scale to standard deviation 1.

    Constant bands map to 0 with their std recorded as 1 so the transform
    stays invertible. Returns (cube, band means, band stds).
    """
    flat = cube.pixels()
    if flat.shape[0] < 2:
        raise ValueError("standardize needs at least 2 pixels")
    means = flat.mean(axis=0)
    stds = flat.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    values = cube.values - means
    values /= stds
    return cube.copy_with(values=values), means, stds


# ---------------------------------------------------------------------------
# CSV config formats: `band_index,keep` and `band_index,gain`, 1-based rows


def _read_band_csv(text: str, n_bands: int, value_name: str) -> np.ndarray:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r and any(c.strip() for c in r)]
    if not rows or [c.strip() for c in rows[0]] != ["band_index", value_name]:
        raise ValueError(f"expected CSV header 'band_index,{value_name}'")
    out = np.full(n_bands, np.nan)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"row {i}: expected 2 cells")
        idx = int(row[0])
        if not 1 <= idx <= n_bands:
            raise ValueError(f"row {i}: band index {idx} outside 1..{n_bands}")
        out[idx - 1] = float(row[1])
    if np.isnan(out).any():
        missing = int(np.flatnonzero(np.isnan(out))[0]) + 1
        raise ValueError(f"band {missing} missing from CSV")
    return out


def read_band_mask_csv(text: str, n_bands: int) -> np.ndarray:
    """Parse a `band_index,keep` CSV into a boolean keep mask."""
    values = _read_band_csv(text, n_bands, "keep")
    if not np.isin(values, (0.0, 1.0)).all():
        raise ValueError("keep values must be 0 or 1")
    return values.astype(bool)


def read_gains_csv(text: str, n_bands: int) -> np.ndarray:
    """Parse a `band_index,gain` CSV into per-band divisors, all positive."""
    gains = _read_band_csv(text, n_bands, "gain")
    if np.any(gains <= 0):
        raise ValueError("gains must all be positive")
    return gains
