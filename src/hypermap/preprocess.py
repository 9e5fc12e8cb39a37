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
from .cube_blocks import CubeFile, line_blocks
from .envi_io import SpectralCube, check_keep_mask, write_bsq_pixel_blocks

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


def _check_radiance(cube: SpectralCube | CubeFile) -> None:
    if cube.units_tag != "radiance":
        raise ValueError(f"expected a radiance cube, got {cube.units_tag!r}")


def _checked_gains(gains, bands: int) -> np.ndarray:
    gains = np.asarray(gains, dtype=np.float64)
    if gains.shape != (bands,):
        raise ValueError(f"gains length {gains.size} != cube bands {bands}")
    if np.any(gains <= 0):
        raise ValueError("gains must all be positive")
    return gains


def scale_radiance(cube: SpectralCube, gains) -> SpectralCube:
    """Divide each band by its gain (Hyperion-style radiance scaling)."""
    _check_radiance(cube)
    return cube.copy_with(values=cube.values / _checked_gains(gains, cube.bands))


def _region_part(region: Roi, first_line: int, block: np.ndarray) -> tuple[int, np.ndarray]:
    """(first line within `region`, the region's part of `block`), for a
    block of lines of the cube that starts at `first_line`."""
    l0 = max(region.first_line, first_line)
    l1 = max(l0, min(region.first_line + region.n_lines, first_line + len(block)))
    return l0 - region.first_line, block[l0 - first_line:l1 - first_line,
                                         region.first_sample:region.first_sample + region.n_samples]


def _region_sum(blocks, region: Roi) -> np.ndarray:
    """Per-band sum over the pixels of `region`, from the (first line,
    block of lines) pairs of a cube in line order: each block's part of
    the region is summed in one reduction over its view and added to a
    running total, as `numerics.Moments.add` adds its blocks, with the
    rounding error of each addition carried beside it (Neumaier 1974), so
    that a cube of many blocks is summed as closely as NumPy sums one.
    Every block is taken, inside the region or not."""
    total = error = 0.0
    for l0, block in blocks:
        part_sum = _region_part(region, l0, block)[1].sum(axis=(0, 1))
        new = total + part_sum
        error = error + np.where(np.abs(total) >= np.abs(part_sum), (total - new) + part_sum,
                                 (part_sum - new) + total)
        total = new
        del block  # the next block is not made while this one is held
    return total + error


def _mean_spectrum(blocks, region: Roi, what: str) -> np.ndarray:
    """`_region_sum` over the region's pixel count, checked to have no
    band near zero."""
    mean = _region_sum(blocks, region) / (region.n_lines * region.n_samples)
    if np.any(np.abs(mean) < _MEAN_EPS):
        raise ValueError(f"{what} spectrum has a near-zero band; cannot normalize")
    return mean


def _reflectance(cube: SpectralCube, region: Roi, what: str) -> SpectralCube:
    _check_radiance(cube)
    region.check_within(cube.lines, cube.samples)
    mean = _mean_spectrum(line_blocks(cube), region, what)
    return cube.copy_with(values=cube.values / mean, units_tag="reflectance")


def reflectance_iarr(cube: SpectralCube) -> SpectralCube:
    """Internal average relative reflectance: divide every pixel spectrum
    by the scene-mean spectrum."""
    return _reflectance(cube, Roi(0, 0, cube.lines, cube.samples), "scene-mean")


def reflectance_flat_field(cube: SpectralCube, field_roi: Roi) -> SpectralCube:
    """Flat-field reflectance: divide every pixel spectrum by the mean
    spectrum of the given region (e.g. a spectrally flat calibration area)."""
    return _reflectance(cube, field_roi, "flat-field mean")


def _radiance_blocks(scene: CubeFile, keep, gains):
    """(first line, the kept bands of a block of lines divided by their
    gains) over every line of `scene`, each an array of its own, held
    band-major as NumPy gathers bands."""
    for l0, block in line_blocks(scene):
        block = block[:, :, keep]
        if gains is not None:
            block /= gains
        yield l0, block


def write_reflectance(scene: CubeFile, header_path, keep=None, gains=None,
                      roi: Roi | None = None, field: Roi | None = None) -> tuple[int, int, int]:
    """Write the reflectance of the radiance cube `scene` as a float64 BSQ
    cube at `header_path`: its bands kept by `keep` and divided by their
    `gains` (the whole table checked), divided by the mean spectrum of the
    flat `field` or, by default, of the scene (IARR), and cropped to
    `roi`. Returns its (samples, lines, bands).

    The cube is read twice, a block of lines at a time: once for the mean
    spectrum, summed block by block as `_region_sum` sums it, and once to
    divide and write each block's band rows. The values are those of
    `scale_radiance`, `reflectance_flat_field` or `reflectance_iarr` and
    `subset_roi` (in that order for a flat field, with the crop first for
    IARR) up to the rounding of that sum.
    """
    _check_radiance(scene)
    full = Roi(0, 0, scene.lines, scene.samples)
    kept = check_keep_mask(np.ones(scene.bands, dtype=bool) if keep is None else keep,
                           scene.bands)
    if gains is not None:
        gains = _checked_gains(gains, scene.bands)[kept]
    out = full if roi is None else roi
    out.check_within(scene.lines, scene.samples)
    if field is not None:
        field.check_within(scene.lines, scene.samples)
        region, what = field, "flat-field mean"
    else:
        region, what = out, "scene-mean"
    mean = _mean_spectrum(_radiance_blocks(scene, kept, gains), region, what)

    def rows():
        for l0, block in _radiance_blocks(scene, kept, gains):
            first, part = _region_part(out, l0, block)
            if part.size:
                part /= mean
                yield first * out.n_samples, part.transpose(2, 0, 1).reshape(mean.size, -1)
            del block, part

    write_bsq_pixel_blocks(rows(), header_path, out.n_lines, out.n_samples,
                           scene.wavelengths[kept], scene.bad_band_mask[kept], "reflectance")
    return out.n_samples, out.n_lines, mean.size


def standardize(cube: SpectralCube) -> tuple[SpectralCube, np.ndarray, np.ndarray]:
    """Shift each band to mean 0 and scale to standard deviation 1.

    The mean and (population) standard deviation are taken a block of
    lines at a time in two passes, the mean and then the mean squared
    deviation from it, each summed by `_region_sum`. Constant bands map to
    0 with their std recorded as 1 so the transform stays invertible.
    Returns (cube, band means, band stds).
    """
    n = cube.lines * cube.samples
    if n < 2:
        raise ValueError("standardize needs at least 2 pixels")
    full = Roi(0, 0, cube.lines, cube.samples)
    means = _region_sum(line_blocks(cube), full) / n

    def squares():
        for l0, block in line_blocks(cube):
            deviations = block - means
            yield l0, np.square(deviations, out=deviations)

    stds = np.sqrt(_region_sum(squares(), full) / n)
    stds = np.where(stds == 0.0, 1.0, stds)
    return cube.copy_with(values=(cube.values - means) / stds), means, stds


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
