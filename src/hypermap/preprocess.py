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
from .envi_io import _FILE_AXES, BLOCK_BYTES, SpectralCube, check_keep_mask, \
    write_bsq_pixel_blocks

_MEAN_EPS = 1e-12

# NumPy sums a run of at most this many contiguous values as one leaf of
# its pairwise summation, and splits a longer run (`_PairwiseSum`).
_PAIRWISE_LEAF = 128


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


# The mean spectrum that reflectance divides by is summed a block of lines
# at a time, with the bits NumPy gives `values[region].reshape(-1,
# bands).mean(axis=0)` of the whole cube held in a given memory order.
# That depends on the order: NumPy sums each band's values pairwise when
# they lie closer together than the bands (BSQ planes), and otherwise adds
# the pixel rows one after another (`_sums_pairwise`).


def _sums_pairwise(strides, lines: int, samples: int, bands: int) -> bool:
    """Whether NumPy sums `values.reshape(-1, bands)` over its pixels band
    by band, pairwise, for an (lines, samples, bands) array `values` with
    these strides: when the reshape is a view whose step from pixel to
    pixel is shorter than from band to band, or there is one band. When
    the reshape is a C-ordered copy, or bands lie closer together than
    pixels, NumPy adds one pixel row after another."""
    line, sample, band = (abs(s) for s in strides)
    if bands == 1 or lines * samples == 1:
        return True
    if lines == 1 or line == samples * sample:
        return sample < band
    if samples == 1:
        return line < band
    return False


def _layout_strides(interleave: str, dims) -> tuple[int, ...]:
    """Strides, in values, of the (line, sample, band) view of a C-ordered
    array of `dims` values in `interleave` order."""
    strides, step = [0, 0, 0], 1
    for axis in reversed(_FILE_AXES[interleave]):
        strides[axis], step = step, step * dims[axis]
    return tuple(strides)


def _region_part(region: Roi, first_line: int, block: np.ndarray) -> tuple[int, np.ndarray]:
    """(first line within `region`, the region's part of `block`), for a
    block of lines of the cube that starts at `first_line`."""
    l0 = max(region.first_line, first_line)
    l1 = max(l0, min(region.first_line + region.n_lines, first_line + len(block)))
    return l0 - region.first_line, block[l0 - first_line:l1 - first_line,
                                         region.first_sample:region.first_sample + region.n_samples]


class _RowSum:
    """Per-band sum of pixel spectra added a block at a time, one pixel row
    after another, as NumPy sums a C-ordered (pixels, bands) matrix: each
    block's rows are copied behind a first row that holds the running
    total, and summed with it."""

    def __init__(self, bands: int):
        self.rows = np.zeros((1, bands))

    def add(self, pixels: np.ndarray) -> None:
        m = pixels.shape[0] * pixels.shape[1]
        if len(self.rows) <= m:
            rows = np.empty((1 + m, pixels.shape[2]))
            rows[0] = self.rows[0]
            self.rows = rows
        self.rows[1:1 + m].reshape(pixels.shape)[...] = pixels
        self.rows[0] = self.rows[:1 + m].sum(axis=0)

    def total(self) -> np.ndarray:
        return self.rows[0]


def _halves(n: int) -> tuple[int, int]:
    """The lengths NumPy splits a pairwise sum of n > `_PAIRWISE_LEAF`
    values into: half of n rounded down to a multiple of 8, and the rest."""
    half = n // 2 - n // 2 % 8
    return half, n - half


def _pairwise_runs(first: int, stop: int, size: int) -> list[tuple[int, int]]:
    """(first, stop) of the runs of at most `size` values that NumPy's
    pairwise split of the values first to stop reaches, in order."""
    if stop - first <= size:
        return [(first, stop)]
    half = _halves(stop - first)[0]
    return _pairwise_runs(first, first + half, size) + \
        _pairwise_runs(first + half, stop, size)


class _PairwiseSum:
    """Per-band sum of `n` pixel spectra added a block at a time in raster
    order, with the bits of NumPy's pairwise sum of each band's n values.
    The split is cut off at runs of at most `size` (>= `_PAIRWISE_LEAF`)
    values, which NumPy sums itself: in place when a run lies in one block,
    and from a copy of its first values, held until the block that ends
    it, when it spans blocks. The run sums are then added as the split
    pairs them."""

    def __init__(self, n: int, bands: int, size: int):
        self.n, self.size = n, max(size, _PAIRWISE_LEAF)
        self.runs = _pairwise_runs(0, n, self.size)
        self.sums: list[np.ndarray] = []
        self.rest = np.empty((bands, self.size))
        self.next = self.held = 0  # the block's first pixel; values in `rest`

    def add(self, pixels: np.ndarray) -> None:
        values = pixels.transpose(2, 0, 1).reshape(pixels.shape[2], -1)
        p, m = self.next, values.shape[1]
        while len(self.sums) < len(self.runs):
            r0, r1 = self.runs[len(self.sums)]
            if r1 > p + m:  # the run goes on in the next block
                a = max(r0, p) - p
                self.rest[:, self.held:self.held + m - a] = values[:, a:]
                self.held += m - a
                break
            if self.held:
                self.rest[:, self.held:r1 - r0] = values[:, :r1 - p]
                self.sums.append(np.add.reduce(self.rest[:, :r1 - r0], axis=1))
                self.held = 0
            else:
                self.sums.append(np.add.reduce(values[:, r0 - p:r1 - p], axis=1))
        self.next = p + m

    def total(self) -> np.ndarray:
        sums = iter(self.sums)

        def node(n):
            if n <= self.size:
                return next(sums)
            left, right = _halves(n)
            return node(left) + node(right)

        return node(self.n)


def _region_sum(blocks, region: Roi, pairwise: bool) -> np.ndarray:
    """Per-band sum over the pixels of `region`, from the (first line,
    block of lines) pairs of a cube in line order: each band pairwise or
    one pixel row after another (see `_sums_pairwise`). Every block is
    taken, inside the region or not."""
    total = None
    for l0, block in blocks:
        part = _region_part(region, l0, block)[1]
        if total is None:
            n, bands = region.n_lines * region.n_samples, block.shape[2]
            total = _PairwiseSum(n, bands, BLOCK_BYTES // (32 * bands)) if pairwise \
                else _RowSum(bands)
        if part.size:
            total.add(part)
        del block, part  # the next block is not made while this one is held
    return total.total()


def _mean_spectrum(blocks, region: Roi, pairwise: bool, what: str) -> np.ndarray:
    """`_region_sum` over the region's pixel count, checked to have no
    band near zero."""
    mean = _region_sum(blocks, region, pairwise) / (region.n_lines * region.n_samples)
    if np.any(np.abs(mean) < _MEAN_EPS):
        raise ValueError(f"{what} spectrum has a near-zero band; cannot normalize")
    return mean


def _reflectance(cube: SpectralCube, region: Roi, what: str) -> SpectralCube:
    _check_radiance(cube)
    region.check_within(cube.lines, cube.samples)
    pairwise = _sums_pairwise(cube.values.strides, region.n_lines, region.n_samples,
                              cube.bands)
    mean = _mean_spectrum(line_blocks(cube), region, pairwise, what)
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
    spectrum, once to divide and write each block's band rows. The file
    has the bytes that `write_cube_file` gives the result of
    `scale_radiance`, `reflectance_flat_field` or `reflectance_iarr` and
    `subset_roi` (in that order for a flat field, with the crop first for
    IARR) on the cube as read with its kept bands band-major, the way a
    band selection is read, or in the file's interleave without `keep`.
    """
    _check_radiance(scene)
    full = Roi(0, 0, scene.lines, scene.samples)
    kept = check_keep_mask(np.ones(scene.bands, dtype=bool) if keep is None else keep,
                           scene.bands)
    if gains is not None:
        gains = _checked_gains(gains, scene.bands)[kept]
    out = full if roi is None else roi
    out.check_within(scene.lines, scene.samples)
    dims = (scene.lines, scene.samples, int(kept.sum()))
    strides = _layout_strides(scene.header.interleave if keep is None else "bsq", dims)
    if field is not None:
        field.check_within(scene.lines, scene.samples)
        region, what = field, "flat-field mean"
    elif roi is not None:  # the crop is a C-ordered copy
        region, what = roi, "scene-mean"
        strides = _layout_strides("bip", (roi.n_lines, roi.n_samples, dims[2]))
    else:
        region, what = full, "scene-mean"
    pairwise = _sums_pairwise(strides, region.n_lines, region.n_samples, dims[2])
    mean = _mean_spectrum(_radiance_blocks(scene, kept, gains), region, pairwise, what)

    def rows():
        for l0, block in _radiance_blocks(scene, kept, gains):
            first, part = _region_part(out, l0, block)
            if part.size:
                part /= mean
                yield first * out.n_samples, part.transpose(2, 0, 1).reshape(dims[2], -1)
            del block, part

    write_bsq_pixel_blocks(rows(), header_path, out.n_lines, out.n_samples,
                           scene.wavelengths[kept], scene.bad_band_mask[kept], "reflectance")
    return out.n_samples, out.n_lines, dims[2]


def band_statistics(cube: SpectralCube | CubeFile) -> tuple[np.ndarray, np.ndarray]:
    """Each band's mean and standard deviation over the pixels, taken a
    block of lines at a time in two passes, with the bits of NumPy's
    `pixels.mean(axis=0)` and `pixels.std(axis=0)` of the cube in memory
    (a `CubeFile` as its interleave orders it). A constant band's deviation
    is recorded as 1 so that standardizing stays invertible."""
    n = cube.lines * cube.samples
    if n < 2:
        raise ValueError("standardize needs at least 2 pixels")
    full = Roi(0, 0, cube.lines, cube.samples)
    dims = (cube.lines, cube.samples, cube.bands)
    strides = cube.values.strides if isinstance(cube, SpectralCube) else \
        _layout_strides(cube.header.interleave, dims)
    pairwise = _sums_pairwise(strides, *dims)
    means = _region_sum(line_blocks(cube), full, pairwise) / n

    def squares():
        for l0, block in line_blocks(cube):
            deviations = block - means
            yield l0, np.square(deviations, out=deviations)

    stds = np.sqrt(_region_sum(squares(), full, pairwise) / n)
    return means, np.where(stds == 0.0, 1.0, stds)


def standardize(cube: SpectralCube) -> tuple[SpectralCube, np.ndarray, np.ndarray]:
    """Shift each band to mean 0 and scale to standard deviation 1.

    Constant bands map to 0 with their std recorded as 1 so the transform
    stays invertible. Returns (cube, band means, band stds).
    """
    means, stds = band_statistics(cube)
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
