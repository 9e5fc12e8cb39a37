"""Synthetic hyperspectral scenes from a linear mixing model.

Every quantitative acceptance check runs against cubes generated here,
where abundances, pure-pixel locations and the noise realization are all
known and seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envi_io import SpectralCube
from .numerics import RandomSource

_SUM_TOL = 1e-12

# Noise draws per block in `generate` (~1 MB at a time): a multiple of the
# Gaussian block of `RandomSource.gaussians`, so every draw is computed in
# the same block as when the whole cube's noise is drawn in one call.
_NOISE_BLOCK = 1 << 17


@dataclass
class MixingScenario:
    """Endmembers, a per-pixel abundance field and a noise level."""

    endmembers: np.ndarray
    wavelengths: np.ndarray
    abundance_field: np.ndarray
    noise_sigma: float = 0.0
    pure_pixel_plan: list[tuple[int, int, int]] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.endmembers = np.asarray(self.endmembers, dtype=np.float64)
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        self.abundance_field = np.asarray(self.abundance_field, dtype=np.float64)
        if self.endmembers.ndim != 2:
            raise ValueError("endmembers must be a (k, bands) array")
        if self.wavelengths.shape != (self.endmembers.shape[1],):
            raise ValueError("wavelengths length must match endmember bands")
        if self.abundance_field.ndim != 3 or \
                self.abundance_field.shape[2] != self.endmembers.shape[0]:
            raise ValueError("abundance field must be (lines, samples, k)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if np.any(self.abundance_field < 0):
            raise ValueError("abundances must be non-negative")
        sums = self.abundance_field.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > _SUM_TOL:
            raise ValueError("abundances must sum to 1 per pixel")
        lines, samples, k = self.abundance_field.shape
        for line, sample, idx in self.pure_pixel_plan:
            if not (0 <= line < lines and 0 <= sample < samples and 0 <= idx < k):
                raise ValueError(f"pure pixel ({line},{sample},{idx}) out of range")
            a = self.abundance_field[line, sample]
            if a[idx] != 1.0 or a.sum() != a[idx]:
                raise ValueError(
                    f"pure pixel ({line},{sample}) is not one-hot on endmember {idx}")

    @property
    def lines(self) -> int:
        return self.abundance_field.shape[0]

    @property
    def samples(self) -> int:
        return self.abundance_field.shape[1]

    @property
    def k(self) -> int:
        return self.endmembers.shape[0]


@dataclass
class GroundTruth:
    """What the generator knew: abundances and planted pure pixels."""

    abundances: np.ndarray
    pure_pixels: list[tuple[int, int, int]]
    endmembers: np.ndarray
    wavelengths: np.ndarray


def synthetic_mineral_library(n_entries: int, seed: int = 0,
                              wavelengths=None):
    """Generate a laboratory-style reflectance library with seeded,
    distinct Gaussian absorption features.

    Stands in for field libraries in scenarios and demos: each entry is a
    smooth continuum carrying 2-4 absorption dips at seeded positions.
    """
    from .envi_io import SpectralLibrary, SpectrumRecord

    if n_entries < 1:
        raise ValueError("n_entries must be at least 1")
    if wavelengths is None:
        wavelengths = np.arange(400.0, 2501.0, 10.0)
    wl = np.asarray(wavelengths, dtype=np.float64)
    span = wl[-1] - wl[0]
    rs = RandomSource(seed)
    entries = []
    for i in range(n_entries):
        level = 0.35 + 0.45 * rs.next_uniform()
        tilt = (rs.next_uniform() - 0.5) * 0.3
        continuum = level + tilt * (wl - wl[0]) / span
        dips = np.zeros_like(wl)
        for _ in range(2 + int(rs.next_uniform() * 3)):
            center = wl[0] + (0.05 + 0.9 * rs.next_uniform()) * span
            width = 20.0 + 100.0 * rs.next_uniform()
            depth = 0.15 + 0.4 * rs.next_uniform()
            dips += depth * np.exp(-0.5 * ((wl - center) / width) ** 2)
        values = np.clip(continuum * (1.0 - np.minimum(dips, 0.9)), 0.02, 1.45)
        entries.append(SpectrumRecord(name=f"mineral_{i + 1:02d}",
                                      wavelengths=wl.copy(), reflectance=values))
    return SpectralLibrary(entries=entries, source_tag="synthetic")


def random_abundance_field(lines: int, samples: int, k: int,
                           seed: int = 0) -> np.ndarray:
    """Flat-Dirichlet abundances: k Exp(1) draws per pixel, normalized.

    Draws are -ln(1 - u) over the seeded uniform stream in raster order
    (pixel-major, then component).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if lines < 1 or samples < 1:
        raise ValueError("field extent must be positive")
    rs = RandomSource(seed)
    u = rs.uniforms(lines * samples * k).reshape(lines, samples, k)
    e = -np.log1p(-u)
    sums = e.sum(axis=2, keepdims=True)
    # An all-zero draw is astronomically unlikely; fall back to uniform.
    e = np.where(sums == 0.0, 1.0, e)
    sums = e.sum(axis=2, keepdims=True)
    return e / sums


def plant_pure_pixels(field: np.ndarray,
                      plan: list[tuple[int, int, int]]) -> np.ndarray:
    """Overwrite planned pixels with one-hot abundances."""
    out = np.array(field, dtype=np.float64, copy=True)
    for line, sample, idx in plan:
        out[line, sample, :] = 0.0
        out[line, sample, idx] = 1.0
    return out


def generate(scenario: MixingScenario) -> tuple[SpectralCube, GroundTruth]:
    """Realize the scenario: mixtures plus seeded per-band Gaussian noise.

    The cube is tagged as radiance so it enters the pipeline at the top;
    noise draws run in raster order (line, sample, band).
    """
    a = scenario.abundance_field
    values = a.reshape(-1, scenario.k) @ scenario.endmembers
    values = values.reshape(scenario.lines, scenario.samples, -1)
    if scenario.noise_sigma > 0:
        # Scaled and added in place, a block of draws at a time: the same
        # stream positions and the same bits as `values + sigma * g` over
        # the whole cube, with no cube-sized noise array.
        rs = RandomSource(scenario.seed)
        flat = values.reshape(-1)
        for start in range(0, flat.size, _NOISE_BLOCK):
            block = flat[start:start + _NOISE_BLOCK]
            g = rs.gaussians(block.size)
            g *= scenario.noise_sigma
            block += g
    cube = SpectralCube(values=values, wavelengths=scenario.wavelengths.copy(),
                        bad_band_mask=np.ones(values.shape[2], dtype=bool),
                        units_tag="radiance")
    truth = GroundTruth(abundances=a.copy(),
                        pure_pixels=list(scenario.pure_pixel_plan),
                        endmembers=scenario.endmembers.copy(),
                        wavelengths=scenario.wavelengths.copy())
    return cube, truth
