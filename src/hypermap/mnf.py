"""Minimum Noise Fraction transform with shift-difference noise estimation.

The transform whitens the estimated noise, then rotates into the
eigenbasis of the noise-whitened data covariance, ordering components by
signal-to-noise instead of raw variance. In the output space the noise
covariance is (up to estimation error) the identity, which is what makes
a fixed PPI threshold meaningful in sigma-like units.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .cube_blocks import CubeFile, line_blocks, plane_blocks
from .envi_io import SpectralCube, write_bsq_pixel_blocks
from .numerics import Moments, check_symmetric, symmetric_eig

_RIDGE = 1e-10

# Bytes of one block of lines as read, and of one block of the
# projection, `forward @ centred[p0:p1].T` over a range of pixels of a
# block of lines: a fresh (rows, m) array, at most (bands, m). So the
# stage holds a few such blocks (a block of lines, its shift differences
# or its projection) whatever the scene's size. m is a multiple of 64
# pixels, set by the band count and not by the rows projected, so that
# OpenBLAS computes every value with the same operations as one product
# over the line block (a 2674-pixel range changed the bits of its last
# two columns); a short remainder joins the last range.
_BLOCK_BYTES = 1 << 20


@dataclass
class NoiseEstimate:
    """Noise covariance plus the estimator it came from."""

    cov: np.ndarray
    method_tag: str = "shift_difference_horizontal"

    def __post_init__(self):
        self.cov = check_symmetric(self.cov)
        values = np.linalg.eigvalsh(self.cov)
        if values.min() < -1e-10 * max(1.0, float(values.max())):
            raise ValueError("noise covariance is not positive semi-definite")


@dataclass
class MnfModel:
    """Fitted statistics and the forward/inverse component transforms.

    Rows of `forward` are MNF components ordered by descending eigenvalue;
    `forward @ inverse` is the identity to ~1e-8.
    """

    band_mean: np.ndarray
    noise_cov: np.ndarray
    data_cov: np.ndarray
    eigenvalues: np.ndarray
    forward: np.ndarray
    inverse: np.ndarray
    source_units_tag: str = "reflectance"
    source_wavelengths: np.ndarray | None = None

    @property
    def bands(self) -> int:
        return self.band_mean.size


# Every step below runs on a cube a block of about _BLOCK_BYTES of lines
# at a time, in memory or on disk (`cube_blocks`): the noise and data
# covariances are merged from per-block sums (`numerics.Moments`), and the
# projection is computed and handed on a range of pixels at a time.


def _noise_samples(planes: np.ndarray) -> np.ndarray:
    """The (bands, n) shift differences of a block's (bands, lines,
    samples) band planes, `(x(line, s) - x(line, s+1)) / sqrt(2)` along
    each line, so that blocks of lines need no overlap."""
    bands, lines, samples = planes.shape
    if samples < 2:
        raise ValueError("noise estimation needs at least 2 samples per line")
    diff = np.empty((bands, lines, samples - 1))
    np.subtract(planes[:, :, :-1], planes[:, :, 1:], out=diff)
    diff /= np.sqrt(2.0)
    return diff.reshape(bands, -1)


def estimate_noise_covariance(cube: SpectralCube | CubeFile) -> NoiseEstimate:
    """Estimate noise from horizontal neighbor differences.

    d(line, s) = (x(line, s) - x(line, s+1)) / sqrt(2); the covariance of
    these difference vectors estimates the per-band noise covariance when
    the underlying signal varies slowly along a line. The cube is not
    modified.
    """
    noise = Moments(cube.bands)
    for _, block in line_blocks(cube, block_bytes=_BLOCK_BYTES):
        noise.add(_noise_samples(block.transpose(2, 0, 1)))
    return NoiseEstimate(cov=noise.covariance())


def _standardized(cube: SpectralCube | CubeFile, standard):
    """`plane_blocks` of the cube, shifted by the band means and scaled by
    the band deviations of `standard` when it is given, as `standardize`
    shifts and scales the values."""
    for l0, planes in plane_blocks(cube, block_bytes=_BLOCK_BYTES):
        if standard is not None:
            planes -= standard[0][:, None, None]
            planes /= standard[1][:, None, None]
        yield l0, planes


def _fit(noise: NoiseEstimate, data: Moments, cube: SpectralCube | CubeFile) -> MnfModel:
    """The MNF fit from the noise estimate and the pixels' sums of `cube`;
    :func:`fit_mnf` documents the steps."""
    b = cube.bands
    noise_cov = check_symmetric(noise.cov)
    if noise_cov.shape != (b, b):
        raise ValueError(f"noise covariance is {noise_cov.shape}, cube has {b} bands")

    band_mean, data_cov = data.mean, data.covariance()

    ridge = _RIDGE * np.trace(noise_cov) / b
    regularized = noise_cov + np.eye(b) * ridge
    noise_vals, noise_vecs = symmetric_eig(regularized)
    if noise_vals[-1] <= 0.0:
        raise ValueError("noise covariance is numerically singular beyond repair")

    inv_sqrt = 1.0 / np.sqrt(noise_vals)
    whiten = inv_sqrt[:, None] * noise_vecs.T
    whitened_data_cov = whiten @ data_cov @ whiten.T
    # The triple product picks up ~eps asymmetry; restore it before solving.
    whitened_data_cov = 0.5 * (whitened_data_cov + whitened_data_cov.T)
    eigenvalues, v = symmetric_eig(whitened_data_cov)

    forward = v.T @ whiten
    inverse = noise_vecs @ (np.sqrt(noise_vals)[:, None] * v)

    return MnfModel(band_mean=band_mean, noise_cov=noise_cov, data_cov=data_cov,
                    eigenvalues=eigenvalues, forward=forward, inverse=inverse,
                    source_units_tag=cube.units_tag,
                    source_wavelengths=cube.wavelengths.copy())


def _pixel_blocks(model: MnfModel, centred: np.ndarray, keep_k: int):
    """The first `keep_k` MNF components of the centred (n, b) pixels,
    `forward[:keep_k] @ centred.T` computed over a range of pixels at a
    time: (first pixel, C-contiguous (keep_k, m) array) pairs in pixel
    order, where row j of a block is part of band plane j of the component
    cube. At least two rows are projected, as a one-row product (gemv) may
    differ from a block's in its last bits."""
    forward = model.forward[:max(keep_k, 2)]
    n = centred.shape[0]
    step = max(64, _BLOCK_BYTES // (8 * model.bands) // 64 * 64)
    starts = range(0, max(1, n // step) * step, step)
    for p0, p1 in zip(starts, [*starts[1:], n]):
        yield p0, (forward @ centred[p0:p1].T)[:keep_k]


def _components(model: MnfModel, cube: SpectralCube | CubeFile, keep_k: int,
                standard=None):
    """`_pixel_blocks` of each block of lines of the cube (standardized as
    by `_standardized`), centred on the model's band means, with the first
    pixel of each range counted from the cube's first pixel."""
    for l0, planes in _standardized(cube, standard):
        centred = planes.reshape(model.bands, -1)
        centred -= model.band_mean[:, None]
        for p0, block in _pixel_blocks(model, centred.T, keep_k):
            yield l0 * cube.samples + p0, block


def _component_wavelengths(bands: int) -> np.ndarray:
    return np.arange(1, bands + 1, dtype=np.float64)


def fit_mnf(cube: SpectralCube | CubeFile, noise: NoiseEstimate) -> MnfModel:
    """Fit the MNF model: noise whitening followed by a variance rotation.

    Steps:
      1. Ridge-regularize the noise covariance (1e-10 * trace / b on the
         diagonal) and eigendecompose it.
      2. Whiten: W = diag(1/sqrt(ln)) @ Un^T, so W N W^T = I.
      3. Eigendecompose the whitened data covariance W D W^T = V L V^T.
      4. forward = V^T W; inverse = Un @ diag(sqrt(ln)) @ V.

    Eigenvalues are the whitened-data eigenvalues, descending; values near
    1 indicate noise-only components. The cube is not modified.
    """
    data = Moments(cube.bands)
    for _, planes in plane_blocks(cube, block_bytes=_BLOCK_BYTES):
        data.add(planes.reshape(cube.bands, -1))
    return _fit(noise, data, cube)


def forward_mnf(model: MnfModel, cube: SpectralCube) -> SpectralCube:
    """Project a cube into MNF component space, descending eigenvalue order."""
    if cube.bands != model.bands:
        raise ValueError(f"cube has {cube.bands} bands, model expects {model.bands}")
    planes = np.empty((model.bands, cube.lines * cube.samples))
    for p0, block in _components(model, cube, model.bands):
        planes[:, p0:p0 + block.shape[1]] = block
    return SpectralCube(values=planes.reshape(-1, cube.lines, cube.samples).transpose(1, 2, 0),
                        wavelengths=_component_wavelengths(model.bands),
                        bad_band_mask=np.ones(model.bands, dtype=bool),
                        units_tag="mnf_component")


def fit_forward_to_file(cube: SpectralCube | CubeFile, header_path, standard=None, *,
                        keep_k: int) -> MnfModel:
    """:func:`estimate_noise_covariance`, :func:`fit_mnf` and
    :func:`forward_mnf` of the cube (standardized first by the band means
    and deviations `standard`, when given), writing the first `keep_k`
    components as a `keep_k`-band float64 BSQ cube at `header_path`. Its
    image is the first `keep_k` band planes of the one
    `write_cube_file` writes for the whole `forward_mnf` result, so a
    reader of those components reads the same bits; the returned model
    keeps every component. One pass over the cube's blocks of lines takes
    the noise and data sums, a second projects each block onto the kept
    components only and writes its band rows, so a ~1 MiB block of lines
    and one block of components of at most ~1 MiB are its largest
    arrays."""
    if not 1 <= keep_k <= cube.bands:
        raise ValueError(f"keep_k must be in 1..{cube.bands}, got {keep_k}")
    noise, data = Moments(cube.bands), Moments(cube.bands)
    for _, planes in _standardized(cube, standard):
        noise.add(_noise_samples(planes))
        data.add(planes.reshape(cube.bands, -1))
    model = _fit(NoiseEstimate(cov=noise.covariance()), data, cube)
    write_bsq_pixel_blocks(_components(model, cube, keep_k, standard), header_path,
                           cube.lines, cube.samples, _component_wavelengths(keep_k),
                           np.ones(keep_k, dtype=bool), "mnf_component")
    return model


def inverse_mnf(model: MnfModel, mnf_cube: SpectralCube, keep_k: int) -> SpectralCube:
    """Reconstruct from the first `keep_k` MNF components (the rest zeroed)."""
    if mnf_cube.bands != model.bands:
        raise ValueError(f"cube has {mnf_cube.bands} bands, model expects {model.bands}")
    if not 1 <= keep_k <= model.bands:
        raise ValueError(f"keep_k must be in 1..{model.bands}, got {keep_k}")
    components = mnf_cube.pixels().copy()
    components[:, keep_k:] = 0.0
    flat = components @ model.inverse.T + model.band_mean
    values = flat.reshape(mnf_cube.lines, mnf_cube.samples, model.bands)
    wavelengths = model.source_wavelengths
    if wavelengths is None:
        wavelengths = np.arange(1, model.bands + 1, dtype=np.float64)
    return SpectralCube(values=values, wavelengths=wavelengths,
                        bad_band_mask=np.ones(model.bands, dtype=bool),
                        units_tag=model.source_units_tag)


# ---------------------------------------------------------------------------
# CSV bundle persistence (pipeline restarts)

# Bundle file -> MnfModel field; each is a headerless float matrix, and a
# vector is one row.
_BUNDLE = (("mean.csv", "band_mean"), ("eigenvalues.csv", "eigenvalues"),
           ("forward.csv", "forward"), ("inverse.csv", "inverse"),
           ("noise_cov.csv", "noise_cov"), ("data_cov.csv", "data_cov"),
           ("wavelengths.csv", "source_wavelengths"))
_VECTORS = ("band_mean", "eigenvalues", "source_wavelengths")
_META_HEADER = ["key", "value"]


def save_mnf_model(model: MnfModel, directory) -> None:
    """Write the model as a CSV bundle under `directory`."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    for name, attr in _BUNDLE:
        if getattr(model, attr) is not None:
            artifacts.write_matrix(os.path.join(directory, name), getattr(model, attr))
    artifacts.write_table(os.path.join(directory, "meta.csv"), _META_HEADER,
                          [["source_units_tag", model.source_units_tag]])


def load_mnf_model(directory) -> MnfModel:
    """Read back a CSV bundle written by :func:`save_mnf_model`."""
    directory = str(directory)
    fields = {}
    for name, attr in _BUNDLE:
        path = os.path.join(directory, name)
        if attr != "source_wavelengths" or os.path.exists(path):
            m = artifacts.read_matrix(path)
            fields[attr] = m.ravel() if attr in _VECTORS else m
    meta_path = os.path.join(directory, "meta.csv")
    if os.path.exists(meta_path):
        meta = dict(artifacts.read_table(meta_path, _META_HEADER)[1:])
        fields["source_units_tag"] = meta.get("source_units_tag", "reflectance")
    return MnfModel(**fields)
