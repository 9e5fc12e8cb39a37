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
from .envi_io import SpectralCube
from .numerics import centre_and_covariance, check_symmetric, symmetric_eig

_RIDGE = 1e-10


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


def estimate_noise_covariance(cube: SpectralCube) -> NoiseEstimate:
    """Estimate noise from horizontal neighbor differences.

    d(line, s) = (x(line, s) - x(line, s+1)) / sqrt(2); the covariance of
    these difference vectors estimates the per-band noise covariance when
    the underlying signal varies slowly along a line. The differences are
    the only cube-sized array made: they are scaled and centred in place.
    """
    if cube.samples < 2:
        raise ValueError("noise estimation needs at least 2 samples per line")
    diffs = np.subtract(cube.values[:, :-1, :], cube.values[:, 1:, :])
    diffs /= np.sqrt(2.0)
    _, cov = centre_and_covariance(diffs.reshape(-1, cube.bands))
    return NoiseEstimate(cov=cov)


def _fit_centring(pixels: np.ndarray, noise: NoiseEstimate, cube: SpectralCube) -> MnfModel:
    """The MNF fit from the (n, b) `pixels` of `cube`, which it centres in
    place; :func:`fit_mnf` documents the steps."""
    b = cube.bands
    noise_cov = check_symmetric(noise.cov)
    if noise_cov.shape != (b, b):
        raise ValueError(f"noise covariance is {noise_cov.shape}, cube has {b} bands")

    band_mean, data_cov = centre_and_covariance(pixels)

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


def _project_centred(model: MnfModel, centred: np.ndarray, cube: SpectralCube) -> SpectralCube:
    """MNF components of the centred (n, b) pixels of `cube`."""
    components = centred @ model.forward.T
    return SpectralCube(values=components.reshape(cube.lines, cube.samples, model.bands),
                        wavelengths=np.arange(1, model.bands + 1, dtype=np.float64),
                        bad_band_mask=np.ones(model.bands, dtype=bool),
                        units_tag="mnf_component")


def fit_mnf(cube: SpectralCube, noise: NoiseEstimate) -> MnfModel:
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
    return _fit_centring(cube.pixels().copy(order="K"), noise, cube)


def forward_mnf(model: MnfModel, cube: SpectralCube) -> SpectralCube:
    """Project a cube into MNF component space, descending eigenvalue order."""
    if cube.bands != model.bands:
        raise ValueError(f"cube has {cube.bands} bands, model expects {model.bands}")
    return _project_centred(model, cube.pixels() - model.band_mean, cube)


def fit_forward_in_place(cube: SpectralCube,
                         noise: NoiseEstimate) -> tuple[MnfModel, SpectralCube]:
    """:func:`fit_mnf` then :func:`forward_mnf` on the same cube, with the
    same bytes, from one centred array: the cube's pixels are centred in
    place (its values are left centred when `pixels()` is a view), so the
    components are the only other cube-sized array."""
    pixels = cube.pixels()
    model = _fit_centring(pixels, noise, cube)
    return model, _project_centred(model, pixels, cube)


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
