"""Whole-image mapping: SAM classification, matched filtering, MTMF
infeasibility, and class statistics.

The matched filter is scene-adaptive: background mean and covariance are
fitted once per call from the cube being scored and shared by every
target, giving 0 at the background mean and 1 at the target by
construction. MTMF adds an infeasibility score that grows with the
component of a pixel orthogonal (in whitened space) to the
background-to-target line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envi_io import SpectralCube
from .numerics import centre_and_covariance, symmetric_eig

_RIDGE = 1e-10

# Residual std shrinks linearly from 1 at the background to this at the
# target when scaling MTMF infeasibility.
_TARGET_RESIDUAL_STD = 0.01

# Elements per block of rows in the SAM pixel norms (~1 MB temporaries).
_NORM_BLOCK_ELEMENTS = 1 << 17


@dataclass
class ClassMap:
    """Per-pixel class assignment (0 = unclassified)."""

    class_index: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.class_index = np.asarray(self.class_index, dtype=np.int32)
        if self.class_index.ndim != 2:
            raise ValueError("class_index must be 2-D")


@dataclass
class MtmfResult:
    """Matched-filter score and infeasibility per pixel, one image per
    target: shape ``targets.shape[:-1] + (lines, samples)``."""

    mf_score: np.ndarray
    infeasibility: np.ndarray


def sam_classify(cube: SpectralCube, spectra, max_angle: float = 0.10) -> ClassMap:
    """Assign each pixel to the spectrum (row of the (k, bands) `spectra`
    matrix) with the smallest spectral angle.

    Pixels whose best angle exceeds `max_angle` stay unclassified (0);
    exact ties go to the lowest class id. Zero-norm pixels get angle
    pi/2 to every class and therefore stay unclassified.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.shape[1] != cube.bands:
        raise ValueError(
            f"endmember spectra have {spectra.shape[1]} bands, cube has {cube.bands}")
    if max_angle < 0:
        raise ValueError("max_angle must be non-negative")
    x = cube.pixels()
    # Row norms a block of rows at a time, with no pixels-sized square:
    # each row is summed in the same order as one call over every row.
    xn = np.empty(x.shape[0])
    step = max(1, _NORM_BLOCK_ELEMENTS // max(1, x.shape[1]))
    for start in range(0, x.shape[0], step):
        rows = x[start:start + step]
        np.sqrt(np.add.reduce(rows * rows, axis=1), out=xn[start:start + step])
    en = np.linalg.norm(spectra, axis=1)
    if np.any(en == 0.0):
        raise ValueError("endmember spectra must be nonzero")
    safe_xn = np.where(xn == 0.0, 1.0, xn)
    cos = (x @ spectra.T) / (safe_xn[:, None] * en[None, :])
    cos[xn == 0.0, :] = 0.0
    angles = np.arccos(np.clip(cos, -1.0, 1.0))

    best = np.argmin(angles, axis=1)
    best_angle = angles[np.arange(x.shape[0]), best]
    assigned = np.where(best_angle <= max_angle, best + 1, 0).astype(np.int32)
    return ClassMap(class_index=assigned.reshape(cube.lines, cube.samples),
                    n_classes=spectra.shape[0])


def _background_scores(mnf_cube: SpectralCube, targets: np.ndarray):
    """Fit the scene background once, then score each row of `targets`.

    The background mean mu and covariance S come from the cube itself; S
    is whitened through its eigendecomposition with a small ridge. Yields
    (p, t_hat, alpha, mf) per target: the whitened pixels minus mu (one
    array shared by every target), the unit whitened target direction,
    each pixel's coordinate along it, and the matched-filter score
    alpha / |whitened target|.
    """
    # Centre one copy of the pixels, in their memory order, and reuse it.
    centred = mnf_cube.pixels().copy(order="K")
    mu, cov = centre_and_covariance(centred)
    b = mnf_cube.bands
    vals, vecs = symmetric_eig(cov + np.eye(b) * (_RIDGE * np.trace(cov) / b))
    if vals[-1] <= 0.0:
        raise ValueError("background covariance is singular beyond repair")

    inv_sqrt = 1.0 / np.sqrt(vals)
    whiten = inv_sqrt[:, None] * vecs.T
    p = centred @ whiten.T
    del centred
    for target in targets:
        tw = whiten @ (target - mu)
        t_norm = float(np.linalg.norm(tw))
        if t_norm == 0.0:
            raise ValueError("target coincides with the scene mean")
        t_hat = tw / t_norm
        alpha = p @ t_hat
        yield p, t_hat, alpha, alpha / t_norm


def matched_filter(mnf_cube: SpectralCube, target_mnf) -> np.ndarray:
    """Matched-filter score image: 0 at the scene mean, 1 at the target.

    MF(x) = (x - mu)^T S^-1 (t - mu) / ((t - mu)^T S^-1 (t - mu)) with mu
    and S estimated from the cube itself: the `mf_score` of :func:`mtmf`
    from the same fit, but also defined for a one-component cube.
    """
    target = np.asarray(target_mnf, dtype=np.float64)
    if target.shape != (mnf_cube.bands,):
        raise ValueError(
            f"target has {target.size} components, cube has {mnf_cube.bands}")
    (_, _, _, mf), = _background_scores(mnf_cube, target[None])
    return mf.reshape(mnf_cube.lines, mnf_cube.samples)


def mtmf(mnf_cube: SpectralCube, targets) -> MtmfResult:
    """Matched filter plus mixture-tuned infeasibility for one target (b,)
    or each row of a (k, b) matrix, all from one background fit.

    In background-whitened space each pixel splits into a component along
    the unit target direction and an orthogonal residual r. The expected
    residual std shrinks linearly from 1 (background) to 0.01 (target) as
    the MF score goes 0 to 1, and infeasibility is |r| in units of that
    std: infeasibility = |r| / (std(mf) * sqrt(b - 1)).
    """
    b = mnf_cube.bands
    if b < 2:
        raise ValueError("MTMF needs at least 2 components")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim not in (1, 2) or targets.shape[-1] != b:
        raise ValueError(f"targets have shape {targets.shape}, cube has {b} components")
    mf_rows, infeasibility_rows = [], []
    for p, t_hat, alpha, mf in _background_scores(mnf_cube, targets.reshape(-1, b)):
        # The explicit residual, not sqrt(|p|^2 - alpha^2), which cancels
        # to ~1e-8 for pixels on the background-to-target line.
        r_norm = np.linalg.norm(p - alpha[:, None] * t_hat[None, :], axis=1)
        sigma = 1.0 + (np.clip(mf, 0.0, 1.0)) * (_TARGET_RESIDUAL_STD - 1.0)
        mf_rows.append(mf)
        infeasibility_rows.append(r_norm / (sigma * np.sqrt(b - 1.0)))

    shape = targets.shape[:-1] + (mnf_cube.lines, mnf_cube.samples)
    return MtmfResult(mf_score=np.reshape(mf_rows, shape),
                      infeasibility=np.reshape(infeasibility_rows, shape))


def class_statistics(class_map: ClassMap) -> list[tuple[int, int, float]]:
    """Rows of (class_id, pixel_count, percent) for classes 0..k."""
    total = class_map.class_index.size
    rows = []
    for cid in range(class_map.n_classes + 1):
        count = int(np.count_nonzero(class_map.class_index == cid))
        rows.append((cid, count, 100.0 * count / total))
    return rows
