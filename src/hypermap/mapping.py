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

import contextlib
from dataclasses import dataclass

import numpy as np

from .cube_blocks import CubeFile, line_blocks, plane_blocks
from .envi_io import BsqPixelFile, SpectralCube
from .numerics import Moments, symmetric_eig

_RIDGE = 1e-10

# A target within this many background standard deviations (whitened
# units) of the background mean is taken for it: far above the rounding of
# a mean merged from block sums, far below any target worth scoring.
_MEAN_TOLERANCE = 1e-8

# Residual std shrinks linearly from 1 at the background to this at the
# target when scaling MTMF infeasibility.
_TARGET_RESIDUAL_STD = 0.01

# Elements per block of rows in `_row_norms`, the SAM pixel norms and the
# MTMF residual norms (256 KiB temporaries, small beside a block of lines).
_NORM_BLOCK_ELEMENTS = 1 << 15

# Bytes of one block of lines of the components `mtmf` reads (the first b,
# float64): it holds two arrays of this size (the block as read, centred
# in place, and its whitened copy) and one class's MF and infeasibility
# scores of the block at a time, whatever the scene's size.
_BLOCK_BYTES = 1 << 20


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
    pi/2 to every class and therefore stay unclassified. The cube (a
    `SpectralCube` or a `cube_blocks.CubeFile`) is classified a block of
    lines at a time, so only one block of pixels and its angles are held.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.shape[1] != cube.bands:
        raise ValueError(
            f"endmember spectra have {spectra.shape[1]} bands, cube has {cube.bands}")
    if max_angle < 0:
        raise ValueError("max_angle must be non-negative")
    en = np.linalg.norm(spectra, axis=1)
    if np.any(en == 0.0):
        raise ValueError("endmember spectra must be nonzero")
    assigned = np.empty((cube.lines, cube.samples), dtype=np.int32)
    for l0, block in line_blocks(cube):
        best, best_angle = _best_angles(block.reshape(-1, cube.bands), spectra, en)
        assigned[l0:l0 + len(block)] = np.where(best_angle <= max_angle, best + 1, 0) \
            .reshape(len(block), cube.samples)
    return ClassMap(class_index=assigned, n_classes=spectra.shape[0])


def _best_angles(x: np.ndarray, spectra: np.ndarray, en: np.ndarray):
    """The index of each pixel's (row of `x`) nearest spectrum by angle,
    and that angle; `en` holds the spectra's norms. A row's norm is summed
    on its own. Its products come from BLAS, which does not promise them
    the same bits in a block of rows as in one call over the whole cube.
    With OpenBLAS 0.3.31 they were the same when the block is not small;
    a product of at most 1200 rows x spectra took a small-matrix kernel,
    and a single spectrum's product (gemv) differed where a block's row
    count is not a multiple of 4. The last bit of an angle can then move,
    and with it a pixel whose angle is that close to `max_angle` or to
    another class's. `envi_io._line_ranges` gives no short blocks."""
    xn = _row_norms(x)
    safe_xn = np.where(xn == 0.0, 1.0, xn)
    cos = (x @ spectra.T) / (safe_xn[:, None] * en[None, :])
    cos[xn == 0.0, :] = 0.0
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    best = np.argmin(angles, axis=1)
    return best, angles[np.arange(x.shape[0]), best]


def _row_norms(x: np.ndarray, alpha=None, t_hat=None) -> np.ndarray:
    """The Euclidean norm of each row of `x`, or of its residual
    ``x - alpha[:, None] * t_hat`` when `alpha` and `t_hat` are given,
    taken a block of rows at a time, so no temporary is larger than a
    block. Each row is summed on its own, in the order one call over
    every row would sum it, so the bits do not depend on the blocks."""
    norms = np.empty(x.shape[0])
    step = max(1, _NORM_BLOCK_ELEMENTS // max(1, x.shape[1]))
    for first in range(0, x.shape[0], step):
        rows = x[first:first + step]
        if alpha is None:
            square = rows * rows  # in the memory order of `x`, as numpy sums it
        else:
            square = alpha[first:first + step, None] * t_hat
            np.subtract(rows, square, out=square)
            square *= square
        np.sqrt(np.add.reduce(square, axis=1), out=norms[first:first + step])
        del square  # before the next block's is made
    return norms


def _background(cube: SpectralCube | CubeFile, b: int):
    """The background mean mu of the first `b` components of `cube` and the
    matrix W that whitens their covariance S (through its eigendecomposition,
    with a small ridge). mu and S are merged from the sums of blocks of
    lines (`numerics.Moments`), so only a block is held."""
    moments = Moments(b)
    for _, planes in plane_blocks(cube, b, _BLOCK_BYTES):
        moments.add(planes.reshape(b, -1))
    cov = moments.covariance()
    vals, vecs = symmetric_eig(cov + np.eye(b) * (_RIDGE * np.trace(cov) / b))
    if vals[-1] <= 0.0:
        raise ValueError("background covariance is singular beyond repair")
    return moments.mean, (1.0 / np.sqrt(vals))[:, None] * vecs.T


def _scores(cube: SpectralCube | CubeFile, targets: np.ndarray):
    """Fit the scene background once, from the first b components of
    `cube` (b the width of the (k, b) `targets`), and check each target;
    then return an iterator over the cube's blocks of lines and, within a
    block, over the targets, of (first pixel, target index, scores): the
    MF scores of the block's m pixels and then their infeasibilities, a
    (2, m) array.

    A block's pixels, minus mu and whitened, are the columns of p. Per
    target, t_hat is the unit whitened target direction, alpha = t_hat @ p
    each pixel's coordinate along it, and the MF score alpha / |whitened
    target|."""
    b = targets.shape[1]
    mu, whiten = _background(cube, b)
    directions = []
    for target in targets:
        tw = whiten @ (target - mu)
        t_norm = float(np.linalg.norm(tw))
        if t_norm <= _MEAN_TOLERANCE:
            raise ValueError("target coincides with the scene mean")
        directions.append((tw / t_norm, t_norm))

    def blocks():
        for l0, planes in plane_blocks(cube, b, _BLOCK_BYTES):
            planes -= mu[:, None, None]
            p = whiten @ planes.reshape(b, -1)
            del planes  # a copy, for a cube in memory, that the next block replaces
            for i, (t_hat, t_norm) in enumerate(directions):
                yield l0 * cube.samples, i, _target_scores(p, t_hat, t_norm)
            del p  # before the next block's is made

    return blocks()


def _target_scores(p: np.ndarray, t_hat: np.ndarray, t_norm: float):
    """One target's scores of the whitened pixels p (columns): the MF
    scores, then the infeasibilities."""
    alpha = t_hat @ p
    scores = np.empty((2, alpha.size))
    np.divide(alpha, t_norm, out=scores[0])
    # The explicit residual, not sqrt(|p|^2 - alpha^2), which cancels to
    # ~1e-8 for pixels on the background-to-target line.
    sigma = np.clip(scores[0], 0.0, 1.0)
    sigma *= _TARGET_RESIDUAL_STD - 1.0
    sigma += 1.0
    sigma *= np.sqrt(p.shape[0] - 1.0)
    np.divide(_row_norms(p.T, alpha, t_hat), sigma, out=scores[1])
    return scores


def matched_filter(mnf_cube: SpectralCube | CubeFile, target_mnf) -> np.ndarray:
    """Matched-filter score image: 0 at the scene mean, 1 at the target.

    MF(x) = (x - mu)^T S^-1 (t - mu) / ((t - mu)^T S^-1 (t - mu)) with mu
    and S estimated from the cube itself: the `mf_score` of :func:`mtmf`
    from the same fit, but also defined for a one-component cube.
    """
    target = np.asarray(target_mnf, dtype=np.float64)
    if target.shape != (mnf_cube.bands,):
        raise ValueError(
            f"target has {target.size} components, cube has {mnf_cube.bands}")
    scores = np.empty(mnf_cube.lines * mnf_cube.samples)
    # A one-component cube has no residual, so its infeasibilities are 0 / 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        for p0, _, (mf, _) in _scores(mnf_cube, target[None]):
            scores[p0:p0 + mf.size] = mf
    return scores.reshape(mnf_cube.lines, mnf_cube.samples)


def mtmf(mnf_cube: SpectralCube | CubeFile, targets, header_paths=None) -> MtmfResult | None:
    """Matched filter plus mixture-tuned infeasibility for one target (b,)
    or each row of a (k, b) matrix, all from one background fit.

    The fit uses the cube's first b components, b the targets' width (as
    `use_k_components` selects a prefix elsewhere); a width above the
    cube's band count is an error. The cube (a `SpectralCube` or a
    `cube_blocks.CubeFile` of any interleave) is read twice a block of
    lines at a time, only those components: once for the background's
    sums, once to score each block, so a few ~1 MiB blocks are held
    whatever the scene's size.

    In background-whitened space each pixel splits into a component along
    the unit target direction and an orthogonal residual r. The expected
    residual std shrinks linearly from 1 (background) to 0.01 (target) as
    the MF score goes 0 to 1, and infeasibility is |r| in units of that
    std: infeasibility = |r| / (std(mf) * sqrt(b - 1)).

    Returns the images. With `header_paths`, one per target row, it holds
    no image and returns None: target i's MF score and infeasibility go to
    a two-band float64 BSQ cube (units "score", bands numbered 1 and 2) at
    `header_paths[i]`, written a block at a time with the bytes
    `write_cube_file` gives that cube.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim not in (1, 2) or targets.shape[-1] > mnf_cube.bands:
        raise ValueError(
            f"targets have shape {targets.shape}, cube has {mnf_cube.bands} components")
    b = targets.shape[-1]
    if b < 2:
        raise ValueError("MTMF needs at least 2 components")
    rows = targets.reshape(-1, b)
    blocks = _scores(mnf_cube, rows)
    if header_paths is not None:
        if len(header_paths) != len(rows):
            raise ValueError(f"{len(header_paths)} header paths for {len(rows)} targets")
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(BsqPixelFile(
                path, mnf_cube.lines, mnf_cube.samples, [1.0, 2.0], [True, True], "score"))
                for path in header_paths]
            for p0, i, scores in blocks:
                files[i].write(p0, scores)
        return None

    mf, infeasibility = np.empty((2, len(rows), mnf_cube.lines * mnf_cube.samples))
    for p0, i, (mf_block, infeasibility_block) in blocks:
        mf[i, p0:p0 + mf_block.size] = mf_block
        infeasibility[i, p0:p0 + mf_block.size] = infeasibility_block
    shape = targets.shape[:-1] + (mnf_cube.lines, mnf_cube.samples)
    return MtmfResult(mf_score=mf.reshape(shape), infeasibility=infeasibility.reshape(shape))


def class_statistics(class_map: ClassMap) -> list[tuple[int, int, float]]:
    """Rows of (class_id, pixel_count, percent) for classes 0..k."""
    total = class_map.class_index.size
    rows = []
    for cid in range(class_map.n_classes + 1):
        count = int(np.count_nonzero(class_map.class_index == cid))
        rows.append((cid, count, 100.0 * count / total))
    return rows
