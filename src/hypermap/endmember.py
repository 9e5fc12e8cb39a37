"""Endmember derivation: seeded k-means over PPI-selected pixels in MNF
space, emitting class-mean reflectance spectra.

This replaces interactive scatter-plot clustering with a deterministic
procedure: k-means++ seeding from the shared random source, Lloyd
iterations with raster-order tie-breaking, and empty clusters reseeded
with the point currently farthest from its centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube_blocks import band_blocks
from .envi_io import SpectralCube
from .numerics import RandomSource


def _squared_distances(points: np.ndarray, point_sq: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    # |p|^2 - 2 p.c + |c|^2, clipped: rounding can make exact hits tiny-negative;
    # `point_sq` holds each point's |p|^2. Built in one (n, k) array: adding
    # -2 p.c gives the bits of subtracting 2 p.c.
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += point_sq[:, None]
    d2 += np.sum(centroids**2, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _distinct_rows(points: np.ndarray) -> int:
    """The number of distinct rows of `points`, counted as
    ``np.unique(points, axis=0)`` counts them (it imports `numpy.ma`): each
    row viewed as a record of float fields, the records sorted and compared
    with their neighbours field by field, so 0.0 equals -0.0 and a row
    holding a NaN equals no row."""
    if points.shape[1] == 0:
        return 1  # every row is the empty row
    fields = np.dtype([(f"f{i}", points.dtype) for i in range(points.shape[1])])
    rows = np.sort(np.ascontiguousarray(points).view(fields).ravel())
    return 1 + int(np.count_nonzero(rows[1:] != rows[:-1]))


def kmeans(points, k: int, seed: int = 0, max_iter: int = 300,
           tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means returning (assignments, centroids, sse).

    Centroids are initialized with k-means++ draws from the splitmix64
    stream; Lloyd iterations stop when the largest centroid movement
    drops below `tol` or after `max_iter` rounds. Assignment ties go to
    the lowest class id. Requires k distinct points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    n_distinct = _distinct_rows(points)
    if k > n_distinct:
        raise ValueError(f"k={k} exceeds the {n_distinct} distinct points")

    point_sq = np.sum(points**2, axis=1)
    rs = RandomSource(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rs.next_uniform() * n)]
    d2 = _squared_distances(points, point_sq, centroids[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        r = rs.next_uniform() * total
        idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
        idx = min(idx, n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _squared_distances(points, point_sq, centroids[j:j + 1])[:, 0])

    prev_sse = np.inf
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dists = _squared_distances(points, point_sq, centroids)
        assignments = np.argmin(dists, axis=1)

        # Reseed empty clusters with the point farthest from its centroid.
        # Moving a singleton's point can empty another class, so loop until
        # all classes are populated (bounded: each move zeroes one point's
        # distance and k distinct points exist by precondition).
        point_d2 = dists[np.arange(n), assignments]
        for _ in range(2 * k):
            empty = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
            if empty.size == 0:
                break
            far = int(np.argmax(point_d2))
            centroids[empty[0]] = points[far]
            assignments[far] = empty[0]
            point_d2[far] = 0.0
        else:
            raise RuntimeError("could not populate every cluster")

        sse = float(point_d2.sum())
        if sse > prev_sse * (1.0 + 1e-9) + 1e-12:
            raise AssertionError("k-means SSE increased between iterations")
        prev_sse = sse

        new_centroids = np.empty_like(centroids)
        for cls in range(k):
            new_centroids[cls] = points[assignments == cls].mean(axis=0)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break

    dists = _squared_distances(points, point_sq, centroids)
    assignments = np.argmin(dists, axis=1)
    sse = float(dists[np.arange(n), assignments].sum())
    return assignments, centroids, sse


@dataclass
class EndmemberSet:
    """Derived classes: MNF-space centroids plus reflectance-space means."""

    k: int
    mnf_means: np.ndarray
    reflectance_means: np.ndarray
    member_counts: np.ndarray
    wavelengths: np.ndarray

    def __post_init__(self):
        if self.mnf_means.shape[0] != self.k or self.reflectance_means.shape[0] != self.k:
            raise ValueError("per-class arrays must have k rows")
        if np.any(self.member_counts <= 0):
            raise ValueError("every class must have at least one member")

    def class_ids(self) -> list[int]:
        return list(range(1, self.k + 1))


def _pixel_spectra(cube: SpectralCube, lines: np.ndarray, samples: np.ndarray,
                   d: int) -> np.ndarray:
    """The first `d` bands of the pixels at (`lines`, `samples`), one
    C-ordered row each, gathered a block of bands at a time."""
    out = np.empty((len(lines), d))
    for b0, block in band_blocks(cube, d):
        out[:, b0:b0 + block.shape[2]] = block[lines, samples]
    return out


def derive_endmembers(corrected_cube: SpectralCube, mnf_cube: SpectralCube,
                      pure_pixels: list[tuple[int, int]], k: int = 48,
                      seed: int = 0,
                      use_k_components: int | None = None) -> EndmemberSet:
    """Cluster pure pixels in MNF space and average their reflectance.

    `pure_pixels` are (line, sample) positions from PPI selection; each
    class's reflectance mean is taken over the same pixels in the
    corrected cube. Either cube may also be a `cube_blocks.CubeFile`: both
    are read a block of bands at a time (the MNF cube's first
    `use_k_components` only), so neither is held whole.
    """
    if not pure_pixels:
        raise ValueError("no pure pixels supplied")
    if corrected_cube.lines != mnf_cube.lines or corrected_cube.samples != mnf_cube.samples:
        raise ValueError("corrected and MNF cubes must share spatial extent")
    d = mnf_cube.bands if use_k_components is None else int(use_k_components)
    if not 1 <= d <= mnf_cube.bands:
        raise ValueError(f"use_k_components must be in 1..{mnf_cube.bands}, got {d}")

    lines = np.array([p[0] for p in pure_pixels])
    samples = np.array([p[1] for p in pure_pixels])
    if lines.min() < 0 or lines.max() >= mnf_cube.lines or \
            samples.min() < 0 or samples.max() >= mnf_cube.samples:
        raise ValueError("pure pixel outside cube extent")
    vectors = _pixel_spectra(mnf_cube, lines, samples, d)
    assignments, centroids, _ = kmeans(vectors, k, seed=seed)
    del vectors

    # Each class's mean of each block of bands comes from a C-ordered
    # (members, bands in the block) gather in pure-pixel order: the bits
    # of a mean over whole spectra, as no block holds exactly one band.
    # The members' positions are selected once, not once per block.
    members = [(lines[mask], samples[mask])
               for mask in (assignments == cls for cls in range(k))]
    refl_means = np.empty((k, corrected_cube.bands))
    for b0, block in band_blocks(corrected_cube):
        b1 = b0 + block.shape[2]
        for cls, position in enumerate(members):
            refl_means[cls, b0:b1] = block[position].mean(axis=0)
    counts = np.array([len(class_lines) for class_lines, _ in members], dtype=np.int64)

    return EndmemberSet(k=k, mnf_means=centroids, reflectance_means=refl_means,
                        member_counts=counts, wavelengths=corrected_cube.wavelengths.copy())
