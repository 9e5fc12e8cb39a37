"""Pixel Purity Index: count how often each pixel is an extreme of random
1-D projections (skewers) of the MNF data cloud.

Each skewer direction comes from its own spawned child stream keyed by
the iteration index, so the count image is identical for any worker
count; workers only change how the iteration range is partitioned.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .cube_blocks import CubeFile, first_planes
from .envi_io import SpectralCube
from .numerics import spawned_gaussians

# Skewers per chunk, the unit of one matrix product, of a worker's work
# and of `progress`: at most _CHUNK, and fewer when the chunk's (skewers,
# pixels) projections would pass _CHUNK_BYTES, but not fewer than
# _MIN_CHUNK. A product reads every kept component once, whatever its
# skewer count, so one of a single skewer is much slower per skewer.
_CHUNK = 64
_CHUNK_BYTES = 2 << 20
_MIN_CHUNK = 4


@dataclass(frozen=True)
class PpiParams:
    n_iterations: int = 10000
    threshold: float = 2.5
    seed: int = 0

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass
class PpiImage:
    """Per-pixel extremity counts plus the parameters that produced them."""

    counts: np.ndarray
    params: PpiParams
    trace: list[int] | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValueError("counts must be a (lines, samples) grid")
        if self.counts.min() < 0 or self.counts.max() > 2 * self.params.n_iterations:
            raise ValueError("counts outside [0, 2 * n_iterations]")


def _skewer_directions(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    g = spawned_gaussians(seed, start, stop, k)
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero-length skewer draw")
    return g / norms[:, None]


def run_ppi(mnf_cube: SpectralCube | CubeFile, params: PpiParams | None = None,
            use_k_components: int | None = None, n_workers: int = 1,
            progress=None, trace: bool = False) -> PpiImage:
    """Run the PPI over `params.n_iterations` random skewers.

    Per skewer: project all pixels (restricted to the first
    `use_k_components` MNF components) onto a random unit direction and
    increment every pixel whose projection lies within `params.threshold`
    of the maximum, and likewise of the minimum. Deterministic for a
    fixed seed regardless of `n_workers`. `mnf_cube` may be in memory or a
    `cube_blocks.CubeFile` of any interleave: either way the first
    `use_k_components` components are taken as one `(k, pixels)` array
    (`cube_blocks.first_planes`), so a BSQ file reads only those planes.

    `progress`, if given, is called with the cumulative iteration count
    after each processed chunk. With `trace=True` the returned image also
    carries, per iteration, the cumulative number of distinct pixels
    counted at least once.

    Per chunk of skewers, one matrix product gives a `(skewers, pixels)`
    block of projections, so each skewer's maximum and minimum are taken
    along a contiguous row. The hits (pixels within the threshold of
    either end) are a small share of the block: they are listed as flat
    indices of the high and then of the low mask (one mask, reused) and
    counted per pixel with `bincount`, so a pixel within the threshold of
    both ends is listed, and counted, twice. The trace is computed once at
    the end from each pixel's first touched iteration, which `minimum.at`
    takes from the same lists.
    """
    if params is None:
        params = PpiParams()
    k = mnf_cube.bands if use_k_components is None else int(use_k_components)
    if not 1 <= k <= mnf_cube.bands:
        raise ValueError(f"use_k_components must be in 1..{mnf_cube.bands}, got {k}")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")

    planes = first_planes(mnf_cube, k).reshape(k, -1)  # (k, pixels)
    n_pixels = planes.shape[1]
    n_iter = params.n_iterations
    chunk = min(_CHUNK, max(_MIN_CHUNK, _CHUNK_BYTES // (8 * n_pixels)))
    # Chunks as even in size as they can be, so that none is much shorter:
    # a one-skewer product (gemv) may differ from a block's in its last bits.
    parts = -(-n_iter // chunk)
    edges = [-(-n_iter * i // parts) for i in range(parts + 1)]
    chunks = list(zip(edges, edges[1:]))

    def process(bounds):
        start, stop = bounds
        proj = _skewer_directions(params.seed, start, stop, k) @ planes
        mask = proj >= (proj.max(axis=1) - params.threshold)[:, None]
        hi = np.flatnonzero(mask)
        np.less_equal(proj, (proj.min(axis=1) + params.threshold)[:, None], out=mask)
        # (skewer within the chunk, pixel) of every hit
        return np.divmod(np.concatenate((hi, np.flatnonzero(mask))), n_pixels)

    totals = np.zeros(n_pixels, dtype=np.int64)
    first_touched = np.full(n_pixels, n_iter, dtype=np.int64) if trace else None

    # The serial path runs in the calling thread and does not import
    # `concurrent.futures` (nor the `logging`, `threading` and `queue` it
    # loads), which a `ppi` process would spend 7-12 ms on.
    pool = contextlib.nullcontext()
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=n_workers)
    with pool:
        results = pool.map(process, chunks) if n_workers > 1 else map(process, chunks)
        # Chunk boundaries are fixed, so accumulating in submission order
        # makes the output independent of scheduling.
        for (start, stop), (skewer, pixel) in zip(chunks, results):
            totals += np.bincount(pixel, minlength=n_pixels)
            if trace:
                np.minimum.at(first_touched, pixel, start + skewer)
            if progress is not None:
                progress(stop)
            del skewer, pixel  # before the next chunk's are made

    trace_values = None
    if trace:
        # Pixels first touched at iteration j join the distinct count there;
        # n_iter stands for "never touched".
        new_per_iteration = np.bincount(first_touched, minlength=n_iter + 1)[:n_iter]
        trace_values = np.cumsum(new_per_iteration).tolist()
    image = totals.reshape(mnf_cube.lines, mnf_cube.samples)
    return PpiImage(counts=image, params=params, trace=trace_values)


def select_pure_pixels(ppi: PpiImage, min_count: int = 1,
                       max_pixels: int = 10000) -> list[tuple[int, int]]:
    """Pixels with count >= min_count, by count descending then raster
    order, truncated to `max_pixels`."""
    samples = ppi.counts.shape[1]
    flat = ppi.counts.ravel()
    keep = np.flatnonzero(flat >= min_count)
    if keep.size == 0:
        return []
    line_idx, sample_idx = np.divmod(keep, samples)
    order = np.lexsort((sample_idx, line_idx, -flat[keep]))
    chosen = keep[order][:max_pixels]
    return list(zip(*(index.tolist() for index in np.divmod(chosen, samples))))
