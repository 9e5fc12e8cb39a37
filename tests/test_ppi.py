"""PPI tests: a naive skewer-replay oracle on planted simplex data,
scheduling determinism, and threshold behavior."""

import math

import numpy as np
import pytest

from hypermap.envi_io import SpectralCube
from hypermap.ppi import PpiImage, PpiParams, run_ppi, select_pure_pixels
from test_numerics import reference_splitmix64_stream

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def make_mnf_cube(values):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool),
                        units_tag="mnf_component")


def naive_child_seed(parent_seed, index):
    # one splitmix64 step from state (parent ^ index)
    z = ((parent_seed ^ index) + GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def naive_skewer(parent_seed, iteration, k):
    """Plain-python regeneration of one skewer direction."""
    raws = reference_splitmix64_stream(naive_child_seed(parent_seed, iteration), 2 * k)
    us = [r * 2.0 ** -64 for r in raws]
    g = []
    for j in range(k):
        u1 = max(us[2 * j], 2.0 ** -64)
        u2 = us[2 * j + 1]
        g.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    norm = math.sqrt(sum(v * v for v in g))
    return [v / norm for v in g]


def naive_extremes(pixels, seed, n_iterations, threshold):
    """Per skewer, the pixels within `threshold` of the maximum and of the
    minimum projection, replayed one skewer at a time."""
    n, k = pixels.shape
    for it in range(n_iterations):
        direction = naive_skewer(seed, it, k)
        proj = [sum(pixels[i, j] * direction[j] for j in range(k)) for i in range(n)]
        hi, lo = max(proj), min(proj)
        yield ([i for i in range(n) if proj[i] >= hi - threshold],
               [i for i in range(n) if proj[i] <= lo + threshold])


def naive_ppi_counts(pixels, seed, n_iterations, threshold):
    """Loop-based PPI reimplementation used as the oracle."""
    counts = [0] * pixels.shape[0]
    for hi, lo in naive_extremes(pixels, seed, n_iterations, threshold):
        for i in hi + lo:
            counts[i] += 1
    return np.array(counts, dtype=np.int64)


def naive_ppi_trace(pixels, seed, n_iterations, threshold):
    """Distinct pixels counted so far, after each skewer."""
    seen = set()
    trace = []
    for hi, lo in naive_extremes(pixels, seed, n_iterations, threshold):
        seen.update(hi, lo)
        trace.append(len(seen))
    return trace


def simplex_cube(seed=2):
    """3 planted corner pixels plus strictly interior mixtures, no noise."""
    rng = np.random.default_rng(seed)
    corners = np.array([[10.0, 0.0, 0.0],
                        [0.0, 12.0, 0.0],
                        [0.0, 0.0, 9.0]])
    pixels = [corners[0], corners[1], corners[2]]
    for _ in range(22):
        w = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3.0  # strictly interior
        pixels.append(w @ corners)
    values = np.array(pixels).reshape(5, 5, 3)
    return make_mnf_cube(values), values.reshape(-1, 3)


class TestRunPpi:
    def test_two_distinct_pixels_single_iteration(self):
        cube = make_mnf_cube(np.array([[[0.0], [5.0]]]))
        image = run_ppi(cube, PpiParams(n_iterations=1, threshold=0.0, seed=3),
                        use_k_components=1)
        assert image.counts.sum() == 2
        assert set(image.counts.ravel()) == {1}

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="n_iterations"):
            PpiParams(n_iterations=0)

    def test_stock_defaults(self):
        params = PpiParams()
        assert params.n_iterations == 10000
        assert params.threshold == 2.5

    def test_identical_pixels_count_both_ends(self):
        cube = make_mnf_cube(np.ones((2, 2, 3)))
        image = run_ppi(cube, PpiParams(n_iterations=10, threshold=0.0, seed=1))
        assert np.all(image.counts == 20)

    def test_simplex_corners_match_naive_oracle(self):
        cube, pixels = simplex_cube()
        params = PpiParams(n_iterations=300, threshold=0.0, seed=11)
        image = run_ppi(cube, params)
        oracle = naive_ppi_counts(pixels, 11, 300, 0.0)
        assert np.array_equal(image.counts.ravel(), oracle)
        # only the corner pixels collect counts; interiors stay at zero
        counts = image.counts.ravel()
        assert np.all(counts[3:] == 0)
        assert np.all(counts[:3] > 0)
        order = np.argsort(-counts)
        assert set(order[:3]) == {0, 1, 2}

    def test_threshold_monotonicity(self):
        cube, _ = simplex_cube(seed=4)
        lo = run_ppi(cube, PpiParams(n_iterations=200, threshold=0.5, seed=9))
        hi = run_ppi(cube, PpiParams(n_iterations=200, threshold=2.5, seed=9))
        assert np.all(hi.counts >= lo.counts)

    def test_worker_count_does_not_change_counts(self):
        rng = np.random.default_rng(13)
        cube = make_mnf_cube(rng.normal(size=(16, 16, 6)))
        params = PpiParams(n_iterations=1000, threshold=2.5, seed=21)
        serial = run_ppi(cube, params, n_workers=1)
        parallel = run_ppi(cube, params, n_workers=8)
        assert np.array_equal(serial.counts, parallel.counts)
        assert serial.counts.tobytes() == parallel.counts.tobytes()

    def test_use_k_components_bounds(self):
        cube, _ = simplex_cube()
        with pytest.raises(ValueError, match="use_k_components"):
            run_ppi(cube, PpiParams(n_iterations=1), use_k_components=4)

    def test_counts_bounded_by_iterations(self):
        cube, _ = simplex_cube(seed=6)
        params = PpiParams(n_iterations=50, threshold=2.5, seed=2)
        image = run_ppi(cube, params)
        assert image.counts.max() <= 2 * 50

    def test_progress_callback(self):
        cube, _ = simplex_cube()
        seen = []
        run_ppi(cube, PpiParams(n_iterations=600, threshold=0.0, seed=1),
                progress=seen.append)
        assert seen[-1] == 600
        assert seen == sorted(seen)

    def test_trace_counts_distinct_pixels(self):
        cube, _ = simplex_cube()
        image = run_ppi(cube, PpiParams(n_iterations=100, threshold=0.0, seed=5),
                        trace=True)
        assert len(image.trace) == 100
        assert image.trace == sorted(image.trace)
        assert image.trace[-1] == int(np.count_nonzero(image.counts))

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_trace_across_chunks_matches_naive_oracle(self, n_workers):
        # 600 skewers span three 256-skewer chunks, and on this cloud the
        # second and the third chunk each touch a pixel for the first time.
        values = np.random.default_rng(17).normal(size=(6, 6, 4))
        params = PpiParams(n_iterations=600, threshold=0.05, seed=23)
        image = run_ppi(make_mnf_cube(values), params, n_workers=n_workers,
                        trace=True)
        oracle = naive_ppi_trace(values.reshape(-1, 4), 23, 600, 0.05)
        assert oracle[255] < oracle[511] < oracle[-1]
        assert image.trace == oracle


class TestSelectPurePixels:
    def make_image(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        return PpiImage(counts=counts, params=PpiParams(n_iterations=100))

    def test_empty_when_all_zero(self):
        image = self.make_image(np.zeros((3, 3), dtype=int))
        assert select_pure_pixels(image, min_count=1) == []

    def test_tie_break_raster_order(self):
        counts = np.zeros((2, 3), dtype=int)
        counts[1, 2] = 5  # a later in raster order
        counts[0, 1] = 5
        counts[1, 0] = 2
        image = self.make_image(counts)
        assert select_pure_pixels(image, min_count=3) == [(0, 1), (1, 2)]

    def test_max_pixels_truncation(self):
        counts = np.array([[5, 4]])
        image = self.make_image(counts)
        assert select_pure_pixels(image, min_count=1, max_pixels=1) == [(0, 0)]
