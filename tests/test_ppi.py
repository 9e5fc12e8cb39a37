"""PPI tests: a naive skewer-replay oracle on planted simplex data,
scheduling determinism, and threshold behavior."""

import math
import threading

import numpy as np
import pytest

from hypermap import cube_blocks, ppi
from hypermap.cube_blocks import CubeFile
from hypermap.envi_io import SpectralCube, write_cube_file
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

    @pytest.mark.parametrize("lines, chunk", [(128, 16), (256, 8), (1024, 4)])
    def test_projection_block_holds_at_most_2_mib_or_4_skewers(self, monkeypatch, lines,
                                                               chunk):
        # 16 skewers' projections of 128 x 128 pixels (ppi_scene's extent)
        # fill 2 MiB and a 256-line strip (hyperion_strip's) takes 8 a
        # chunk, but a chunk has at least 4 skewers. The 100 skewers are
        # split into the fewest chunks, as even in size as they can be.
        values = np.random.default_rng(3).normal(size=(lines, 128, 2))
        cube = make_mnf_cube(values)
        params = PpiParams(n_iterations=100, threshold=0.5, seed=2)
        done = []
        image = run_ppi(cube, params, progress=done.append, trace=True)
        sizes = np.diff([0, *done])
        assert len(sizes) == -(-100 // chunk)
        assert sizes.max() <= chunk and sizes.max() - sizes.min() <= 1
        assert 8 * chunk * lines * 128 <= max(2 << 20, 8 * 4 * lines * 128)
        # The counts and trace do not depend on the chunk size.
        monkeypatch.setattr(ppi, "_CHUNK", 3)
        small = run_ppi(cube, params, trace=True)
        assert np.array_equal(small.counts, image.counts)
        assert small.trace == image.trace

    @pytest.mark.parametrize("shape", [(20, 16, 5), (13, 11, 4)])
    @pytest.mark.parametrize("rows", [1, 7, "chunk"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_projection_blocks_equal_one_product(self, monkeypatch, shape, rows, n_workers):
        # Chunks of one skewer, of 7 (the 165 skewers in 24 chunks of 6 or
        # 7) or of a whole chunk of at most 64 (in 3 of 55), over 320
        # pixels and over 143, which is not a multiple of 64.
        values = np.random.default_rng(43).normal(size=shape)
        pixels = values.reshape(-1, shape[2])
        n_iterations = 2 * ppi._CHUNK + 37
        threshold = 0.8
        rows = ppi._CHUNK if rows == "chunk" else rows
        monkeypatch.setattr(ppi, "_CHUNK_BYTES", 8 * rows * len(pixels))
        monkeypatch.setattr(ppi, "_MIN_CHUNK", 1)
        image = run_ppi(make_mnf_cube(values), PpiParams(n_iterations, threshold, seed=19),
                        n_workers=n_workers, trace=True)
        # One product over every skewer.
        proj = ppi._skewer_directions(19, 0, n_iterations, shape[2]) @ pixels.T
        hits = (proj >= proj.max(axis=1, keepdims=True) - threshold,
                proj <= proj.min(axis=1, keepdims=True) + threshold)
        assert image.counts.ravel().tolist() == sum(h.sum(axis=0) for h in hits).tolist()
        touched = np.logical_or(*hits)
        assert image.trace == np.logical_or.accumulate(touched, axis=0).sum(axis=1).tolist()

    @pytest.mark.parametrize("interleave, data_type", [
        ("bsq", "float64"), ("bil", "float64"), ("bip", "float64"), ("bsq", "int16")])
    def test_cube_file_equals_cube_in_memory(self, tmp_path, monkeypatch, interleave,
                                             data_type):
        # 9 x 7 = 63 pixels, not a multiple of 64; a BIL or BIP file's 5
        # kept components are gathered in band blocks of 2 and 3 planes.
        values = np.rint(np.random.default_rng(29).normal(size=(9, 7, 6)) * 40.0)
        cube = make_mnf_cube(values)
        write_cube_file(cube, tmp_path / "c.hdr", interleave=interleave, data_type=data_type)
        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", 2 * 63 * 8)
        params = PpiParams(n_iterations=150, threshold=20.0, seed=7)
        on_disk = run_ppi(CubeFile(tmp_path / "c.hdr"), params, use_k_components=5,
                          trace=True)
        in_memory = run_ppi(cube, params, use_k_components=5, trace=True)
        assert on_disk.counts.tobytes() == in_memory.counts.tobytes()
        assert on_disk.trace == in_memory.trace
        assert on_disk.counts.sum() > 2 * params.n_iterations  # thresholds are hit

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
        # A last chunk shorter than the others, and counts and trace alike.
        rng = np.random.default_rng(13)
        cube = make_mnf_cube(rng.normal(size=(16, 16, 6)))
        params = PpiParams(n_iterations=15 * ppi._CHUNK + 7, threshold=2.5, seed=21)
        serial = run_ppi(cube, params, n_workers=1, trace=True)
        for n_workers in (3, 8):
            parallel = run_ppi(cube, params, n_workers=n_workers, trace=True)
            assert np.array_equal(serial.counts, parallel.counts)
            assert serial.counts.tobytes() == parallel.counts.tobytes()
            assert serial.trace == parallel.trace

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_failing_chunk_raises_and_stops_workers(self, monkeypatch, n_workers):
        draw = ppi._skewer_directions

        def fail_second_chunk(seed, start, stop, k):
            if start == ppi._CHUNK:
                raise RuntimeError("degenerate zero-length skewer draw")
            return draw(seed, start, stop, k)

        monkeypatch.setattr(ppi, "_skewer_directions", fail_second_chunk)
        cube, _ = simplex_cube()
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="degenerate"):
            run_ppi(cube, PpiParams(n_iterations=4 * ppi._CHUNK, seed=1),
                    n_workers=n_workers)
        assert [t for t in threading.enumerate() if t not in before] == []

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
        # Two full chunks and a short third one. Every pixel of this cloud
        # lies on the unit sphere, so each is extreme for some skewers, and
        # the second and the third chunk each touch a pixel for the first
        # time.
        values = np.random.default_rng(17).normal(size=(8, 8, 4))
        values /= np.linalg.norm(values, axis=2, keepdims=True)
        n_iterations = 2 * ppi._CHUNK + ppi._CHUNK // 2
        params = PpiParams(n_iterations=n_iterations, threshold=0.02, seed=23)
        image = run_ppi(make_mnf_cube(values), params, n_workers=n_workers,
                        trace=True)
        oracle = naive_ppi_trace(values.reshape(-1, 4), 23, n_iterations, 0.02)
        assert oracle[ppi._CHUNK - 1] < oracle[2 * ppi._CHUNK - 1] < oracle[-1]
        assert image.trace == oracle

    def test_pixel_near_both_ends_counts_twice(self):
        # On a tight cloud with a wide threshold, some skewers find a pixel
        # within the threshold of both the maximum and the minimum.
        values = np.random.default_rng(31).normal(size=(4, 4, 3))
        pixels = values.reshape(-1, 3)
        params = PpiParams(n_iterations=100, threshold=1.5, seed=7)
        assert any(set(hi) & set(lo)
                   for hi, lo in naive_extremes(pixels, 7, 100, 1.5))
        image = run_ppi(make_mnf_cube(values), params, trace=True)
        assert np.array_equal(image.counts.ravel(),
                              naive_ppi_counts(pixels, 7, 100, 1.5))
        assert image.trace == naive_ppi_trace(pixels, 7, 100, 1.5)


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
