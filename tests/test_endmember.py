"""Endmember tests: k-means against an exhaustive 2-partition oracle and
class-mean derivation on planted scenes."""

import numpy as np
import pytest

from hypermap import cube_blocks
from hypermap.cube_blocks import CubeFile
from hypermap.endmember import derive_endmembers, kmeans
from hypermap.envi_io import SpectralCube, write_cube_file
from hypermap.spectral_match import sam_angle


def brute_force_two_partition_sse(points):
    """Minimum SSE over every split of the points into two non-empty sets.

    Uses SSE(S) = sum |p|^2 - |sum p|^2 / |S| per side, evaluated for all
    2^(n-1) splits (the last point is pinned to side A to kill symmetry).
    """
    n = points.shape[0]
    q = (points ** 2).sum(axis=1)
    total_s = points.sum(axis=0)
    total_q = q.sum()
    best_sse, best_bits = np.inf, None
    chunk = 1 << 16
    for start in range(1, 2 ** (n - 1), chunk):
        stop = min(start + chunk, 2 ** (n - 1))
        bits = (np.arange(start, stop)[:, None] >> np.arange(n)[None, :]) & 1
        mask_a = (bits == 0).astype(np.float64)
        n_a = mask_a.sum(axis=1)
        n_b = n - n_a
        s_a = mask_a @ points
        q_a = mask_a @ q
        s_b = total_s - s_a
        q_b = total_q - q_a
        sse = (q_a - (s_a ** 2).sum(axis=1) / n_a
               + q_b - (s_b ** 2).sum(axis=1) / n_b)
        idx = int(np.argmin(sse))
        if sse[idx] < best_sse:
            best_sse, best_bits = float(sse[idx]), start + idx
    best_mask = np.array([(best_bits >> i) & 1 == 0 for i in range(n)])
    return best_sse, best_mask


def make_cube(values, units="reflectance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


class TestKmeans:
    def test_k1_gives_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
        assignments, centroids, sse = kmeans(points, 1, seed=0)
        assert np.allclose(centroids[0], points.mean(axis=0))
        assert np.all(assignments == 0)

    def test_k_equals_distinct_points(self):
        points = np.array([[0.0], [1.0], [5.0]])
        assignments, centroids, sse = kmeans(points, 3, seed=1)
        assert sse == 0.0
        assert sorted(float(c) for c in centroids.ravel()) == [0.0, 1.0, 5.0]
        assert len(set(assignments.tolist())) == 3

    def test_k_exceeds_distinct_points(self):
        points = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeans(points, 3, seed=0)

    def test_distinct_count_compares_rows_by_value(self):
        # Duplicate rows, and a row that differs only in the sign of a zero:
        # 3 distinct points, as np.unique(points, axis=0) counts them.
        points = np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [2.0, 3.0], [5.0, -1.0]])
        with pytest.raises(ValueError, match=r"^k=4 exceeds the 3 distinct points$"):
            kmeans(points, 4, seed=0)
        assignments, _, sse = kmeans(points, 3, seed=0)
        assert sse == 0.0
        assert len(set(assignments.tolist())) == 3
        assert assignments[0] == assignments[2] and assignments[1] == assignments[3]

    def test_two_blob_partition_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        blob_a = rng.normal(loc=(0.0, 0.0), scale=0.4, size=(10, 2))
        blob_b = rng.normal(loc=(8.0, 8.0), scale=0.4, size=(10, 2))
        points = np.vstack([blob_a, blob_b])
        assignments, _, sse = kmeans(points, 2, seed=3)
        best_sse, best_mask = brute_force_two_partition_sse(points)
        assert sse == pytest.approx(best_sse, rel=1e-9)
        side_a = assignments == assignments[0]
        assert np.array_equal(side_a, best_mask) or np.array_equal(side_a, ~best_mask)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(60, 4))
        a1, c1, s1 = kmeans(points, 5, seed=99)
        a2, c2, s2 = kmeans(points, 5, seed=99)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)
        assert s1 == s2

    def test_every_cluster_populated(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(40, 3))
        assignments, _, _ = kmeans(points, 7, seed=2)
        assert set(assignments.tolist()) == set(range(7))


class TestDeriveEndmembers:
    def planted_scene(self):
        endmembers = np.array([[1.0, 0.0, 0.2, 0.5],
                               [0.1, 1.0, 0.6, 0.0],
                               [0.4, 0.3, 0.9, 0.9]])
        refl = np.zeros((3, 3, 4))
        mnf = np.zeros((3, 3, 2))
        mnf_targets = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pixels = []
        for i in range(3):
            for rep in range(3):
                line, sample = i, rep
                refl[line, sample] = endmembers[i]
                mnf[line, sample] = mnf_targets[i]
                pixels.append((line, sample))
        return make_cube(refl), make_cube(mnf, units="mnf_component"), pixels, endmembers

    def test_exact_repetitions_recover_endmembers(self):
        corrected, mnf_cube, pixels, endmembers = self.planted_scene()
        es = derive_endmembers(corrected, mnf_cube, pixels, k=3, seed=0)
        recovered = {tuple(np.round(row, 12)) for row in es.reflectance_means}
        expected = {tuple(row) for row in endmembers}
        assert recovered == expected
        assert sorted(es.member_counts.tolist()) == [3, 3, 3]

    def test_k_exceeding_distinct_pixels(self):
        corrected, mnf_cube, pixels, _ = self.planted_scene()
        with pytest.raises(ValueError, match="distinct"):
            derive_endmembers(corrected, mnf_cube, pixels, k=4, seed=0)

    def test_empty_pure_pixels(self):
        corrected, mnf_cube, _, _ = self.planted_scene()
        with pytest.raises(ValueError, match="pure pixels"):
            derive_endmembers(corrected, mnf_cube, [], k=1, seed=0)

    def test_default_class_count(self):
        import inspect
        assert inspect.signature(derive_endmembers).parameters["k"].default == 48

    def test_noisy_planted_endmembers_recovered_within_angle(self):
        rng = np.random.default_rng(17)
        bands, k = 20, 4
        endmembers = rng.uniform(0.2, 0.9, size=(k, bands))
        lines = samples = 8
        refl = np.zeros((lines, samples, bands))
        mnf = np.zeros((lines, samples, k))
        pixels = []
        for i in range(lines * samples):
            line, sample = divmod(i, samples)
            which = i % k
            spectrum = endmembers[which]
            noise = rng.normal(scale=0.01 * spectrum.mean(), size=bands)
            refl[line, sample] = spectrum + noise
            mnf[line, sample, which] = 10.0 + rng.normal(scale=0.1)
            pixels.append((line, sample))
        es = derive_endmembers(make_cube(refl),
                               make_cube(mnf, units="mnf_component"),
                               pixels, k=k, seed=5)
        for spectrum in endmembers:
            best = min(sam_angle(mean, spectrum) for mean in es.reflectance_means)
            assert best < 0.05

    def test_class_means_equal_masked_gather(self):
        rng = np.random.default_rng(23)
        # Band planes outermost in memory, as a BSQ read gives.
        refl = rng.uniform(0.1, 0.9, size=(30, 9, 7)).transpose(1, 2, 0)
        mnf = rng.normal(size=(9, 7, 3))
        pixels = [(int(i) // 7, int(i) % 7) for i in rng.permutation(63)[:40]]
        es = derive_endmembers(make_cube(refl), make_cube(mnf, units="mnf_component"),
                               pixels, k=4, seed=3)
        lines, samples = np.array(pixels).T
        assignments, _, _ = kmeans(mnf[lines, samples], 4, seed=3)
        gathered = refl[lines, samples, :]
        for cls in range(4):
            expected = gathered[assignments == cls].mean(axis=0)
            assert es.reflectance_means[cls].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bands, planes", [(7, 2), (10, 3), (13, 4)])
    def test_band_block_means_equal_whole_spectrum_means(self, tmp_path, monkeypatch,
                                                         bands, planes):
        # Classes of 1, 2 and 3000 members; blocks of `planes` bands, and
        # bands % planes == 1, so the last block takes a one-band remainder.
        lines = samples = 60
        rng = np.random.default_rng(bands)
        refl = rng.uniform(0.05, 0.95, size=(bands, lines, samples)).transpose(1, 2, 0)
        mnf = np.zeros((lines, samples, 2))
        pixels = [divmod(int(i), samples) for i in rng.permutation(lines * samples)[:3003]]
        for n, (line, sample) in enumerate(pixels):
            centre = (1000.0, 0.0) if n == 1500 else (0.0, 1000.0) if n in (7, 2900) else (0, 0)
            mnf[line, sample] = centre + rng.normal(scale=0.01, size=2)
        lines_, samples_ = np.array(pixels).T
        assignments, _, _ = kmeans(mnf[lines_, samples_], 3, seed=4)
        gathered = refl[lines_, samples_, :]
        expected = [gathered[assignments == cls].mean(axis=0) for cls in range(3)]

        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", planes * 8 * lines * samples)
        ranges = cube_blocks._band_ranges(bands, lines * samples)
        assert ranges[-1][1] - ranges[-1][0] == planes + 1
        write_cube_file(make_cube(refl), tmp_path / "refl.hdr")
        write_cube_file(make_cube(mnf, units="mnf_component"), tmp_path / "mnf.hdr")
        for corrected, mnf_cube in ((make_cube(refl), make_cube(mnf, units="mnf_component")),
                                    (CubeFile(tmp_path / "refl.hdr"),
                                     CubeFile(tmp_path / "mnf.hdr"))):
            es = derive_endmembers(corrected, mnf_cube, pixels, k=3, seed=4)
            assert sorted(es.member_counts.tolist()) == [1, 2, 3000]
            for cls in range(3):
                assert es.reflectance_means[cls].tobytes() == expected[cls].tobytes()
