"""Mapping tests: SAM classification against a mixing-model oracle,
matched-filter calibration, MTMF infeasibility ordering, and statistics."""

import numpy as np
import pytest

from hypermap.artifacts import write_class_statistics
from hypermap import mapping
from hypermap.envi_io import SpectralCube
from hypermap.mapping import (
    ClassMap,
    class_statistics,
    matched_filter,
    mtmf,
    sam_classify,
)
from hypermap.numerics import RandomSource, symmetric_eig
from hypermap.spectral_match import sam_angle


def make_cube(values, units="reflectance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


def endmember_set(spectra):
    return np.asarray(spectra, dtype=np.float64)


class TestSamClassify:
    def spectra(self):
        return np.array([[1.0, 0.1, 0.1, 0.1],
                         [0.1, 1.0, 0.1, 0.1],
                         [0.1, 0.1, 1.0, 0.3]])

    def test_exact_copies_map_perfectly(self):
        spectra = self.spectra()
        values = spectra[np.array([[0, 1], [2, 0]])]
        cmap = sam_classify(make_cube(values), endmember_set(spectra))
        assert cmap.class_index.tolist() == [[1, 2], [3, 1]]
        picked = [sam_angle(values[line, sample], spectra[cls - 1])
                  for (line, sample), cls in np.ndenumerate(cmap.class_index)]
        assert np.max(picked) < 1e-7

    def test_far_pixel_unclassified(self):
        spectra = self.spectra()
        values = np.array([[[0.0, 0.0, 0.0, 1.0]]])  # far from every endmember
        cmap = sam_classify(make_cube(values), endmember_set(spectra), max_angle=0.10)
        assert cmap.class_index[0, 0] == 0

    def test_mixtures_with_dominant_abundance(self):
        rng = np.random.default_rng(23)
        rs = RandomSource(77)
        spectra = rng.uniform(0.2, 0.9, size=(4, 16))
        n = 400
        dominant = rng.integers(0, 4, size=n)
        rows = []
        expected = []
        for i in range(n):
            others = rng.dirichlet(np.ones(3)) * 0.15
            weights = np.insert(others, dominant[i], 0.85)
            rows.append(weights @ spectra)
            expected.append(dominant[i] + 1)
        values = np.array(rows).reshape(20, 20, 16)
        cmap = sam_classify(make_cube(values), endmember_set(spectra), max_angle=0.10)
        got = cmap.class_index.ravel()
        # oracle: angles computed directly from the mixing model
        agree = 0
        for i in range(n):
            angles = [sam_angle(rows[i], spectra[j]) for j in range(4)]
            oracle = int(np.argmin(angles)) + 1 if min(angles) <= 0.10 else 0
            assert got[i] == oracle
            agree += got[i] == expected[i]
        assert agree / n >= 0.99

    def test_scale_invariance_of_map(self):
        rng = np.random.default_rng(29)
        spectra = rng.uniform(0.2, 0.9, size=(3, 8))
        values = rng.uniform(0.1, 1.0, size=(6, 6, 8))
        scale = rng.uniform(0.5, 2.0, size=(6, 6, 1))
        a = sam_classify(make_cube(values), endmember_set(spectra))
        b = sam_classify(make_cube(values * scale), endmember_set(spectra))
        assert np.array_equal(a.class_index, b.class_index)

    def test_assigned_angle_is_minimal(self):
        rng = np.random.default_rng(31)
        spectra = rng.uniform(0.2, 0.9, size=(4, 6))
        values = rng.uniform(0.1, 1.0, size=(5, 5, 6))
        cmap = sam_classify(make_cube(values), endmember_set(spectra), max_angle=np.pi)
        for line in range(5):
            for sample in range(5):
                cls = cmap.class_index[line, sample]
                angles = [sam_angle(values[line, sample], s) for s in spectra]
                assert angles[cls - 1] == min(angles)

    def test_norm_blocks_do_not_change_the_map(self, monkeypatch):
        rs = RandomSource(61)
        cube = make_cube(rs.uniforms(17 * 13 * 8).reshape(17, 13, 8))
        spectra = cube.pixels()[[3, 50, 120]]
        whole = sam_classify(cube, spectra, max_angle=0.2)
        monkeypatch.setattr(mapping, "_NORM_BLOCK_ELEMENTS", 5 * cube.bands)
        blocked = sam_classify(cube, spectra, max_angle=0.2)
        assert blocked.class_index.tobytes() == whole.class_index.tobytes()
        assert np.count_nonzero(whole.class_index) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="bands"):
            sam_classify(make_cube(np.ones((2, 2, 5))),
                         endmember_set(np.ones((2, 4))))


def background_cube(seed=101, lines=24, samples=24, bands=6):
    rs = RandomSource(seed)
    base = rs.gaussians(lines * samples * bands).reshape(lines, samples, bands)
    mixing = rs.gaussians(bands * bands).reshape(bands, bands) * 0.3 + np.eye(bands)
    values = base @ mixing + 5.0
    return make_cube(values, units="mnf_component")


def plant_on_segment(values, plants, target):
    """Plant pixels at mean + s*(target - mean) for the cube's own mean.

    Planting shifts the mean, so iterate to the fixed point where the
    planted pixels sit exactly on the segment of the final computed mean.
    `plants` maps (line, sample) -> fraction s.
    """
    values = values.copy()
    bands = values.shape[2]
    mu = values.reshape(-1, bands).mean(axis=0)
    for _ in range(60):
        for (line, sample), s in plants.items():
            values[line, sample] = mu + s * (target - mu)
        new_mu = values.reshape(-1, bands).mean(axis=0)
        if np.array_equal(new_mu, mu):
            break
        mu = new_mu
    return values, mu


class TestMatchedFilter:
    def test_calibration_points(self):
        cube = background_cube()
        target = cube.pixels()[0].copy()
        scores = matched_filter(cube, target)
        assert scores.ravel()[0] == pytest.approx(1.0, abs=1e-9)
        # a pixel sitting exactly at the computed scene mean scores 0
        values, _ = plant_on_segment(cube.values, {(0, 1): 0.0}, target)
        cube2 = make_cube(values, units="mnf_component")
        scores2 = matched_filter(cube2, target)
        assert scores2[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_linearity_along_segment(self):
        cube = background_cube(seed=103)
        target = cube.pixels()[7].copy()
        fractions = np.linspace(0.0, 1.0, 9)
        plants = {(1, j): s for j, s in enumerate(fractions)}
        values, _ = plant_on_segment(cube.values, plants, target)
        cube2 = make_cube(values, units="mnf_component")
        scores = matched_filter(cube2, target)
        assert np.max(np.abs(scores[1, :9] - fractions)) < 1e-9

    def test_affine_equivariance(self):
        cube = background_cube(seed=107)
        target = cube.pixels()[3].copy()
        shift = np.linspace(-2.0, 2.0, cube.bands)
        shifted = make_cube(cube.values + shift, units="mnf_component")
        a = matched_filter(cube, target)
        b = matched_filter(shifted, target + shift)
        assert np.allclose(a, b, atol=1e-9)

    def test_target_equal_mean_rejected(self):
        cube = background_cube(seed=109)
        mu = cube.pixels().mean(axis=0)
        with pytest.raises(ValueError, match="scene mean"):
            matched_filter(cube, mu)


class TestMtmf:
    def test_on_line_pixel_is_feasible(self):
        cube = background_cube(seed=113)
        target = cube.pixels()[5].copy()
        values, _ = plant_on_segment(cube.values, {(2, 0): 0.5}, target)
        cube2 = make_cube(values, units="mnf_component")
        result = mtmf(cube2, target)
        assert result.infeasibility[2, 0] < 1e-9

    def test_orthogonal_perturbation_raises_infeasibility(self):
        # 100 random trials: perturbed pixel always scores higher than the
        # matching on-line pixel
        rs = RandomSource(31415)
        wins = 0
        for trial in range(100):
            cube = background_cube(seed=1000 + trial, lines=16, samples=16, bands=5)
            x = cube.pixels()
            mu = x.mean(axis=0)
            target = x[int(rs.next_uniform() * x.shape[0])].copy()
            if np.allclose(target, mu):
                target = target + 1.0
            direction = target - mu
            probe = rs.gaussians(cube.bands)
            ortho = probe - (probe @ direction) / (direction @ direction) * direction
            values = cube.values.copy()
            s = 0.4 + 0.5 * rs.next_uniform()
            on_line = mu + s * (target - mu)
            values[0, 0] = on_line
            values[0, 1] = on_line + 2.0 * ortho
            cube2 = make_cube(values, units="mnf_component")
            result = mtmf(cube2, target)
            wins += result.infeasibility[0, 1] > result.infeasibility[0, 0]
        assert wins == 100

    def test_background_mf_mean_near_zero(self):
        cube = background_cube(seed=127, lines=100, samples=100, bands=4)
        target = cube.pixels()[17].copy()
        result = mtmf(cube, target)
        assert abs(float(result.mf_score.mean())) < 0.05
        assert np.all(result.infeasibility >= 0.0)

    def test_mf_matches_matched_filter(self):
        cube = background_cube(seed=131)
        target = cube.pixels()[9].copy()
        direct = matched_filter(cube, target)
        combined = mtmf(cube, target)
        assert direct.tobytes() == combined.mf_score.tobytes()

    def test_one_target_keeps_image_shape(self):
        cube = background_cube(seed=137, lines=7, samples=5)
        result = mtmf(cube, cube.pixels()[2])
        assert result.mf_score.shape == (7, 5)
        assert result.infeasibility.shape == (7, 5)

    def test_target_matrix_equals_single_target_calls(self):
        cube = background_cube(seed=139, lines=9, samples=11)
        targets = cube.pixels()[[4, 17, 33, 60, 98]]
        result = mtmf(cube, targets)
        assert result.mf_score.shape == (5, 9, 11)
        assert result.infeasibility.shape == (5, 9, 11)
        for i, target in enumerate(targets):
            single = mtmf(cube, target)
            assert result.mf_score[i].tobytes() == single.mf_score.tobytes()
            assert result.infeasibility[i].tobytes() == single.infeasibility.tobytes()

    def test_background_fitted_once_for_all_targets(self, monkeypatch):
        calls = []

        def counting_eig(m, *args, **kwargs):
            calls.append(m.shape)
            return symmetric_eig(m, *args, **kwargs)

        monkeypatch.setattr(mapping, "symmetric_eig", counting_eig)
        cube = background_cube(seed=149)
        mtmf(cube, cube.pixels()[[1, 2, 3, 5, 8]])
        assert calls == [(cube.bands, cube.bands)]

    def test_target_with_wrong_width_rejected(self):
        cube = background_cube(seed=151)
        with pytest.raises(ValueError, match="components"):
            mtmf(cube, np.ones((2, cube.bands + 1)))


class TestClassStatistics:
    def make_map(self, class_index, k):
        return ClassMap(class_index=class_index, n_classes=k)

    def test_single_class(self):
        cmap = self.make_map(np.ones((4, 5), dtype=int), k=1)
        rows = class_statistics(cmap)
        assert rows[0] == (0, 0, 0.0)
        assert rows[1] == (1, 20, 100.0)

    def test_percent_sums_to_hundred(self):
        rng = np.random.default_rng(37)
        cmap = self.make_map(rng.integers(0, 4, size=(9, 9)), k=3)
        rows = class_statistics(cmap)
        assert sum(r[2] for r in rows) == pytest.approx(100.0, abs=1e-9)

    def test_empty_class_reported(self):
        cmap = self.make_map(np.zeros((2, 2), dtype=int), k=2)
        rows = class_statistics(cmap)
        assert rows[1] == (1, 0, 0.0)
        assert rows[2] == (2, 0, 0.0)

    def test_csv_shape(self, tmp_path):
        cmap = self.make_map(np.array([[1, 0], [2, 2]]), k=2)
        write_class_statistics(tmp_path / "stats.csv", cmap)
        text = (tmp_path / "stats.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "class_id,pixel_count,percent"
        assert len(lines) == 4
