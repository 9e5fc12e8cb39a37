"""Mapping tests: SAM classification against a mixing-model oracle,
matched-filter calibration, MTMF infeasibility ordering, and statistics."""

import numpy as np
import pytest

from hypermap.artifacts import write_class_statistics
from hypermap import envi_io, mapping
from hypermap.cube_blocks import CubeFile, line_blocks
from hypermap.envi_io import SpectralCube, read_cube, read_payload, write_cube_file
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

    @staticmethod
    def whole_cube_angles(cube, spectra):
        """Best class and angle of every pixel from one call over the
        whole cube, as `sam_classify` computed them before it took a
        block of lines at a time."""
        x = cube.pixels()
        xn = np.sqrt(np.add.reduce(x * x, axis=1))
        en = np.linalg.norm(spectra, axis=1)
        cos = (x @ spectra.T) / (np.where(xn == 0.0, 1.0, xn)[:, None] * en[None, :])
        cos[xn == 0.0, :] = 0.0
        angles = np.arccos(np.clip(cos, -1.0, 1.0))
        best = np.argmin(angles, axis=1)
        return best, angles[np.arange(x.shape[0]), best]

    @pytest.mark.parametrize("interleave", [None, "bsq", "bil", "bip"])
    def test_line_blocks_equal_one_whole_cube_call(self, tmp_path, monkeypatch, interleave):
        values = RandomSource(62).uniforms(17 * 13 * 8).reshape(17, 13, 8)
        values[16, 4] = 0.0
        cube = make_cube(values)
        if interleave is not None:  # classified from the file, against a whole read
            write_cube_file(cube, tmp_path / "c.hdr", interleave=interleave)
            cube = read_cube(*read_payload(tmp_path / "c.hdr"))
        spectra = values.reshape(-1, 8)[[3, 50, 120]]
        best, best_angle = self.whole_cube_angles(cube, spectra)
        expected = np.where(best_angle <= 0.2, best + 1, 0).astype(np.int32).reshape(17, 13)
        assert 0 < np.count_nonzero(expected) < expected.size

        # Blocks of 3 lines: 17 lines end in a block of 2.
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", 3 * 13 * 8 * 8)
        source = cube if interleave is None else CubeFile(tmp_path / "c.hdr")
        assert [len(block) for _, block in line_blocks(source)] == [3] * 5 + [2]
        cmap = sam_classify(source, spectra, max_angle=0.2)
        assert cmap.class_index.tobytes() == expected.tobytes()
        en = np.linalg.norm(spectra, axis=1)
        angles = np.concatenate([mapping._best_angles(block.reshape(-1, 8), spectra, en)[1]
                                 for _, block in line_blocks(source)])
        assert angles.tobytes() == best_angle.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_default_line_blocks_equal_one_whole_cube_call(self, k):
        # At the default BLOCK_BYTES a 129-line cube of 128 x 64 values per
        # line reads as 3 blocks of 43 lines. Blocks of up to 64 lines would
        # leave a last block of one line: 128 rows x k spectra, which
        # OpenBLAS multiplies in its small-matrix kernel, with other bits.
        values = RandomSource(63).uniforms(129 * 128 * 64).reshape(129, 128, 64)
        cube = make_cube(values)
        assert [len(block) for _, block in line_blocks(cube)] == [43, 43, 43]
        spectra = values.reshape(-1, 64)[np.arange(k) * 1601]
        best, best_angle = self.whole_cube_angles(cube, spectra)
        max_angle = float(np.median(best_angle))
        expected = np.where(best_angle <= max_angle, best + 1, 0).astype(np.int32)
        cmap = sam_classify(cube, spectra, max_angle=max_angle)
        assert cmap.class_index.tobytes() == expected.reshape(129, 128).tobytes()
        en = np.linalg.norm(spectra, axis=1)
        angles = np.concatenate([mapping._best_angles(block.reshape(-1, 64), spectra, en)[1]
                                 for _, block in line_blocks(cube)])
        assert angles.tobytes() == best_angle.tobytes()


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
        with pytest.raises(ValueError, match="at least 2 components"):
            mtmf(cube, np.ones((2, 1)))

    def test_narrower_targets_use_the_first_components(self):
        cube = background_cube(seed=157)
        targets = cube.pixels()[[3, 40, 91], :4]
        prefix = make_cube(cube.values[:, :, :4], units="mnf_component")
        result, expected = mtmf(cube, targets), mtmf(prefix, targets)
        assert result.mf_score.tobytes() == expected.mf_score.tobytes()
        assert result.infeasibility.tobytes() == expected.infeasibility.tobytes()

    @pytest.mark.parametrize("interleave, width",
                             [("bsq", 4), ("bsq", 6), ("bil", 4), ("bil", 6), ("bip", 4)])
    def test_cube_file_equals_read_cube_prefix(self, tmp_path, monkeypatch, interleave, width):
        # The reference is the whole read's first `width` bands.
        # Both cubes' components are read in blocks of 4 lines.
        monkeypatch.setattr(mapping, "_BLOCK_BYTES", 4 * 20 * width * 8)
        cube = background_cube(seed=163, lines=30, samples=20, bands=6)
        write_cube_file(cube, tmp_path / "c.hdr", interleave=interleave)
        targets = cube.pixels()[[5, 77, 301], :width]
        result = mtmf(CubeFile(tmp_path / "c.hdr"), targets)
        whole = read_cube(*read_payload(tmp_path / "c.hdr")).values
        expected = mtmf(make_cube(whole[:, :, :width], units="mnf_component"), targets)
        assert result.mf_score.tobytes() == expected.mf_score.tobytes()
        assert result.infeasibility.tobytes() == expected.infeasibility.tobytes()

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_class_files_hold_the_bytes_of_the_images(self, tmp_path, monkeypatch, interleave):
        # Blocks of 4 lines of the 4 components the targets use.
        monkeypatch.setattr(mapping, "_BLOCK_BYTES", 4 * 20 * 4 * 8)
        cube = background_cube(seed=173, lines=30, samples=20, bands=6)
        write_cube_file(cube, tmp_path / "c.hdr", interleave=interleave)
        targets = cube.pixels()[[5, 77, 301], :4]
        result = mtmf(cube, targets)
        paths = [tmp_path / f"class_{c}.hdr" for c in (1, 2, 3)]
        assert mtmf(CubeFile(tmp_path / "c.hdr"), targets, paths) is None
        for c, path in enumerate(paths):
            images = np.stack([result.mf_score[c], result.infeasibility[c]], axis=2)
            write_cube_file(SpectralCube(values=images, wavelengths=np.array([1.0, 2.0]),
                                         bad_band_mask=np.array([True, True]), units_tag="score"),
                            tmp_path / "expected.hdr")
            for suffix in (".hdr", ".img"):
                assert path.with_suffix(suffix).read_bytes() == \
                    (tmp_path / f"expected{suffix}").read_bytes()
        with pytest.raises(ValueError, match="2 header paths for 3 targets"):
            mtmf(cube, targets, paths[:2])

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_cube_file_with_non_finite_component_rejected(self, tmp_path, interleave):
        write_cube_file(background_cube(seed=167), tmp_path / "c.hdr", interleave=interleave)
        payload = np.fromfile(tmp_path / "c.img")
        # line 7, sample 3, band 1 of the 24 x 24 x 6 cube
        payload[(1 * 24 + 7) * 24 + 3 if interleave == "bsq" else (7 * 6 + 1) * 24 + 3] = np.nan
        payload.tofile(tmp_path / "c.img")
        with pytest.raises(ValueError, match="non-finite"):
            mtmf(CubeFile(tmp_path / "c.hdr"), np.ones((2, 4)))


class TestRowNorms:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_equal_one_norm_over_every_row(self, monkeypatch, order):
        monkeypatch.setattr(mapping, "_NORM_BLOCK_ELEMENTS", 50)  # blocks of 5 rows
        rng = np.random.default_rng(41)
        x = np.asarray(rng.normal(size=(101, 9)) * 3.0, order=order)
        assert mapping._row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
        alpha, t_hat = rng.normal(size=101), rng.normal(size=9)
        residual = np.linalg.norm(x - alpha[:, None] * t_hat[None, :], axis=1)
        assert mapping._row_norms(x, alpha, t_hat).tobytes() == residual.tobytes()


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
