"""Preprocess tests: band masking, ROI crops, scaling, reflectance
retrieval and standardization."""

import numpy as np
import pytest

from hypermap.envi_io import SpectralCube
from hypermap.preprocess import (
    Roi,
    read_band_mask_csv,
    read_gains_csv,
    reflectance_flat_field,
    reflectance_iarr,
    remove_bad_bands,
    scale_radiance,
    standardize,
    subset_roi,
)


def make_cube(values, units="radiance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=100.0 * np.arange(1, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


class TestRemoveBadBands:
    def test_all_true_is_identity(self):
        cube = make_cube(np.arange(12.0).reshape(2, 2, 3))
        out = remove_bad_bands(cube, [True, True, True])
        assert np.array_equal(out.values, cube.values)
        assert out.units_tag == cube.units_tag

    def test_keeps_selected_wavelengths(self):
        cube = make_cube(np.arange(12.0).reshape(2, 2, 3))
        out = remove_bad_bands(cube, [True, False, True])
        assert out.bands == 2
        assert list(out.wavelengths) == [100.0, 300.0]
        assert np.array_equal(out.values, cube.values[:, :, [0, 2]])

    def test_all_false_errors(self):
        cube = make_cube(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="every band"):
            remove_bad_bands(cube, [False, False, False])


class TestSubsetRoi:
    def test_full_roi_identity(self):
        cube = make_cube(np.arange(32.0).reshape(4, 4, 2))
        out = subset_roi(cube, Roi(0, 0, 4, 4))
        assert np.array_equal(out.values, cube.values)

    def test_central_block(self):
        cube = make_cube(np.arange(32.0).reshape(4, 4, 2))
        out = subset_roi(cube, Roi(1, 1, 2, 2))
        assert np.array_equal(out.values, cube.values[1:3, 1:3, :])

    def test_out_of_bounds(self):
        cube = make_cube(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError, match="extends past"):
            subset_roi(cube, Roi(3, 0, 2, 4))

    def test_commutes_with_band_removal(self):
        rng = np.random.default_rng(4)
        cube = make_cube(rng.normal(size=(5, 6, 4)))
        keep = [True, False, True, True]
        roi = Roi(1, 2, 3, 3)
        a = subset_roi(remove_bad_bands(cube, keep), roi)
        b = remove_bad_bands(subset_roi(cube, roi), keep)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.wavelengths, b.wavelengths)


class TestScaleRadiance:
    def test_unit_gains_identity(self):
        cube = make_cube(np.full((2, 2, 2), 5.0))
        out = scale_radiance(cube, [1.0, 1.0])
        assert np.array_equal(out.values, cube.values)

    def test_divides(self):
        cube = make_cube(np.full((1, 1, 1), 80.0))
        assert scale_radiance(cube, [40.0]).values[0, 0, 0] == 2.0

    def test_zero_gain_errors(self):
        cube = make_cube(np.ones((1, 1, 2)))
        with pytest.raises(ValueError, match="positive"):
            scale_radiance(cube, [1.0, 0.0])

    def test_requires_radiance(self):
        cube = make_cube(np.ones((1, 1, 1)), units="reflectance")
        with pytest.raises(ValueError, match="radiance"):
            scale_radiance(cube, [1.0])


class TestReflectance:
    def test_scene_mean_pixel_maps_to_one(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(1.0, 2.0, size=(3, 3, 4))
        cube = make_cube(values)
        out = reflectance_iarr(cube)
        mean = values.reshape(-1, 4).mean(axis=0)
        uniform = make_cube(np.broadcast_to(mean, (3, 3, 4)).copy())
        assert np.allclose(reflectance_iarr(uniform).values, 1.0)
        assert out.units_tag == "reflectance"

    def test_double_mean_pixel(self):
        mean = np.array([2.0, 4.0])
        values = np.stack([mean, 3.0 * mean])[None, :, :]  # scene mean = 2x base
        cube = make_cube(values)
        out = reflectance_iarr(cube)
        assert np.allclose(out.values[0, 0], 0.5)
        assert np.allclose(out.values[0, 1], 1.5)

    def test_zero_band_errors(self):
        values = np.ones((2, 2, 2))
        values[:, :, 1] = 0.0
        with pytest.raises(ValueError, match="near-zero"):
            reflectance_iarr(make_cube(values))

    def test_positive_scalar_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.5, 2.0, size=(4, 4, 3))
        a = reflectance_iarr(make_cube(values)).values
        b = reflectance_iarr(make_cube(7.5 * values)).values
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    def test_flat_field_region(self):
        values = np.ones((3, 2, 2))
        values[0, :, :] = 4.0  # flat-field rows
        cube = make_cube(values)
        out = reflectance_flat_field(cube, Roi(0, 0, 1, 2))
        assert np.allclose(out.values[0], 1.0)
        assert np.allclose(out.values[1:], 0.25)


class TestStandardize:
    def test_two_point_band(self):
        values = np.array([[[1.0], [3.0]]])
        out, means, stds = standardize(make_cube(values))
        assert np.allclose(out.values.ravel(), [-1.0, 1.0])
        assert means[0] == 2.0
        assert stds[0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        cube = make_cube(rng.normal(size=(6, 6, 3)))
        once, _, _ = standardize(cube)
        twice, _, _ = standardize(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_constant_band(self):
        values = np.full((1, 2, 1), 5.0)
        out, means, stds = standardize(make_cube(values))
        assert np.all(out.values == 0.0)
        assert stds[0] == 1.0

    def test_moments_within_tolerance(self):
        rng = np.random.default_rng(8)
        cube = make_cube(rng.uniform(1.0, 9.0, size=(8, 8, 5)))
        out, _, _ = standardize(cube)
        flat = out.pixels()
        assert np.max(np.abs(flat.mean(axis=0))) < 1e-10
        assert np.max(np.abs(flat.std(axis=0) - 1.0)) < 1e-10

    def test_bits_equal_formula_and_input_kept(self):
        values = np.random.default_rng(9).uniform(1.0, 9.0, size=(7, 5, 4))
        values[:, :, 2] = 3.0
        cube = make_cube(values.copy())
        out, means, stds = standardize(cube)
        assert out.values.tobytes() == ((values - means) / stds).tobytes()
        assert cube.values.tobytes() == values.tobytes()

    def test_needs_two_pixels(self):
        with pytest.raises(ValueError, match="2 pixels"):
            standardize(make_cube(np.ones((1, 1, 2))))


class TestBandCsv:
    def test_mask_round_trip(self):
        text = "band_index,keep\n1,1\n2,0\n3,1\n"
        mask = read_band_mask_csv(text, 3)
        assert list(mask) == [True, False, True]

    def test_gains(self):
        text = "band_index,gain\n1,40\n2,80\n"
        assert list(read_gains_csv(text, 2)) == [40.0, 80.0]

    def test_missing_band_errors(self):
        with pytest.raises(ValueError, match="band 2"):
            read_band_mask_csv("band_index,keep\n1,1\n3,0\n", 3)

    def test_bad_header_errors(self):
        with pytest.raises(ValueError, match="band_index"):
            read_gains_csv("band,gain\n1,40\n", 1)
