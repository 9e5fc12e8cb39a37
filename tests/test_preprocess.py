"""Preprocess tests: band masking, ROI crops, scaling, reflectance
retrieval and standardization."""

import math
import re

import numpy as np
import pytest

from hypermap import envi_io, preprocess
from hypermap.cube_blocks import CubeFile, line_blocks
from hypermap.envi_io import SpectralCube, write_cube, write_cube_file
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


# (line, sample, band) order, band planes outermost (BSQ, or masked bands),
# and lines outermost with bands inside them (BIL): NumPy sums each band's
# values in an order that depends on the layout.
LAYOUTS = [(0, 1, 2), (2, 0, 1), (0, 2, 1)]

# The largest relative error allowed against a mean from `math.fsum`, the
# correctly rounded sum: the blocked sums reach less than 1e-15.
EXACT_RTOL = 4e-15


def laid_out(values, axes):
    """`values` with the same (line, sample, band) indexing, stored with
    the `axes` of that order outermost first."""
    return np.ascontiguousarray(values.transpose(axes)).transpose(np.argsort(axes))


def window(values, region):
    return values[region.first_line:region.first_line + region.n_lines,
                  region.first_sample:region.first_sample + region.n_samples]


def fsum_bands(pixels):
    """Each band's correctly rounded sum over the pixels of `pixels`."""
    return np.array([math.fsum(band) for band in pixels.reshape(-1, pixels.shape[-1]).T])


def fsum_mean(pixels):
    return fsum_bands(pixels) / (pixels.size // pixels.shape[-1])


def relative_error(actual, reference):
    assert actual.shape == reference.shape
    return np.max(np.abs(actual - reference) / np.abs(reference))


@pytest.fixture
def small_blocks(monkeypatch):
    # A few lines per block, so every pass takes several.
    monkeypatch.setattr(envi_io, "BLOCK_BYTES", 3 * 8 * 11 * 6)


@pytest.mark.usefixtures("small_blocks")
class TestBlockedPasses:
    """The block-wise mean and standard deviation are within rounding of
    the exact ones, whatever the layout of the cube."""

    @pytest.mark.parametrize("axes", LAYOUTS)
    def test_iarr_within_rounding_of_the_exact_mean(self, axes):
        values = laid_out(np.random.default_rng(3).uniform(1.0, 9.0, size=(13, 11, 6)), axes)
        out = reflectance_iarr(make_cube(values))
        assert relative_error(out.values, values / fsum_mean(values)) < EXACT_RTOL
        assert out.values.strides == values.strides

    @pytest.mark.parametrize("axes", LAYOUTS)
    def test_standardize_within_rounding_of_the_exact_moments(self, axes):
        values = laid_out(np.random.default_rng(4).uniform(1.0, 9.0, size=(13, 11, 7)), axes)
        out, means, stds = standardize(make_cube(values))
        exact_means = fsum_mean(values)
        exact_stds = np.sqrt(fsum_mean(np.square(values - exact_means)))
        assert relative_error(means, exact_means) < EXACT_RTOL
        assert relative_error(stds, exact_stds) < EXACT_RTOL
        assert out.values.tobytes() == ((values - means) / stds).tobytes()

    # The whole cube, one line, one sample, whole lines, and a window.
    REGIONS = [Roi(0, 0, 40, 23), Roi(7, 2, 1, 19), Roi(4, 6, 30, 1), Roi(5, 0, 20, 23),
               Roi(3, 4, 30, 15)]

    @pytest.mark.parametrize("axes", LAYOUTS + [(1, 0, 2), (2, 1, 0)])
    @pytest.mark.parametrize("bands", [1, 2, 6])
    def test_region_sums_within_rounding_of_the_exact_sums(self, axes, bands):
        values = laid_out(np.random.default_rng(6).uniform(1.0, 9.0, size=(40, 23, bands)),
                          axes)
        cube = make_cube(values)
        for region in self.REGIONS:
            blocked = preprocess._region_sum(line_blocks(cube), region)
            assert relative_error(blocked, fsum_bands(window(values, region))) < EXACT_RTOL, \
                region

    def test_region_sum_carries_the_rounding_error_of_each_block(self):
        # One line per block: a running total alone would lose both 1s.
        lines = [1.0, 1e100, 1.0, -1e100]
        blocks = [(i, np.full((1, 1, 1), v)) for i, v in enumerate(lines)]
        assert preprocess._region_sum(blocks, Roi(0, 0, 4, 1))[0] == 2.0


def exact_reflectance(values, keep=None, gains=None, roi=None, field=None):
    """The reflectance `write_reflectance` writes, with each mean taken
    from `math.fsum`: the kept bands divided by the gains, then by the
    flat-field mean and cropped, or cropped and divided by the scene mean."""
    if keep is not None:
        values = values[:, :, keep]
    if gains is not None:
        values = values / gains[keep]
    if field is not None:
        values = values / fsum_mean(window(values, field))
    if roi is not None:
        values = window(values, roi)
    if field is None:
        values = values / fsum_mean(values)
    return values


@pytest.mark.usefixtures("small_blocks")
class TestWriteReflectance:
    """`write_reflectance` reads the scene a block of lines at a time and
    writes the reflectance of the whole cube, within rounding of the
    exact mean."""

    KEEP = np.arange(7) % 3 != 1
    GAINS = np.linspace(1.5, 3.0, 7)
    CASES = {
        "mask_and_gains": dict(keep=KEEP, gains=GAINS),
        "roi": dict(roi=Roi(3, 4, 30, 15)),
        "flat_field": dict(roi=Roi(2, 1, 30, 20), field=Roi(5, 0, 20, 23)),
        "flat_line_masked": dict(keep=KEEP, gains=GAINS, field=Roi(7, 2, 1, 19)),
        "flat_sample": dict(field=Roi(4, 6, 30, 1)),
    }

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_file_within_rounding_of_the_whole_cube(self, tmp_path, interleave, case):
        values = np.random.default_rng(12).uniform(1.0, 9.0, size=(40, 23, 7))
        cube = SpectralCube(values=values, wavelengths=np.linspace(500.0, 900.0, 7),
                            bad_band_mask=np.arange(7) != 3)
        write_cube_file(cube, tmp_path / "scene.hdr", tmp_path / "scene.raw",
                        interleave=interleave, data_type="float64")
        options = self.CASES[case]
        scene = CubeFile(tmp_path / "scene.hdr", tmp_path / "scene.raw")
        shape = preprocess.write_reflectance(scene, tmp_path / "refl.hdr", **options)

        keep = options.get("keep", np.ones(7, dtype=bool))
        expected = exact_reflectance(values, **options)
        header, _ = write_cube(SpectralCube(
            values=expected, wavelengths=cube.wavelengths[keep],
            bad_band_mask=cube.bad_band_mask[keep], units_tag="reflectance"))
        lines, samples, bands = expected.shape
        assert shape == (samples, lines, bands)
        written = np.frombuffer((tmp_path / "refl.img").read_bytes(), dtype="<f8")
        written = written.reshape(bands, lines, samples).transpose(1, 2, 0)
        assert relative_error(written, expected) < EXACT_RTOL
        assert (tmp_path / "refl.hdr").read_text() == header

    def test_non_finite_dropped_band_fails_before_writing(self, tmp_path):
        write_cube_file(make_cube(np.ones((40, 23, 7))), tmp_path / "scene.hdr",
                        interleave="bil")
        # A NaN at line 38, band 1 (which the mask drops), sample 5: the last block.
        payload = bytearray((tmp_path / "scene.img").read_bytes())
        at = 8 * ((38 * 7 + 1) * 23 + 5)
        payload[at:at + 8] = np.array([np.nan]).tobytes()
        (tmp_path / "scene.img").write_bytes(payload)
        with pytest.raises(ValueError, match="non-finite"):
            preprocess.write_reflectance(CubeFile(tmp_path / "scene.hdr"),
                                         tmp_path / "refl.hdr", keep=self.KEEP)
        assert not (tmp_path / "refl.img").exists()


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

    @pytest.mark.parametrize("read, text, message", [
        (read_gains_csv, "band_index,gain\n1,40\nx,80\n",
         "gain table row 3: band index 'x' is not an integer"),
        (read_gains_csv, "band_index,gain\n1,nan\n2,80\n",
         "gain table row 2: gain 'nan' is not a finite number"),
        (read_gains_csv, "band_index,gain\n1,40\n2,inf\n",
         "gain table row 3: gain 'inf' is not a finite number"),
        (read_gains_csv, "band_index,gain\n1,40\n2,x\n",
         "gain table row 3: gain 'x' is not a finite number"),
        (read_gains_csv, "band_index,gain\n1,40\n2,80\n\n1,50\n",
         "gain table row 4: band 1 already given on row 2"),
        (read_band_mask_csv, "band_index,keep\n2,1\n1,0\n2,0\n",
         "keep table row 4: band 2 already given on row 2"),
        (read_band_mask_csv, "band_index,keep\n1,1\n2,0,1\n",
         "keep table row 3 has 3 cells, expected 2"),
    ])
    def test_bad_rows_name_the_table_and_row(self, read, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            read(text, 2)

    def test_quoted_cells(self):
        text = '"band_index","gain"\n"1", 40\n2,"8e1"\n'
        assert list(read_gains_csv(text, 2)) == [40.0, 80.0]
