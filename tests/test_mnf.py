"""MNF tests: noise estimation against statistical oracles, the whitened
eigenproblem on constructed scenes, and transform round trips."""

import numpy as np
import pytest

from hypermap.envi_io import SpectralCube
from hypermap.mnf import (
    estimate_noise_covariance,
    fit_forward_in_place,
    fit_mnf,
    forward_mnf,
    inverse_mnf,
    load_mnf_model,
    save_mnf_model,
)
from hypermap.numerics import RandomSource


def make_cube(values, units="reflectance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


def noise_cube(seed, lines, samples, bands):
    g = RandomSource(seed).gaussians(lines * samples * bands)
    return make_cube(g.reshape(lines, samples, bands))


class TestNoiseEstimate:
    def test_constant_scene_gives_zero(self):
        cube = make_cube(np.full((4, 5, 3), 2.5))
        est = estimate_noise_covariance(cube)
        assert np.all(est.cov == 0.0)

    def test_iid_gaussian_recovers_identity(self):
        cube = noise_cube(31, 64, 64, 12)
        est = estimate_noise_covariance(cube)
        assert np.max(np.abs(est.cov - np.eye(12))) < 0.1

    def test_single_column_errors(self):
        cube = make_cube(np.ones((4, 1, 3)))
        with pytest.raises(ValueError, match="2 samples"):
            estimate_noise_covariance(cube)


class TestFitMnf:
    def test_pure_noise_eigenvalues_near_one(self):
        cube = noise_cube(5, 64, 64, 30)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        assert np.max(np.abs(model.eigenvalues - 1.0)) < 0.15

    def test_planted_signal_dominates(self):
        rs = RandomSource(17)
        noise = rs.gaussians(64 * 64 * 10).reshape(64, 64, 10)
        # rank-1 spatially smooth signal, amplitude >> noise
        direction = rs.gaussians(10)
        direction /= np.linalg.norm(direction)
        ramp = np.linspace(0.0, 50.0, 64)
        signal = (ramp[:, None, None] * direction[None, None, :])
        cube = make_cube(signal + noise)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        assert model.eigenvalues[0] / model.eigenvalues[1] > 50
        assert np.all(np.diff(model.eigenvalues) <= 1e-9)

    def test_forward_inverse_identity(self):
        cube = noise_cube(23, 16, 16, 8)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        assert np.max(np.abs(model.forward @ model.inverse - np.eye(8))) < 1e-8

    def test_transformed_noise_is_identity(self):
        cube = noise_cube(29, 32, 32, 6)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        transformed = model.forward @ model.noise_cov @ model.forward.T
        # ridge regularization perturbs this at ~1e-10 relative
        assert np.max(np.abs(transformed - np.eye(6))) < 1e-6

    def test_zero_noise_is_singular(self):
        cube = make_cube(np.full((4, 4, 3), 1.0))
        noise = estimate_noise_covariance(cube)
        with pytest.raises(ValueError, match="singular"):
            fit_mnf(cube, noise)


class TestFitForwardInPlace:
    # (line, sample, band) order, and band planes outermost as a BSQ read gives.
    @pytest.mark.parametrize("axes", [(0, 1, 2), (1, 2, 0)])
    def test_same_bytes_as_fit_then_forward(self, axes):
        rs = RandomSource(23)
        base = rs.gaussians(30 * 20 * 10).reshape(30, 20, 10) + np.linspace(0.0, 9.0, 10)
        base = np.ascontiguousarray(base.transpose(np.argsort(axes)))
        cube = make_cube(base.transpose(axes))
        before = cube.values.copy()
        noise = estimate_noise_covariance(cube)
        model = fit_mnf(cube, noise)
        components = forward_mnf(model, cube)
        assert cube.values.tobytes() == before.tobytes()

        model2, components2 = fit_forward_in_place(cube, noise)
        for name in ("band_mean", "noise_cov", "data_cov", "eigenvalues", "forward",
                     "inverse", "source_wavelengths"):
            assert getattr(model2, name).tobytes() == getattr(model, name).tobytes(), name
        assert components2.values.tobytes() == components.values.tobytes()
        assert components2.units_tag == "mnf_component"


class TestForwardInverse:
    def test_mean_pixel_maps_to_zero(self):
        cube = noise_cube(37, 8, 8, 4)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        mean_cube = make_cube(np.broadcast_to(model.band_mean, (2, 2, 4)).copy())
        out = forward_mnf(model, mean_cube)
        assert np.max(np.abs(out.values)) < 1e-10
        assert out.units_tag == "mnf_component"

    def test_round_trip_full_components(self):
        cube = noise_cube(41, 12, 10, 6)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        mnf_cube = forward_mnf(model, cube)
        back = inverse_mnf(model, mnf_cube, keep_k=6)
        scale = np.max(np.abs(cube.values))
        assert np.max(np.abs(back.values - cube.values)) < 1e-7 * scale
        assert back.units_tag == "reflectance"
        assert np.array_equal(back.wavelengths, cube.wavelengths)

    def test_dimension_mismatch(self):
        cube = noise_cube(43, 8, 8, 5)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        with pytest.raises(ValueError, match="bands"):
            forward_mnf(model, noise_cube(44, 8, 8, 4))

    def test_keep_k_out_of_range(self):
        cube = noise_cube(47, 8, 8, 5)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        mnf_cube = forward_mnf(model, cube)
        with pytest.raises(ValueError, match="keep_k"):
            inverse_mnf(model, mnf_cube, keep_k=6)

    def test_196_band_contract(self):
        # mirrors the production configuration: 196 retained sensor bands,
        # truncation to the first 48 components
        rs = RandomSource(53)
        lines, samples, bands = 8, 16, 196
        smooth = np.cumsum(rs.gaussians(bands))
        ramp = np.linspace(0.5, 1.5, lines)
        signal = ramp[:, None, None] * smooth[None, None, :]
        noise = 0.01 * rs.gaussians(lines * samples * bands).reshape(lines, samples, bands)
        cube = make_cube(signal + noise)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        mnf_cube = forward_mnf(model, cube)
        out = inverse_mnf(model, mnf_cube, keep_k=48)
        assert out.bands == 196
        assert out.units_tag == "reflectance"

    def test_denoising_beats_full_reconstruction(self):
        rs = RandomSource(59)
        lines, samples, bands = 16, 16, 12
        # rank-2 clean signal
        basis = rs.gaussians(2 * bands).reshape(2, bands)
        coeff = np.stack([np.linspace(0, 5, lines * samples),
                          np.sin(np.linspace(0, 6, lines * samples))], axis=1)
        clean = (coeff @ basis).reshape(lines, samples, bands)
        noise = 0.1 * rs.gaussians(lines * samples * bands).reshape(lines, samples, bands)
        cube = make_cube(clean + noise)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        mnf_cube = forward_mnf(model, cube)
        denoised = inverse_mnf(model, mnf_cube, keep_k=2)
        full = inverse_mnf(model, mnf_cube, keep_k=bands)
        err_denoised = np.sqrt(np.mean((denoised.values - clean) ** 2))
        err_full = np.sqrt(np.mean((full.values - clean) ** 2))
        assert err_denoised < err_full


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cube = noise_cube(61, 10, 10, 5)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        save_mnf_model(model, tmp_path / "model")
        loaded = load_mnf_model(tmp_path / "model")
        assert np.array_equal(loaded.forward, model.forward)
        assert np.array_equal(loaded.inverse, model.inverse)
        assert np.array_equal(loaded.band_mean, model.band_mean)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert loaded.source_units_tag == model.source_units_tag
        assert np.array_equal(loaded.source_wavelengths, model.source_wavelengths)
