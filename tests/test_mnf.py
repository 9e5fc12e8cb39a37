"""MNF tests: noise estimation against statistical oracles, the whitened
eigenproblem on constructed scenes, and transform round trips."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypermap import envi_io, mnf
from hypermap.cube_blocks import CubeFile
from hypermap.envi_io import SpectralCube, write_cube, write_cube_file
from hypermap.mnf import (
    estimate_noise_covariance,
    fit_forward_to_file,
    fit_mnf,
    forward_mnf,
    inverse_mnf,
    load_mnf_model,
    save_mnf_model,
)
from conftest import centre_and_covariance
from hypermap.numerics import RandomSource
from hypermap.synthcube import (
    MixingScenario,
    generate,
    random_abundance_field,
    synthetic_mineral_library,
)


def make_cube(values, units="reflectance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


def noise_cube(seed, lines, samples, bands):
    g = RandomSource(seed).gaussians(lines * samples * bands)
    return make_cube(g.reshape(lines, samples, bands))


TESTS = Path(__file__).resolve().parent


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


class TestNoiseBuffer:
    """The differences packed band plane by band plane into one buffer
    give the covariance of the whole-cube differences to the bit."""

    def test_band_major_cube_bits_equal_formula(self):
        planes = np.cumsum(RandomSource(7).gaussians(5 * 9 * 8).reshape(5, 9, 8), axis=2)
        cube = make_cube(planes.transpose(1, 2, 0))
        diffs = np.subtract(cube.values[:, :-1, :], cube.values[:, 1:, :]) / np.sqrt(2.0)
        flat = diffs.reshape(-1, 5)
        centred = flat - flat.mean(axis=0)
        expected = centred.T @ centred / (flat.shape[0] - 1)
        assert estimate_noise_covariance(cube).cov.tobytes() == expected.tobytes()



class TestBlockedSums:
    """The noise and data covariances are merged from the sums of blocks of
    lines; they match the whole-matrix formula to rounding."""

    # Pixel-major, band planes outermost (BSQ) and lines outermost (BIL).
    @pytest.mark.parametrize("axes", [(0, 1, 2), (2, 0, 1), (0, 2, 1)])
    def test_blocked_covariances_match_the_whole_matrix(self, axes, monkeypatch):
        # Blocks of 3 lines, so the 40 lines take 14 blocks.
        monkeypatch.setattr(mnf, "_BLOCK_BYTES", 3 * 8 * 17 * 9)
        rs = RandomSource(41)
        base = rs.gaussians(40 * 17 * 9).reshape(40, 17, 9) * 0.05
        base += np.linspace(1.0, 2.0, 9) * (1.0 + np.sin(np.arange(17) / 5.0))[:, None]
        values = np.ascontiguousarray(base.transpose(axes)).transpose(np.argsort(axes))
        cube = make_cube(values)
        kept = values.copy(order="K")
        diffs = (values[:, :-1, :] - values[:, 1:, :]) / np.sqrt(2.0)
        _, whole_noise = centre_and_covariance(diffs.reshape(-1, 9).copy())
        whole_mean, whole_data = centre_and_covariance(values.reshape(-1, 9).copy())
        noise = estimate_noise_covariance(cube)
        model = fit_mnf(cube, noise)
        assert cube.values.tobytes() == kept.tobytes()
        # Entries that cancel to near zero are held to the matrix's scale.
        for blocked, whole in ((noise.cov, whole_noise), (model.data_cov, whole_data)):
            np.testing.assert_allclose(blocked, whole, rtol=1e-12,
                                       atol=1e-12 * np.abs(whole).max())
        np.testing.assert_allclose(model.band_mean, whole_mean, rtol=1e-12)


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
    """`fit_forward_to_file`, which takes the noise and data sums in one
    pass over the cube and projects and writes it in a second."""

    # (line, sample, band) order, and band planes outermost as a BSQ read gives.
    @pytest.mark.parametrize("axes", [(0, 1, 2), (1, 2, 0)])
    def test_same_bytes_as_fit_then_forward(self, axes, tmp_path):
        rs = RandomSource(23)
        base = rs.gaussians(30 * 20 * 10).reshape(30, 20, 10) + np.linspace(0.0, 9.0, 10)
        base = np.ascontiguousarray(base.transpose(np.argsort(axes)))
        cube = make_cube(base.transpose(axes))
        before = cube.values.copy()
        noise = estimate_noise_covariance(cube)
        model = fit_mnf(cube, noise)
        components = forward_mnf(model, cube)
        assert cube.values.tobytes() == before.tobytes()

        model2 = fit_forward_to_file(cube, tmp_path / "mnf.hdr", keep_k=cube.bands)
        assert cube.values.tobytes() == before.tobytes()
        for name in ("band_mean", "noise_cov", "data_cov", "eigenvalues", "forward",
                     "inverse", "source_wavelengths"):
            assert getattr(model2, name).tobytes() == getattr(model, name).tobytes(), name
        header, payload = write_cube(components)
        assert (tmp_path / "mnf.img").read_bytes() == payload
        assert (tmp_path / "mnf.hdr").read_text() == header

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_cube_on_disk_gives_the_bytes_of_the_cube_in_memory(self, interleave,
                                                                tmp_path, monkeypatch):
        # Blocks of 4 lines; the file's blocks and the cube's are the same.
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", 4 * 8 * 20 * 10)
        monkeypatch.setattr(mnf, "_BLOCK_BYTES", 4 * 8 * 20 * 10)
        rs = RandomSource(5)
        values = rs.gaussians(30 * 20 * 10).reshape(30, 20, 10) * np.linspace(1.0, 4.0, 10)
        axes = envi_io._FILE_AXES[interleave]
        # In memory in the file's order, so that both are summed alike.
        values = np.ascontiguousarray((values + np.linspace(2.0, 3.0, 10)).transpose(axes))
        cube = make_cube(values.transpose(np.argsort(axes)))
        write_cube_file(cube, tmp_path / "refl.hdr", interleave=interleave)
        on_disk = CubeFile(tmp_path / "refl.hdr")
        model = fit_forward_to_file(on_disk, tmp_path / "mnf.hdr", keep_k=on_disk.bands)

        kept = fit_mnf(cube, estimate_noise_covariance(cube))
        assert model.forward.tobytes() == kept.forward.tobytes()
        assert (tmp_path / "mnf.img").read_bytes() == write_cube(forward_mnf(kept, cube))[1]

    def test_ragged_pixel_blocks_equal_one_product(self, monkeypatch):
        # Blocks of 128 pixels over 30 x 21: the 118-pixel remainder joins
        # the last of 4 blocks.
        monkeypatch.setattr(mnf, "_BLOCK_BYTES", 8 * 10 * 128)
        cube = noise_cube(71, 30, 21, 10)
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        centred = cube.pixels() - model.band_mean
        spans = [(p0, block.shape[1]) for p0, block in mnf._pixel_blocks(model, centred, 10)]
        assert spans == [(0, 128), (128, 128), (256, 128), (384, 246)]
        whole = centred @ model.forward.T
        blocked = forward_mnf(model, cube).pixels()
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("keep_k", [1, 2, 10])
    def test_kept_components_equal_leading_planes(self, keep_k, monkeypatch, tmp_path):
        # Ranges of 128 pixels over 30 x 21, a count that is not a multiple
        # of 64. One kept component is projected with a second, as a
        # one-row product may differ from a block's in its last bits; 10
        # (every band) keeps every component.
        monkeypatch.setattr(mnf, "_BLOCK_BYTES", 8 * 10 * 128)
        cube = make_cube(noise_cube(71, 30, 21, 10).values * np.linspace(1.0, 9.0, 10) + 3.0)
        model = fit_forward_to_file(cube, tmp_path / "mnf.hdr", keep_k=keep_k)
        header, payload = write_cube(forward_mnf(model, cube))
        assert (tmp_path / "mnf.img").read_bytes() == payload[:keep_k * 30 * 21 * 8]
        written = envi_io.parse_envi_header((tmp_path / "mnf.hdr").read_text())
        assert (written.bands, written.wavelengths) == (keep_k, list(range(1, keep_k + 1)))
        if keep_k == 10:
            assert (tmp_path / "mnf.hdr").read_text() == header

    @pytest.mark.parametrize("keep_k", [0, 11])
    def test_keep_k_outside_the_bands_is_rejected(self, keep_k, tmp_path):
        with pytest.raises(ValueError, match="keep_k must be in 1..10"):
            fit_forward_to_file(noise_cube(3, 4, 5, 10), tmp_path / "mnf.hdr", keep_k=keep_k)
        assert not (tmp_path / "mnf.hdr").exists()

    def test_component_file_keeps_its_bytes(self, tmp_path):
        # `fit_forward_to_file` on a seeded cube of 96 x 128 pixels and 150
        # bands: 16 blocks of 6 lines (~1 MiB each), whose noise and data
        # sums are merged, each projected as one range of 768 pixels. The
        # digests were recorded from this blocked fit and projection.
        # OpenBLAS splits the covariance products by thread, which moves
        # their last bits, so the fit runs in a process with one BLAS
        # thread, as the benchmark's stages do.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       p for p in (str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")) if p))
        code = f"import test_mnf; test_mnf.fit_seeded_cube({str(tmp_path / 'mnf.hdr')!r})"
        subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env, check=True, timeout=120)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("mnf.img", "mnf.hdr")}
        assert digests == {
            "mnf.img": "8448b294b8c274db67c396e57e5e71132ac6773a67d4ce53c488b876ff251a6f",
            "mnf.hdr": "49f29a2eeee9f6b272d0bb399e5234cf2bfbe2f10a9cad8a7fbf29053d809ec4",
        }


class TestBandScaleInvariance:
    """MNF ranks components by signal-to-noise ratio, which no per-band
    shift or rescale changes, so `fit_forward_to_file` fits a cube as it
    is. Only the noise ridge (1e-10 * trace / b) breaks the invariance, so
    the scales stay within [0.5, 2]: spread over 1 to 100 they moved this
    scene's eigenvalues by 1.3e-6, past the bound."""

    def test_shifted_and_scaled_bands_give_the_same_components(self, tmp_path):
        # A patchy scene as `hypermap synth` makes it (5 x 4 patches of
        # 8 x 8 pixels), so the shift differences see noise and the
        # patches' edges: 6 endmembers on 40 bands give 5 signal components.
        lib = synthetic_mineral_library(6, seed=3)
        picked = np.linspace(0, lib.entries[0].wavelengths.size - 1, 40).astype(int)
        endmembers = np.stack([e.reflectance[picked] for e in lib.entries])
        coarse = random_abundance_field(5, 4, 6, seed=1)
        field = np.repeat(np.repeat(coarse, 8, axis=0), 8, axis=1)
        cube, _ = generate(MixingScenario(
            endmembers=endmembers, wavelengths=lib.entries[0].wavelengths[picked],
            abundance_field=field, noise_relative=0.005, seed=2))
        rng = np.random.default_rng(9)
        moved = cube.copy_with(values=cube.values * rng.uniform(0.5, 2.0, 40)
                               + rng.uniform(-1.0, 1.0, 40))

        model = fit_forward_to_file(cube, tmp_path / "a.hdr", keep_k=40)
        other = fit_forward_to_file(moved, tmp_path / "b.hdr", keep_k=40)
        np.testing.assert_allclose(other.eigenvalues, model.eigenvalues, rtol=1e-7)
        signal = np.flatnonzero(model.eigenvalues > 2.0)
        assert signal.tolist() == [0, 1, 2, 3, 4]
        a, b = (envi_io.read_cube(*envi_io.read_payload(tmp_path / name)).values
                for name in ("a.hdr", "b.hdr"))
        for j in signal:
            x, y = a[:, :, j], b[:, :, j]
            y = y * np.sign(np.sum(x * y))
            assert np.max(np.abs(x - y)) <= 1e-7 * np.max(np.abs(x)), j


def fit_seeded_cube(header_path):
    """Run `fit_forward_to_file` on a seeded 96 x 128 x 150 cube held band
    planes outermost, as a BSQ read gives, writing to `header_path`."""
    planes = RandomSource(29).gaussians(150 * 96 * 128).reshape(150, 96, 128)
    planes += np.linspace(1.0, 3.0, 150)[:, None, None] * np.sin(np.arange(128) / 9.0)
    cube = make_cube(planes.transpose(1, 2, 0))
    fit_forward_to_file(cube, header_path, keep_k=150)


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

    @pytest.mark.parametrize("name", ["wavelengths.csv", "meta.csv"])
    def test_every_bundle_file_is_required(self, tmp_path, name):
        cube = noise_cube(61, 10, 10, 5)
        save_mnf_model(fit_mnf(cube, estimate_noise_covariance(cube)), tmp_path / "model")
        (tmp_path / "model" / name).unlink()
        with pytest.raises(FileNotFoundError, match=name):
            load_mnf_model(tmp_path / "model")
