"""Synthetic scene tests: mixing-model exactness, Dirichlet moments, and
determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from hypermap import synthcube
from hypermap.numerics import RandomSource
from hypermap.synthcube import (
    MixingScenario,
    generate,
    plant_pure_pixels,
    random_abundance_field,
    synthetic_mineral_library,
)


def simple_endmembers():
    return np.array([[0.8, 0.2, 0.5],
                     [0.1, 0.9, 0.4]]), np.array([500.0, 600.0, 700.0])


class TestGenerate:
    def test_one_hot_noise_free_reproduces_endmembers(self):
        endmembers, wl = simple_endmembers()
        field = np.zeros((1, 2, 2))
        field[0, 0, 0] = 1.0
        field[0, 1, 1] = 1.0
        scenario = MixingScenario(endmembers=endmembers, wavelengths=wl,
                                  abundance_field=field, noise_sigma=0.0,
                                  pure_pixel_plan=[(0, 0, 0), (0, 1, 1)], seed=1)
        cube, truth = generate(scenario)
        assert np.array_equal(cube.values[0, 0], endmembers[0])
        assert np.array_equal(cube.values[0, 1], endmembers[1])
        assert truth.pure_pixels == [(0, 0, 0), (0, 1, 1)]
        assert cube.units_tag == "radiance"

    def test_even_mixture_is_midpoint(self):
        endmembers, wl = simple_endmembers()
        field = np.full((1, 1, 2), 0.5)
        scenario = MixingScenario(endmembers=endmembers, wavelengths=wl,
                                  abundance_field=field, noise_sigma=0.0, seed=0)
        cube, _ = generate(scenario)
        assert np.allclose(cube.values[0, 0], endmembers.mean(axis=0))

    def test_same_seed_identical_cubes(self):
        endmembers, wl = simple_endmembers()
        field = random_abundance_field(4, 4, 2, seed=9)
        args = dict(endmembers=endmembers, wavelengths=wl,
                    abundance_field=field, noise_sigma=0.05, seed=33)
        cube1, _ = generate(MixingScenario(**args))
        cube2, _ = generate(MixingScenario(**args))
        assert np.array_equal(cube1.values, cube2.values)

    def test_noise_equals_whole_cube_formula(self):
        # More draws than one noise block, so the seam is crossed.
        rng = np.random.default_rng(4)
        endmembers = rng.uniform(0.1, 0.9, size=(3, 300))
        wl = np.linspace(400.0, 2500.0, 300)
        field = random_abundance_field(24, 24, 3, seed=12)
        assert field.size // 3 * 300 > synthcube._NOISE_BLOCK
        cube, _ = generate(MixingScenario(endmembers=endmembers, wavelengths=wl,
                                          abundance_field=field, noise_sigma=0.03,
                                          seed=21))
        clean = (field.reshape(-1, 3) @ endmembers).reshape(24, 24, 300)
        g = RandomSource(21).gaussians(clean.size).reshape(clean.shape)
        assert cube.values.tobytes() == (clean + 0.03 * g).tobytes()

    @pytest.mark.parametrize("lo", [0.0, -0.3])
    def test_relative_noise_is_a_fraction_of_the_mean_absolute_mixture(self, lo):
        # Non-negative endmembers take |mean| of the one mixture; others
        # the mean of its absolute values. Both give the whole-cube bits.
        rng = np.random.default_rng(9)
        endmembers = rng.uniform(lo, 0.9, size=(3, 40))
        if lo == 0.0:
            endmembers[0, :5] = -0.0  # in a library's [0, 1.5] range
        wl = np.linspace(400.0, 2500.0, 40)
        field = plant_pure_pixels(random_abundance_field(8, 8, 3, seed=2), [(0, 0, 0)])
        cube, truth = generate(MixingScenario(endmembers=endmembers, wavelengths=wl,
                                              abundance_field=field, noise_sigma=0.5,
                                              noise_relative=0.02, seed=4))
        clean = (field.reshape(-1, 3) @ endmembers).reshape(8, 8, 40)
        sigma = 0.02 * float(np.mean(np.abs(clean)))
        assert truth.noise_sigma == sigma
        g = RandomSource(4).gaussians(clean.size).reshape(clean.shape)
        assert cube.values.tobytes() == (clean + sigma * g).tobytes()

    def test_relative_noise_on_an_all_zero_mixture_is_positive_zero(self):
        endmembers = np.array([[0.0, -0.0], [-0.0, -0.0]])
        _, truth = generate(MixingScenario(endmembers=endmembers, wavelengths=[1.0, 2.0],
                                           abundance_field=np.full((2, 2, 2), 0.5),
                                           noise_relative=0.1))
        assert truth.noise_sigma == 0.0 and math.copysign(1.0, truth.noise_sigma) == 1.0

    def test_relative_noise_mixes_one_cube(self):
        # The mixture, one block of noise draws with the draw buffers, and
        # the abundance copy; mixing a second cube for sigma would add
        # cube_bytes.
        rng = np.random.default_rng(1)
        endmembers = rng.uniform(0.1, 0.9, size=(3, 256))
        field = random_abundance_field(64, 64, 3, seed=5)
        scenario = MixingScenario(endmembers=endmembers, wavelengths=np.arange(256.0),
                                  abundance_field=field, noise_relative=0.01, seed=3)
        cube_bytes = 8 * 64 * 64 * 256
        tracemalloc.start()
        try:
            generate(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cube_bytes + (4 << 20)

    def test_bad_abundances_rejected(self):
        endmembers, wl = simple_endmembers()
        field = np.full((1, 1, 2), 0.4)  # sums to 0.8
        with pytest.raises(ValueError, match="sum to 1"):
            MixingScenario(endmembers=endmembers, wavelengths=wl,
                           abundance_field=field, noise_sigma=0.0, seed=0)

    def test_pure_plan_must_be_one_hot(self):
        endmembers, wl = simple_endmembers()
        field = np.full((1, 1, 2), 0.5)
        with pytest.raises(ValueError, match="one-hot"):
            MixingScenario(endmembers=endmembers, wavelengths=wl,
                           abundance_field=field, noise_sigma=0.0,
                           pure_pixel_plan=[(0, 0, 0)], seed=0)

    def test_noise_free_pixels_lie_in_convex_hull(self):
        rng_field = random_abundance_field(6, 6, 3, seed=77)
        endmembers = np.array([[0.9, 0.1, 0.3, 0.6],
                               [0.2, 0.8, 0.5, 0.1],
                               [0.4, 0.4, 0.9, 0.9]])
        wl = np.array([500.0, 600.0, 700.0, 800.0])
        scenario = MixingScenario(endmembers=endmembers, wavelengths=wl,
                                  abundance_field=rng_field, noise_sigma=0.0, seed=0)
        cube, truth = generate(scenario)
        # solve the mixture residual per pixel with an independent solver
        for i in range(36):
            pixel = cube.pixels()[i]
            coeff, residual, _, _ = np.linalg.lstsq(endmembers.T, pixel, rcond=None)
            reconstructed = endmembers.T @ coeff
            assert np.max(np.abs(reconstructed - pixel)) < 1e-10
            assert np.min(coeff) > -1e-10
            assert abs(coeff.sum() - 1.0) < 1e-10


class TestAbundanceField:
    def test_k1_all_ones(self):
        field = random_abundance_field(3, 3, 1, seed=0)
        assert np.all(field == 1.0)

    def test_sums_to_one(self):
        field = random_abundance_field(10, 10, 5, seed=4)
        assert np.max(np.abs(field.sum(axis=2) - 1.0)) < 1e-12
        assert np.min(field) >= 0.0

    def test_dirichlet_component_means(self):
        field = random_abundance_field(100, 100, 4, seed=12)
        means = field.reshape(-1, 4).mean(axis=0)
        assert np.max(np.abs(means - 0.25)) < 0.02

    def test_determinism(self):
        a = random_abundance_field(5, 7, 3, seed=2)
        b = random_abundance_field(5, 7, 3, seed=2)
        assert np.array_equal(a, b)


class TestPlantPurePixels:
    def test_plants_one_hot(self):
        field = random_abundance_field(4, 4, 3, seed=5)
        planted = plant_pure_pixels(field, [(1, 2, 0), (3, 3, 2)])
        assert list(planted[1, 2]) == [1.0, 0.0, 0.0]
        assert list(planted[3, 3]) == [0.0, 0.0, 1.0]
        # other pixels untouched
        assert np.array_equal(planted[0, 0], field[0, 0])


class TestSyntheticLibrary:
    def test_shape_and_range(self):
        lib = synthetic_mineral_library(12, seed=3)
        assert len(lib.entries) == 12
        for entry in lib.entries:
            assert entry.reflectance.min() > 0.0
            assert entry.reflectance.max() <= 1.45
        assert len(set(lib.names())) == 12

    def test_deterministic(self):
        a = synthetic_mineral_library(5, seed=11)
        b = synthetic_mineral_library(5, seed=11)
        for e1, e2 in zip(a.entries, b.entries):
            assert np.array_equal(e1.reflectance, e2.reflectance)
