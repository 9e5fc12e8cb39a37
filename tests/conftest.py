"""Shared fixtures: the synthetic mineral library, the end-to-end
scenario used by the CLI and acceptance tests, and the whole-matrix
covariance reference."""

import numpy as np
import pytest

from hypermap.envi_io import (
    SpectralCube,
    SpectralLibrary,
    parse_envi_header,
    serialize_envi_header,
    write_cube,
    write_spectral_library_file,
)
from hypermap.spectral_match import resample_library, sam_angle
from hypermap.synthcube import synthetic_mineral_library

LIBRARY_SEED = 7
SCENE_BANDS = 60
SCENE_WAVELENGTHS = np.linspace(450.0, 2450.0, SCENE_BANDS)


def write_offset_cube(directory, values, bad_band_mask, interleave, data_type="float64",
                      byte_order="little", offset=0, units_tag="radiance", fwhm=None,
                      wavelengths=True):
    """Write `values` as `directory`/cube.hdr and cube.img, the payload
    after `offset` filler bytes, with wavelengths 500-900 nm (or none) and
    the given fwhm list; returns the header path."""
    header_text, payload = write_cube(SpectralCube(
        values=values, wavelengths=np.linspace(500.0, 900.0, values.shape[2]),
        bad_band_mask=bad_band_mask, units_tag=units_tag), interleave=interleave,
        data_type=data_type, byte_order=byte_order)
    header = parse_envi_header(header_text)
    header.header_offset, header.fwhm = offset, fwhm
    if not wavelengths:
        header.wavelengths = None
    (directory / "cube.hdr").write_text(serialize_envi_header(header))
    (directory / "cube.img").write_bytes(bytes(range(offset)) + payload)
    return directory / "cube.hdr"


def centre_and_covariance(x):
    """Column mean and n-1 sample covariance of the rows of `x` (n, b),
    centring `x` in place: the whole-matrix reference for
    `numerics.Moments`."""
    mu = x.mean(axis=0)
    x -= mu
    return mu, x.T @ x / max(x.shape[0] - 1, 1)


@pytest.fixture(scope="session")
def mineral_library():
    """30 seeded laboratory-style spectra on a 400-2500 nm grid."""
    return synthetic_mineral_library(30, seed=LIBRARY_SEED)


def pick_separated_endmembers(lib, count=5):
    """Greedy max-min selection of mutually distinct entries by SAM angle."""
    spectra = np.stack([e.reflectance for e in lib.entries])
    n = len(lib.entries)
    ang = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ang[i, j] = sam_angle(spectra[i], spectra[j])
    picks = [int(np.argmax(ang.sum(axis=1)))]
    while len(picks) < count:
        best, best_sep = None, -1.0
        for c in range(n):
            if c in picks:
                continue
            sep = min(ang[c][p] for p in picks)
            if sep > best_sep:
                best_sep, best = sep, c
        picks.append(best)
    return picks


@pytest.fixture(scope="session")
def scene_endmember_library(mineral_library):
    """The 5 scene endmembers resampled onto the 60-band scene grid."""
    picks = pick_separated_endmembers(mineral_library, count=5)
    subset = SpectralLibrary(
        entries=[mineral_library.entries[i] for i in picks], source_tag="scene")
    return resample_library(subset, SCENE_WAVELENGTHS)


def write_scenario_inputs(directory, mineral_library, scene_endmember_library):
    """Write the matching library and the scene-grid endmember CSV."""
    write_spectral_library_file(mineral_library, directory / "library.csv")
    write_spectral_library_file(scene_endmember_library, directory / "scene_library.csv")


SCENARIO_CONFIG = """\
input_header = scene.hdr
input_image = scene.img
library_csv = library.csv
output_dir = out
seed = {seed}
reflectance_method = flat_field
flat_field_first_line = 64
flat_field_first_sample = 0
flat_field_n_lines = 4
flat_field_n_samples = 64
roi_n_lines = 64
roi_n_samples = 64
mnf_keep_k = 8
ppi_iterations = {ppi_iterations}
ppi_threshold = 2.5
ppi_max_pixels = 25
ppi_workers = 1
ppi_trace = {ppi_trace}
endmember_k = 5
sam_max_angle = 0.10
synth_lines = 64
synth_samples = 64
synth_block_size = 8
synth_noise_relative = 0.005
synth_pure_per_endmember = 5
synth_library_csv = scene_library.csv
synth_panel_lines = 4
"""


def write_scenario_config(directory, seed=20240, ppi_iterations=10000,
                          ppi_trace=False):
    text = SCENARIO_CONFIG.format(seed=seed, ppi_iterations=ppi_iterations,
                                  ppi_trace="true" if ppi_trace else "false")
    path = directory / "pipeline.cfg"
    path.write_text(text)
    return path
