"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The end-to-end scenario: a 64x64x60 scene mixed from 5 library
endmembers with flat-Dirichlet abundances, 25 planted pure pixels and
0.5% noise, driven through the staged CLI with the stock pure-pixel
parameters (threshold 2.5, 10000 iterations).
"""

import csv
import time

import numpy as np
import pytest

from conftest import write_scenario_config, write_scenario_inputs
from hypermap import cli
from hypermap.artifacts import read_endmembers
from hypermap.envi_io import (
    DATA_TYPE_CODES,
    SpectralCube,
    parse_envi_header,
    read_cube,
    serialize_envi_header,
    write_cube,
)
from hypermap.mapping import matched_filter, mtmf
from hypermap.mnf import estimate_noise_covariance, fit_mnf, forward_mnf, inverse_mnf
from hypermap.numerics import RandomSource, symmetric_eig
from hypermap.ppi import PpiParams, run_ppi
from hypermap.spectral_match import rank_matches, resample_library, sam_angle
from test_mapping import make_cube as make_mnf_like_cube
from test_mapping import plant_on_segment
from test_numerics import (
    cubic_eigenvalues,
    quadratic_eigenvalues,
    reference_splitmix64_stream,
)
from test_ppi import naive_ppi_counts


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, mineral_library, scene_endmember_library):
    """Run the full scenario once; several criteria read its artifacts."""
    work = tmp_path_factory.mktemp("acceptance")
    write_scenario_inputs(work, mineral_library, scene_endmember_library)
    cfg = write_scenario_config(work, seed=20240, ppi_iterations=10000)
    start = time.perf_counter()
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    assert cli.main(["all", "--config", str(cfg)]) == 0
    elapsed = time.perf_counter() - start
    return work, elapsed


def test_criterion_1_end_to_end_recovery(pipeline_run, scene_endmember_library):
    work, elapsed = pipeline_run
    rows = list(csv.reader((work / "out" / "match_summary.csv").open()))[1:]
    top_by_class = {int(r[0]): r[1] for r in rows}
    planted = {e.name for e in scene_endmember_library.entries}
    missing = planted - set(top_by_class.values())
    ok = not missing and elapsed < 60.0
    report(1, ok,
           f"planted minerals all top-ranked ({sorted(top_by_class.values())}); "
           f"pipeline took {elapsed:.1f}s (< 60s)" if ok else
           f"missing {missing}, elapsed {elapsed:.1f}s")


def test_criterion_2_endmember_fidelity(pipeline_run, scene_endmember_library):
    work, _ = pipeline_run
    names, _, spectra = read_endmembers(work / "out" / "endmembers.csv")
    worst = 0.0
    for entry in scene_endmember_library.entries:
        best = min(sam_angle(mean, entry.reflectance) for mean in spectra)
        worst = max(worst, best)
    report(2, worst <= 0.05,
           f"every planted endmember within SAM angle {worst:.4f} rad (<= 0.05)")


def test_criterion_3_mnf_round_trip():
    rng_seeds = (61, 62, 63)
    worst_rel = 0.0
    monotone = True
    for seed in rng_seeds:
        rs = RandomSource(seed)
        lines, samples, bands = 12, 14, 8
        base = rs.gaussians(lines * samples * bands).reshape(lines, samples, bands)
        ramp = np.linspace(0.0, 3.0, lines)[:, None, None]
        values = base + ramp * rs.gaussians(bands)[None, None, :]
        cube = SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                            bad_band_mask=np.ones(bands, bool), units_tag="reflectance")
        model = fit_mnf(cube, estimate_noise_covariance(cube))
        monotone &= bool(np.all(np.diff(model.eigenvalues) <= 1e-12))
        back = inverse_mnf(model, forward_mnf(model, cube), keep_k=bands)
        rel = np.max(np.abs(back.values - cube.values)) / np.max(np.abs(cube.values))
        worst_rel = max(worst_rel, float(rel))

    rs = RandomSource(5)
    noise = rs.gaussians(64 * 64 * 30).reshape(64, 64, 30)
    noise_cube = SpectralCube(values=noise, wavelengths=np.arange(1.0, 31.0),
                              bad_band_mask=np.ones(30, bool), units_tag="reflectance")
    model = fit_mnf(noise_cube, estimate_noise_covariance(noise_cube))
    eig_dev = float(np.max(np.abs(model.eigenvalues - 1.0)))

    ok = worst_rel < 1e-7 and monotone and eig_dev < 0.15
    report(3, ok, f"round-trip rel err {worst_rel:.2e} (< 1e-7), eigenvalues "
                  f"non-increasing={monotone}, pure-noise max|eig-1|={eig_dev:.3f} (< 0.15)")


def test_criterion_4_ppi_correctness():
    rng = np.random.default_rng(44)
    corners = np.diag([11.0, 9.0, 13.0, 10.0])[:4, :4] + 1.0
    pixels = [corners[i] for i in range(4)]
    for _ in range(60):
        w = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        pixels.append(w @ corners)
    values = np.array(pixels).reshape(8, 8, 4)
    cube = SpectralCube(values=values, wavelengths=np.arange(1.0, 5.0),
                        bad_band_mask=np.ones(4, bool), units_tag="mnf_component")

    params = PpiParams(n_iterations=400, threshold=0.0, seed=4)
    image = run_ppi(cube, params)
    oracle = naive_ppi_counts(values.reshape(-1, 4), 4, 400, 0.0)
    counts = image.counts.ravel()
    top4 = set(np.argsort(-counts)[:4])
    oracle_ok = np.array_equal(counts, oracle)
    corners_ok = top4 == {0, 1, 2, 3} and np.all(counts[4:] == 0)

    params_stock = PpiParams(n_iterations=2000, threshold=2.5, seed=17)
    serial = run_ppi(cube, params_stock, n_workers=1)
    parallel = run_ppi(cube, params_stock, n_workers=8)
    det_ok = serial.counts.tobytes() == parallel.counts.tobytes()

    report(4, oracle_ok and corners_ok and det_ok,
           f"skewer oracle match={oracle_ok}, corners hold top-k={corners_ok}, "
           f"1-vs-8-worker byte-identical={det_ok}")


def hyperion_like_grid():
    """196 strictly increasing sensor wavelengths (50 VNIR + 146 SWIR)."""
    vnir = [355.59 + 10.1752 * (band - 1) for band in range(8, 58)]
    swir = [851.92 + 10.0857 * (band - 71) for band in range(79, 225)]
    return np.array(vnir + swir)


def test_criterion_5_analyst_self_match(mineral_library):
    grid = hyperion_like_grid()
    assert grid.size == 196 and np.all(np.diff(grid) > 0)
    resampled = resample_library(mineral_library, grid)
    worst_self = 3.0
    self_first = True
    for rec in resampled.entries:
        scores = rank_matches(rec.reflectance, resampled)
        self_first &= scores[0].mineral_name == rec.name
        mine = next(s for s in scores if s.mineral_name == rec.name)
        worst_self = min(worst_self, mine.weighted)

    # disjoint-absorption pair: mutual scores must be strictly lower
    dip_a = 0.5 * np.exp(-0.5 * ((grid - 700.0) / 40.0) ** 2)
    dip_b = 0.5 * np.exp(-0.5 * ((grid - 2100.0) / 40.0) ** 2)
    spec_a = 0.8 * (1.0 - dip_a)
    spec_b = 0.8 * (1.0 - dip_b)
    from hypermap.envi_io import SpectralLibrary, SpectrumRecord
    pair = SpectralLibrary(entries=[
        SpectrumRecord("feat_a", grid, spec_a, usable=np.ones(196, bool)),
        SpectrumRecord("feat_b", grid, spec_b, usable=np.ones(196, bool))])
    cross = rank_matches(spec_a, pair)
    cross_score = next(s for s in cross if s.mineral_name == "feat_b").weighted
    self_score = next(s for s in cross if s.mineral_name == "feat_a").weighted

    ok = (self_first and abs(worst_self - 3.0) <= 1e-9
          and cross_score < self_score - 1e-6)
    report(5, ok, f"30/30 self-matches rank 1 at weighted {worst_self:.12f} "
                  f"(= 3.000 +/- 1e-9); orthogonal pair scores "
                  f"{cross_score:.3f} < {self_score:.3f}")


def test_criterion_6_matched_filter_calibration():
    from test_mapping import background_cube
    cube = background_cube(seed=211, lines=20, samples=20, bands=6)
    target = cube.pixels()[3].copy()
    fractions = np.linspace(0.0, 1.0, 11)
    plants = {(0, j): float(s) for j, s in enumerate(fractions)}
    values, _ = plant_on_segment(cube.values, plants, target)
    cube2 = make_mnf_like_cube(values, units="mnf_component")
    scores = matched_filter(cube2, target)
    # the planted row carries mean (s=0), target (s=1) and the segment
    mf_mean = scores[0, 0]
    mf_target = scores[0, 10]
    linear_dev = float(np.max(np.abs(scores[0, :11] - fractions)))

    rs = RandomSource(31415)
    wins = 0
    for trial in range(100):
        bg = background_cube(seed=5000 + trial, lines=12, samples=12, bands=5)
        t = bg.pixels()[int(rs.next_uniform() * 144)].copy()
        mu = bg.pixels().mean(axis=0)
        direction = t - mu
        if float(direction @ direction) == 0.0:
            t = t + 1.0
            direction = t - mu
        probe = rs.gaussians(5)
        ortho = probe - (probe @ direction) / (direction @ direction) * direction
        s = 0.3 + 0.6 * rs.next_uniform()
        vals, mu_fixed = plant_on_segment(bg.values, {(0, 0): s}, t)
        vals[0, 1] = vals[0, 0] + 2.0 * ortho
        result = mtmf(make_mnf_like_cube(vals, units="mnf_component"), t)
        wins += result.infeasibility[0, 1] > result.infeasibility[0, 0]

    ok = (abs(mf_mean) <= 1e-9 and abs(mf_target - 1.0) <= 1e-9
          and linear_dev <= 1e-9 and wins == 100)
    report(6, ok, f"MF(mean)={mf_mean:.2e}, MF(target)-1={mf_target - 1.0:.2e}, "
                  f"max segment deviation {linear_dev:.2e} (all <= 1e-9); "
                  f"infeasibility ordering {wins}/100")


def test_criterion_7_io_round_trip():
    rng = np.random.default_rng(7788)
    interleaves = ("bsq", "bil", "bip")
    dtypes = list(DATA_TYPE_CODES)
    byte_orders = ("little", "big")
    failures = 0
    for trial in range(200):
        lines, samples, bands = (int(v) for v in rng.integers(1, 6, size=3))
        dtype = dtypes[trial % len(dtypes)]
        interleave = interleaves[trial % 3]
        byte_order = byte_orders[trial % 2]
        if dtype in ("float32", "float64"):
            values = rng.normal(size=(lines, samples, bands))
            if dtype == "float32":
                values = values.astype(np.float32).astype(np.float64)
        else:
            info = np.iinfo(dtype)
            lo, hi = max(info.min, -5000), min(info.max, 5000)
            values = rng.integers(lo, hi + 1, size=(lines, samples, bands)).astype(float)
        cube = SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                            bad_band_mask=np.ones(bands, bool), units_tag="radiance")
        text, payload = write_cube(cube, interleave, dtype, byte_order)
        header = parse_envi_header(text)
        back = read_cube(header, payload)
        text2, payload2 = write_cube(back, interleave, dtype, byte_order)
        if not (np.array_equal(back.values, values) and payload2 == payload):
            failures += 1
        header2 = parse_envi_header(serialize_envi_header(header))
        if header2 != header:
            failures += 1
    report(7, failures == 0,
           f"200 randomized cubes round-tripped exactly across interleaves/"
           f"types/byte orders; header parse-serialize-parse fixed point "
           f"({failures} failures)")


def test_criterion_8_numerics_oracles():
    rng = np.random.default_rng(88)
    worst = 0.0
    for trial in range(1000):
        n = 2 if trial % 2 == 0 else 3
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2.0
        values, _ = symmetric_eig(m)
        expected = quadratic_eigenvalues(m) if n == 2 else cubic_eigenvalues(m)
        scale = max(1.0, float(np.abs(m).max()))
        worst = max(worst, float(np.max(np.abs(values - expected))) / scale)
    eig_ok = worst < 1e-8

    stream_ok = True
    for seed in (0, 1, 0xDEADBEEF):
        rs = RandomSource(seed)
        got = [rs.next_raw() for _ in range(1000)]
        stream_ok &= got == reference_splitmix64_stream(seed, 1000)

    report(8, eig_ok and stream_ok,
           f"eigensolver vs characteristic-polynomial oracle on 1000 matrices "
           f"(worst {worst:.2e} < 1e-8); splitmix64 matches reference stream "
           f"for seeds 0, 1, 0xDEADBEEF x 1000 outputs")


def test_criterion_9_parameter_fidelity(tmp_path):
    assert cli.main(["init", "--out", str(tmp_path)]) == 0
    cfg = cli.load_config(str(tmp_path / "default.cfg"))
    mask_rows = list(csv.reader((tmp_path / "hyperion_bad_bands.csv").open()))[1:]
    gain_rows = list(csv.reader((tmp_path / "hyperion_gains.csv").open()))[1:]
    checks = {
        "242-band mask": len(mask_rows) == 242,
        "242-band gains": len(gain_rows) == 242,
        "keep ranges 8-57/79-224": all(
            (int(r[1]) == 1) == (8 <= int(r[0]) <= 57 or 79 <= int(r[0]) <= 224)
            for r in mask_rows),
        "gain split 40/80 at band 70": all(
            float(r[1]) == (40.0 if int(r[0]) <= 70 else 80.0) for r in gain_rows),
        "mnf_keep_k 48": cfg.mnf_keep_k == 48,
        "ppi threshold 2.5": cfg.ppi_threshold == 2.5,
        "ppi iterations 10000": cfg.ppi_iterations == 10000,
        "endmember k 48": cfg.endmember_k == 48,
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(9, not bad, "default config carries the stock parameters "
                       f"({', '.join(checks)})" if not bad else f"failed: {bad}")
