"""Spectral matching tests: resampling, angle metrics, continuum removal
against a brute-force chord oracle, feature fitting against closed-form
least squares, and the combined ranking against a per-pair oracle."""

import numpy as np
import pytest

from hypermap import spectral_match
from hypermap.envi_io import SpectralLibrary, SpectrumRecord, write_spectral_library_file
from hypermap.spectral_match import (
    AnalystWeights,
    be_score,
    binary_encode,
    continuum_remove,
    prepare_library,
    rank_matches,
    resample_library,
    sam_angle,
    sff_score,
)
from hypermap.synthcube import synthetic_mineral_library


def brute_force_upper_hull(x, y):
    """Upper hull via the chord envelope: at each band, the max over every
    pair chord (and the point itself)."""
    n = len(x)
    hull = np.array(y, dtype=float)
    for i in range(n):
        for j in range(n):
            for m in range(j + 1, n):
                if x[j] <= x[i] <= x[m]:
                    t = (x[i] - x[j]) / (x[m] - x[j])
                    chord = y[j] + t * (y[m] - y[j])
                    hull[i] = max(hull[i], chord)
    return hull


def lib_of(records):
    return SpectralLibrary(entries=records)


def dip_library(centers=(700.0, 950.0, 1200.0)):
    """One Gaussian absorption per entry on a shared 24-band grid."""
    wl = np.linspace(500.0, 1500.0, 24)
    records = []
    for i, center in enumerate(centers):
        dip = 0.5 * np.exp(-0.5 * ((wl - center) / 50.0) ** 2)
        records.append(SpectrumRecord(f"min_{i}", wl, 0.8 * (1.0 - dip)))
    return resample_library(lib_of(records), wl)


class TestResample:
    def test_identity_on_same_grid(self):
        wl = np.array([500.0, 600.0, 700.0, 800.0])
        rec = SpectrumRecord("a", wl, np.array([0.2, 0.4, 0.3, 0.5]))
        out = resample_library(lib_of([rec]), wl)
        assert np.array_equal(out.entries[0].reflectance, rec.reflectance)
        assert out.entries[0].usable.all()

    def test_linear_midpoint(self):
        rec = SpectrumRecord("a", np.array([500.0, 700.0]), np.array([0.2, 0.4]))
        out = resample_library(lib_of([rec]), np.array([500.0, 600.0, 650.0, 700.0]))
        assert out.entries[0].reflectance[1] == pytest.approx(0.3)
        assert out.entries[0].reflectance[2] == pytest.approx(0.35)

    def test_out_of_range_flagged_unusable(self):
        wl = np.linspace(400.0, 2500.0, 22)
        rec = SpectrumRecord("a", wl, np.full(22, 0.5))
        targets = np.array([450.0, 900.0, 1500.0, 2100.0, 2600.0])
        out = resample_library(lib_of([rec]), targets)
        assert list(out.entries[0].usable) == [True, True, True, True, False]
        assert np.isnan(out.entries[0].reflectance[-1])

    def test_insufficient_overlap(self):
        rec = SpectrumRecord("a", np.array([500.0, 510.0, 520.0, 530.0]),
                             np.array([0.2, 0.3, 0.4, 0.5]))
        targets = np.array([505.0, 515.0, 525.0, 900.0, 1000.0])
        with pytest.raises(ValueError, match="fewer than 4"):
            resample_library(lib_of([rec]), targets)


class TestSamAngle:
    def test_orthogonal(self):
        assert sam_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)

    def test_scale_invariance(self):
        s = np.array([0.3, 0.7, 0.2])
        assert sam_angle(s, 3.0 * s) == pytest.approx(0.0, abs=1e-7)

    def test_forty_five_degrees(self):
        assert sam_angle([1.0, 1.0], [1.0, 0.0]) == pytest.approx(np.pi / 4)

    def test_identical_is_exactly_zero(self):
        s = np.array([0.31, 0.72, 0.18, 0.55])
        assert sam_angle(s, s.copy()) == 0.0

    def test_symmetry(self):
        a = np.array([0.1, 0.9, 0.4])
        b = np.array([0.7, 0.2, 0.5])
        assert sam_angle(a, b) == pytest.approx(sam_angle(b, a), abs=0)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            sam_angle([0.0, 0.0], [1.0, 1.0])

    def test_score_mapping(self):
        scores = spectral_match._sam_scores(np.array([0.0, np.pi / 2, np.pi, np.pi / 4]))
        assert scores[0] == 1.0
        assert scores[1] == 0.0
        assert scores[2] == 0.0
        assert scores[3] == pytest.approx(0.5)


class TestContinuumRemoval:
    def test_linear_spectrum_is_flat_one(self):
        wl = np.array([500.0, 600.0, 700.0])
        out = continuum_remove(wl, np.array([0.2, 0.3, 0.4]))
        assert np.allclose(out, 1.0, atol=1e-12)
        assert out[0] == 1.0 and out[-1] == 1.0

    def test_single_absorption(self):
        wl = np.array([500.0, 600.0, 700.0])
        out = continuum_remove(wl, np.array([1.0, 0.5, 1.0]))
        assert np.allclose(out, [1.0, 0.5, 1.0])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            continuum_remove([500.0, 600.0], [0.5, 0.0])

    def test_random_spectra_against_chord_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            wl = np.sort(rng.uniform(400.0, 2500.0, size=n))
            while np.any(np.diff(wl) <= 0):
                wl = np.sort(rng.uniform(400.0, 2500.0, size=n))
            y = rng.uniform(0.1, 1.0, size=n)
            out = continuum_remove(wl, y)
            hull = brute_force_upper_hull(wl, y)
            assert np.max(np.abs(out - y / hull)) < 1e-12
            assert np.all(out <= 1.0 + 1e-12)
            assert out[0] == 1.0 and out[-1] == 1.0

    def test_stack_equals_rows_removed_alone(self):
        rng = np.random.default_rng(15)
        wl = np.sort(rng.uniform(400.0, 2500.0, size=17))
        rows = rng.uniform(0.1, 1.0, size=(40, 17))
        # exact collinear runs and plateaus exercise the kept-collinear rule
        rows[0] = np.linspace(0.2, 0.6, 17)
        rows[1] = 0.5
        rows[2, 4:9] = 0.95
        out = continuum_remove(wl, rows)
        assert out.shape == rows.shape
        alone = np.stack([continuum_remove(wl, row) for row in rows])
        assert out.tobytes() == alone.tobytes()
        for row, removed in zip(rows, out):
            hull = brute_force_upper_hull(wl, row)
            assert np.max(np.abs(removed - row / hull)) < 1e-12
        assert continuum_remove(wl, rows[:0]).shape == (0, 17)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 1), (3, -1), (3, 1)])
    def test_blocked_division_equals_rows_removed_alone(self, blocks, extra):
        # The chord division runs a block of rows at a time; stacks just
        # short of and just past a whole number of blocks.
        rng = np.random.default_rng(16)
        wl = np.sort(rng.uniform(400.0, 2500.0, size=33))
        rows = rng.uniform(0.1, 1.0, size=(blocks * spectral_match._DIVIDE_BLOCK_ROWS + extra, 33))
        rows[::5, 10:20] = 0.9  # plateaus: collinear hull points
        out = continuum_remove(wl, rows)
        alone = np.stack([continuum_remove(wl, row) for row in rows])
        assert out.tobytes() == alone.tobytes()

    def test_stack_messages(self):
        with pytest.raises(ValueError, match="positive"):
            continuum_remove([500.0, 600.0], [[0.5, 0.4], [0.5, 0.0]])
        with pytest.raises(ValueError, match="equal-length"):
            continuum_remove([500.0, 600.0], [[0.5, 0.4, 0.3]])


class TestSff:
    def wl(self):
        return np.linspace(500.0, 900.0, 21)

    def reference(self):
        wl = self.wl()
        dip = 0.4 * np.exp(-0.5 * ((wl - 700.0) / 40.0) ** 2)
        return 0.8 * (1.0 - dip)

    def test_self_match(self):
        ref = self.reference()
        score, scale, rms = sff_score(self.wl(), ref, ref)
        assert score == 1.0
        assert scale == 1.0
        assert rms == 0.0

    def test_flat_unknown_scores_zero(self):
        ref = self.reference()
        flat = np.full_like(ref, 0.6)
        score, scale, rms = sff_score(self.wl(), flat, ref)
        assert scale == pytest.approx(0.0, abs=1e-12)
        assert score == 0.0

    def test_half_depth_scale(self):
        wl = self.wl()
        ref = self.reference()
        ref_cr = continuum_remove(wl, ref)
        unknown = 1.0 - 0.5 * (1.0 - ref_cr)
        score, scale, rms = sff_score(wl, unknown, ref)
        # closed-form least squares on the constructed depths
        dr = 1.0 - ref_cr
        expected_scale = float((0.5 * dr * dr).sum() / (dr * dr).sum())
        assert scale == pytest.approx(expected_scale, abs=1e-9)
        assert scale == pytest.approx(0.5, abs=1e-9)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_flat_reference_errors(self):
        wl = self.wl()
        flat = np.full(21, 0.7)
        with pytest.raises(ValueError, match="featureless"):
            sff_score(wl, self.reference(), flat)


class TestBinaryEncoding:
    def test_bits_against_mean(self):
        assert list(binary_encode([0.2, 0.8])) == [False, True]

    def test_identical_score_one(self):
        s = np.array([0.2, 0.5, 0.9, 0.1])
        assert be_score(s, s) == 1.0

    def test_complement_scores_zero(self):
        a = np.array([0.0, 1.0, 0.0, 1.0])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        assert be_score(a, b) == 0.0


class TestRankMatches:
    def library(self):
        return dip_library()

    def test_self_match_is_rank_one_with_full_score(self):
        lib = self.library()
        for rec in lib.entries:
            scores = rank_matches(rec.reflectance, lib)
            assert scores[0].mineral_name == rec.name
            assert scores[0].weighted == pytest.approx(3.0, abs=1e-9)

    def test_degenerate_weights_follow_sam(self):
        lib = self.library()
        unknown = lib.entries[0].reflectance * 0.9 + lib.entries[1].reflectance * 0.1
        sam_only = rank_matches(unknown, lib, AnalystWeights(1.0, 0.0, 0.0))
        by_angle = sorted(lib.entries,
                          key=lambda r: sam_angle(unknown, r.reflectance))
        assert [m.mineral_name for m in sam_only] == [r.name for r in by_angle]

    def test_weighted_combination(self):
        lib = self.library()
        weights = AnalystWeights(2.0, 0.5, 1.0)
        scores = rank_matches(lib.entries[1].reflectance, lib, weights)
        top = scores[0]
        assert top.weighted == pytest.approx(
            2.0 * top.sam_score + 0.5 * top.sff_score + 1.0 * top.be_score)

    def test_empty_library(self):
        with pytest.raises(ValueError, match="empty"):
            rank_matches(np.ones(4), SpectralLibrary(entries=[]))

    def test_scaling_unknown_does_not_change_order(self):
        lib = self.library()
        unknown = 0.6 * lib.entries[2].reflectance + 0.4 * lib.entries[0].reflectance
        base = [m.mineral_name for m in rank_matches(unknown, lib)]
        scaled = [m.mineral_name for m in rank_matches(4.2 * unknown, lib)]
        assert base == scaled

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            AnalystWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            AnalystWeights(-1.0, 1.0, 1.0)


def oracle_continuum(wavelengths, values):
    if np.any(values <= 0):
        raise ValueError("continuum removal requires positive values")
    return values / brute_force_upper_hull(wavelengths, values)


def oracle_rank(unknown, lib, weights=AnalystWeights()):
    """The per-pair scorer: SAM, SFF and BE of one (unknown, entry) pair at
    a time, with np.dot products and chord-oracle continua."""
    unknown = np.asarray(unknown, dtype=np.float64)
    scores = []
    for rec in lib.entries:
        usable = rec.usable if rec.usable is not None else np.ones(unknown.size, bool)
        wl, u, r = rec.wavelengths[usable], unknown[usable], rec.reflectance[usable]
        uu, rr = float(np.dot(u, u)), float(np.dot(r, r))
        if uu == 0.0 or rr == 0.0:
            raise ValueError("cannot take the angle of a zero spectrum")
        angle = np.arccos(np.clip(np.dot(u, r) / np.sqrt(uu * rr), -1.0, 1.0))
        s_sam = float(np.clip(1.0 - angle / (np.pi / 2), 0.0, 1.0))
        try:
            du = 1.0 - oracle_continuum(wl, u)
            dr = 1.0 - oracle_continuum(wl, r)
            denom = float(np.dot(dr, dr))
            if denom == 0.0:
                raise ValueError("featureless")
            scale = float(np.dot(du, dr)) / denom
            rms = float(np.sqrt(np.mean((du - scale * dr) ** 2)))
            fit = np.clip(scale, 0.0, 1.0) * (1.0 - rms / float(dr.mean()))
            s_sff = float(np.clip(fit, 0.0, 1.0))
        except ValueError:
            s_sff = 0.0
        s_be = float(np.mean((u > u.mean()) == (r > r.mean())))
        weighted = weights.w_sam * s_sam + weights.w_sff * s_sff + weights.w_be * s_be
        scores.append((rec.name, s_sam, s_sff, s_be, weighted))
    scores.sort(key=lambda m: (-m[4], m[0]))
    return scores


def printed_cells(scores):
    """The cells `write_rankings` prints, in rank order."""
    return [(name,) + tuple(f"{v:.6f}" for v in values) for name, *values in scores]


def as_tuples(scores):
    return [(m.mineral_name, m.sam_score, m.sff_score, m.be_score, m.weighted)
            for m in scores]


def mixed_library():
    """Entries on three source ranges, so the resampled library has three
    usable masks, plus a featureless and a non-positive entry."""
    grid = np.linspace(500.0, 1500.0, 24)
    wide = np.linspace(450.0, 1550.0, 40)
    short = np.linspace(450.0, 1200.0, 30)
    late = np.linspace(800.0, 1550.0, 30)
    records = []
    for i, (wl, center) in enumerate([(wide, 700.0), (wide, 1000.0), (short, 900.0),
                                      (short, 650.0), (late, 1300.0), (late, 1000.0)]):
        dip = 0.45 * np.exp(-0.5 * ((wl - center) / 60.0) ** 2)
        tilt = 0.1 * (wl - wl[0]) / (wl[-1] - wl[0])
        records.append(SpectrumRecord(f"min_{i}", wl, (0.6 + tilt) * (1.0 - dip)))
    records.append(SpectrumRecord("flat", wide, np.full(wide.size, 0.5)))
    dark = 0.4 * (1.0 - 0.3 * np.exp(-0.5 * ((wide - 1100.0) / 80.0) ** 2))
    dark[10:14] = 0.0
    records.append(SpectrumRecord("dark_band", wide, dark))
    return resample_library(lib_of(records), grid)


def long_grid_library():
    """40 seeded laboratory-style spectra on 196 bands, where sums of many
    products are rounded differently by different summation orders."""
    grid = np.linspace(450.0, 2450.0, 196)
    return resample_library(synthetic_mineral_library(40, seed=3), grid)


class TestRankMatchesOracle:
    """rank_matches scores whole groups of entries at once; the per-pair
    oracle must give the same order and the same printed cells."""

    def unknowns(self, lib):
        spectra = [np.where(e.usable, e.reflectance, 0.5) for e in lib.entries]
        return [0.7 * spectra[0] + 0.3 * spectra[2],
                0.5 * spectra[1] + 0.5 * spectra[4],
                1.2 * spectra[3],
                spectra[5]]

    def test_masks_differ(self):
        lib = mixed_library()
        masks = {e.usable.tobytes() for e in lib.entries}
        assert len(masks) == 3
        assert not all(e.usable.all() for e in lib.entries)

    @pytest.mark.parametrize("weights", [AnalystWeights(), AnalystWeights(2.0, 0.5, 1.0),
                                         AnalystWeights(0.0, 1.0, 0.0)])
    def test_matches_per_pair_oracle(self, weights):
        lib = mixed_library()
        for unknown in self.unknowns(lib):
            got = as_tuples(rank_matches(unknown, lib, weights))
            want = oracle_rank(unknown, lib, weights)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert printed_cells(got) == printed_cells(want)
            assert np.allclose([g[1:] for g in got], [w[1:] for w in want],
                               rtol=0.0, atol=1e-9)

    def test_featureless_and_non_positive_entries_score_no_fit(self):
        lib = mixed_library()
        for unknown in self.unknowns(lib):
            by_name = {m.mineral_name: m for m in rank_matches(unknown, lib)}
            assert by_name["flat"].sff_score == 0.0
            assert by_name["dark_band"].sff_score == 0.0
            assert by_name["dark_band"].sam_score > 0.0

    def test_non_positive_unknown_scores_no_fit(self):
        lib = mixed_library()
        unknown = self.unknowns(lib)[0].copy()
        unknown[10] = 0.0
        got = as_tuples(rank_matches(unknown, lib))
        assert [g[2] for g in got] == [0.0] * len(lib.entries)
        assert printed_cells(got) == printed_cells(oracle_rank(unknown, lib))

    def test_zero_unknown_raises_as_before(self):
        lib = mixed_library()
        with pytest.raises(ValueError, match="cannot take the angle of a zero spectrum"):
            rank_matches(np.zeros(24), lib)
        with pytest.raises(ValueError, match="cannot take the angle of a zero spectrum"):
            oracle_rank(np.zeros(24), lib)

    def test_band_count_mismatch_message(self):
        with pytest.raises(ValueError, match="unknown has 23 bands but library entry 'min_0'"):
            rank_matches(np.ones(23), mixed_library())

    @pytest.mark.parametrize("lib", [mixed_library(), long_grid_library()],
                             ids=["mixed", "long_grid"])
    def test_self_match_is_exact(self, lib):
        for rec in lib.entries:
            if rec.name in ("flat", "dark_band"):
                continue
            unknown = np.where(rec.usable, rec.reflectance, 0.5)
            top = rank_matches(unknown, lib)[0]
            assert top.mineral_name == rec.name
            assert (top.sam_score, top.sff_score, top.be_score) == (1.0, 1.0, 1.0)


class TestPreparedLibrary:
    """prepare_library removes each entry's continuum once; rank_matches
    then removes only the unknown's, once per group of entries."""

    def library(self):
        return dip_library(centers=(650.0, 800.0, 950.0, 1100.0, 1250.0))

    def unknowns(self, lib):
        spectra = [e.reflectance for e in lib.entries]
        return [0.7 * spectra[0] + 0.3 * spectra[1],
                0.5 * spectra[2] + 0.5 * spectra[4],
                1.3 * spectra[3]]

    @pytest.fixture
    def hull_rows(self, monkeypatch):
        """Counts the hull rows computed through the module global: a
        stack of n spectra adds n."""
        rows = []
        original = spectral_match.continuum_remove

        def counting(wavelengths, values):
            rows.append(np.atleast_2d(values).shape[0])
            return original(wavelengths, values)

        monkeypatch.setattr(spectral_match, "continuum_remove", counting)
        return rows

    def test_preparation_removes_each_entry_once(self, hull_rows):
        lib = self.library()
        prepared = prepare_library(lib)
        # one stacked call for the library's single group
        assert len(prepared.groups) == 1
        assert hull_rows == [len(lib.entries)]

    def test_preparation_removes_positive_entries_once_per_group(self, hull_rows):
        prepared = prepare_library(mixed_library())
        # 7 positive entries over 3 masks; the non-positive entry is never
        # passed to the hull
        assert len(prepared.groups) == 3
        assert sum(hull_rows) == 7

    def test_each_ranking_removes_the_unknown_once_per_group(self, hull_rows):
        lib = mixed_library()
        prepared = prepare_library(lib)
        hull_rows.clear()
        unknown = np.where(lib.entries[0].usable, lib.entries[0].reflectance, 0.5)
        for calls in range(1, 4):
            rank_matches(unknown, prepared)
            assert hull_rows == [1] * 3 * calls

    def test_plain_library_is_prepared_for_each_call(self, hull_rows):
        lib = self.library()
        unknowns = self.unknowns(lib)
        for unknown in unknowns:
            rank_matches(unknown, lib)
        assert hull_rows == [len(lib.entries), 1] * len(unknowns)

    @pytest.mark.parametrize("weights", [AnalystWeights(), AnalystWeights(2.0, 0.5, 1.0),
                                         AnalystWeights(0.0, 1.0, 0.0)])
    def test_prepared_and_plain_rank_alike(self, weights):
        lib = mixed_library()
        prepared = prepare_library(lib)
        for unknown in TestRankMatchesOracle().unknowns(lib):
            assert rank_matches(unknown, prepared, weights) == rank_matches(unknown, lib, weights)

    def test_empty_library_cannot_be_prepared(self):
        with pytest.raises(ValueError, match="cannot rank against an empty library"):
            prepare_library(SpectralLibrary(entries=[]))

    def test_match_stage_prepares_the_library_once(self, tmp_path, hull_rows):
        from hypermap import artifacts, cli

        lib = self.library()
        write_spectral_library_file(lib, tmp_path / "library.csv")
        spectra = self.unknowns(lib)
        artifacts.write_spectra(tmp_path / "out" / "endmembers.csv",
                                [f"class_{i}" for i in range(1, len(spectra) + 1)],
                                lib.entries[0].wavelengths, spectra)
        for name in ("endmember_manifest.csv", "endmember_mnf_means.csv"):
            (tmp_path / "out" / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nlibrary_csv = library.csv\n")
        cli.run_stage("match", cli.load_config(str(tmp_path / "p.cfg")))
        # entries once, then each class once in the library's one group
        assert hull_rows == [len(lib.entries)] + [1] * len(spectra)

    def test_entry_changed_in_place_is_rescored(self):
        lib = self.library()
        unknown = lib.entries[1].reflectance.copy()
        before = {m.mineral_name: m for m in rank_matches(unknown, lib)}
        lib.entries[0].reflectance[:] = unknown
        after = {m.mineral_name: m for m in rank_matches(unknown, lib)}
        assert before["min_0"].sff_score < 1.0
        assert after["min_0"].sff_score == 1.0

    def test_prepared_library_keeps_its_copies(self):
        lib = self.library()
        unknown = lib.entries[1].reflectance.copy()
        prepared = prepare_library(lib)
        before = rank_matches(unknown, prepared)
        lib.entries[0].reflectance[:] = unknown
        assert rank_matches(unknown, prepared) == before

    def test_non_positive_unknown_scores_zero_without_a_hull(self, hull_rows):
        lib = self.library()
        classes = []
        for i, rec in enumerate(lib.entries):
            unknown = rec.reflectance.copy()
            unknown[3 + i] = 0.0
            classes.append(unknown)
        prepared = prepare_library(lib)
        for _ in range(2):
            for unknown in classes:
                scores = rank_matches(unknown, prepared)
                assert [m.sff_score for m in scores] == [0.0] * len(lib.entries)
        # only the library's rows, once; no unknown reaches the hull
        assert hull_rows == [len(lib.entries)]
