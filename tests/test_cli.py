"""CLI tests: config handling, exit codes, stage dependencies, artifact
determinism, and staged-vs-all equivalence."""

import csv
import dataclasses
import fnmatch
import hashlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import write_scenario_config, write_scenario_inputs
from hypermap import artifacts, cli, envi_io
from hypermap.cube_blocks import CubeFile, first_planes
from hypermap.envi_io import (
    SpectralCube,
    SpectralLibrary,
    SpectrumRecord,
    parse_envi_header,
    serialize_envi_header,
    write_cube,
    write_spectral_library_file,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(args):
    return cli.main(args)


@pytest.fixture()
def scenario_dir(tmp_path, mineral_library, scene_endmember_library):
    write_scenario_inputs(tmp_path, mineral_library, scene_endmember_library)
    write_scenario_config(tmp_path, ppi_iterations=400)
    return tmp_path


def read_tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


class TestConfig:
    # The last three are keys an older `init` wrote; no shim accepts them.
    @pytest.mark.parametrize("line", ["no_such_key = 1", "standardize_before_mnf = false",
                                      "synth_noise_sigma = 0.0", "synth_panel_level = 1.0"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"unknown config key '{line.split()[0]}'" in capsys.readouterr().err

    def test_bad_value_names_key_and_range(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("ppi_iterations = 0\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ppi_iterations" in err and ">= 1" in err

    def test_unparseable_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = soon\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run(["info", "--config", str(tmp_path / "none.cfg")]) == cli.EXIT_CONFIG

    def test_comments_and_case(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("; comment line\nSEED = 9   ; trailing comment\n")
        cfg = cli.load_config(str(path))
        assert cfg.seed == 9

    def test_reflectance_method_checked(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("reflectance_method = flaash\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG

    FLOAT_KEYS = ("ppi_threshold", "weight_sam", "weight_sff", "weight_be", "sam_max_angle",
                  "synth_noise_relative")

    def test_float_keys_are_the_float_fields(self):
        assert sorted(self.FLOAT_KEYS) == sorted(
            f.name for f in fields(cli.PipelineConfig) if f.type == "float")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err
        if value != "-inf":
            assert "must be a finite number" in err

    @pytest.mark.parametrize("text, message", [
        ("ppi_threshold = -1", "config key 'ppi_threshold': must be a number >= 0"),
        ("synth_noise_relative = -0.1",
         "config key 'synth_noise_relative': must be a number >= 0"),
        ("weight_sam = 0\nweight_sff = 0\nweight_be = 0",
         "config keys 'weight_sam'/'weight_sff'/'weight_be': at least one must be > 0"),
        ("reflectance_method = flat_field\nflat_field_n_lines = 0\nflat_field_n_samples = 4",
         "'flat_field_n_samples': must be >= 1 when reflectance_method = flat_field"),
        ("reflectance_method = flat_field\nflat_field_n_lines = 4\nflat_field_n_samples = 0",
         "'flat_field_n_samples': must be >= 1 when reflectance_method = flat_field"),
        ("seed = -1", "config key 'seed': must be an integer >= 0"),
        ("seed = 18446744073709551616", "config key 'seed': must be an integer below 2^64"),
        ("seed = 18446744073709551621", "config key 'seed': must be an integer below 2^64"),
        ("roi_n_lines = -2", "config key 'roi_n_lines': must be an integer >= 0"),
        ("endmember_k = 0", "config key 'endmember_k': must be an integer >= 1"),
        ("endmember_k = 0\nppi_iterations = 0\nmnf_keep_k = 0",
         "config key 'mnf_keep_k': must be an integer >= 1"),
    ])
    def test_out_of_range_number_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_seed_option_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("seed = 18446744073709551615\n")
        assert cli.load_config(str(path)).seed == 2 ** 64 - 1
        assert run(["info", "--config", str(path), "--seed", str(2 ** 64 + 5)]) == cli.EXIT_CONFIG
        assert "--seed must be a non-negative integer below 2^64" in capsys.readouterr().err

    def test_repeated_key_takes_last_value(self):
        cfg = cli.config_from_text("seed = 3\nppi_threshold = 1.5\nseed = 11\n")
        assert cfg.seed == 11 and cfg.ppi_threshold == 1.5


class TestInit:
    def test_writes_defaults(self, tmp_path):
        assert run(["init", "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(str(tmp_path / "default.cfg"))
        assert cfg.mnf_keep_k == 48
        assert cfg.ppi_iterations == 10000
        assert cfg.ppi_threshold == 2.5
        assert cfg.endmember_k == 48
        mask_text = (tmp_path / "hyperion_bad_bands.csv").read_text()
        assert mask_text.count("\n") == 243  # header + 242 bands

    def test_default_config_round_trips(self, tmp_path):
        assert run(["init", "--out", str(tmp_path)]) == 0
        path = tmp_path / "default.cfg"
        expected = cli.PipelineConfig(base_dir=str(tmp_path),
                                      band_mask_csv="hyperion_bad_bands.csv",
                                      gains_csv="hyperion_gains.csv")
        assert cli.load_config(str(path)) == expected
        keys = [line.split("=", 1)[0].strip() for line in path.read_text().splitlines()
                if line and not line.startswith(";")]
        assert sorted(keys) == sorted(f.name for f in fields(cli.PipelineConfig)
                                      if f.name != "base_dir")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "hypermap" in capsys.readouterr().out


class TestStages:
    def test_info_prints_dimensions(self, tmp_path, capsys):
        (tmp_path / "scene.hdr").write_text(
            "ENVI\nsamples = 2\nlines = 1\nbands = 3\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\n")
        (tmp_path / "scene.img").write_bytes(b"\x00" * 24)
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text("input_header = scene.hdr\ninput_image = scene.img\n")
        assert run(["info", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "2 x 1 x 3" in out
        assert "bsq" in out

    def test_missing_dependency_names_stage(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["mnf", "--config", cfg]) == cli.EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "preprocess" in err

    def test_match_without_endmembers(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["match", "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert "endmembers" in capsys.readouterr().err

    def test_data_error_exit_code(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        # corrupt the payload so read fails with a size mismatch
        img = scenario_dir / "scene.img"
        img.write_bytes(img.read_bytes()[:-8])
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA

    def test_malformed_artifact_row_is_data_error(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi"):
            assert run([stage, "--config", cfg]) == 0
        (scenario_dir / "out" / "pure_pixels.csv").write_text("line,sample,count\n5\n")
        assert run(["endmembers", "--config", cfg]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "pure_pixels.csv" in err and "row 2" in err

    def test_report_without_eigenvalues_names_mnf(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        os.remove(scenario_dir / "out" / "mnf_model" / "eigenvalues.csv")
        capsys.readouterr()
        assert run(["report", "--config", cfg]) == cli.EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "eigenvalues.csv" in err and "stage 'mnf'" in err

    def test_resume_with_fewer_classes_refuses_stale_matches(self, scenario_dir, capsys):
        cfg_path = scenario_dir / "pipeline.cfg"
        cfg = str(cfg_path)
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace("endmember_k = 5", "endmember_k = 4"))
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        cfg_path.write_text(text.replace("endmember_k = 5", "endmember_k = 3"))
        assert run(["endmembers", "--config", cfg]) == 0
        capsys.readouterr()
        assert run(["classify", "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert "re-run 'hypermap match'" in capsys.readouterr().err
        # The failed `classify` removed its earlier outputs.
        assert run(["report", "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert "missing artifact 'class_statistics.csv' from stage 'classify'; " \
            "run 'hypermap classify' first" in capsys.readouterr().err
        for stage in ("match", "mtmf", "classify", "report"):
            assert run([stage, "--config", cfg]) == 0
        out = scenario_dir / "out"
        assert sorted(p.name for p in out.glob("match_class_*")) == \
            ["match_class_1.csv", "match_class_2.csv", "match_class_3.csv"]
        assert sorted(p.name for p in out.glob("mtmf_class_*")) == \
            [f"mtmf_class_{i}.{ext}" for i in (1, 2, 3) for ext in ("hdr", "img")]
        assert len((out / "report.csv").read_text().splitlines()) == 1 + 3

    def test_ppi_without_trace_removes_the_earlier_trace(self, scenario_dir):
        cfg_path = scenario_dir / "pipeline.cfg"
        cfg = str(cfg_path)
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace("ppi_trace = false", "ppi_trace = true"))
        assert run(["synth", "--config", cfg]) == 0
        for stage in ("preprocess", "mnf", "ppi"):
            assert run([stage, "--config", cfg]) == 0
        out = scenario_dir / "out"
        names = ("ppi_counts.hdr", "ppi_counts.img", "pure_pixels.csv")
        traced = {name: (out / name).read_bytes() for name in names}
        assert (out / "ppi_trace.csv").exists()
        cfg_path.write_text(text)
        assert run(["ppi", "--config", cfg]) == 0
        assert not (out / "ppi_trace.csv").exists()
        assert {name: (out / name).read_bytes() for name in names} == traced

    def test_full_pipeline_and_artifacts(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        out = scenario_dir / "out"
        expected = [
            "reflectance.hdr", "reflectance.img",
            "mnf_cube.hdr", "mnf_cube.img",
            os.path.join("mnf_model", "forward.csv"),
            "ppi_counts.hdr", "ppi_counts.img", "pure_pixels.csv",
            "endmembers.csv", "endmember_manifest.csv", "endmember_mnf_means.csv",
            "match_summary.csv", "match_class_1.csv", "match_class_5.csv",
            "sam_class_map.hdr", "sam_class_map.img",
            "class_statistics.csv", "class_legend.csv",
            "mtmf_class_1.hdr", "mtmf_class_5.img",
            "report.csv", "plot_endmember_spectra.csv",
            "plot_ppi_histogram.csv", "plot_eigenvalues.csv",
            "truth_abundances.csv", "truth_pure_pixels.csv",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_entry_names_with_comma_and_quote(self, tmp_path, mineral_library,
                                              scene_endmember_library):
        # The same scenario twice, the second with every library entry
        # renamed to a quoted CSV cell: the tables name the renamed entries.
        def renamed(name):
            return f'mineral, "{name}"'

        def renamed_library(lib):
            return SpectralLibrary(entries=[dataclasses.replace(e, name=renamed(e.name))
                                            for e in lib.entries])

        tops = []
        for d, libraries in ((tmp_path / "plain", (mineral_library, scene_endmember_library)),
                             (tmp_path / "quoted", (renamed_library(mineral_library),
                                                    renamed_library(scene_endmember_library)))):
            d.mkdir()
            write_scenario_inputs(d, *libraries)
            write_scenario_config(d, ppi_iterations=400)
            cfg = str(d / "pipeline.cfg")
            assert run(["synth", "--config", cfg]) == 0
            assert run(["all", "--config", cfg]) == 0
            tables = []
            for name in ("match_summary.csv", "report.csv"):
                with open(d / "out" / name, newline="", encoding="utf-8") as fp:
                    tables.append([row[1] for row in list(csv.reader(fp))[1:]])
            tops.append(tables)
        (plain_summary, plain_report), quoted = tops
        assert plain_summary and plain_report == plain_summary
        assert quoted == [[renamed(name) for name in plain_summary]] * 2

    def test_rerun_is_byte_identical(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        first = read_tree(scenario_dir / "out")
        assert run(["all", "--config", cfg]) == 0
        second = read_tree(scenario_dir / "out")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_all_equals_staged_runs(self, tmp_path, mineral_library,
                                    scene_endmember_library):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            d.mkdir()
            write_scenario_inputs(d, mineral_library, scene_endmember_library)
            write_scenario_config(d, ppi_iterations=400)
            assert run(["synth", "--config", str(d / "pipeline.cfg")]) == 0
        assert run(["all", "--config", str(a_dir / "pipeline.cfg")]) == 0
        for stage in ("preprocess", "mnf", "ppi", "endmembers", "match",
                      "classify", "mtmf", "report"):
            assert run([stage, "--config", str(b_dir / "pipeline.cfg")]) == 0
        tree_a = read_tree(a_dir / "out")
        tree_b = read_tree(b_dir / "out")
        assert tree_a.keys() == tree_b.keys()
        for name in tree_a:
            assert tree_a[name] == tree_b[name], name

    def test_seed_override_changes_outputs(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["preprocess", "--config", cfg]) == 0
        assert run(["mnf", "--config", cfg]) == 0
        assert run(["ppi", "--config", cfg]) == 0
        first = (scenario_dir / "out" / "pure_pixels.csv").read_text()
        assert run(["ppi", "--config", cfg, "--seed", "777"]) == 0
        second = (scenario_dir / "out" / "pure_pixels.csv").read_text()
        assert first != second

    def test_stage_creates_fresh_output_directory(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        fresh = scenario_dir / "new" / "sub"
        assert run(["preprocess", "--config", cfg, "--out", str(fresh)]) == 0
        assert (fresh / "reflectance.img").exists()

    def test_out_override(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        alt = scenario_dir / "alt_out"
        assert run(["synth", "--config", cfg, "--out", str(alt)]) == 0
        assert (alt / "truth_pure_pixels.csv").exists()


class TestLibraryInputs:
    """A library table `match` or `synth` cannot use is a data error that
    names the spectrum or the library."""

    def write_match_inputs(self, tmp_path, library_text):
        (tmp_path / "library.csv").write_text(library_text)
        grid = np.linspace(500.0, 900.0, 5)
        artifacts.write_spectra(tmp_path / "out" / "endmembers.csv", ["class_1", "class_2"],
                                grid, [np.full(5, 0.4), np.linspace(0.2, 0.6, 5)])
        for name in ("endmember_manifest.csv", "endmember_mnf_means.csv"):
            (tmp_path / "out" / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nlibrary_csv = library.csv\n")
        return str(tmp_path / "p.cfg")

    def test_nan_reflectance_fails_match(self, tmp_path, capsys):
        rows = "".join(f"{w},0.{i + 2},{'nan' if i == 2 else f'0.{i + 3}'}\n"
                       for i, w in enumerate(range(450, 1000, 100)))
        cfg = self.write_match_inputs(tmp_path, "wavelength_nm,quartz,calcite\n" + rows)
        assert run(["match", "--config", cfg]) == cli.EXIT_DATA
        assert "spectrum 'calcite': reflectance outside [0, 1.5]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "match_summary.csv").exists()

    @pytest.mark.parametrize("stage", ["match", "synth"])
    def test_header_only_library_fails(self, tmp_path, capsys, stage):
        cfg = self.write_match_inputs(tmp_path, "wavelength_nm,quartz,calcite\n")
        assert run([stage, "--config", cfg]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"spectral library {str(tmp_path / 'library.csv')!r} has no wavelength rows" in err


class TestExitMessages:
    """Exits no other test reaches, each with its code and whole message."""

    def expect(self, capsys, args, code, message):
        capsys.readouterr()
        assert run(args) == code
        assert capsys.readouterr().err == message + "\n"

    @staticmethod
    def append(cfg, line):
        with open(cfg, "a", encoding="utf-8") as fp:
            fp.write(line + "\n")

    @pytest.mark.parametrize("stage, missing", [("info", "scene.hdr"),
                                                ("preprocess", "scene.hdr"),
                                                ("preprocess", "scene.img")])
    def test_missing_input_file(self, tmp_path, capsys, stage, missing):
        cfg = write_radiance_scene(tmp_path, [1] * 5, [1.0] * 5)
        os.remove(tmp_path / missing)
        self.expect(capsys, [stage, "--config", cfg], cli.EXIT_CONFIG,
                    f"config error: input file {str(tmp_path / missing)!r} does not exist")

    @pytest.mark.parametrize("stage, key, noun", [("match", "library_csv", "library"),
                                                  ("synth", "synth_library_csv", "synth library")])
    def test_missing_library(self, scenario_dir, capsys, stage, key, noun):
        cfg = scenario_dir / "pipeline.cfg"
        self.append(cfg, f"{key} = none.csv")
        (scenario_dir / "out").mkdir()
        for name in cli._STAGES["match"].reads:  # what `match` needs to start
            (scenario_dir / "out" / name).write_text("")
        self.expect(capsys, [stage, "--config", str(cfg)], cli.EXIT_CONFIG,
                    f"config error: {noun} file {str(scenario_dir / 'none.csv')!r} does not exist")

    def test_one_roi_extent_zero(self, tmp_path, capsys):
        cfg = write_radiance_scene(tmp_path, [1] * 5, [1.0] * 5)
        self.append(cfg, "roi_n_lines = 3")
        self.expect(capsys, ["preprocess", "--config", cfg], cli.EXIT_CONFIG,
                    "config error: config keys 'roi_n_lines'/'roi_n_samples': "
                    "set both >= 1 or both 0")

    @pytest.mark.parametrize("line, message", [
        ("synth_block_size = 5",
         "config key 'synth_block_size': must divide synth_lines and synth_samples"),
        ("synth_pure_per_endmember = 5000",
         "config key 'synth_pure_per_endmember': too many pure pixels for the scene extent"),
    ])
    def test_synth_layout_checked(self, scenario_dir, capsys, line, message):
        cfg = scenario_dir / "pipeline.cfg"
        self.append(cfg, line)
        self.expect(capsys, ["synth", "--config", str(cfg)], cli.EXIT_CONFIG,
                    "config error: " + message)
        assert not (scenario_dir / "scene.img").exists()

    def test_keep_k_above_reflectance_bands(self, tmp_path, capsys):
        cfg = write_radiance_scene(tmp_path, [1] * 5, [1.0] * 5)
        assert run(["preprocess", "--config", cfg]) == 0
        self.append(cfg, "mnf_keep_k = 6")
        self.expect(capsys, ["mnf", "--config", cfg], cli.EXIT_CONFIG,
                    "config error: config key 'mnf_keep_k': must be in 1..5 for this cube")

    def test_unknown_stage(self):
        with pytest.raises(cli.ConfigError, match=r"^unknown stage 'nope'$"):
            cli.run_stage("nope", cli.PipelineConfig())

    @pytest.mark.parametrize("text, message", [
        ("seed = 3\nno equals sign\n", "config line 2: expected 'key = value'"),
        ("ppi_trace = maybe\n", "config key 'ppi_trace': cannot parse 'maybe' as bool"),
    ])
    def test_bad_config_line(self, tmp_path, capsys, text, message):
        (tmp_path / "bad.cfg").write_text(text)
        self.expect(capsys, ["info", "--config", str(tmp_path / "bad.cfg")], cli.EXIT_CONFIG,
                    "config error: " + message)

    def test_header_only_pure_pixels(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi"):
            assert run([stage, "--config", cfg]) == 0
        (scenario_dir / "out" / "pure_pixels.csv").write_text("line,sample,count\n")
        self.expect(capsys, ["endmembers", "--config", cfg], cli.EXIT_DATA,
                    "data error: no pure pixels were selected; lower ppi_min_count")

    def test_mtmf_after_mnf_keeps_fewer_components(self, scenario_dir, capsys):
        cfg_path = scenario_dir / "pipeline.cfg"
        cfg = str(cfg_path)
        for stage in ("synth", "preprocess", "mnf", "ppi", "endmembers"):
            assert run([stage, "--config", cfg]) == 0
        cfg_path.write_text(cfg_path.read_text().replace("mnf_keep_k = 8", "mnf_keep_k = 4"))
        assert run(["mnf", "--config", cfg]) == 0
        self.expect(capsys, ["mtmf", "--config", cfg], cli.EXIT_DATA,
                    "data error: endmember MNF means have more components than the cube")


@pytest.fixture(scope="class")
def finished_run(tmp_path_factory, mineral_library, scene_endmember_library):
    """A scenario directory after `synth` and `all`, with the PPI trace on."""
    root = tmp_path_factory.mktemp("finished")
    write_scenario_inputs(root, mineral_library, scene_endmember_library)
    write_scenario_config(root, ppi_iterations=400, ppi_trace=True)
    assert run(["synth", "--config", str(root / "pipeline.cfg")]) == 0
    assert run(["all", "--config", str(root / "pipeline.cfg")]) == 0
    return root


class TestStageFiles:
    """The files each stage reads and writes."""

    # Each stage with one file it reads (the `.img` of a `.hdr` too) and
    # the stage that writes that file.
    READS = [
        ("mnf", "reflectance.hdr", "preprocess"),
        ("mnf", "reflectance.img", "preprocess"),
        ("ppi", "mnf_cube.hdr", "mnf"),
        ("ppi", "mnf_cube.img", "mnf"),
        ("endmembers", "reflectance.hdr", "preprocess"),
        ("endmembers", "reflectance.img", "preprocess"),
        ("endmembers", "mnf_cube.hdr", "mnf"),
        ("endmembers", "mnf_cube.img", "mnf"),
        ("endmembers", "pure_pixels.csv", "ppi"),
        ("match", "endmembers.csv", "endmembers"),
        ("classify", "reflectance.hdr", "preprocess"),
        ("classify", "reflectance.img", "preprocess"),
        ("classify", "endmembers.csv", "endmembers"),
        ("classify", "match_summary.csv", "match"),
        ("mtmf", "mnf_cube.hdr", "mnf"),
        ("mtmf", "mnf_cube.img", "mnf"),
        ("mtmf", "endmember_mnf_means.csv", "endmembers"),
        ("report", "mnf_model/eigenvalues.csv", "mnf"),
        ("report", "ppi_counts.hdr", "ppi"),
        ("report", "ppi_counts.img", "ppi"),
        ("report", "endmembers.csv", "endmembers"),
        ("report", "match_summary.csv", "match"),
        ("report", "class_statistics.csv", "classify"),
    ]

    @staticmethod
    def copy(finished_run, tmp_path):
        shutil.copytree(finished_run, tmp_path / "run")
        return tmp_path / "run", str(tmp_path / "run" / "pipeline.cfg")

    @staticmethod
    def missing(name, producer):
        return (f"dependency error: missing artifact '{name}' from stage '{producer}'; "
                f"run 'hypermap {producer}' first\n")

    @pytest.mark.parametrize("stage, name, producer", READS)
    def test_missing_read_names_its_producer(self, finished_run, tmp_path, capsys,
                                             stage, name, producer):
        root, cfg = self.copy(finished_run, tmp_path)
        os.remove(root / "out" / name)
        capsys.readouterr()
        assert run([stage, "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert capsys.readouterr().err == self.missing(name, producer)

    def test_the_reads_are_the_declared_ones(self):
        assert sorted((stage, name) for stage, name, _ in self.READS) == sorted(
            (s.name, n) for s in cli._STAGES.values() for r in s.reads for n in cli._files(r))

    def test_outputs_are_the_declared_writes(self, finished_run):
        out = finished_run / "out"
        files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        declared = set()
        for s in cli._STAGES.values():
            for write in s.writes:
                for name in cli._files(write):
                    matched = {str(p.relative_to(out)) for p in out.glob(name)}
                    assert matched, (s.name, name)
                    declared |= matched
        assert files == declared

    def test_each_read_is_an_earlier_stage_write(self):
        written = []
        for s in cli._STAGES.values():
            for read in s.reads:
                assert any(fnmatch.fnmatchcase(read, w) for w in written), (s.name, read)
            if s.in_all:
                written += s.writes

    def test_each_stage_takes_its_config_reads_and_writes(self):
        for s in cli._STAGES.values():
            params = inspect.signature(s.run).parameters
            assert len(params) == 1 + len(s.reads) + len(s.writes), s.name

    def test_a_failed_stage_leaves_none_of_its_outputs(self, finished_run, tmp_path, capsys):
        root, cfg = self.copy(finished_run, tmp_path)
        with open(cfg, "a", encoding="utf-8") as fp:
            fp.write("mnf_keep_k = 9\n")  # the MNF cube holds 8 components
        assert run(["ppi", "--config", cfg]) == cli.EXIT_CONFIG
        left = [p.name for p in (root / "out").iterdir()
                if p.name.startswith("ppi_") or p.name == "pure_pixels.csv"]
        assert left == []
        capsys.readouterr()
        assert run(["endmembers", "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert capsys.readouterr().err == self.missing("pure_pixels.csv", "ppi")

    @pytest.mark.parametrize("stage, name", [("match", "endmember_manifest.csv"),
                                             ("ppi", "mnf_model/forward.csv")])
    def test_a_file_the_stage_does_not_read_does_not_block_it(self, finished_run, tmp_path,
                                                              stage, name):
        root, cfg = self.copy(finished_run, tmp_path)
        os.remove(root / "out" / name)
        assert run([stage, "--config", cfg]) == 0

    def test_report_refuses_stale_class_statistics(self, finished_run, tmp_path, capsys):
        # Five classes when `classify` ran; `endmembers` and `match` then
        # ran again for three.
        root, cfg = self.copy(finished_run, tmp_path)
        with open(cfg, "a", encoding="utf-8") as fp:
            fp.write("endmember_k = 3\n")
        for stage in ("endmembers", "match"):
            assert run([stage, "--config", cfg]) == 0
        capsys.readouterr()
        assert run(["report", "--config", cfg]) == cli.EXIT_DEPENDENCY
        assert capsys.readouterr().err == (
            "dependency error: class_statistics.csv does not list classes 0..3 of "
            "endmembers.csv; re-run 'hypermap classify'\n")
        assert not (root / "out" / "report.csv").exists()
        for stage in ("classify", "report"):
            assert run([stage, "--config", cfg]) == 0
        assert len((root / "out" / "report.csv").read_text().splitlines()) == 1 + 3


class TestSynthBytes:
    """`synth`'s outputs on a config that takes every path (patches of one
    pixel or of 2 x 2, relative noise over more than one block of draws, a
    panel strip and the stock pure-pixel plan) keep their recorded bytes."""

    DIGESTS = {
        1: {
            "scene.img": "6eda00e693ade9fec2c46b284c8c644bb611a8b6de6ba81d1fa50541d2edf74d",
            "scene.hdr": "f2af6955f71909335422cf95ba09d61778cf02dc9bb83fa1d0ee2321bf48333e",
            "out/truth_abundances.csv":
                "277c28cc2f1f0c6bb58f2bb633afa1eea7d708278383bfee60e4c4d6e3e92f87",
            "out/truth_pure_pixels.csv":
                "ee8b46cd1c7a1257708c8bad661d182d1c7f7bb1178f62c0a194e37ed3e3e092",
        },
        2: {
            "scene.img": "ea7e28ab4372ff01b115f8201c9516c11fe9f5a741e8a565582574f9158077ea",
            "scene.hdr": "f2af6955f71909335422cf95ba09d61778cf02dc9bb83fa1d0ee2321bf48333e",
            "out/truth_abundances.csv":
                "6c1b425ed9e65e3167a1c7b32b687bbf85287b6e305d1b416337d83dd41743b0",
            "out/truth_pure_pixels.csv":
                "ee8b46cd1c7a1257708c8bad661d182d1c7f7bb1178f62c0a194e37ed3e3e092",
        },
    }

    @pytest.mark.parametrize("block_size", sorted(DIGESTS))
    def test_outputs_keep_their_bytes(self, tmp_path, block_size):
        from hypermap.numerics import _GAUSSIAN_BLOCK
        from hypermap.synthcube import synthetic_mineral_library

        lib = synthetic_mineral_library(4, seed=3, wavelengths=np.linspace(450.0, 2450.0, 60))
        write_spectral_library_file(lib, tmp_path / "library.csv")
        (tmp_path / "p.cfg").write_text(
            "input_header = scene.hdr\ninput_image = scene.img\nlibrary_csv = library.csv\n"
            "output_dir = out\nseed = 11\nsynth_lines = 24\nsynth_samples = 24\n"
            f"synth_block_size = {block_size}\nsynth_noise_relative = 0.01\n"
            "synth_panel_lines = 2\n")
        assert 24 * 24 * 60 > _GAUSSIAN_BLOCK
        assert run(["synth", "--config", str(tmp_path / "p.cfg")]) == 0
        digests = self.DIGESTS[block_size]
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests


def run_fresh(args, cwd, code=None, **environ):
    """Run `python -m hypermap.cli <args>` (or `python -c code <args>`) in a
    new interpreter, so only what that process imports is bound; `environ`
    adds to its environment."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    head = ["-m", "hypermap.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestBlasThreads:
    """`hypermap.cli` runs BLAS at one thread whatever the environment asks,
    so the MNF fit and every artifact after it keep their bytes."""

    def test_mnf_to_mtmf_bytes_do_not_depend_on_blas_threads(self, tmp_path, mineral_library):
        from conftest import pick_separated_endmembers
        from hypermap.spectral_match import resample_library

        # The smallest scene found on which OpenBLAS at 2 threads changed
        # mnf_cube.img without the pin: an 8 x 8 region of 84 bands.
        scene = resample_library(SpectralLibrary(
            [mineral_library.entries[i] for i in pick_separated_endmembers(mineral_library)]),
            np.linspace(450.0, 2450.0, 84))
        base = tmp_path / "base"
        base.mkdir()
        write_scenario_inputs(base, mineral_library, scene)
        cfg = write_scenario_config(base, ppi_iterations=400)
        text = cfg.read_text()
        for key in ("synth_lines", "synth_samples", "roi_n_lines", "roi_n_samples",
                    "flat_field_first_line", "flat_field_n_samples"):
            text = text.replace(f"{key} = 64", f"{key} = 8")
        cfg.write_text(text)
        for stage in ("synth", "preprocess"):
            assert run([stage, "--config", str(cfg)]) == 0
        code = ("import sys; from hypermap.cli import main\n"
                "for stage in ('mnf', 'ppi', 'endmembers', 'mtmf'):\n"
                "    assert main([stage, '--config', sys.argv[1]]) == 0, stage\n")
        trees = []
        for threads in ("1", "2"):
            d = tmp_path / f"threads_{threads}"
            shutil.copytree(base, d)
            done = run_fresh([str(d / "pipeline.cfg")], d, code, OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            trees.append(read_tree(d / "out"))
        assert "mnf_cube.img" in trees[0] and "mtmf_class_1.img" in trees[0]
        assert trees[0] == trees[1]


class TestFreshProcesses:
    """Each stage binds its own library names when it runs; in-process
    tests would hide a missing binding behind earlier imports."""

    def test_each_stage_in_its_own_process_equals_all(self, tmp_path, mineral_library,
                                                     scene_endmember_library):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            d.mkdir()
            write_scenario_inputs(d, mineral_library, scene_endmember_library)
            write_scenario_config(d, ppi_iterations=400, ppi_trace=True)
        assert run(["synth", "--config", str(a_dir / "pipeline.cfg")]) == 0
        assert run(["all", "--config", str(a_dir / "pipeline.cfg")]) == 0
        stages = ["synth"] + [s.name for s in cli._STAGES.values() if s.in_all]
        for stage in stages:
            proc = run_fresh([stage, "--config", "pipeline.cfg"], cwd=b_dir)
            assert proc.returncode == 0, stage + proc.stderr
        tree_a, tree_b = read_tree(a_dir), read_tree(b_dir)
        assert tree_a.keys() == tree_b.keys()
        for name in tree_a:
            assert tree_a[name] == tree_b[name], name

    def test_each_stage_imports_only_its_own_modules(self, scenario_dir):
        # A stage process compiles every module it imports, and its peak
        # memory moves with that source: only the stages that read a cube in
        # blocks load `cube_blocks`, only the maps load `mapping`, a
        # one-worker `ppi` does not load `concurrent.futures`, and no stage
        # loads `numpy.ma` (which `np.unique` and `np.setdiff1d` import).
        common = {"artifacts", "cli", "envi_io"}
        streamed = {"cube_blocks", "numerics"}
        expected = {
            "synth": {"numerics", "synthcube"},
            "info": set(),
            "preprocess": {"cube_blocks", "preprocess"},
            "mnf": streamed | {"mnf"},
            "ppi": streamed | {"ppi"},
            "endmembers": streamed | {"endmember"},
            "match": {"spectral_match"},
            "classify": streamed | {"mapping"},
            "mtmf": streamed | {"mapping"},
            "report": set(),
        }
        assert expected.keys() == cli._STAGES.keys()
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        code = ("import sys\nfrom hypermap import cli\nrc = cli.main(sys.argv[1:])\n"
                "print(' '.join(sorted(sys.modules)))\nsys.exit(rc)\n")
        for stage, modules in expected.items():
            proc = run_fresh([stage, "--config", cfg], cwd=scenario_dir, code=code)
            assert proc.returncode == 0, proc.stderr
            names = proc.stdout.splitlines()[-1].split()
            loaded = {name.split(".", 1)[1] for name in names if name.startswith("hypermap.")}
            assert loaded == common | modules, stage
            assert stage != "ppi" or "concurrent.futures" not in names
            assert "numpy.ma" not in names, stage

    def test_cli_resolves_the_package_names_and_the_stage_only_names(self, monkeypatch):
        import hypermap

        for name in hypermap.__all__:
            module = hypermap._EXPORTS[name]
            # Unbound first, so the module `__getattr__` resolves it.
            monkeypatch.delitem(vars(cli), name, raising=False)
            assert getattr(cli, name) is getattr(
                importlib.import_module(f"hypermap.{module}"), name), name
        for name in ("no_such_name", "_skewer_directions", "spawned_gaussians",
                     "synthetic_mineral_library", "_STAGE_NAMES"):
            with pytest.raises(AttributeError):
                getattr(cli, name)

    def test_binding_keeps_a_name_replaced_before_the_stage_runs(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf"):
            assert run([stage, "--config", cfg]) == 0
        code = ("import sys\nfrom hypermap import cli, ppi\ncalls = []\n"
                "def wrapper(*a, **k):\n    calls.append(1)\n    return ppi.run_ppi(*a, **k)\n"
                "cli.run_ppi = wrapper\nrc = cli.main(sys.argv[1:])\n"
                "print(len(calls))\nsys.exit(rc)\n")
        proc = run_fresh(["ppi", "--config", cfg], cwd=scenario_dir, code=code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"

    def test_package_root_resolves_every_public_name(self):
        import hypermap

        for name in hypermap.__all__:
            assert getattr(hypermap, name) is not None, name
        assert sorted(hypermap._EXPORTS) == sorted(hypermap.__all__)
        with pytest.raises(AttributeError):
            hypermap.no_such_name

    def test_every_perfbench_target_resolves(self):
        # The benchmark's tracer wraps these module attributes by name, so
        # each must stay a callable the stage code looks up at call time.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "traced_stage.py"
        spec = importlib.util.spec_from_file_location("traced_stage", path)
        traced_stage = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced_stage)
        targets = traced_stage._targets()
        assert targets
        for module, attr, *_ in targets:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def write_test_cube(path, interleave, bands=5):
    """A 3 x 4 cube with a header wavelength, fwhm and bad-band list."""
    values = np.arange(3 * 4 * bands, dtype=np.float64).reshape(3, 4, bands) / 7.0
    header_text, payload = write_cube(SpectralCube(
        values=values, wavelengths=np.linspace(500.0, 900.0, bands),
        bad_band_mask=np.arange(bands) % 2 == 0, units_tag="mnf_component"),
        interleave=interleave)
    header = parse_envi_header(header_text)
    header.fwhm = [10.0 + i for i in range(bands)]
    (path / "cube.hdr").write_text(serialize_envi_header(header))
    (path / "cube.img").write_bytes(payload)
    return str(path / "cube.hdr")


class TestBandPrefixRead:
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_first_bands_equal_full_read(self, tmp_path, interleave):
        # `ppi` takes its first components from a `CubeFile`; `report`
        # reads the whole cube.
        hdr = write_test_cube(tmp_path, interleave)
        full = envi_io.read_cube(*envi_io.read_payload(hdr))
        cube = CubeFile(hdr)
        assert cube.wavelengths.tobytes() == full.wavelengths.tobytes()
        assert cube.bad_band_mask.tolist() == full.bad_band_mask.tolist()
        assert cube.units_tag == full.units_tag
        for k in (1, 3, 5):
            planes = first_planes(cube, k)
            assert planes.shape == (k, 3, 4) and planes.flags.c_contiguous
            assert planes.tobytes() == full.values[:, :, :k].transpose(2, 0, 1).tobytes()

    def test_cube_file_keeps_the_whole_header(self, tmp_path):
        # The first bands are read without a header of their own: the
        # band lists stay whole.
        hdr = write_test_cube(tmp_path, "bsq")
        cube = CubeFile(hdr)
        first_planes(cube, 2)
        assert cube.header == parse_envi_header(Path(hdr).read_text())
        assert cube.header.bands == 5
        assert cube.header.fwhm == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert cube.header.bad_band_multiplier == [1, 0, 1, 0, 1]

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_only_the_kept_components_are_checked(self, tmp_path, capsys, interleave):
        # `ppi` reads the first mnf_keep_k components: a NaN past them
        # passes, and one inside them is a data error, for every interleave.
        out = tmp_path / "out"
        for name in ("mnf_model/forward.csv", "mnf_model/eigenvalues.csv"):
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nmnf_keep_k = 3\n"
                                        "ppi_iterations = 8\nppi_max_pixels = 10\n")
        values = np.random.default_rng(4).normal(size=(3, 4, 5))
        header_text, _ = write_cube(SpectralCube(
            values=values, wavelengths=np.arange(1.0, 6.0), bad_band_mask=np.ones(5, bool),
            units_tag="mnf_component"), interleave=interleave)
        (out / "mnf_cube.hdr").write_text(header_text)
        for band, code in ((4, 0), (3, 0), (2, cli.EXIT_DATA), (0, cli.EXIT_DATA)):
            with_nan = values.copy()
            with_nan[2, 3, band] = np.nan
            (out / "mnf_cube.img").write_bytes(
                with_nan.transpose(envi_io._FILE_AXES[interleave]).tobytes())
            capsys.readouterr()
            assert run(["ppi", "--config", str(tmp_path / "p.cfg")]) == code, band
            if code:
                assert "cube contains non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["ppi", "mtmf"])
    def test_truncated_mnf_cube_is_data_error(self, scenario_dir, capsys, stage):
        cfg = str(scenario_dir / "pipeline.cfg")
        for s in ("synth", "preprocess", "mnf", "ppi", "endmembers"):
            assert run([s, "--config", cfg]) == 0
        img = scenario_dir / "out" / "mnf_cube.img"
        img.write_bytes(img.read_bytes()[:-8])
        capsys.readouterr()
        assert run([stage, "--config", cfg]) == cli.EXIT_DATA
        assert "payload size mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["ppi", "endmembers"])
    def test_keep_k_above_band_count_is_config_error(self, scenario_dir, capsys, stage):
        # `mnf` wrote the 8 components it kept; resuming with more must not
        # run on those 8, and names the stage that makes more.
        cfg_path = scenario_dir / "pipeline.cfg"
        cfg = str(cfg_path)
        for s in ("synth", "preprocess", "mnf", "ppi"):
            assert run([s, "--config", cfg]) == 0
        bands = parse_envi_header((scenario_dir / "out" / "mnf_cube.hdr").read_text()).bands
        cfg_path.write_text(cfg_path.read_text().replace(
            "mnf_keep_k = 8", f"mnf_keep_k = {bands + 1}"))
        capsys.readouterr()
        assert run([stage, "--config", cfg]) == cli.EXIT_CONFIG
        assert f"config key 'mnf_keep_k': must be in 1..{bands} for this cube; re-run mnf" in \
            capsys.readouterr().err


def write_radiance_scene(path, mask, gains, interleave="bil"):
    """A 6 x 7 x 5 radiance scene (BIL by default) plus `band_index,keep`
    and `band_index,gain` tables (one row per list entry) and a config."""
    values = 1.0 + np.arange(6 * 7 * 5, dtype=np.float64).reshape(6, 7, 5) % 11
    header_text, payload = write_cube(SpectralCube(
        values=values, wavelengths=np.linspace(500.0, 900.0, 5),
        bad_band_mask=np.ones(5, dtype=bool)), interleave=interleave)
    (path / "scene.hdr").write_text(header_text)
    (path / "scene.img").write_bytes(payload)
    (path / "mask.csv").write_text(
        "band_index,keep\n" + "".join(f"{i},{k}\n" for i, k in enumerate(mask, 1)))
    (path / "gains.csv").write_text(
        "band_index,gain\n" + "".join(f"{i},{g}\n" for i, g in enumerate(gains, 1)))
    cfg = path / "p.cfg"
    cfg.write_text("input_header = scene.hdr\ninput_image = scene.img\noutput_dir = out\n"
                   "band_mask_csv = mask.csv\ngains_csv = gains.csv\n")
    return str(cfg)


class TestPreprocessInputs:
    def test_mask_then_gains_equals_gains_then_mask(self, tmp_path):
        from hypermap import preprocess

        mask, gains = [1, 0, 1, 1, 0], [40.0, 3.0, 80.0, 7.0, 0.5]
        cfg = write_radiance_scene(tmp_path, mask, gains)
        assert run(["preprocess", "--config", cfg]) == 0
        cube = envi_io.read_cube(*envi_io.read_payload(str(tmp_path / "scene.hdr")))
        expected = preprocess.reflectance_iarr(preprocess.remove_bad_bands(
            preprocess.scale_radiance(cube, gains), np.array(mask, dtype=bool)))
        _, payload = write_cube(expected)
        assert (tmp_path / "out" / "reflectance.img").read_bytes() == payload

    def test_non_positive_gain_on_dropped_band_is_data_error(self, tmp_path, capsys):
        cfg = write_radiance_scene(tmp_path, [1, 0, 1, 1, 1], [40.0, 0.0, 80.0, 7.0, 0.5])
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert "gains must all be positive" in capsys.readouterr().err
        assert not (tmp_path / "out" / "reflectance.img").exists()

    @pytest.mark.parametrize("gains, message", [
        ([40.0, 3.0, 80.0, 7.0], "band 5 missing from CSV"),
        ([40.0, 3.0, 80.0, 7.0, 0.5, 2.0], "band index 6 outside 1..5"),
    ])
    def test_wrong_length_gains_table_is_data_error(self, tmp_path, capsys, gains, message):
        cfg = write_radiance_scene(tmp_path, [1, 0, 1, 1, 0], gains)
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

    def test_non_finite_scene_is_data_error(self, tmp_path, capsys):
        cfg = write_radiance_scene(tmp_path, [1] * 5, [1.0] * 5)
        payload = bytearray((tmp_path / "scene.img").read_bytes())
        payload[80:88] = np.array([np.nan]).tobytes()
        (tmp_path / "scene.img").write_bytes(payload)
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert "non-finite" in capsys.readouterr().err


    # Line 4, band 2 (dropped), sample 3 of the 6 x 7 x 5 scene.
    @pytest.mark.parametrize("interleave, index", [
        ("bsq", (1 * 6 + 4) * 7 + 3), ("bil", (4 * 5 + 1) * 7 + 3), ("bip", (4 * 7 + 3) * 5 + 1)])
    @pytest.mark.parametrize("mask", [[1, 0, 1, 1, 1], [1, 0, 0, 0, 1]])
    def test_non_finite_value_in_dropped_band_is_data_error(self, tmp_path, capsys,
                                                             interleave, index, mask):
        cfg = write_radiance_scene(tmp_path, mask, [1.0] * 5, interleave)
        payload = bytearray((tmp_path / "scene.img").read_bytes())
        payload[index * 8:index * 8 + 8] = np.array([np.inf]).tobytes()
        (tmp_path / "scene.img").write_bytes(payload)
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_truncated_scene_is_data_error(self, tmp_path, capsys, interleave):
        cfg = write_radiance_scene(tmp_path, [1, 0, 1, 1, 0], [1.0] * 5, interleave)
        img = tmp_path / "scene.img"
        img.write_bytes(img.read_bytes()[:-8])
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert "payload size mismatch" in capsys.readouterr().err

    def test_mask_removing_every_band_is_data_error(self, tmp_path, capsys):
        cfg = write_radiance_scene(tmp_path, [0] * 5, [1.0] * 5)
        assert run(["preprocess", "--config", cfg]) == cli.EXIT_DATA
        assert "band mask removes every band" in capsys.readouterr().err


class TestMnfStage:
    def test_kept_components_equal_public_fit_and_forward(self, tmp_path):
        # The file holds the first mnf_keep_k band planes of the whole
        # component cube, under a header of mnf_keep_k bands.
        from hypermap import mnf

        values = np.random.default_rng(9).normal(size=(12, 10, 6)) + np.linspace(1.0, 6.0, 6)
        envi_io.write_cube_file(SpectralCube(
            values=values, wavelengths=np.arange(1.0, 7.0), bad_band_mask=np.ones(6, dtype=bool),
            units_tag="reflectance"), tmp_path / "out" / "reflectance.hdr")
        cfg = tmp_path / "p.cfg"
        cfg.write_text("output_dir = out\nmnf_keep_k = 3\n")
        assert run(["mnf", "--config", str(cfg)]) == 0

        cube = envi_io.read_cube(*envi_io.read_payload(tmp_path / "out" / "reflectance.hdr"))
        model = mnf.fit_mnf(cube, mnf.estimate_noise_covariance(cube))
        _, payload = write_cube(mnf.forward_mnf(model, cube))
        assert (tmp_path / "out" / "mnf_cube.img").read_bytes() == payload[:3 * 12 * 10 * 8]
        header = parse_envi_header((tmp_path / "out" / "mnf_cube.hdr").read_text())
        assert (header.bands, header.wavelengths) == (3, [1.0, 2.0, 3.0])


def traced_peak(fn, *args):
    """Peak bytes traced while `fn(*args)` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageMemory:
    CUBE = (64, 64, 64)
    # Large enough that a block (BLOCK_BYTES of lines or band columns) is
    # an eighth of the cube.
    LARGE = (128, 128, 256)

    def write_cube_file(self, path, units, shape=CUBE, interleave="bsq"):
        values = np.random.default_rng(8).normal(size=shape) + 4.0
        envi_io.write_cube_file(SpectralCube(
            values=values, wavelengths=np.arange(1.0, shape[2] + 1),
            bad_band_mask=np.ones(shape[2], dtype=bool), units_tag=units), path,
            interleave=interleave)
        return values.nbytes

    def test_read_holds_one_payload(self, tmp_path):
        payload = self.write_cube_file(tmp_path / "cube.hdr", "reflectance")
        assert traced_peak(lambda path: envi_io.read_cube(*envi_io.read_payload(path)),
                           str(tmp_path / "cube.hdr")) <= 1.05 * payload

    def write_preprocess_inputs(self, tmp_path, shape, interleave="bsq", mask=True):
        """A radiance scene of `shape` (320 bands), a mask that keeps 4 bands
        of 5 (or none), a gains table and a config; returns the config."""
        self.write_cube_file(tmp_path / "scene.hdr", "radiance", shape, interleave=interleave)
        keep = np.arange(320) % 5 != 2
        (tmp_path / "mask.csv").write_text(
            "band_index,keep\n" + "".join(f"{i},{int(k)}\n" for i, k in enumerate(keep, 1)))
        (tmp_path / "gains.csv").write_text(
            "band_index,gain\n" + "".join(f"{i},{1.0 + i / 320}\n" for i in range(1, 321)))
        (tmp_path / "p.cfg").write_text(
            "input_header = scene.hdr\ninput_image = scene.img\noutput_dir = out\n"
            f"band_mask_csv = {'mask.csv' if mask else ''}\ngains_csv = gains.csv\n")
        return cli.load_config(str(tmp_path / "p.cfg"))

    def write_mnf_inputs(self, tmp_path, shape, keep_k=8):
        """A reflectance cube of `shape` and a config; returns the config."""
        self.write_cube_file(tmp_path / "out" / "reflectance.hdr", "reflectance", shape)
        (tmp_path / "p.cfg").write_text(f"output_dir = out\nmnf_keep_k = {keep_k}\n")
        return cli.load_config(str(tmp_path / "p.cfg"))

    def test_mnf_stage_holds_blocks(self, tmp_path):
        cfg = self.write_mnf_inputs(tmp_path, self.LARGE)
        cli.run_stage("mnf", cfg)  # imports and binds the stage's modules
        # A block of lines as read, then its shift differences, or one
        # ~1 MiB block of components, beside the model's few (bands x bands)
        # matrices; holding the 32 MiB cube would pass this.
        budget = 3 * envi_io.BLOCK_BYTES + (1 << 20) + 8 * 8 * self.LARGE[2] ** 2
        assert budget < 8 * np.prod(self.LARGE)
        assert traced_peak(cli.run_stage, "mnf", cfg) <= budget

    def test_mnf_stage_projects_only_the_kept_components(self, tmp_path):
        # A block of 150 components is ~1 MiB beside a block of lines; a
        # block of 3 is 2% of that, and so is all `mnf` projects at
        # mnf_keep_k = 3.
        shape = self.LARGE[:2] + (150,)
        peaks = {}
        for keep_k in (3, 150):
            cfg = self.write_mnf_inputs(tmp_path / str(keep_k), shape, keep_k=keep_k)
            cli.run_stage("mnf", cfg)  # imports and binds the stage's modules
            peaks[keep_k] = traced_peak(cli.run_stage, "mnf", cfg)
        assert peaks[3] + (1 << 19) < peaks[150]

    @pytest.mark.parametrize("stage", ["preprocess", "mnf"])
    def test_stage_holds_no_more_for_a_taller_cube(self, tmp_path, stage):
        # Both stages hold blocks of lines and the model's or the mean's
        # small arrays, none of which grows by a MiB with 4x the lines; a
        # cube would grow by 3x its size.
        peaks = []
        for lines in (self.LARGE[0], 4 * self.LARGE[0]):
            shape = (lines,) + self.LARGE[1:]
            if stage == "preprocess":
                cfg = self.write_preprocess_inputs(tmp_path / str(lines), shape[:2] + (320,))
            else:
                cfg = self.write_mnf_inputs(tmp_path / str(lines), shape)
            if not peaks:
                cli.run_stage(stage, cfg)  # imports and binds the stage's modules
            peaks.append(traced_peak(cli.run_stage, stage, cfg))
        assert abs(peaks[1] - peaks[0]) <= 1 << 20

    @pytest.mark.parametrize("interleave, mask", [
        pytest.param("bsq", True, id="bsq"), pytest.param("bil", True, id="bil"),
        pytest.param("bil", False, id="bil-no-mask"), pytest.param("bip", False, id="bip-no-mask")])
    def test_preprocess_stage_holds_blocks(self, tmp_path, interleave, mask):
        shape = self.LARGE[:2] + (320,)
        cfg = self.write_preprocess_inputs(tmp_path, shape, interleave, mask)
        cli.run_stage("preprocess", cfg)
        # A block of lines as read and its kept bands, divided in place by
        # their gains and then by the mean; the kept bands of the 40 MiB
        # scene would fail this, as would a copy of each block for its sums
        # (a BIL or BIP scene without a mask sums one pixel row after
        # another, a line at a time).
        budget = 2 * envi_io.BLOCK_BYTES + (1 << 20)
        assert budget < 8 * np.prod(shape) * 4 // 5
        assert traced_peak(cli.run_stage, "preprocess", cfg) <= budget

    def test_synth_panel_costs_no_more_than_the_strip(self, tmp_path):
        from hypermap.synthcube import synthetic_mineral_library

        lib = synthetic_mineral_library(4, seed=3, wavelengths=np.linspace(450.0, 2450.0, 150))
        write_spectral_library_file(lib, tmp_path / "library.csv")
        peaks = []
        for panel in (0, 8):
            (tmp_path / "p.cfg").write_text(
                f"input_header = scene{panel}.hdr\ninput_image = scene{panel}.img\n"
                f"library_csv = library.csv\noutput_dir = out{panel}\nsynth_lines = 128\n"
                "synth_samples = 128\nsynth_block_size = 4\nsynth_noise_relative = 0.01\n"
                f"synth_panel_lines = {panel}\n")
            cfg = cli.load_config(str(tmp_path / "p.cfg"))
            if not peaks:
                cli.run_stage("synth", cfg)  # imports and binds the stage's modules
            peaks.append(traced_peak(cli.run_stage, "synth", cfg))
        # The strip's own values and a block of noise draws; a cube with the
        # strip concatenated to the scene would add the scene's 19.7 MB.
        strip_bytes = 8 * 8 * 128 * 150
        assert peaks[1] - peaks[0] <= strip_bytes + (1 << 20)

    def test_ppi_stage_holds_the_kept_components_once(self, tmp_path, monkeypatch):
        from hypermap import ppi

        out = tmp_path / "out"
        shape = self.LARGE[:2] + (32,)
        self.write_cube_file(out / "mnf_cube.hdr", "mnf_component", shape)
        for name in ("mnf_model/forward.csv", "mnf_model/eigenvalues.csv"):
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nmnf_keep_k = 8\n"
                                        "ppi_iterations = 8\nppi_max_pixels = 100\n")
        cfg = cli.load_config(str(tmp_path / "p.cfg"))
        cli.run_stage("ppi", cfg)
        # One skewer per chunk, so that run_ppi's per-chunk arrays are small
        # beside the 8 planes the BSQ prefix read keeps, which run_ppi
        # projects in place. A block buffer in the read (up to 4 MiB of the
        # 32-plane file) or a copy of the planes exceeds this.
        monkeypatch.setattr(ppi, "_CHUNK", 1)
        kept_bytes = 8 * shape[0] * shape[1] * 8
        budget = kept_bytes + (1 << 20)
        assert traced_peak(cli.run_stage, "ppi", cfg) <= budget

    def write_endmember_inputs(self, tmp_path, n_pixels=2000):
        """A LARGE reflectance cube, a 16-component MNF cube, `n_pixels`
        pure pixels and a config for 6 classes; returns (config, cube
        bytes, pixel count)."""
        out = tmp_path / "out"
        cube_bytes = self.write_cube_file(out / "reflectance.hdr", "reflectance", self.LARGE)
        self.write_cube_file(out / "mnf_cube.hdr", "mnf_component", self.LARGE[:2] + (16,))
        lines, samples = self.LARGE[:2]
        pixels = np.random.default_rng(3).permutation(lines * samples)[:n_pixels]
        artifacts.write_table(out / "pure_pixels.csv", ["line", "sample", "count"],
                              ([str(i // samples), str(i % samples), "1"] for i in pixels))
        # Files of earlier stages that the dependency check looks for.
        for name in ("ppi_counts.hdr", "ppi_counts.img", "mnf_model/forward.csv",
                     "mnf_model/eigenvalues.csv"):
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nmnf_keep_k = 8\nendmember_k = 6\n")
        return cli.load_config(str(tmp_path / "p.cfg")), cube_bytes, n_pixels

    def test_endmembers_stage_holds_one_block(self, tmp_path):
        from hypermap import cube_blocks

        cfg, cube_bytes, n_pixels = self.write_endmember_inputs(tmp_path)
        cli.run_stage("endmembers", cfg)
        # The pure pixels' 8 MNF components, one ~1 MiB block of band planes
        # and the (k, bands) means, beside the pure-pixel table and k-means'
        # (pixels, k) distances; a 4 MiB block exceeds this, and holding
        # the cube would reach cube_bytes.
        budget = (8 * n_pixels * 8 + cube_blocks.BAND_BLOCK_BYTES + 8 * 6 * self.LARGE[2]
                  + (1 << 20))
        assert budget < cube_bytes / 4
        assert traced_peak(cli.run_stage, "endmembers", cfg) <= budget

    def test_classify_stage_holds_one_block(self, tmp_path):
        from hypermap import mapping

        cfg, cube_bytes, _ = self.write_endmember_inputs(tmp_path)
        cli.run_stage("endmembers", cfg)
        artifacts.write_table(cfg.artifact("match_summary.csv"),
                              ["class_id", "top_mineral", "weighted_score"],
                              ([str(c), f"m{c}", "1.0"] for c in range(1, 7)))
        cli.run_stage("classify", cfg)
        # One block of lines, its pixel norms (squared a few rows at a time)
        # and (pixels, k) angles, and the class map; a cube would reach
        # cube_bytes.
        budget = envi_io.BLOCK_BYTES + 8 * mapping._NORM_BLOCK_ELEMENTS + (1 << 20)
        assert budget < cube_bytes / 4
        assert traced_peak(cli.run_stage, "classify", cfg) <= budget

    def test_match_stage_holds_no_copy_of_the_library_text(self, tmp_path):
        out = tmp_path / "out"
        rng = np.random.default_rng(5)
        wavelengths = np.arange(400.0, 2500.0, 7.0)
        write_spectral_library_file(SpectralLibrary(
            [SpectrumRecord(f"m{i}", wavelengths, rng.uniform(0.05, 0.95, wavelengths.size))
             for i in range(400)]), tmp_path / "library.csv")
        text_bytes = (tmp_path / "library.csv").stat().st_size
        assert text_bytes >= 2 << 20
        grid = np.linspace(450.0, 2400.0, 100)
        artifacts.write_spectra(out / "endmembers.csv", [f"class_{i}" for i in range(1, 6)],
                                grid, rng.uniform(0.1, 0.9, size=(5, grid.size)))
        for name in ("endmember_manifest.csv", "endmember_mnf_means.csv"):
            (out / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\nlibrary_csv = library.csv\n")
        cfg = cli.load_config(str(tmp_path / "p.cfg"))
        cli.run_stage("match", cfg)
        # The float table of the library's cells is 8/19 of its text; the
        # text, a copy of it or a string per cell would pass the text's size.
        assert traced_peak(cli.run_stage, "match", cfg) <= 1.5 * text_bytes

    def write_mtmf_inputs(self, tmp_path, lines):
        """A (lines, 128, 16) MNF cube, the first 8 components of 6 of its
        pixels as class means and a config; returns the config."""
        out = tmp_path / "out"
        shape = (lines, self.LARGE[1], 16)
        self.write_cube_file(out / "mnf_cube.hdr", "mnf_component", shape)
        pixels = envi_io.read_cube(*envi_io.read_payload(out / "mnf_cube.hdr")).pixels()
        means = pixels[np.linspace(0, len(pixels) - 1, 6).astype(int), :8].tolist()
        artifacts.write_table(out / "endmember_mnf_means.csv",
                              ["class_id"] + [f"comp_{i}" for i in range(1, 9)],
                              ([str(c)] + list(map(repr, row)) for c, row in enumerate(means, 1)))
        # Files of earlier stages that the dependency check looks for.
        for name in ("mnf_model/forward.csv", "mnf_model/eigenvalues.csv", "endmembers.csv",
                     "endmember_manifest.csv"):
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).touch()
        (tmp_path / "p.cfg").write_text("output_dir = out\n")
        return cli.load_config(str(tmp_path / "p.cfg"))

    def test_mtmf_stage_holds_blocks(self, tmp_path, monkeypatch):
        from hypermap import mapping

        cfg = self.write_mtmf_inputs(tmp_path, 128)
        cli.run_stage("mtmf", cfg)
        # Blocks of 32 lines of the 8 components the class means use (of
        # the file's 16): the block as read and its whitened copy, beside
        # a few arrays of the block's pixels (two classes' MF scores and
        # infeasibilities, one class's projections, residual deviations
        # and norms) and small buffers. The 8 components of all 128 lines
        # and their whitened copy, the (6, pixels) MF and infeasibility
        # images, or a third block exceed this.
        monkeypatch.setattr(mapping, "_BLOCK_BYTES", 8 * 32 * 128 * 8)
        monkeypatch.setattr(mapping, "_NORM_BLOCK_ELEMENTS", 1 << 10)
        block_pixels = 32 * 128
        budget = 2 * mapping._BLOCK_BYTES + 8 * 8 * block_pixels + (1 << 17)
        assert budget < min(2 * 6 * 128 * 128 * 8, 3 * mapping._BLOCK_BYTES + 8 * 8 * block_pixels)
        assert traced_peak(cli.run_stage, "mtmf", cfg) <= budget

    @pytest.mark.parametrize("stage", ["mnf", "mtmf"])
    def test_stage_peak_does_not_grow_with_the_scene(self, tmp_path, monkeypatch, stage):
        # Blocks of lines and arrays of a block's pixels or of the bands'
        # size; a 4x taller scene adds none of them, and holding a cube-
        # sized array would add 3x its 64-line size. Both scenes take
        # several blocks of 16 lines (mnf's 64 bands, mtmf's 8 components).
        from hypermap import mapping

        monkeypatch.setattr(mapping, "_BLOCK_BYTES", 8 * 16 * 128 * 8)
        peaks = []
        for lines in (64, 256):
            if stage == "mnf":
                cfg = self.write_mnf_inputs(tmp_path / str(lines), (lines, 128, 64))
            else:
                cfg = self.write_mtmf_inputs(tmp_path / str(lines), lines)
            if not peaks:
                cli.run_stage(stage, cfg)  # imports and binds the stage's modules
            peaks.append(traced_peak(cli.run_stage, stage, cfg))
        assert peaks[1] - peaks[0] <= 1 << 16

    def test_ppi_stage_peak_grows_by_the_kept_components(self, tmp_path):
        # The kept components of every pixel (8 bytes each) are the only
        # arrays of the scene's size beside a few of the count image's size
        # (8 bytes a pixel each); the projections are held a chunk of
        # skewers at a time, at most 2 MiB on both scenes. The threshold
        # lets under 1% of a skewer's pixels hit, as on the benchmark's
        # scenes, so the chunk's lists of hits, which grow with that share
        # and not with the scene, stay small; the default 2.5 on these
        # noise-like components lets 10-20% hit.
        k, peaks = 16, []
        for lines in (64, 256):
            out = tmp_path / str(lines) / "out"
            self.write_cube_file(out / "mnf_cube.hdr", "mnf_component", (lines, 128, 32))
            for name in ("mnf_model/forward.csv", "mnf_model/eigenvalues.csv"):
                (out / name).parent.mkdir(exist_ok=True)
                (out / name).touch()
            (out.parent / "p.cfg").write_text(f"output_dir = out\nmnf_keep_k = {k}\n"
                                              "ppi_iterations = 200\nppi_threshold = 0.5\n"
                                              "ppi_max_pixels = 100\n")
            cfg = cli.load_config(str(out.parent / "p.cfg"))
            if not peaks:
                cli.run_stage("ppi", cfg)
            peaks.append(traced_peak(cli.run_stage, "ppi", cfg))
        added = (256 - 64) * 128
        assert peaks[1] - peaks[0] <= 8 * k * added + 3 * 8 * added + (1 << 16)


class TestBlockedStages:
    """`endmembers` and `classify` read the reflectance cube a block at a
    time and still check all of it."""

    @staticmethod
    def put_nan(out, line, sample, band):
        """Write a NaN into reflectance.img (BSQ float64) at one value."""
        header = parse_envi_header((out / "reflectance.hdr").read_text())
        index = (band * header.lines + line) * header.samples + sample
        payload = bytearray((out / "reflectance.img").read_bytes())
        payload[8 * index:8 * index + 8] = np.array([np.nan]).tobytes()
        (out / "reflectance.img").write_bytes(payload)
        return header

    def test_nan_outside_the_pure_pixels_fails_endmembers(self, scenario_dir, capsys):
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi"):
            assert run([stage, "--config", cfg]) == 0
        out = scenario_dir / "out"
        pure = set(artifacts.read_pure_pixels(out / "pure_pixels.csv"))
        line, sample = next((l, s) for l in range(64) for s in range(64) if (l, s) not in pure)
        self.put_nan(out, line, sample, band=37)
        capsys.readouterr()
        assert run(["endmembers", "--config", cfg]) == cli.EXIT_DATA
        assert "cube contains non-finite values" in capsys.readouterr().err

    def test_nan_in_the_last_line_block_fails_classify(self, scenario_dir, capsys, monkeypatch):
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi", "endmembers", "match"):
            assert run([stage, "--config", cfg]) == 0
        header = self.put_nan(scenario_dir / "out", line=63, sample=5, band=59)
        # Blocks of 8 lines: the NaN is in the last of 8.
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", 8 * 8 * header.samples * header.bands)
        capsys.readouterr()
        assert run(["classify", "--config", cfg]) == cli.EXIT_DATA
        assert "cube contains non-finite values" in capsys.readouterr().err
        assert not (scenario_dir / "out" / "sam_class_map.img").exists()

    def test_stages_call_the_names_perfbench_wraps(self, scenario_dir, monkeypatch):
        # perfbench/traced_stage.py times these stages' work by wrapping
        # the `cli` globals `derive_endmembers` and `sam_classify`.
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi"):
            assert run([stage, "--config", cfg]) == 0
        calls = []
        for name in ("derive_endmembers", "sam_classify"):
            def counting(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        for stage in ("endmembers", "match", "classify"):
            assert run([stage, "--config", cfg]) == 0
        assert calls == ["derive_endmembers", "sam_classify"]

    def test_match_and_mtmf_call_the_names_perfbench_wraps(self, scenario_dir, monkeypatch):
        # perfbench/traced_stage.py times these stages by wrapping the `cli`
        # globals `resample_library`, `rank_matches` (once per class) and
        # `mtmf` (once for every class).
        cfg = str(scenario_dir / "pipeline.cfg")
        for stage in ("synth", "preprocess", "mnf", "ppi", "endmembers"):
            assert run([stage, "--config", cfg]) == 0
        calls = []
        for name in ("resample_library", "rank_matches", "mtmf"):
            def counting(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        for stage in ("match", "mtmf"):
            assert run([stage, "--config", cfg]) == 0
        classes = len(artifacts.read_endmembers(scenario_dir / "out" / "endmembers.csv")[0])
        assert classes > 1
        assert calls == ["resample_library"] + ["rank_matches"] * classes + ["mtmf"]
