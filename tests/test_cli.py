"""CLI tests: config handling, exit codes, stage dependencies, artifact
determinism, and staged-vs-all equivalence."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import write_scenario_config, write_scenario_inputs
from hypermap import cli, envi_io
from hypermap.envi_io import SpectralCube, parse_envi_header, serialize_envi_header, write_cube

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
    def test_unknown_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        assert run(["info", "--config", str(path)]) == cli.EXIT_CONFIG

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
        for stage in ("classify", "report"):
            assert run([stage, "--config", cfg]) == cli.EXIT_DEPENDENCY
            assert "re-run 'hypermap match'" in capsys.readouterr().err
        for stage in ("match", "mtmf", "classify", "report"):
            assert run([stage, "--config", cfg]) == 0
        out = scenario_dir / "out"
        assert sorted(p.name for p in out.glob("match_class_*")) == \
            ["match_class_1.csv", "match_class_2.csv", "match_class_3.csv"]
        assert sorted(p.name for p in out.glob("mtmf_class_*")) == \
            [f"mtmf_class_{i}.{ext}" for i in (1, 2, 3) for ext in ("hdr", "img")]
        assert len((out / "report.csv").read_text().splitlines()) == 1 + 3

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


def run_fresh(args, cwd, code=None):
    """Run `python -m hypermap.cli <args>` (or `python -c code <args>`) in a
    new interpreter, so only what that process imports is bound."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    head = ["-m", "hypermap.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


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

    def test_report_imports_no_other_stage_module(self, scenario_dir):
        cfg = str(scenario_dir / "pipeline.cfg")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", cfg]) == 0
        code = ("import sys\nfrom hypermap import cli\nrc = cli.main(sys.argv[1:])\n"
                "print(' '.join(sorted(sys.modules)))\nsys.exit(rc)\n")
        proc = run_fresh(["report", "--config", cfg], cwd=scenario_dir, code=code)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert "hypermap.cli" in loaded
        for name in ("ppi", "mnf", "spectral_match", "synthcube", "endmember"):
            assert f"hypermap.{name}" not in loaded, name

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
    def test_first_bands_equal_full_read(self, tmp_path, interleave, monkeypatch):
        hdr = write_test_cube(tmp_path, interleave)
        full = cli._read_cube(hdr)
        read_sizes = []

        def recording_read_cube(header, raw):
            read_sizes.append(len(raw))
            return envi_io.read_cube(header, raw)

        monkeypatch.setattr(cli, "read_cube", recording_read_cube)
        for k in (1, 3, 5):
            part = cli._read_cube(hdr, bands=k)
            assert part.values.tobytes() == full.values[:, :, :k].tobytes()
            assert part.wavelengths.tobytes() == full.wavelengths[:k].tobytes()
            assert part.bad_band_mask.tolist() == full.bad_band_mask[:k].tolist()
            assert part.units_tag == full.units_tag
        # BSQ reads only the first k bands' bytes; the others read the file.
        plane = 3 * 4 * 8
        whole = os.path.getsize(tmp_path / "cube.img")
        if interleave == "bsq":
            assert read_sizes == [plane, 3 * plane, whole]
        else:
            assert read_sizes == [whole] * 3

    def test_prefix_header_cuts_band_lists(self, tmp_path, monkeypatch):
        hdr = write_test_cube(tmp_path, "bsq")
        headers = []

        def recording_read_cube(header, raw):
            headers.append(header)
            return envi_io.read_cube(header, raw)

        monkeypatch.setattr(cli, "read_cube", recording_read_cube)
        cli._read_cube(hdr, bands=2)
        assert headers[0].bands == 2
        assert headers[0].wavelengths == [500.0, 600.0]
        assert headers[0].fwhm == [10.0, 11.0]
        assert headers[0].bad_band_multiplier == [1, 0]

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

    def test_keep_k_above_band_count_is_config_error(self, scenario_dir, capsys):
        cfg_path = scenario_dir / "pipeline.cfg"
        cfg = str(cfg_path)
        for s in ("synth", "preprocess", "mnf"):
            assert run([s, "--config", cfg]) == 0
        bands = parse_envi_header((scenario_dir / "out" / "mnf_cube.hdr").read_text()).bands
        cfg_path.write_text(cfg_path.read_text().replace(
            "mnf_keep_k = 8", f"mnf_keep_k = {bands + 1}"))
        capsys.readouterr()
        assert run(["ppi", "--config", cfg]) == cli.EXIT_CONFIG
        assert f"config key 'mnf_keep_k': must be in 1..{bands} for this cube" in \
            capsys.readouterr().err
