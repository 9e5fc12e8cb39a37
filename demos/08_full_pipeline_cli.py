#!/usr/bin/env python3
"""The whole pipeline through the CLI on a generated scene.

Writes a config and a synthetic mineral library, generates a mixed scene
with planted pure pixels and a flat calibration strip, then drives every
stage and prints the final report: which mineral each derived class
matched, with its pixel share.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from hypermap import SpectralLibrary, cli, write_spectral_library_file
from hypermap.spectral_match import resample_library
from hypermap.synthcube import synthetic_mineral_library

PIPELINE_CFG = """\
input_header = scene.hdr
input_image = scene.img
library_csv = library.csv
output_dir = out
seed = 99
reflectance_method = flat_field
flat_field_first_line = 48
flat_field_n_lines = 4
flat_field_n_samples = 48
roi_n_lines = 48
roi_n_samples = 48
mnf_keep_k = 8
ppi_iterations = 4000
ppi_threshold = 2.5
ppi_max_pixels = 20
endmember_k = 4
synth_lines = 48
synth_samples = 48
synth_block_size = 8
synth_noise_relative = 0.005
synth_pure_per_endmember = 5
synth_library_csv = scene_endmembers.csv
synth_panel_lines = 4
"""

with tempfile.TemporaryDirectory(prefix="hypermap_demo_") as tmp:
    work = Path(tmp)
    print(f"working in {work}\n")

    # a 20-mineral matching library; the first 4 act as scene endmembers
    library = synthetic_mineral_library(20, seed=42)
    write_spectral_library_file(library, work / "library.csv")

    scene_lib = resample_library(library, np.linspace(450.0, 2450.0, 60))
    write_spectral_library_file(SpectralLibrary(entries=scene_lib.entries[:4]),
                                work / "scene_endmembers.csv")

    (work / "pipeline.cfg").write_text(PIPELINE_CFG)

    cfg = str(work / "pipeline.cfg")
    assert cli.main(["synth", "--config", cfg]) == 0
    assert cli.main(["all", "--config", cfg]) == 0

    print("\nfinal report (class -> top-ranked mineral):")
    with open(work / "out" / "report.csv") as fp:
        for row in csv.DictReader(fp):
            print(f"  class {row['class_id']}: {row['top_mineral']} "
                  f"(weighted {float(row['weighted_score']):.2f}, "
                  f"{row['pixel_count']} pixels, {float(row['percent']):.1f}%)")

    planted = {e.name for e in scene_lib.entries[:4]}
    with open(work / "out" / "report.csv") as fp:
        matched = {row["top_mineral"] for row in csv.DictReader(fp)}
    print(f"\nplanted minerals recovered: {sorted(planted)}")
    print(f"all recovered: {planted <= matched}")
