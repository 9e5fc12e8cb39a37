"""Write a workload's matching library and scene endmember library.

    python perfbench/scene_inputs.py <workload> <seed> <directory>

The matching library (`library.csv`) is a seeded synthetic mineral
library; the scene endmembers (`scene_library.csv`) are entries drawn
from it by the same seed and resampled onto the scene's band grid, so
`hypermap synth` mixes minerals the library can identify by name.
Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from hypermap.envi_io import SpectralLibrary, write_spectral_library_file
from hypermap.spectral_match import resample_library
from hypermap.synthcube import synthetic_mineral_library

from workloads import WORKLOADS


def write_inputs(workload_name: str, seed: int, directory: str) -> None:
    w = WORKLOADS[workload_name]
    library = synthetic_mineral_library(w.library_entries, seed=seed,
                                        wavelengths=w.library_wavelengths())
    write_spectral_library_file(library, os.path.join(directory, "library.csv"))

    picks = np.sort(np.random.default_rng(seed).choice(
        w.library_entries, size=w.endmembers, replace=False))
    chosen = SpectralLibrary(entries=[library.entries[i] for i in picks],
                             source_tag="scene")
    scene = resample_library(chosen, w.scene_wavelengths())
    rows = ["wavelength_nm," + ",".join(e.name for e in scene.entries)]
    for i, wl in enumerate(scene.entries[0].wavelengths):
        cells = [repr(float(wl))] + [repr(float(e.reflectance[i])) for e in scene.entries]
        rows.append(",".join(cells))
    with open(os.path.join(directory, "scene_library.csv"), "w", encoding="utf-8") as fp:
        fp.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
