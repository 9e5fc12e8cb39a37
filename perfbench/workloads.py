"""The benchmark's workloads: seeded scene, library and config overrides.

Each workload is chosen so that one group of layers does most of the
work (see `why`). Scene sizes are scaled so that a run repeats its timed
stage sequence several times within the run length on a 2-core machine
with about 8 GB of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FULL_SEQUENCE = ("preprocess", "mnf", "ppi", "endmembers", "match",
                 "classify", "mtmf", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lines: int
    samples: int
    scene_bands: int
    scene_range_nm: tuple[float, float]
    library_entries: int
    library_grid_nm: tuple[float, float, float]
    endmembers: int
    config: dict
    setup_stages: tuple[str, ...] = ()
    timed_stages: tuple[str, ...] = FULL_SEQUENCE
    hyperion_tables: bool = False

    def scene_wavelengths(self) -> np.ndarray:
        lo, hi = self.scene_range_nm
        return np.linspace(lo, hi, self.scene_bands)

    def library_wavelengths(self) -> np.ndarray:
        lo, hi, step = self.library_grid_nm
        return np.arange(lo, hi + step / 2, step)


# Stock thresholds (ppi_threshold, sam_max_angle, analyst weights) and one
# PPI worker everywhere, so timings do not depend on thread scheduling.
COMMON_CONFIG = {
    "ppi_workers": 1,
    "synth_block_size": 4,
    "synth_noise_relative": 0.005,
    "synth_pure_per_endmember": 5,
    "synth_library_csv": "scene_library.csv",
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ppi_scene",
        why="10000 PPI skewers with the trace on: ppi is about half the time, "
            "match and mapping are small",
        lines=128, samples=128, scene_bands=150, scene_range_nm=(450.0, 2450.0),
        library_entries=60, library_grid_nm=(400.0, 2500.0, 10.0), endmembers=10,
        config={"mnf_keep_k": 20, "ppi_iterations": 10000, "ppi_trace": "true",
                "endmember_k": 10}),
    Workload(
        name="match_library",
        why="resume at endmembers against a 500-entry library: spectral_match "
            "and per-class mtmf dominate, PPI and MNF are not timed",
        lines=128, samples=128, scene_bands=150, scene_range_nm=(450.0, 2450.0),
        library_entries=500, library_grid_nm=(400.0, 2500.0, 10.0), endmembers=6,
        config={"mnf_keep_k": 20, "ppi_iterations": 2000, "ppi_trace": "true",
                "endmember_k": 6},
        setup_stages=("preprocess", "mnf", "ppi"),
        timed_stages=("endmembers", "match", "classify", "mtmf", "report")),
    Workload(
        name="hyperion_strip",
        why="242-band radiance through the stock Hyperion gains and band mask: "
            "the largest cube, so envi_io, preprocess, mnf and mapping set peak memory",
        lines=256, samples=128, scene_bands=242, scene_range_nm=(356.0, 2577.0),
        library_entries=60, library_grid_nm=(350.0, 2590.0, 10.0), endmembers=10,
        config={"mnf_keep_k": 20, "ppi_iterations": 1000, "ppi_trace": "false",
                "endmember_k": 10},
        hyperion_tables=True),
)}
