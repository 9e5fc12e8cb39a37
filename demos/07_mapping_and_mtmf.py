#!/usr/bin/env python3
"""Mapping: SAM classification and mixture-tuned matched filtering.

Builds a scene of three materials plus mixtures, maps it with SAM, then
runs the matched filter for one target and shows how infeasibility
separates true abundance from false positives.
"""

import numpy as np

from hypermap import (
    RandomSource,
    SpectralCube,
    class_statistics,
    mtmf,
    sam_classify,
)
from hypermap.synthcube import synthetic_mineral_library

rs = RandomSource(11)
library = synthetic_mineral_library(3, seed=21)
spectra = np.stack([e.reflectance for e in library.entries])
k, bands = spectra.shape

lines = samples = 16
values = np.zeros((lines, samples, bands))
for i in range(lines * samples):
    line, sample = divmod(i, samples)
    if i % 4 < 3:  # three quarters are near-pure pixels
        which = i % 3
        weights = np.full(k, 0.04)
        weights[which] = 0.92
    else:  # the rest are heavy mixtures
        u = np.array([rs.next_uniform() for _ in range(k)]) + 0.2
        weights = u / u.sum()
    values[line, sample] = weights @ spectra + 0.002 * rs.gaussians(bands)

cube = SpectralCube(values=values, wavelengths=library.entries[0].wavelengths,
                    bad_band_mask=np.ones(bands, dtype=bool),
                    units_tag="reflectance")
cmap = sam_classify(cube, spectra, max_angle=0.10)
print("class statistics (0 = unclassified):")
for cid, count, percent in class_statistics(cmap):
    name = "unclassified" if cid == 0 else library.names()[cid - 1]
    print(f"  class {cid} ({name}): {count} pixels, {percent:.1f}%")

# matched filter against material 0 in a whitened toy component space
rs2 = RandomSource(12)
mnf_values = rs2.gaussians(lines * samples * 5).reshape(lines, samples, 5)
target = mnf_values[0, 0] + np.array([6.0, 0.0, 0.0, 0.0, 0.0])
mnf_values[2, 2] = target                      # true target pixel
mnf_values[3, 3] = target + np.array([0.0, 0.0, 8.0, 0.0, 0.0])  # impostor

mnf_cube = SpectralCube(values=mnf_values, wavelengths=np.arange(1.0, 6.0),
                        bad_band_mask=np.ones(5, dtype=bool),
                        units_tag="mnf_component")
result = mtmf(mnf_cube, target)
print("\nmatched filter + infeasibility:")
print(f"  true target pixel (2,2): mf={result.mf_score[2, 2]:+.3f}, "
      f"infeasibility={result.infeasibility[2, 2]:.2f}")
print(f"  impostor pixel  (3,3): mf={result.mf_score[3, 3]:+.3f}, "
      f"infeasibility={result.infeasibility[3, 3]:.2f}  (high -> reject)")
print(f"  background mean mf: {result.mf_score.mean():+.4f}")
