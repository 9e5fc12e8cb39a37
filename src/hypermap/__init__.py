"""Hyperspectral mineral mapping toolkit.

Ingest ENVI-format radiance cubes, correct them to reflectance, reduce
noise (MNF), find spectrally pure pixels (PPI), derive endmembers
(k-means), identify minerals by ranked library matching (SAM, spectral
feature fitting, binary encoding), and map their distribution (SAM
classification, matched filtering / MTMF).

Importing the package imports none of its modules: each public name
below is imported from its module on first access (PEP 562), so a CLI
stage process pays only for the modules that stage uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in {
    "cube_blocks": ("CubeFile",),
    "endmember": ("EndmemberSet", "derive_endmembers", "kmeans"),
    "envi_io": ("EnviHeader", "SpectralCube", "SpectralLibrary", "SpectrumRecord",
                "parse_envi_header", "read_cube", "read_payload", "read_spectral_library",
                "read_spectral_library_file", "serialize_envi_header", "write_cube",
                "write_cube_file", "write_spectral_library",
                "write_spectral_library_file"),
    "mapping": ("ClassMap", "MtmfResult", "class_statistics", "matched_filter", "mtmf",
                "sam_classify"),
    "mnf": ("MnfModel", "NoiseEstimate", "estimate_noise_covariance", "fit_mnf",
            "forward_mnf", "inverse_mnf", "load_mnf_model", "save_mnf_model"),
    "numerics": ("RandomSource", "splitmix64", "symmetric_eig"),
    "ppi": ("PpiImage", "PpiParams", "run_ppi", "select_pure_pixels"),
    "preprocess": ("Roi", "reflectance_flat_field", "reflectance_iarr", "remove_bad_bands",
                   "scale_radiance", "standardize", "subset_roi"),
    "spectral_match": ("AnalystWeights", "MatchScore", "be_score", "binary_encode",
                       "continuum_remove", "prepare_library", "rank_matches",
                       "resample_library", "sam_angle", "sff_score"),
    "synthcube": ("GroundTruth", "MixingScenario", "generate", "plant_pure_pixels",
                  "random_abundance_field"),
}.items() for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
