"""Hyperspectral mineral mapping toolkit.

Ingest ENVI-format radiance cubes, correct them to reflectance, reduce
noise (MNF), find spectrally pure pixels (PPI), derive endmembers
(k-means), identify minerals by ranked library matching (SAM, spectral
feature fitting, binary encoding), and map their distribution (SAM
classification, matched filtering / MTMF).
"""

__version__ = "0.1.0"

from .endmember import EndmemberSet, derive_endmembers, kmeans
from .envi_io import (
    EnviHeader,
    SpectralCube,
    SpectralLibrary,
    SpectrumRecord,
    parse_envi_header,
    read_cube,
    read_spectral_library,
    read_spectral_library_file,
    serialize_envi_header,
    write_cube,
    write_cube_file,
    write_spectral_library,
    write_spectral_library_file,
)
from .mapping import ClassMap, MtmfResult, class_statistics, matched_filter, mtmf, sam_classify
from .mnf import (
    MnfModel,
    NoiseEstimate,
    estimate_noise_covariance,
    fit_mnf,
    forward_mnf,
    inverse_mnf,
    load_mnf_model,
    save_mnf_model,
)
from .numerics import RandomSource, splitmix64, symmetric_eig
from .ppi import PpiImage, PpiParams, run_ppi, select_pure_pixels
from .preprocess import (
    Roi,
    reflectance_flat_field,
    reflectance_iarr,
    remove_bad_bands,
    scale_radiance,
    standardize,
    subset_roi,
)
from .spectral_match import (
    AnalystWeights,
    MatchScore,
    be_score,
    binary_encode,
    continuum_remove,
    rank_matches,
    resample_library,
    sam_angle,
    sff_score,
)
from .synthcube import GroundTruth, MixingScenario, generate, plant_pure_pixels, random_abundance_field

__all__ = [
    "AnalystWeights",
    "ClassMap",
    "EndmemberSet",
    "EnviHeader",
    "GroundTruth",
    "MatchScore",
    "MixingScenario",
    "MnfModel",
    "MtmfResult",
    "NoiseEstimate",
    "PpiImage",
    "PpiParams",
    "RandomSource",
    "Roi",
    "SpectralCube",
    "SpectralLibrary",
    "SpectrumRecord",
    "be_score",
    "binary_encode",
    "class_statistics",
    "continuum_remove",
    "derive_endmembers",
    "estimate_noise_covariance",
    "fit_mnf",
    "forward_mnf",
    "generate",
    "inverse_mnf",
    "kmeans",
    "load_mnf_model",
    "matched_filter",
    "mtmf",
    "parse_envi_header",
    "plant_pure_pixels",
    "random_abundance_field",
    "rank_matches",
    "read_cube",
    "read_spectral_library",
    "read_spectral_library_file",
    "reflectance_flat_field",
    "reflectance_iarr",
    "remove_bad_bands",
    "resample_library",
    "run_ppi",
    "sam_angle",
    "sam_classify",
    "save_mnf_model",
    "scale_radiance",
    "select_pure_pixels",
    "serialize_envi_header",
    "sff_score",
    "splitmix64",
    "standardize",
    "subset_roi",
    "symmetric_eig",
    "write_cube",
    "write_cube_file",
    "write_spectral_library",
    "write_spectral_library_file",
]
