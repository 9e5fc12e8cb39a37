"""Staged pipeline driver.

Each stage declares in `_STAGES` the files it reads from the output
directory, which must exist, and those it writes there, which it first
removes, so every intermediate is inspectable and a run can resume
anywhere. Invocation:

    hypermap <stage> --config <path> [--seed N] [--out DIR]

Stages: info, preprocess, mnf, ppi, endmembers, match, classify, mtmf,
synth, report, all. `hypermap init --out DIR` writes a default config
plus the stock Hyperion band-mask and gain tables. Exit codes: 0 ok,
2 config error, 3 missing-dependency error, 4 data error.
"""

from __future__ import annotations

import argparse
import fnmatch
import glob
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

# BLAS splits a product's sums by thread, which moves their last bits, so
# every stage runs it at one thread and writes the same bytes on any
# machine. This holds only if numpy is not yet imported.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import _EXPORTS, __version__, artifacts
from .envi_io import (
    SpectralCube,
    parse_envi_header,
    read_cube,
    read_payload,
    read_spectral_library_file,
    write_cube_file,
)

# Names resolve through the package's `_EXPORTS`. `run_stage` binds the
# names a stage's code looks up just before it runs, so a stage process
# imports only what it uses; a name already bound (a test double or a
# timing wrapper) stays.
def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_DATA = 4


class ConfigError(Exception):
    """Bad or missing configuration value."""


class DependencyError(Exception):
    """A prior stage's artifacts are missing."""


# ---------------------------------------------------------------------------
# configuration

_TRUE = ("true", "1", "yes")
_FALSE = ("false", "0", "no")


DEFAULT_CONFIG_NAME = "default.cfg"
HYPERION_BAND_MASK_NAME = "hyperion_bad_bands.csv"
HYPERION_GAINS_NAME = "hyperion_gains.csv"


def _key(default, *, count=False, section=None, hint="", init=None):
    """A config key: its default, whether it is a count that must be >= 1,
    the section comment `init` writes above it, a comment `init` writes
    after it, and the value `init` writes in place of the default."""
    return field(default=default,
                 metadata={"count": count, "section": section, "hint": hint, "init": init})


@dataclass
class PipelineConfig:
    input_header: str = _key("scene.hdr", section="inputs")
    input_image: str = "scene.img"
    band_mask_csv: str = _key("", init=HYPERION_BAND_MASK_NAME)
    gains_csv: str = _key("", init=HYPERION_GAINS_NAME)
    library_csv: str = "library.csv"
    output_dir: str = "out"
    seed: int = 42

    roi_first_line: int = _key(0, section="spatial subset (0 extent = full scene)")
    roi_first_sample: int = 0
    roi_n_lines: int = 0
    roi_n_samples: int = 0

    reflectance_method: str = _key("iarr", section="reflectance retrieval",
                                   hint="   ; iarr | flat_field")
    flat_field_first_line: int = 0
    flat_field_first_sample: int = 0
    flat_field_n_lines: int = 0
    flat_field_n_samples: int = 0

    mnf_keep_k: int = _key(48, count=True, section="noise reduction")

    ppi_iterations: int = _key(10000, count=True, section="pure pixel search")
    ppi_threshold: float = 2.5
    ppi_min_count: int = _key(1, count=True)
    ppi_max_pixels: int = _key(10000, count=True)
    ppi_workers: int = _key(1, count=True)
    ppi_trace: bool = True

    endmember_k: int = _key(48, count=True, section="endmember clustering")

    weight_sam: float = _key(1.0, section="spectral analyst weights")
    weight_sff: float = 1.0
    weight_be: float = 1.0

    sam_max_angle: float = _key(0.10, section="mapping")

    synth_lines: int = _key(64, count=True, section="synthetic scene generation")
    synth_samples: int = _key(64, count=True)
    synth_block_size: int = _key(1, count=True)
    synth_noise_relative: float = 0.0
    synth_pure_per_endmember: int = _key(5, count=True)
    synth_library_csv: str = ""
    synth_panel_lines: int = 0

    base_dir: str = "."

    def resolve(self, path: str) -> str:
        if not path:
            return path
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    @property
    def out(self) -> str:
        return self.resolve(self.output_dir)

    def artifact(self, name: str) -> str:
        return os.path.join(self.out, name)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; `;` starts a comment; keys lowercased.
    A key given more than once takes its last value."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = " ".join(key.strip().lower().split())
        value = value.split(";", 1)[0].strip()
        out[key] = value
    return out


def config_from_text(text: str, base_dir: str = ".") -> PipelineConfig:
    raw = parse_config_text(text)
    cfg = PipelineConfig(base_dir=base_dir)
    known = {f.name for f in fields(PipelineConfig)}
    for key, value in raw.items():
        if key not in known or key == "base_dir":
            raise ConfigError(f"unknown config key '{key}'")
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                low = value.lower()
                if low in _TRUE:
                    parsed = True
                elif low in _FALSE:
                    parsed = False
                else:
                    raise ValueError
            elif isinstance(current, int):
                parsed = int(value)
            elif isinstance(current, float):
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(
                f"config key '{key}': cannot parse {value!r} as "
                f"{type(current).__name__}") from None
        setattr(cfg, key, parsed)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: PipelineConfig) -> None:
    # Counts must be >= 1, every other int or float key >= 0 and every
    # float key finite. Keys are checked in declaration order, so of
    # several bad keys the same one is named.
    numbers = [f for f in fields(PipelineConfig) if f.type in ("int", "float")]
    for f in numbers:
        if f.metadata.get("count") and getattr(cfg, f.name) < 1:
            raise ConfigError(f"config key '{f.name}': must be an integer >= 1")
    for kind, noun in (("int", "an integer"), ("float", "a number")):
        for f in numbers:
            if f.type == kind and not f.metadata.get("count") and getattr(cfg, f.name) < 0:
                raise ConfigError(f"config key '{f.name}': must be {noun} >= 0")
    if cfg.seed >= 2 ** 64:  # the seed is one 64-bit splitmix64 state
        raise ConfigError("config key 'seed': must be an integer below 2^64")
    if cfg.reflectance_method not in ("iarr", "flat_field"):
        raise ConfigError(
            "config key 'reflectance_method': must be 'iarr' or 'flat_field'")
    if max(cfg.weight_sam, cfg.weight_sff, cfg.weight_be) <= 0:
        raise ConfigError(
            "config keys 'weight_sam'/'weight_sff'/'weight_be': at least one must be > 0")
    if cfg.reflectance_method == "flat_field" and \
            (cfg.flat_field_n_lines < 1 or cfg.flat_field_n_samples < 1):
        raise ConfigError(
            "config keys 'flat_field_n_lines'/'flat_field_n_samples': must be >= 1 "
            "when reflectance_method = flat_field")
    for f in numbers:
        if f.type == "float" and not np.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"config key '{f.name}': must be a finite number")


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return config_from_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def default_config_text() -> str:
    cfg = PipelineConfig()
    lines = ["; hypermap pipeline configuration (generated defaults)"]
    for f in fields(PipelineConfig):
        if f.name == "base_dir":
            continue
        if f.metadata.get("section"):
            lines += ["", f"; --- {f.metadata['section']} ---"]
        value = f.metadata.get("init") or getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}{f.metadata.get('hint', '')}")
    return "\n".join(lines + [""])


def write_default_configs(directory: str) -> list[str]:
    """Write default.cfg plus the stock Hyperion band tables; returns paths."""
    paths = [os.path.join(directory, name) for name in
             (DEFAULT_CONFIG_NAME, HYPERION_BAND_MASK_NAME, HYPERION_GAINS_NAME)]
    artifacts.write_text(paths[0], default_config_text())
    artifacts.write_hyperion_tables(paths[1], paths[2])
    return paths


# ---------------------------------------------------------------------------
# stages


def _single_band_cube(grid: np.ndarray, units: str = "score") -> SpectralCube:
    return SpectralCube(values=grid[:, :, None].astype(np.float64),
                        wavelengths=np.array([1.0]),
                        bad_band_mask=np.array([True]),
                        units_tag=units)


def _read_classes(read, path: str, first: int, k: int, producer: str) -> dict:
    """`read(path)`, a table by class id, checked to list exactly classes
    first..k, where k is the class count of endmembers.csv."""
    table = read(path)
    if sorted(table) != list(range(first, k + 1)):
        raise DependencyError(
            f"{os.path.basename(path)} does not list classes {first}..{k} of endmembers.csv; "
            f"re-run 'hypermap {producer}'")
    return table


def stage_info(cfg: PipelineConfig) -> None:
    header_path = cfg.resolve(cfg.input_header)
    if not os.path.exists(header_path):
        raise ConfigError(f"input file {header_path!r} does not exist")
    header = parse_envi_header(artifacts.read_text(header_path))
    print(f"input: {header_path}")
    print(f"dimensions: {header.samples} x {header.lines} x {header.bands} "
          "(samples x lines x bands)")
    print(f"interleave: {header.interleave}")
    print(f"data type: {header.data_type}")
    print(f"byte order: {header.byte_order}")
    print(f"wavelengths: {'present' if header.wavelengths else 'absent'}")
    if header.extra:
        print(f"extra keys: {', '.join(sorted(header.extra))}")


def stage_preprocess(cfg: PipelineConfig, reflectance: str) -> None:
    header_path = cfg.resolve(cfg.input_header)
    image_path = cfg.resolve(cfg.input_image)
    for path in (header_path, image_path):
        if not os.path.exists(path):
            raise ConfigError(f"input file {path!r} does not exist")
    scene = CubeFile(header_path, image_path)  # read a block of lines at a time
    # The whole gains table is checked before any band is dropped.
    gains = keep = None
    if cfg.gains_csv:
        gains = read_gains_csv(artifacts.read_text(cfg.resolve(cfg.gains_csv)), scene.bands)
    if cfg.band_mask_csv:
        keep = read_band_mask_csv(artifacts.read_text(cfg.resolve(cfg.band_mask_csv)),
                                  scene.bands)

    roi = field = None
    if cfg.roi_n_lines > 0 or cfg.roi_n_samples > 0:
        if cfg.roi_n_lines < 1 or cfg.roi_n_samples < 1:
            raise ConfigError(
                "config keys 'roi_n_lines'/'roi_n_samples': set both >= 1 or both 0")
        roi = Roi(cfg.roi_first_line, cfg.roi_first_sample,
                  cfg.roi_n_lines, cfg.roi_n_samples)
    if cfg.reflectance_method == "flat_field":
        # The flat-field region may lie outside the analysis ROI: the mean
        # is taken on the full extent and the ROI cropped afterwards.
        field = Roi(cfg.flat_field_first_line, cfg.flat_field_first_sample,
                    cfg.flat_field_n_lines, cfg.flat_field_n_samples)

    samples, lines, bands = write_reflectance(scene, reflectance, keep, gains, roi, field)
    print(f"preprocess: wrote reflectance cube {samples} x {lines} x {bands}")


def stage_mnf(cfg: PipelineConfig, reflectance: str, mnf_cube: str, mnf_model: str) -> None:
    cube = CubeFile(reflectance)  # read a block of lines at a time
    if not 1 <= cfg.mnf_keep_k <= cube.bands:
        raise ConfigError(
            f"config key 'mnf_keep_k': must be in 1..{cube.bands} for this cube")
    model = fit_forward_to_file(cube, mnf_cube, keep_k=cfg.mnf_keep_k)
    save_mnf_model(model, os.path.dirname(mnf_model))
    print(f"mnf: eigenvalue range [{model.eigenvalues[-1]:.4g}, "
          f"{model.eigenvalues[0]:.4g}], keep_k = {cfg.mnf_keep_k}")


def _check_keep_k(cfg: PipelineConfig, mnf_cube) -> None:
    """The MNF cube holds only the components `mnf` kept, so a larger
    `mnf_keep_k` than that needs `mnf` to run again."""
    if not 1 <= cfg.mnf_keep_k <= mnf_cube.bands:
        raise ConfigError(
            f"config key 'mnf_keep_k': must be in 1..{mnf_cube.bands} for this cube; "
            "re-run mnf to keep more components")


def stage_ppi(cfg: PipelineConfig, mnf_cube: str, ppi_counts: str, pure_pixels: str,
              ppi_trace: str) -> None:
    cube = CubeFile(mnf_cube)  # run_ppi reads the kept components
    _check_keep_k(cfg, cube)
    params = PpiParams(n_iterations=cfg.ppi_iterations,
                       threshold=cfg.ppi_threshold, seed=cfg.seed)
    image = run_ppi(cube, params, use_k_components=cfg.mnf_keep_k,
                    n_workers=cfg.ppi_workers, trace=cfg.ppi_trace)
    pixels = select_pure_pixels(image, min_count=cfg.ppi_min_count,
                                max_pixels=cfg.ppi_max_pixels)
    write_cube_file(_single_band_cube(image.counts), ppi_counts, data_type="int32")
    artifacts.write_pure_pixels(pure_pixels, image, pixels)
    if cfg.ppi_trace:
        artifacts.write_ppi_trace(ppi_trace, image.trace)
    nonzero = int(np.count_nonzero(image.counts))
    print(f"ppi: {nonzero} pixels counted at least once; "
          f"{len(pixels)} selected as pure candidates")


def stage_endmembers(cfg: PipelineConfig, reflectance: str, mnf_cube: str, pure_pixels: str,
                     endmembers: str, manifest: str, mnf_means: str) -> None:
    # Both cubes are read a block of bands at a time by derive_endmembers.
    corrected, components = CubeFile(reflectance), CubeFile(mnf_cube)
    _check_keep_k(cfg, components)
    pixels = artifacts.read_pure_pixels(pure_pixels)
    if not pixels:
        raise ValueError("no pure pixels were selected; lower ppi_min_count")
    es = derive_endmembers(corrected, components, pixels, k=cfg.endmember_k,
                           seed=cfg.seed, use_k_components=cfg.mnf_keep_k)
    artifacts.write_endmembers(endmembers, es)
    artifacts.write_manifest(manifest, es)
    artifacts.write_mnf_means(mnf_means, es)
    print(f"endmembers: derived {es.k} classes from {len(pixels)} pure pixels")


def stage_match(cfg: PipelineConfig, endmembers: str, rankings: str, summary: str) -> None:
    library_path = cfg.resolve(cfg.library_csv)
    if not os.path.exists(library_path):
        raise ConfigError(f"library file {library_path!r} does not exist")
    lib = read_spectral_library_file(library_path)
    _, wavelengths, spectra = artifacts.read_endmembers(endmembers)
    resampled = resample_library(lib, wavelengths)
    del lib  # the table as read is not needed once resampled
    library = prepare_library(resampled)
    weights = AnalystWeights(cfg.weight_sam, cfg.weight_sff, cfg.weight_be)

    head, tail = rankings.rsplit("*", 1)
    tops = []
    for class_id, unknown in enumerate(spectra, start=1):
        scores = rank_matches(unknown, library, weights)
        artifacts.write_rankings(f"{head}{class_id}{tail}", scores)
        tops.append(scores[0])
    artifacts.write_match_summary(summary, tops)
    print(f"match: ranked {len(library.entries)} library entries "
          f"against {len(spectra)} classes")


def stage_classify(cfg: PipelineConfig, reflectance: str, endmembers: str, summary: str,
                   class_map: str, statistics: str, legend: str) -> None:
    corrected = CubeFile(reflectance)  # read by sam_classify
    _, _, spectra = artifacts.read_endmembers(endmembers)
    top = _read_classes(artifacts.read_match_summary, summary, 1, spectra.shape[0], "match")
    cmap = sam_classify(corrected, spectra, max_angle=cfg.sam_max_angle)
    write_cube_file(_single_band_cube(cmap.class_index.astype(np.float64)),
                    class_map, data_type="int32")
    artifacts.write_class_statistics(statistics, cmap)
    artifacts.write_class_legend(legend, top)
    classified = int(np.count_nonzero(cmap.class_index))
    print(f"classify: {classified}/{cmap.class_index.size} pixels classified "
          f"at max angle {cfg.sam_max_angle}")


def stage_mtmf(cfg: PipelineConfig, mnf_cube: str, mnf_means: str, images: str) -> None:
    means = artifacts.read_mnf_means(mnf_means)
    cube = CubeFile(mnf_cube)  # mtmf reads the components it uses
    if means.shape[1] > cube.bands:
        raise ValueError("endmember MNF means have more components than the cube")
    head, tail = images.rsplit("*", 1)
    # Each class's MF and infeasibility images are written a block at a time.
    mtmf(cube, means, [f"{head}{class_id}{tail}" for class_id in range(1, means.shape[0] + 1)])
    print(f"mtmf: wrote MF/infeasibility images for {means.shape[0]} classes")


def stage_synth(cfg: PipelineConfig, abundances: str, pure_pixels: str) -> None:
    library_path = cfg.resolve(cfg.synth_library_csv or cfg.library_csv)
    if not os.path.exists(library_path):
        raise ConfigError(f"synth library file {library_path!r} does not exist")
    lib = read_spectral_library_file(library_path)
    endmembers = np.stack([e.reflectance for e in lib.entries])
    wavelengths = lib.entries[0].wavelengths
    k = endmembers.shape[0]
    lines, samples = cfg.synth_lines, cfg.synth_samples

    root = RandomSource(cfg.seed)
    # Spatially patchy scene: one Dirichlet draw per block, upsampled.
    # Keeps in-patch pixel differences noise-only, which is the premise
    # of shift-difference noise estimation.
    block = cfg.synth_block_size
    if lines % block or samples % block:
        raise ConfigError(
            "config key 'synth_block_size': must divide synth_lines and synth_samples")
    coarse = random_abundance_field(lines // block, samples // block, k,
                                    seed=root.spawn(0).seed)
    field = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)
    total = k * cfg.synth_pure_per_endmember
    if total > lines * samples:
        raise ConfigError(
            "config key 'synth_pure_per_endmember': too many pure pixels "
            "for the scene extent")
    stride = (lines * samples) // total
    plan = []
    for i in range(total):
        pos = i * stride
        plan.append((pos // samples, pos % samples, i % k))
    field = plant_pure_pixels(field, plan)

    scenario = MixingScenario(endmembers=endmembers, wavelengths=wavelengths,
                              abundance_field=field, noise_relative=cfg.synth_noise_relative,
                              pure_pixel_plan=plan, seed=root.spawn(1).seed)
    cube, truth = generate(scenario)
    sigma = truth.noise_sigma

    strip = None
    if cfg.synth_panel_lines > 0:
        # Spectrally flat calibration strip written below the scene; used
        # as the flat-field region for absolute-reflectance recovery.
        strip = np.ones((cfg.synth_panel_lines, samples, endmembers.shape[1]))
        if sigma > 0:
            add_noise(strip, sigma, root.spawn(2))
        strip = cube.copy_with(values=strip)

    write_cube_file(cube, cfg.resolve(cfg.input_header), cfg.resolve(cfg.input_image),
                    interleave="bil", data_type="float64", below=strip)

    artifacts.write_truth_abundances(abundances, truth.abundances)
    artifacts.write_truth_pure_pixels(pure_pixels, truth.pure_pixels,
                                      [e.name for e in lib.entries])
    print(f"synth: wrote {cube.samples} x {lines + cfg.synth_panel_lines} x {cube.bands} scene "
          f"with {len(plan)} pure pixels (sigma = {sigma:.6g})")


def stage_report(cfg: PipelineConfig, eigenvalues: str, ppi_counts: str, endmembers: str,
                 summary: str, statistics: str, report: str, plot_spectra: str,
                 plot_histogram: str, plot_eigenvalues: str) -> None:
    _, _, spectra = artifacts.read_endmembers(endmembers)
    top = _read_classes(artifacts.read_match_summary, summary, 1, spectra.shape[0], "match")
    stats = _read_classes(artifacts.read_class_statistics, statistics, 0, len(top), "classify")
    artifacts.write_report(report, top, stats)
    artifacts.write_text(plot_spectra, artifacts.read_text(endmembers))
    counts_cube = read_cube(*read_payload(ppi_counts))
    artifacts.write_ppi_histogram(plot_histogram, counts_cube.values[:, :, 0].astype(np.int64))
    artifacts.write_eigenvalue_curve(plot_eigenvalues, eigenvalues)
    print(f"report: wrote report.csv with {len(top)} classes")


@dataclass(frozen=True)
class Stage:
    """A CLI stage and the files under the output directory it reads and
    writes; `run` takes the config, then each one's path. A `.hdr` name
    brings its `.img`; a write may be a glob, its `*` a class id."""

    name: str
    run: Callable[..., None]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    in_all: bool = True


# In subcommand order; `all` runs the `in_all` stages in this order. Reads
# are in pipeline order, so a check names the earliest stage to re-run.
_STAGES = {s.name: s for s in (
    Stage("info", stage_info, in_all=False),
    Stage("preprocess", stage_preprocess, writes=("reflectance.hdr",)),
    Stage("mnf", stage_mnf, ("reflectance.hdr",), ("mnf_cube.hdr", "mnf_model/*.csv")),
    Stage("ppi", stage_ppi, ("mnf_cube.hdr",),
          ("ppi_counts.hdr", "pure_pixels.csv", "ppi_trace.csv")),
    Stage("endmembers", stage_endmembers, ("reflectance.hdr", "mnf_cube.hdr", "pure_pixels.csv"),
          ("endmembers.csv", "endmember_manifest.csv", "endmember_mnf_means.csv")),
    Stage("match", stage_match, ("endmembers.csv",), ("match_class_*.csv", "match_summary.csv")),
    Stage("classify", stage_classify, ("reflectance.hdr", "endmembers.csv", "match_summary.csv"),
          ("sam_class_map.hdr", "class_statistics.csv", "class_legend.csv")),
    Stage("mtmf", stage_mtmf, ("mnf_cube.hdr", "endmember_mnf_means.csv"), ("mtmf_class_*.hdr",)),
    Stage("synth", stage_synth, writes=("truth_abundances.csv", "truth_pure_pixels.csv"),
          in_all=False),
    Stage("report", stage_report, ("mnf_model/eigenvalues.csv", "ppi_counts.hdr", "endmembers.csv",
                                   "match_summary.csv", "class_statistics.csv"),
          ("report.csv", "plot_endmember_spectra.csv", "plot_ppi_histogram.csv",
           "plot_eigenvalues.csv")),
)}


def _files(name: str) -> tuple[str, ...]:
    return (name, name[:-4] + ".img") if name.endswith(".hdr") else (name,)


def run_stage(stage: str, cfg: PipelineConfig) -> None:
    """Run one pipeline stage (or `all`); raises on failure. Before a stage
    runs, each file it reads must exist, and every file that matches one
    of its writes is removed, so a failed run leaves none of them."""
    if stage == "all":
        stages = [s for s in _STAGES.values() if s.in_all]
    elif stage in _STAGES:
        stages = [_STAGES[stage]]
    else:
        raise ConfigError(f"unknown stage '{stage}'")
    for s in stages:
        for read in s.reads:
            for name in _files(read):
                if not os.path.exists(cfg.artifact(name)):
                    producer = next(p.name for p in _STAGES.values()
                                    if any(fnmatch.fnmatchcase(read, w) for w in p.writes))
                    raise DependencyError(
                        f"missing artifact '{name}' from stage '{producer}'; "
                        f"run 'hypermap {producer}' first")
        for name in (n for write in s.writes for n in _files(write)):
            for path in glob.glob(name, root_dir=cfg.out):
                os.remove(cfg.artifact(path))
        codes = [s.run.__code__]  # and the code objects nested in it
        for code in codes:
            codes += [c for c in code.co_consts if hasattr(c, "co_names")]
            for name in set(code.co_names) - globals().keys():
                if name in _EXPORTS:
                    __getattr__(name)
        s.run(cfg, *(cfg.artifact(n) for n in s.reads + s.writes))


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermap",
        description="Hyperspectral mineral mapping pipeline")
    parser.add_argument("--version", action="version",
                        version=f"hypermap {__version__}")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in (*_STAGES, "all"):
        p = sub.add_parser(stage, help=f"run the '{stage}' stage")
        p.add_argument("--config", required=True, help="pipeline config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
    init = sub.add_parser("init", help="write default.cfg and stock band tables")
    init.add_argument("--out", default=".", help="directory to write into")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.stage == "init":
            for path in write_default_configs(args.out):
                print(f"wrote {path}")
            return EXIT_OK
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("--seed must be a non-negative integer below 2^64")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        run_stage(args.stage, cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (ValueError, OSError, RuntimeError, KeyError, AssertionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
