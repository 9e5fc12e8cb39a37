"""Library matching: resampling, spectral angle, continuum removal,
feature fitting, binary encoding, and the combined ranked score.

Each unknown is scored against every library entry on the bands both can
use; the three component scores are bounded to [0, 1] and combined with
user weights, so only orderings carry meaning across scenes. All three
scores are invariant under positive scaling of the unknown.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .envi_io import SpectralLibrary, SpectrumRecord

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class AnalystWeights:
    w_sam: float = 1.0
    w_sff: float = 1.0
    w_be: float = 1.0

    def __post_init__(self):
        if min(self.w_sam, self.w_sff, self.w_be) < 0:
            raise ValueError("weights must be non-negative")
        if max(self.w_sam, self.w_sff, self.w_be) <= 0:
            raise ValueError("at least one weight must be positive")


@dataclass
class MatchScore:
    mineral_name: str
    sam_score: float
    sff_score: float
    be_score: float
    weighted: float


def resample_library(lib: SpectralLibrary, target_wavelengths) -> SpectralLibrary:
    """Linearly interpolate every entry onto the target wavelength grid.

    Targets outside an entry's range are flagged unusable for that entry
    (reflectance set to NaN) and skipped when scoring. An entry
    overlapping fewer than 4 targets is an error.
    """
    targets = np.asarray(target_wavelengths, dtype=np.float64)
    if targets.ndim != 1 or targets.size < 2:
        raise ValueError("need at least 2 target wavelengths")
    if not np.isfinite(targets).all():
        raise ValueError("target wavelengths must be finite")
    entries = []
    for rec in lib.entries:
        usable = (targets >= rec.wavelengths[0]) & (targets <= rec.wavelengths[-1])
        if int(usable.sum()) < 4:
            raise ValueError(
                f"spectrum {rec.name!r} overlaps fewer than 4 target bands")
        values = np.interp(targets, rec.wavelengths, rec.reflectance)
        values[~usable] = np.nan
        entries.append(SpectrumRecord(name=rec.name, wavelengths=targets.copy(),
                                      reflectance=values, usable=usable))
    return SpectralLibrary(entries=entries, source_tag=lib.source_tag)


def sam_angle(a, b) -> float:
    """Spectral angle between two spectra in radians, [0, pi]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("spectra must be equal-length vectors with >= 2 bands")
    aa = float(np.dot(a, a))
    bb = float(np.dot(b, b))
    if aa == 0.0 or bb == 0.0:
        raise ValueError("cannot take the angle of a zero spectrum")
    # sqrt(aa * bb) keeps cos == 1.0 exact for identical inputs
    cos = np.clip(np.dot(a, b) / np.sqrt(aa * bb), -1.0, 1.0)
    return float(np.arccos(cos))


def sam_score_from_angle(angle: float) -> float:
    """Map an angle to a [0, 1] score: 1 at 0 rad, 0 at >= pi/2."""
    return float(np.clip(1.0 - angle / _HALF_PI, 0.0, 1.0))


def _upper_hull_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    # Monotone chain over points in wavelength order. Collinear points stay
    # on the hull so bands lying on the continuum divide out to exactly 1.
    hull: list[int] = []
    for i in range(x.size):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o])
            if cross > 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def continuum_remove(wavelengths, values) -> np.ndarray:
    """Divide a spectrum by its upper convex hull over (wavelength, value).

    The first and last bands always sit on the hull, so the output is in
    (0, 1] with exact 1.0 at hull vertices.
    """
    x = np.asarray(wavelengths, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need equal-length wavelength/value vectors with >= 2 bands")
    if np.any(np.diff(x) <= 0):
        raise ValueError("wavelengths must be strictly increasing for continuum removal")
    if np.any(y <= 0):
        raise ValueError("continuum removal requires positive values")

    hull = _upper_hull_indices(x, y)
    out = np.empty_like(y)
    for a, b in zip(hull[:-1], hull[1:]):
        slope = (y[b] - y[a]) / (x[b] - x[a])
        out[a:b] = y[a:b] / (y[a] + slope * (x[a:b] - x[a]))
        out[a] = 1.0
    out[hull[-1]] = 1.0
    return np.minimum(out, 1.0)


# One entry per distinct (wavelengths, values) pair. The match stage scores
# every class against one library, so a process meets each library entry
# once and each class's unknown once per distinct usable-band mask; 4096
# holds a library of a few thousand entries plus its unknowns. At 242
# bands an entry (two key byte strings and the result) is about 6 KB, so
# a full memo stays near 25 MB.
_CONTINUUM_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_CONTINUUM_MEMO_SIZE)
def _continuum_memo(x_shape, x_bytes, y_shape, y_bytes):
    x = np.frombuffer(x_bytes).reshape(x_shape)
    y = np.frombuffer(y_bytes).reshape(y_shape)
    try:
        # Looked up as a module global at call time, so a wrapper installed
        # on `continuum_remove` sees every hull actually computed.
        out = continuum_remove(x, y)
    except ValueError as err:
        # The message stands for "cannot remove": a spectrum that fails
        # fails once, and each caller raises a fresh error from it.
        return str(err)
    out.flags.writeable = False
    return out


def _removed_continuum(wavelengths, values) -> np.ndarray:
    """`continuum_remove` computed once per distinct input in a process.

    The key is the float64 bytes of both arguments, so an array changed
    in place is a new key and never returns a stale result. The returned
    array is shared between callers and read-only.
    """
    x = np.asarray(wavelengths, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    out = _continuum_memo(x.shape, x.tobytes(), y.shape, y.tobytes())
    if isinstance(out, str):
        raise ValueError(out)
    return out


def sff_score(wavelengths, unknown, reference) -> tuple[float, float, float]:
    """Spectral feature fit of continuum-removed absorption depths.

    Solves (1 - unknown_cr) ~= scale * (1 - reference_cr) in least
    squares. Returns (score, scale, rms): the score is the clamped scale
    discounted by the fit residual normalized to the reference's mean
    depth, bounded to [0, 1]. A reference with no absorption features
    (flat after continuum removal) is an error.
    """
    u_cr = _removed_continuum(wavelengths, unknown)
    r_cr = _removed_continuum(wavelengths, reference)
    du = 1.0 - u_cr
    dr = 1.0 - r_cr
    denom = float(np.dot(dr, dr))
    if denom == 0.0:
        raise ValueError("reference spectrum is featureless after continuum removal")
    scale = float(np.dot(du, dr)) / denom
    residual = du - scale * dr
    rms = float(np.sqrt(np.mean(residual**2)))
    mean_depth = float(dr.mean())
    score = np.clip(scale, 0.0, 1.0) * (1.0 - rms / mean_depth)
    return float(np.clip(score, 0.0, 1.0)), scale, rms


def binary_encode(values) -> np.ndarray:
    """Threshold a spectrum at its mean into bits."""
    v = np.asarray(values, dtype=np.float64)
    return v > v.mean()


def be_score(a, b) -> float:
    """Fraction of matching bits between two encodings of equal length."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    return float(np.mean(binary_encode(a) == binary_encode(b)))


def rank_matches(unknown, lib: SpectralLibrary,
                 weights: AnalystWeights | None = None) -> list[MatchScore]:
    """Score an unknown spectrum against a resampled library, best first.

    The library must already be resampled to the unknown's wavelength
    grid; each entry is scored over its usable bands. Entries the feature
    fit cannot score (featureless reference, or a non-positive unknown
    that cannot be continuum-removed) get an SFF component of 0. Ties in
    the weighted score break by name.

    Continuum removal, the costly step of the feature fit, runs once per
    distinct spectrum in a process rather than once per pair: each library
    entry's continuum is computed on its first ranking and reused for every
    later unknown, and an unknown's continuum is reused across entries that
    share its usable bands. The per-pair scores are unchanged.
    """
    if weights is None:
        weights = AnalystWeights()
    if not lib.entries:
        raise ValueError("cannot rank against an empty library")
    unknown = np.asarray(unknown, dtype=np.float64)
    scores = []
    for rec in lib.entries:
        if unknown.shape != rec.wavelengths.shape:
            raise ValueError(
                f"unknown has {unknown.size} bands but library entry "
                f"{rec.name!r} has {rec.wavelengths.size}")
        usable = rec.usable if rec.usable is not None else np.ones(rec.wavelengths.size, bool)
        wl = rec.wavelengths[usable]
        u = unknown[usable]
        r = rec.reflectance[usable]
        s_sam = sam_score_from_angle(sam_angle(u, r))
        try:
            s_sff, _, _ = sff_score(wl, u, r)
        except ValueError:
            s_sff = 0.0
        s_be = be_score(u, r)
        weighted = weights.w_sam * s_sam + weights.w_sff * s_sff + weights.w_be * s_be
        scores.append(MatchScore(mineral_name=rec.name, sam_score=s_sam,
                                 sff_score=s_sff, be_score=s_be, weighted=weighted))
    scores.sort(key=lambda m: (-m.weighted, m.mineral_name))
    return scores
