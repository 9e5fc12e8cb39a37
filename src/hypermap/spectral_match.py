"""Library matching: resampling, spectral angle, continuum removal,
feature fitting, binary encoding, and the combined ranked score.

Each unknown is scored against every library entry on the bands both can
use; the three component scores are bounded to [0, 1] and combined with
user weights, so only orderings carry meaning across scenes. All three
scores are invariant under positive scaling of the unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envi_io import SpectralLibrary, SpectrumRecord

_HALF_PI = np.pi / 2.0

# Rows of a stack whose continuum `continuum_remove` divides out at once.
_DIVIDE_BLOCK_ROWS = 64


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
    overlapping fewer than 4 targets is an error. Every entry's
    wavelengths are one shared, read-only copy of the target grid.
    """
    targets = np.array(target_wavelengths, dtype=np.float64)
    targets.flags.writeable = False
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
        entries.append(SpectrumRecord(name=rec.name, wavelengths=targets,
                                      reflectance=values, usable=usable))
    return SpectralLibrary(entries=entries, source_tag=lib.source_tag)


def _dots(a, b) -> np.ndarray:
    # Dot products along the last axis. Every dot product in this module
    # goes through here, so for identical spectra u.u, r.r and u.r come
    # from one reduction and their angle is exactly 0.
    return np.add.reduce(a * b, axis=-1)


def _angles(unknown: np.ndarray, refs: np.ndarray, ref_sq) -> np.ndarray:
    """Spectral angles between `unknown` (b,) and each row of `refs` (n, b)
    whose squared norms are `ref_sq`."""
    if unknown.size < 2:
        raise ValueError("spectra must be equal-length vectors with >= 2 bands")
    uu = _dots(unknown, unknown)
    if uu == 0.0 or np.any(ref_sq == 0.0):
        raise ValueError("cannot take the angle of a zero spectrum")
    # sqrt(uu * rr) keeps cos == 1.0 exact for identical inputs
    cos = np.clip(_dots(refs, unknown) / np.sqrt(uu * ref_sq), -1.0, 1.0)
    return np.arccos(cos)


def sam_angle(a, b) -> float:
    """Spectral angle between two spectra in radians, [0, pi]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spectra must be equal-length vectors with >= 2 bands")
    return float(_angles(a, b[np.newaxis], _dots(b, b))[0])


def _sam_scores(angles):
    """Map angles to [0, 1] scores: 1 at 0 rad, 0 at >= pi/2."""
    return np.clip(1.0 - angles / _HALF_PI, 0.0, 1.0)


def _upper_hull_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Monotone chain over points in wavelength order, every row of `y`
    # advancing together: `stack[r, :top[r]]` is row r's hull so far, and
    # the first two points always start it. Collinear points stay on the
    # hull so bands lying on the continuum divide out to exactly 1.
    n, b = y.shape
    stack = np.empty((n, b), dtype=np.intp)
    stack[:, :2] = (0, 1)
    top = np.full(n, 2, dtype=np.intp)
    rows = np.arange(n)
    for i in range(2, b):
        live, t = rows, top
        while live.size:
            o = stack[live, t - 2]
            a = stack[live, t - 1]
            yo = y[live, o]
            cross = (x[a] - x[o]) * (y[live, i] - yo) - (y[live, a] - yo) * (x[i] - x[o])
            pop = cross > 0
            live, t = live[pop], t[pop] - 1
            top[live] = t
            live, t = live[t >= 2], t[t >= 2]
        stack[rows, top] = i
        top += 1
    on_hull = np.zeros((n, b), dtype=bool)
    kept = np.arange(b) < top[:, np.newaxis]
    on_hull[np.nonzero(kept)[0], stack[kept]] = True
    return on_hull


def continuum_remove(wavelengths, values) -> np.ndarray:
    """Divide a spectrum by its upper convex hull over (wavelength, value).

    `values` is one spectrum of shape (b,) or a stack of spectra of shape
    (n, b) on the shared `wavelengths`; each row is removed on its own and
    equals, bit for bit, the result of removing it alone. The first and
    last bands always sit on the hull, so the output is in (0, 1] with
    exact 1.0 at hull vertices.
    """
    x = np.asarray(wavelengths, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise ValueError("need equal-length wavelength/value vectors with >= 2 bands")
    if np.any(np.diff(x) <= 0):
        raise ValueError("wavelengths must be strictly increasing for continuum removal")
    if np.any(y <= 0):
        raise ValueError("continuum removal requires positive values")

    rows = np.atleast_2d(y)
    on_hull = _upper_hull_mask(x, rows)
    out = np.ones_like(rows)
    bands = np.arange(x.size)
    # The division's index and quotient temporaries are a few times the
    # size of what they divide, so it runs a block of rows at a time; each
    # row's values come from elementwise operations on that row alone.
    for first in range(0, len(rows), _DIVIDE_BLOCK_ROWS):
        block = slice(first, first + _DIVIDE_BLOCK_ROWS)
        part, hull = rows[block], on_hull[block]
        # each band j off the hull lies on the chord between the hull
        # vertices a < j < b around it
        a_of = np.maximum.accumulate(np.where(hull, bands, 0), axis=1)
        b_of = np.minimum.accumulate(np.where(hull, bands, x.size)[:, ::-1], axis=1)[:, ::-1]
        r, j = np.nonzero(~hull)
        a, b = a_of[r, j], b_of[r, j]
        slope = (part[r, b] - part[r, a]) / (x[b] - x[a])
        out[block][r, j] = part[r, j] / (part[r, a] + slope * (x[j] - x[a]))
    np.minimum(out, 1.0, out=out)
    return out if y.ndim == 2 else out[0]


def _depth_stats(depths: np.ndarray):
    """Least-squares denominators and mean absorption depths of reference
    depths `1 - continuum_removed`, along the last axis."""
    return _dots(depths, depths), depths.mean(axis=-1)


def _sff_scores(du: np.ndarray, depths: np.ndarray, depth_sq, mean_depth):
    """Feature fit of unknown depths `du` (g,) against each row of
    `depths` (n, g), none of them featureless. Returns (score, scale, rms)."""
    scale = _dots(depths, du) / depth_sq
    residual = du - scale[:, np.newaxis] * depths
    rms = np.sqrt(np.mean(residual**2, axis=-1))
    score = np.clip(scale, 0.0, 1.0) * (1.0 - rms / mean_depth)
    return np.clip(score, 0.0, 1.0), scale, rms


def sff_score(wavelengths, unknown, reference) -> tuple[float, float, float]:
    """Spectral feature fit of continuum-removed absorption depths.

    Solves (1 - unknown_cr) ~= scale * (1 - reference_cr) in least
    squares. Returns (score, scale, rms): the score is the clamped scale
    discounted by the fit residual normalized to the reference's mean
    depth, bounded to [0, 1]. A reference with no absorption features
    (flat after continuum removal) is an error.
    """
    du = 1.0 - continuum_remove(wavelengths, unknown)
    dr = 1.0 - continuum_remove(wavelengths, reference)
    depth_sq, mean_depth = _depth_stats(dr)
    if depth_sq == 0.0:
        raise ValueError("reference spectrum is featureless after continuum removal")
    score, scale, rms = _sff_scores(du, dr[np.newaxis], depth_sq, mean_depth)
    return float(score[0]), float(scale[0]), float(rms[0])


def binary_encode(values) -> np.ndarray:
    """Threshold a spectrum at its mean into bits; each row of a stack at
    its own mean."""
    v = np.asarray(values, dtype=np.float64)
    return v > v.mean(axis=-1, keepdims=True)


def _be_scores(bits: np.ndarray, ref_bits: np.ndarray):
    return np.mean(ref_bits == bits, axis=-1)


def be_score(a, b) -> float:
    """Fraction of matching bits between two encodings of equal length."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    return float(_be_scores(binary_encode(a), binary_encode(b)))


@dataclass(frozen=True)
class _EntryGroup:
    """Library entries sharing one wavelength grid and usable mask, with
    everything the three scores need from the library side."""

    index: np.ndarray        # positions of the entries in the library
    usable: np.ndarray       # (b,) bands the entries are scored on
    wavelengths: np.ndarray  # (g,) usable wavelengths
    reflectance: np.ndarray  # (n, g)
    sq_norm: np.ndarray      # (n,)
    bits: np.ndarray         # (n, g) binary encodings
    fit: np.ndarray          # rows the feature fit can score
    depths: np.ndarray       # (fit.size, g) 1 - continuum-removed
    depth_sq: np.ndarray     # (fit.size,)
    mean_depth: np.ndarray   # (fit.size,)


def _usable(rec: SpectrumRecord) -> np.ndarray:
    return np.ones(rec.wavelengths.size, dtype=bool) if rec.usable is None else rec.usable


def _entry_group(index: np.ndarray, entries) -> _EntryGroup:
    first = entries[index[0]]
    usable = _usable(first)
    x = first.wavelengths[usable]
    # One C-order row per entry makes every row reduction below one
    # pairwise sum per row, as for a spectrum on its own.
    r = np.empty((index.size, x.size))
    for row, i in zip(r, index):
        row[:] = entries[i].reflectance[usable]
    # Only rows positive on every usable band can be continuum-removed.
    fit = np.flatnonzero(~np.any(r <= 0, axis=1))
    depths = np.empty((0, x.size))
    if fit.size:
        try:
            # Looked up as a module global at call time, so a wrapper
            # installed on `continuum_remove` sees every hull computed.
            depths = continuum_remove(x, r[fit])
            np.subtract(1.0, depths, out=depths)
        except ValueError:  # too few bands or not increasing: no feature fit
            fit = fit[:0]
    depth_sq, mean_depth = _depth_stats(depths)
    featured = depth_sq != 0.0
    return _EntryGroup(index=index, usable=usable, wavelengths=x, reflectance=r,
                       sq_norm=_dots(r, r), bits=binary_encode(r), fit=fit[featured],
                       depths=depths[featured], depth_sq=depth_sq[featured],
                       mean_depth=mean_depth[featured])


@dataclass(frozen=True)
class PreparedLibrary:
    """A resampled library with the library side of every score computed,
    as `prepare_library` returns it."""

    entries: tuple[SpectrumRecord, ...]
    groups: tuple[_EntryGroup, ...]


def prepare_library(lib: SpectralLibrary) -> PreparedLibrary:
    """Compute the library side of every score once, for `rank_matches`.

    Entries are grouped by wavelength grid and usable-band mask; each
    group holds its entries' usable reflectance, norms and binary
    encodings, and the continuum-removed feature depths of the entries
    the feature fit can score. These are copies: an entry changed in
    place afterwards is still scored as it was when prepared.
    """
    if not lib.entries:
        raise ValueError("cannot rank against an empty library")
    members: dict[tuple[bytes, bytes], list[int]] = {}
    for i, rec in enumerate(lib.entries):
        members.setdefault((rec.wavelengths.tobytes(), _usable(rec).tobytes()), []).append(i)
    return PreparedLibrary(tuple(lib.entries), tuple(
        _entry_group(np.array(index), lib.entries) for index in members.values()))


def rank_matches(unknown, lib: SpectralLibrary | PreparedLibrary,
                 weights: AnalystWeights | None = None) -> list[MatchScore]:
    """Score an unknown spectrum against a resampled library, best first.

    The library must already be resampled to the unknown's wavelength
    grid; each entry is scored over its usable bands. Entries the feature
    fit cannot score (featureless reference, or a non-positive unknown
    that cannot be continuum-removed) get an SFF component of 0. Ties in
    the weighted score break by name.

    `lib` is a library from `prepare_library`, or a `SpectralLibrary`,
    which is prepared for this call alone; to score many unknowns against
    one library, prepare it once. The unknown is scored against each
    group of entries as array operations, with its continuum removed once
    per group. The per-pair formulas are those of `sam_angle`,
    `sff_score` and `be_score`.
    """
    if weights is None:
        weights = AnalystWeights()
    unknown = np.asarray(unknown, dtype=np.float64)
    for rec in lib.entries:
        if unknown.shape != rec.wavelengths.shape:
            raise ValueError(
                f"unknown has {unknown.size} bands but library entry "
                f"{rec.name!r} has {rec.wavelengths.size}")
    if not isinstance(lib, PreparedLibrary):
        lib = prepare_library(lib)

    n = len(lib.entries)
    sam, sff, be = np.empty(n), np.zeros(n), np.empty(n)
    for group in lib.groups:
        u = unknown[group.usable]
        sam[group.index] = _sam_scores(_angles(u, group.reflectance, group.sq_norm))
        be[group.index] = _be_scores(binary_encode(u), group.bits)
        if group.fit.size and not np.any(u <= 0):
            du = 1.0 - continuum_remove(group.wavelengths, u)
            sff[group.index[group.fit]] = _sff_scores(
                du, group.depths, group.depth_sq, group.mean_depth)[0]
    weighted = weights.w_sam * sam + weights.w_sff * sff + weights.w_be * be
    scores = [MatchScore(mineral_name=rec.name, sam_score=s_sam, sff_score=s_sff,
                         be_score=s_be, weighted=w)
              for rec, s_sam, s_sff, s_be, w in zip(
                  lib.entries, sam.tolist(), sff.tolist(), be.tolist(), weighted.tolist())]
    scores.sort(key=lambda m: (-m.weighted, m.mineral_name))
    return scores
