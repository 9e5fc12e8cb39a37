"""A cube read a block at a time, from an ENVI file or from memory.

:class:`CubeFile` is a cube on disk that is never held whole.
:func:`band_blocks` and :func:`line_blocks` yield the same blocks of a
`CubeFile` or of an in-memory `SpectralCube` (as views of its values), so
a caller runs one code path either way; :func:`plane_blocks` yields line
blocks as band planes that the caller owns, and :func:`first_planes`
gives the first bands as one array of planes. A block of lines holds about
`envi_io.BLOCK_BYTES` of float64 values unless the caller names a smaller
budget (`mnf` and `mtmf` take ~1 MiB blocks), and may stop at a prefix of
the bands; a block of bands holds about `BAND_BLOCK_BYTES`.

A `CubeFile` is read by `envi_io._read_blocks`, the one block reader;
`envi_io.read_payload` reads only whole files. This module is apart from
`envi_io` because every stage process imports `envi_io`, and a process
that runs without cached bytecode holds memory for each line it
compiles; only the stages that read a cube in part (`preprocess`, `mnf`,
`ppi`, `endmembers`, `classify` and `mtmf`) need this one.
"""

from __future__ import annotations

import os

import numpy as np

from .envi_io import (
    SpectralCube,
    _check_payload_size,
    _cube_metadata,
    _finite,
    _image_path,
    _line_ranges,
    _read_blocks,
    parse_envi_header,
)

# Bytes of float64 band planes per block of `band_blocks`. A caller holds
# such a block beside its own arrays (`endmembers` beside its pure pixels'
# components and class positions), so it is smaller than a line block.
BAND_BLOCK_BYTES = 1 << 20


def _band_ranges(bands: int, plane: int) -> list[tuple[int, int]]:
    """(first, stop) of each block of a pass over `bands` band planes of
    `plane` values: as many float64 planes as fit in BAND_BLOCK_BYTES, but at
    least two, and a one-band remainder joins the block before it. So no
    block holds exactly one band of several: NumPy sums a gather of one
    column pairwise, and of two or more row by row, as it sums a gather of
    whole spectra, so a mean over a block's columns has the same bits."""
    step = max(2, BAND_BLOCK_BYTES // (8 * plane))
    edges = [*range(0, bands, step), bands]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges, edges[1:]))


class CubeFile:
    """An ENVI cube on disk (the image is `image_path`, by default the
    header's `.img` sibling), read a block at a time by :func:`band_blocks`,
    :func:`line_blocks` and :func:`plane_blocks`, or in part by
    :func:`first_planes`.

    Opening parses the header and checks the image's size, as a whole read
    does; `wavelengths`, `bad_band_mask` and `units_tag` are those of the
    `read_cube` cube.
    """

    def __init__(self, header_path, image_path=None):
        with open(header_path, "r", encoding="utf-8") as fp:
            self.header = h = parse_envi_header(fp.read())
        self.image_path = _image_path(header_path, image_path)
        _check_payload_size(h, os.path.getsize(self.image_path))
        self.lines, self.samples, self.bands = h.lines, h.samples, h.bands
        self.wavelengths, self.bad_band_mask, self.units_tag = _cube_metadata(h)


def band_blocks(cube: SpectralCube | CubeFile, stop: int | None = None):
    """Yield (first band, a ``(lines, samples, n)`` float64 block) over the
    first `stop` bands of `cube` (default every band), in the blocks of
    `_band_ranges`: never one band of several.

    A `SpectralCube` yields views of its values. A `CubeFile` reads each
    block into a buffer that the next block overwrites, and checks it for
    non-finite values, so only the bands read are checked. A BSQ image
    reads each block's planes. A BIL or BIP image has no contiguous band
    planes: each block takes a pass over every line of the file, so a
    pass over n blocks reads the image n times, with a block of lines
    held beside the band block.
    """
    ranges = _band_ranges(cube.bands if stop is None else stop, cube.lines * cube.samples)
    if isinstance(cube, SpectralCube):
        for b0, b1 in ranges:
            yield b0, cube.values[:, :, b0:b1]
        return
    h = cube.header
    if h.interleave == "bsq":
        blocks = _read_blocks(cube.image_path, h, [(0, h.lines, range(b0, b1))
                                                   for b0, b1 in ranges])
        for (b0, _), (_, planes) in zip(ranges, blocks):
            yield b0, _finite(planes)
        return
    plane = h.lines * h.samples
    out = np.empty(max(b1 - b0 for b0, b1 in ranges) * plane)
    for b0, b1 in ranges:
        planes = out[:(b1 - b0) * plane].reshape(b1 - b0, h.lines, h.samples)
        for l0, block in _read_blocks(cube.image_path, h):
            planes[:, l0:l0 + len(block)] = block[:, :, b0:b1].transpose(2, 0, 1)
        yield b0, _finite(planes.transpose(1, 2, 0))


def first_planes(cube: SpectralCube | CubeFile, k: int) -> np.ndarray:
    """The first `k` bands of `cube` as one C-contiguous ``(k, lines,
    samples)`` float64 array, checked for non-finite values. A BSQ file's
    planes are read straight into it (a file of another type than float64
    is converted from one buffer of its own); any other cube is gathered
    from the blocks of :func:`band_blocks`."""
    if isinstance(cube, CubeFile) and cube.header.interleave == "bsq":
        ((_, block),) = _read_blocks(cube.image_path, cube.header, [(0, cube.lines, range(k))])
        return _finite(block).transpose(2, 0, 1)
    planes = np.empty((k, cube.lines, cube.samples))
    for b0, block in band_blocks(cube, k):
        planes[b0:b0 + block.shape[2]] = block.transpose(2, 0, 1)
    return planes


def line_blocks(cube: SpectralCube | CubeFile, stop: int | None = None,
                block_bytes: int | None = None):
    """Yield (first line, an ``(n, samples, bands)`` float64 block) over
    every line of `cube`, with the first `stop` bands (default every
    band), about `block_bytes` (default `envi_io.BLOCK_BYTES`) of those
    bands' values at a time.

    A `SpectralCube` yields views of its values. A `CubeFile` yields each
    block in the image's interleave order in memory, read into a buffer
    that the next block overwrites and checked for non-finite values, so
    a whole pass checks every value it yields. A BSQ image reads only the
    bands yielded; a BIL or BIP image reads whole lines, so its buffer
    holds every band of the block's lines, and the block is a view of the
    bands kept.
    """
    bands = cube.bands if stop is None else stop
    ranges = _line_ranges(cube.lines, cube.samples * bands, block_bytes)
    if isinstance(cube, SpectralCube):
        for l0, l1 in ranges:
            yield l0, cube.values[l0:l1, :, :bands]
        return
    blocks = [(l0, l1, range(bands)) for l0, l1 in ranges]
    for l0, block in _read_blocks(cube.image_path, cube.header, blocks):
        yield l0, _finite(block)


def plane_blocks(cube: SpectralCube | CubeFile, stop: int | None = None,
                 block_bytes: int | None = None):
    """Yield (first line, a C-contiguous ``(bands, n, samples)`` float64
    array) over every line of `cube`: the blocks of :func:`line_blocks`
    as band planes, each an array the caller may overwrite. A BSQ file's
    block is the reader's buffer itself; other blocks are copies."""
    for l0, block in line_blocks(cube, stop, block_bytes):
        planes = block.transpose(2, 0, 1)
        yield l0, planes.copy() if isinstance(cube, SpectralCube) else \
            np.ascontiguousarray(planes)
