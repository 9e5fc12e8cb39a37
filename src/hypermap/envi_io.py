"""ENVI-format header/cube parsing and spectral libraries.

Cubes are held internally as float64 arrays indexed (line, sample, band)
no matter which interleave the file used; all interleave handling lives
here, as does reading a payload: whole by `read_payload`, or in blocks
by `_read_blocks`, the one block reader, which `cube_blocks` runs on.
Header parsing is whitespace-tolerant and case-insensitive, and
unrecognized keys are preserved verbatim so a parse -> serialize round
trip loses nothing. A library's CSV layout is read and written by
`artifacts`; this module builds and checks its spectra.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import artifacts

# The axes of the canonical (line, sample, band) order that each
# interleave stores outermost first: a payload is `values.transpose(axes)`.
_FILE_AXES = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}
INTERLEAVES = tuple(_FILE_AXES)

UNITS_TAGS = ("radiance", "reflectance", "mnf_component", "score")

# ENVI numeric data-type codes for the supported payload types.
DATA_TYPE_CODES = {
    "uint8": 1,
    "int16": 2,
    "int32": 3,
    "float32": 4,
    "float64": 5,
    "uint16": 12,
    "uint32": 13,
}
_CODE_TO_DATA_TYPE = {v: k for k, v in DATA_TYPE_CODES.items()}

_BYTE_ORDER_CODES = {"little": 0, "big": 1}

# Header key (lowercase, single-spaced) for the units tag a cube writer
# embeds; readers fall back to "radiance" when absent.
_UNITS_KEY = "data units"


@dataclass
class EnviHeader:
    """Parsed ENVI header metadata."""

    samples: int
    lines: int
    bands: int
    interleave: str
    data_type: str
    byte_order: str = "little"
    header_offset: int = 0
    wavelengths: list[float] | None = None
    fwhm: list[float] | None = None
    bad_band_multiplier: list[int] | None = None
    description: str = ""
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.samples <= 0 or self.lines <= 0 or self.bands <= 0:
            raise ValueError("samples, lines and bands must all be positive")
        if self.interleave not in INTERLEAVES:
            raise ValueError(f"unknown interleave {self.interleave!r}")
        if self.data_type not in DATA_TYPE_CODES:
            raise ValueError(f"unsupported data type {self.data_type!r}")
        if self.byte_order not in _BYTE_ORDER_CODES:
            raise ValueError(f"byte order must be 'little' or 'big', got {self.byte_order!r}")
        if self.header_offset < 0:
            raise ValueError("header offset must be non-negative")
        for name, values in (("wavelength", self.wavelengths),
                             ("fwhm", self.fwhm),
                             ("bbl", self.bad_band_multiplier)):
            if values is not None and len(values) != self.bands:
                raise ValueError(
                    f"{name} list has {len(values)} entries, expected {self.bands}")
        if self.bad_band_multiplier is not None:
            if any(v not in (0, 1) for v in self.bad_band_multiplier):
                raise ValueError("bbl entries must be 0 or 1")

    @property
    def numpy_dtype(self) -> np.dtype:
        base = np.dtype(self.data_type)
        return base.newbyteorder("<" if self.byte_order == "little" else ">")


# Elements per block of the finite-value check: its bool temporary stays
# ~32 KB however large the cube.
_FINITE_BLOCK_ELEMENTS = 1 << 15

# Bytes of one block of a pass over a cube a few lines or bands at a time
# (reading kept bands, the scene mean, standard deviations): what such a
# pass holds beyond the cube itself, whatever the cube's size.
BLOCK_BYTES = 1 << 22


def check_keep_mask(keep, bands: int) -> np.ndarray:
    """`keep` as a boolean mask over `bands` bands, checked to keep one."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (bands,):
        raise ValueError(f"band mask length {keep.size} != cube bands {bands}")
    if not keep.any():
        raise ValueError("band mask removes every band")
    return keep


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, checked to hold no NaN or infinity a few planes at a time
    along the axis that is outermost in memory, so the bool temporary
    stays small."""
    outer = np.moveaxis(values, int(np.argmax(np.abs(values.strides))), 0)
    step = max(1, _FINITE_BLOCK_ELEMENTS * len(outer) // max(1, outer.size))
    if not all(np.isfinite(outer[i:i + step]).all() for i in range(0, len(outer), step)):
        raise ValueError("cube contains non-finite values")
    return values


@dataclass
class SpectralCube:
    """A (lines, samples, bands) float64 grid with per-band wavelengths."""

    values: np.ndarray
    wavelengths: np.ndarray
    bad_band_mask: np.ndarray
    units_tag: str = "radiance"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"cube values must be 3-D, got shape {self.values.shape}")
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        self.bad_band_mask = np.asarray(self.bad_band_mask, dtype=bool)
        if self.wavelengths.shape != (self.bands,):
            raise ValueError("wavelengths length must equal band count")
        if self.bad_band_mask.shape != (self.bands,):
            raise ValueError("bad_band_mask length must equal band count")
        if self.units_tag not in UNITS_TAGS:
            raise ValueError(f"unknown units tag {self.units_tag!r}")
        _finite(self.values)

    @property
    def lines(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]

    def pixels(self) -> np.ndarray:
        """(lines*samples, bands) view of the spectra in raster order."""
        return self.values.reshape(-1, self.bands)

    def copy_with(self, **kwargs) -> "SpectralCube":
        fields = dict(values=self.values, wavelengths=self.wavelengths,
                      bad_band_mask=self.bad_band_mask, units_tag=self.units_tag)
        fields.update(kwargs)
        return SpectralCube(**fields)


@dataclass
class SpectrumRecord:
    """One named laboratory spectrum.

    `usable` marks bands that fall inside the source spectrum's wavelength
    range after resampling; None means all bands are usable.
    """

    name: str
    wavelengths: np.ndarray
    reflectance: np.ndarray
    usable: np.ndarray | None = None

    def __post_init__(self):
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.wavelengths.shape != self.reflectance.shape or self.wavelengths.ndim != 1:
            raise ValueError(f"spectrum {self.name!r}: wavelength/reflectance length mismatch")
        if self.usable is None and np.any(np.diff(self.wavelengths) <= 0):
            raise ValueError(f"spectrum {self.name!r}: wavelengths must be strictly increasing")
        if self.usable is not None:
            self.usable = np.asarray(self.usable, dtype=bool)
            if self.usable.shape != self.wavelengths.shape:
                raise ValueError(f"spectrum {self.name!r}: usable mask length mismatch")
        values = self.reflectance if self.usable is None else self.reflectance[self.usable]
        # written so that a NaN, which compares false, fails it too
        if values.size and not (np.min(values) >= 0.0 and np.max(values) <= 1.5):
            raise ValueError(f"spectrum {self.name!r}: reflectance outside [0, 1.5]")


@dataclass
class SpectralLibrary:
    """Ordered collection of uniquely named spectra."""

    entries: list[SpectrumRecord]
    source_tag: str = ""

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("library entry names must be unique")

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


# ---------------------------------------------------------------------------
# header parsing / serialization


def _normalize_key(key: str) -> str:
    return " ".join(key.strip().lower().split())


def parse_envi_header(text: str) -> EnviHeader:
    """Parse ENVI header text.

    Keys are matched case-insensitively; `{ ... }` list values may span
    lines; unrecognized keys land verbatim in `extra`.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ENVI":
        raise ValueError("not an ENVI header: first line must be 'ENVI'")

    raw: dict[str, str] = {}
    collecting_key = None
    collected: list[str] = []
    for line in lines[1:]:
        stripped = line.strip()
        if collecting_key is not None:
            collected.append(stripped)
            if "}" in stripped:
                raw[collecting_key] = " ".join(collected)
                collecting_key = None
                collected = []
            continue
        if not stripped or stripped.startswith(";"):
            continue
        if "=" not in stripped:
            continue
        key_part, value_part = stripped.split("=", 1)
        key = _normalize_key(key_part)
        value = value_part.strip()
        if value.startswith("{") and "}" not in value:
            collecting_key = key
            collected = [value]
            continue
        raw[key] = value
    if collecting_key is not None:
        raise ValueError(f"unterminated '{{' list for header key {collecting_key!r}")

    def pop_int(key: str) -> int:
        token = raw.pop(key)
        try:
            return int(token)
        except ValueError as exc:
            raise ValueError(f"header key {key!r}: unparseable number {token!r}") from exc

    def pop_unbraced(key: str) -> str:
        """The value of `key` without its enclosing braces, stripped."""
        value = raw.pop(key).strip()
        if value.startswith("{"):
            value = value[1:]
        if value.endswith("}"):
            value = value[:-1]
        return value.strip()

    def pop_float_list(key: str) -> list[float] | None:
        if key not in raw:
            return None
        out = []
        for token in pop_unbraced(key).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                out.append(float(token))
            except ValueError as exc:
                raise ValueError(f"header key {key!r}: unparseable number {token!r}") from exc
        return out

    for required in ("samples", "lines", "bands", "data type", "interleave"):
        if required not in raw:
            raise ValueError(f"header missing required key {required!r}")

    samples = pop_int("samples")
    lines_n = pop_int("lines")
    bands = pop_int("bands")
    dt_code = pop_int("data type")
    if dt_code not in _CODE_TO_DATA_TYPE:
        raise ValueError(f"unsupported ENVI data type code {dt_code}")
    interleave = raw.pop("interleave").strip().lower()
    if interleave not in INTERLEAVES:
        raise ValueError(f"unknown interleave {interleave!r}")

    byte_order = "little"
    if "byte order" in raw:
        code = pop_int("byte order")
        if code not in (0, 1):
            raise ValueError(f"byte order must be 0 or 1, got {code}")
        byte_order = "little" if code == 0 else "big"
    header_offset = pop_int("header offset") if "header offset" in raw else 0

    wavelengths = pop_float_list("wavelength")
    fwhm = pop_float_list("fwhm")
    bbl_floats = pop_float_list("bbl")
    bbl = None
    if bbl_floats is not None:
        bbl = []
        for v in bbl_floats:
            if v not in (0.0, 1.0):
                raise ValueError(f"bbl entries must be 0 or 1, got {v}")
            bbl.append(int(v))

    description = pop_unbraced("description") if "description" in raw else ""

    return EnviHeader(
        samples=samples, lines=lines_n, bands=bands, interleave=interleave,
        data_type=_CODE_TO_DATA_TYPE[dt_code], byte_order=byte_order,
        header_offset=header_offset, wavelengths=wavelengths, fwhm=fwhm,
        bad_band_multiplier=bbl, description=description, extra=raw)


def _format_float(x: float) -> str:
    # repr gives the shortest string that round-trips the float64 exactly
    return repr(float(x))


def serialize_envi_header(header: EnviHeader) -> str:
    """Render a header back to ENVI text; parse(serialize(h)) == h."""
    header.validate()
    out = ["ENVI"]
    if header.description:
        out.append(f"description = {{ {header.description} }}")
    out.append(f"samples = {header.samples}")
    out.append(f"lines = {header.lines}")
    out.append(f"bands = {header.bands}")
    out.append(f"data type = {DATA_TYPE_CODES[header.data_type]}")
    out.append(f"interleave = {header.interleave}")
    out.append(f"byte order = {_BYTE_ORDER_CODES[header.byte_order]}")
    out.append(f"header offset = {header.header_offset}")
    if header.wavelengths is not None:
        body = ", ".join(_format_float(w) for w in header.wavelengths)
        out.append(f"wavelength = {{ {body} }}")
    if header.fwhm is not None:
        body = ", ".join(_format_float(w) for w in header.fwhm)
        out.append(f"fwhm = {{ {body} }}")
    if header.bad_band_multiplier is not None:
        body = ", ".join(str(int(v)) for v in header.bad_band_multiplier)
        out.append(f"bbl = {{ {body} }}")
    for key, value in header.extra.items():
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cube payload I/O


def read_cube(header: EnviHeader, raw) -> SpectralCube:
    """Decode a raw payload into the canonical (line, sample, band) order.

    The payload length must be exactly header_offset plus the cube size;
    integer and big-endian payloads are converted to little-endian float64.
    A little-endian float64 payload in a writable buffer (a `bytearray` or
    a uint8 array) is decoded in place: the cube's values are a view of
    `raw`, in the file's interleave order. From read-only `bytes` the
    values are copied, in the same memory order.
    """
    header.validate()
    _check_payload_size(header, len(raw))
    flat = np.frombuffer(raw, dtype=header.numpy_dtype,
                         count=header.samples * header.lines * header.bands,
                         offset=header.header_offset)
    values = _canonical(flat, header.interleave, (header.lines, header.samples, header.bands))
    values = values.astype(np.float64, copy=not flat.flags.writeable)

    wavelengths, mask, units = _cube_metadata(header)
    return SpectralCube(values=values, wavelengths=wavelengths,
                        bad_band_mask=mask, units_tag=units)


def _cube_metadata(header: EnviHeader) -> tuple[np.ndarray, np.ndarray, str]:
    """The wavelengths (1-based band numbers when the header has none),
    bad-band mask (every band good by default) and units tag ("radiance"
    when absent or unknown) of a cube with this header."""
    if header.wavelengths is not None:
        wavelengths = np.asarray(header.wavelengths, dtype=np.float64)
    else:
        wavelengths = np.arange(1, header.bands + 1, dtype=np.float64)
    if header.bad_band_multiplier is not None:
        mask = np.asarray(header.bad_band_multiplier, dtype=bool)
    else:
        mask = np.ones(header.bands, dtype=bool)
    units = header.extra.get(_UNITS_KEY, "radiance")
    if units not in UNITS_TAGS:
        units = "radiance"
    return wavelengths, mask, units


def _canonical(flat: np.ndarray, interleave: str, dims) -> np.ndarray:
    """The (line, sample, band) view of `flat`, a payload of `dims`
    (lines, samples, bands) values in `interleave` order."""
    axes = _FILE_AXES[interleave]
    return flat.reshape([dims[a] for a in axes]).transpose(np.argsort(axes))


def _check_payload_size(header: EnviHeader, size: int) -> None:
    expected = (header.header_offset + header.samples * header.lines * header.bands
                * header.numpy_dtype.itemsize)
    if size != expected:
        raise ValueError(f"payload size mismatch: got {size} bytes, expected {expected}")


def _image_path(header_path, image_path=None) -> str:
    """`image_path`, or by default the header's `.img` sibling."""
    stem = str(header_path)[:-4] if str(header_path).endswith(".hdr") else str(header_path)
    return stem + ".img" if image_path is None else str(image_path)


def read_payload(header_path, image_path=None) -> tuple[EnviHeader, np.ndarray]:
    """Read an ENVI image whole as `(header, raw)` for :func:`read_cube`:
    the parsed header and the bytes of the image (by default the header's
    `.img` sibling), in one uint8 array that `read_cube` decodes a
    little-endian float64 image in place from (an empty array, unlike a
    `bytearray`, is not zeroed before the read fills it). A cube read in
    part goes through `cube_blocks.CubeFile`."""
    with open(header_path, "r", encoding="utf-8") as fp:
        header = parse_envi_header(fp.read())
    with open(_image_path(header_path, image_path), "rb") as fp:
        raw = np.empty(os.fstat(fp.fileno()).st_size, dtype=np.uint8)
        # A file that ends early leaves a short buffer: a size mismatch in read_cube.
        return header, raw[:fp.readinto(raw)]


def _line_ranges(lines: int, line: int, block_bytes: int | None = None) -> list[tuple[int, int]]:
    """(first, stop) of the fewest blocks of at most `block_bytes` (default
    BLOCK_BYTES) of float64 lines (at least one) over `lines` lines of
    `line` values, as even as they can be, so that none is much shorter
    (see `mapping._best_angles`)."""
    step = max(1, (BLOCK_BYTES if block_bytes is None else block_bytes) // (8 * line))
    n = -(-lines // step)
    edges = [-(-lines * i // n) for i in range(n + 1)]
    return list(zip(edges, edges[1:]))


def _read_blocks(image_path, header: EnviHeader, blocks=None):
    """Yield (first line, an ``(n, samples, k)`` float64 block) for each
    (first line, stop line, `range` of k bands) block of an image, by
    default every band of every line in the blocks of `_line_ranges`,
    unchecked. Each is read in the file's memory order, a BSQ band plane
    at a time, into one buffer that the next block overwrites (and
    converted into a second one when the file holds another type), so a
    single block is an array of its own. A BIL or BIP image has no band
    planes: its blocks read whole lines, and a block of some bands is a
    view of those."""
    lines, samples, line = header.lines, header.samples, header.samples * header.bands
    if blocks is None:
        blocks = [(l0, l1, range(header.bands)) for l0, l1 in _line_ranges(lines, line)]
    bsq = header.interleave == "bsq"
    raw = np.empty(max((l1 - l0) * samples * (len(bands) if bsq else header.bands)
                       for l0, l1, bands in blocks), dtype=header.numpy_dtype)
    values = raw if raw.dtype == np.float64 else np.empty(raw.size)
    with open(image_path, "rb", buffering=0) as fp:
        for l0, l1, bands in blocks:
            dims = (l1 - l0, samples, len(bands) if bsq else header.bands)
            n = dims[0] * samples * dims[2]
            firsts = [(b * lines + l0) * samples for b in bands] if bsq else [l0 * line]
            for first, segment in zip(firsts, raw[:n].reshape(len(firsts), -1)):
                fp.seek(header.header_offset + first * raw.itemsize)
                fp.readinto(segment)
            if values is not raw:
                values[:n] = raw[:n]
            block = _canonical(values[:n], header.interleave, dims)
            yield l0, block if bsq else block[:, :, bands.start:bands.stop]


_INT_RANGES = {
    "uint8": (0, 2**8 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1),
}


def _encode_cube(cube: SpectralCube, interleave: str, data_type: str, byte_order: str,
                 lines: int | None = None) -> tuple[str, np.ndarray, np.dtype]:
    """Header text (for `lines` lines, by default the cube's), the values
    as a view in the file's interleave order (outermost axis first) and
    the file's dtype. Integer types are range-checked here; rounding is
    left to the caller."""
    interleave = interleave.lower()
    if interleave not in INTERLEAVES:
        raise ValueError(f"unknown interleave {interleave!r}")
    if data_type not in DATA_TYPE_CODES:
        raise ValueError(f"unsupported data type {data_type!r}")

    values = cube.values
    if data_type in _INT_RANGES:
        lo, hi = _INT_RANGES[data_type]
        vmin, vmax = float(values.min()), float(values.max())
        if vmin < lo or vmax > hi:
            raise ValueError(
                f"values [{vmin:g}, {vmax:g}] outside {data_type} range [{lo}, {hi}]")

    dtype = np.dtype(data_type).newbyteorder("<" if byte_order == "little" else ">")
    arranged = values.transpose(_FILE_AXES[interleave])

    header = _header_text(lines or cube.lines, cube.samples, cube.wavelengths,
                          cube.bad_band_mask, cube.units_tag, interleave, data_type, byte_order)
    return header, arranged, dtype


def _header_text(lines: int, samples: int, wavelengths, bad_band_mask, units_tag: str,
                 interleave: str, data_type: str, byte_order: str) -> str:
    return serialize_envi_header(EnviHeader(
        samples=samples, lines=lines, bands=len(wavelengths),
        interleave=interleave, data_type=data_type, byte_order=byte_order,
        header_offset=0, wavelengths=list(wavelengths),
        bad_band_multiplier=[int(v) for v in bad_band_mask],
        extra={_UNITS_KEY: units_tag}))


def _as_payload(arranged: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """`arranged` as a C-contiguous array of `dtype`, rounded first for
    integer types; a view when no conversion or reordering is needed."""
    if dtype.kind in "iu":
        arranged = np.rint(arranged)
    return np.ascontiguousarray(arranged, dtype=dtype)


def write_cube(cube: SpectralCube, interleave: str = "bsq",
               data_type: str = "float64",
               byte_order: str = "little") -> tuple[str, bytes]:
    """Serialize a cube to (header text, payload bytes).

    Raises ValueError if an integer data type is requested for values
    outside its representable range.
    """
    header_text, arranged, dtype = _encode_cube(cube, interleave, data_type, byte_order)
    return header_text, _as_payload(arranged, dtype).tobytes()


def write_cube_file(cube: SpectralCube, header_path, image_path=None,
                    interleave: str = "bsq", data_type: str = "float64",
                    below: SpectralCube | None = None) -> None:
    """Write a cube as a .hdr/.img file pair, creating missing parent
    directories. The payload goes out one plane of the interleave at a
    time (a band for BSQ, a line for BIL and BIP), so at most one plane
    is converted or reordered at once; the files hold exactly what
    :func:`write_cube` returns.

    `below`, a cube of the same samples and bands, adds its lines after
    the cube's: the files are those of the two cubes concatenated along
    lines (with the first one's metadata), and no such cube is made."""
    lines = cube.lines + (0 if below is None else below.lines)
    header_text, arranged, dtype = _encode_cube(cube, interleave, data_type, "little", lines)
    planes = [arranged]
    if below is not None:
        if (below.samples, below.bands) != (cube.samples, cube.bands):
            raise ValueError("cubes stacked along lines must share samples and bands")
        planes.append(_encode_cube(below, interleave, data_type, "little")[1])
    # A BSQ band plane holds that band of every line; other planes are lines.
    groups = zip(*planes) if interleave.lower() == "bsq" else planes
    with _open_pair(header_path, image_path, header_text) as fp:
        fp.writelines(_as_payload(plane, dtype).data for group in groups for plane in group)


class BsqPixelFile:
    """A float64 BSQ .hdr/.img pair, as :func:`write_cube_file` writes it,
    written a block of pixels at a time by :meth:`write`; a context
    manager that closes the image. The image's whole size is allocated
    before the first row, where the platform offers `posix_fallocate`, so
    the scattered rows land in a file of its final size."""

    def __init__(self, header_path, lines: int, samples: int, wavelengths,
                 bad_band_mask, units_tag: str):
        self.pixels = lines * samples
        self._fp = _open_pair(header_path, None, _header_text(
            lines, samples, wavelengths, bad_band_mask, units_tag, "bsq", "float64", "little"))
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(self._fp.fileno(), 0, self.pixels * len(wavelengths) * 8)

    def write(self, p: int, block: np.ndarray) -> None:
        """Write row j of the `(bands, m)` float64 `block` to pixels p to
        p + m of band plane j."""
        for j, row in enumerate(_as_payload(block, np.dtype("<f8"))):
            self._fp.seek((j * self.pixels + p) * 8)
            self._fp.write(row.data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fp.close()


def write_bsq_pixel_blocks(blocks, header_path, lines: int, samples: int,
                           wavelengths, bad_band_mask, units_tag: str) -> None:
    """Write a :class:`BsqPixelFile` from `blocks`: (first pixel p,
    C-contiguous `(bands, m)` float64 array) pairs that cover the pixels
    once, each written as it arrives."""
    with BsqPixelFile(header_path, lines, samples, wavelengths, bad_band_mask,
                      units_tag) as out:
        for p, block in blocks:
            out.write(p, block)
            del block  # the next block is not made while this one is held


def _open_pair(header_path, image_path, header_text: str):
    """Write the header text and return the image (by default the header's
    `.img` sibling) opened to write, creating missing parent directories."""
    header_path, image_path = str(header_path), _image_path(header_path, image_path)
    for path in (header_path, image_path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(header_path, "w", encoding="utf-8") as fp:
        fp.write(header_text)
    return open(image_path, "wb")


# ---------------------------------------------------------------------------
# spectral-library CSV


def read_spectral_library(text, source_tag: str = "") -> SpectralLibrary:
    """Parse a spectral-library CSV: text, or a file opened by
    `artifacts.open_lines`, which is then read a row at a time.

    Layout: header row `wavelength_nm,<name1>,<name2>,...` then one row per
    wavelength, strictly increasing down the file; cells may be quoted.
    """
    names, wl, spectra = artifacts.parse_spectra(text, "library")
    if not wl.size:
        raise ValueError(f"spectral library {source_tag!r} has no wavelength rows")
    if np.any(np.diff(wl) <= 0):
        raise ValueError("library wavelengths must be strictly increasing")
    entries = [SpectrumRecord(name=name, wavelengths=wl, reflectance=row)
               for name, row in zip(names, np.ascontiguousarray(spectra))]
    return SpectralLibrary(entries=entries, source_tag=source_tag)


def _library_columns(lib: SpectralLibrary):
    """Names, wavelengths and spectra of a library whose entries share one grid."""
    if not lib.entries:
        raise ValueError("cannot write an empty library")
    wl = lib.entries[0].wavelengths
    if not all(np.array_equal(e.wavelengths, wl) for e in lib.entries[1:]):
        raise ValueError("library entries must share one wavelength grid to serialize")
    return lib.names(), wl, [e.reflectance for e in lib.entries]


def write_spectral_library(lib: SpectralLibrary) -> str:
    """Serialize a library to CSV text; all entries must share one wavelength grid."""
    return artifacts.spectra_text(*_library_columns(lib))


def read_spectral_library_file(path) -> SpectralLibrary:
    with artifacts.open_lines(path) as fp:
        return read_spectral_library(fp, source_tag=str(path))


def write_spectral_library_file(lib: SpectralLibrary, path) -> None:
    artifacts.write_spectra(path, *_library_columns(lib))
