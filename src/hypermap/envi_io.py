"""ENVI-format header/cube parsing and spectral-library CSV I/O.

Cubes are held internally as float64 arrays indexed (line, sample, band)
no matter which interleave the file used; all interleave handling lives
here. Header parsing is whitespace-tolerant and case-insensitive, and
unrecognized keys are preserved verbatim so a parse -> serialize round
trip loses nothing.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

INTERLEAVES = ("bsq", "bil", "bip")

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


def _all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()``, checked a few planes at a time along
    the axis that is outermost in memory, so the bool temporary stays small."""
    outer = np.moveaxis(values, int(np.argmax(np.abs(values.strides))), 0)
    step = max(1, _FINITE_BLOCK_ELEMENTS * len(outer) // max(1, outer.size))
    return all(np.isfinite(outer[i:i + step]).all() for i in range(0, len(outer), step))


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
        if not _all_finite(self.values):
            raise ValueError("cube contains non-finite values")

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
        if values.size and (np.min(values) < 0.0 or np.max(values) > 1.5):
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

    def get(self, name: str) -> SpectrumRecord:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


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

    def pop_float_list(key: str) -> list[float] | None:
        if key not in raw:
            return None
        inner = raw.pop(key).strip()
        if inner.startswith("{"):
            inner = inner[1:]
        if inner.endswith("}"):
            inner = inner[:-1]
        out = []
        for token in inner.split(","):
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

    description = ""
    if "description" in raw:
        description = raw.pop("description").strip()
        if description.startswith("{"):
            description = description[1:]
        if description.endswith("}"):
            description = description[:-1]
        description = description.strip()

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
    A little-endian float64 payload in a writable buffer (a `bytearray`)
    is decoded in place: the cube's values are a view of `raw`, in the
    file's interleave order. From read-only `bytes` the values are copied,
    in the same memory order.
    """
    header.validate()
    n_values = header.samples * header.lines * header.bands
    expected = header.header_offset + n_values * header.numpy_dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"payload size mismatch: got {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype=header.numpy_dtype, count=n_values,
                         offset=header.header_offset)
    if header.interleave == "bsq":
        values = flat.reshape(header.bands, header.lines, header.samples)
        values = values.transpose(1, 2, 0)
    elif header.interleave == "bil":
        values = flat.reshape(header.lines, header.bands, header.samples)
        values = values.transpose(0, 2, 1)
    else:  # bip
        values = flat.reshape(header.lines, header.samples, header.bands)
    values = values.astype(np.float64, copy=not flat.flags.writeable)

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
    return SpectralCube(values=values, wavelengths=wavelengths,
                        bad_band_mask=mask, units_tag=units)


_INT_RANGES = {
    "uint8": (0, 2**8 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1),
}


def _encode_cube(cube: SpectralCube, interleave: str, data_type: str,
                 byte_order: str) -> tuple[str, np.ndarray, np.dtype]:
    """Header text, the values as a view in the file's interleave order
    (outermost axis first) and the file's dtype. Integer types are
    range-checked here; rounding is left to the caller."""
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
    if interleave == "bsq":
        arranged = values.transpose(2, 0, 1)
    elif interleave == "bil":
        arranged = values.transpose(0, 2, 1)
    else:
        arranged = values

    header = EnviHeader(
        samples=cube.samples, lines=cube.lines, bands=cube.bands,
        interleave=interleave, data_type=data_type, byte_order=byte_order,
        header_offset=0, wavelengths=list(cube.wavelengths),
        bad_band_multiplier=[int(v) for v in cube.bad_band_mask],
        extra={_UNITS_KEY: cube.units_tag})
    return serialize_envi_header(header), arranged, dtype


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
                    interleave: str = "bsq", data_type: str = "float64") -> None:
    """Write a cube as a .hdr/.img file pair, creating missing parent
    directories. The payload goes out one plane of the interleave at a
    time (a band for BSQ, a line for BIL and BIP), so at most one plane
    is converted or reordered at once; the files hold exactly what
    :func:`write_cube` returns."""
    header_path = str(header_path)
    if image_path is None:
        stem = header_path[:-4] if header_path.endswith(".hdr") else header_path
        image_path = stem + ".img"
    header_text, arranged, dtype = _encode_cube(cube, interleave, data_type, "little")
    for path in (header_path, image_path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(header_path, "w", encoding="utf-8") as fp:
        fp.write(header_text)
    with open(image_path, "wb") as fp:
        for plane in arranged:
            fp.write(_as_payload(plane, dtype).data)


# ---------------------------------------------------------------------------
# spectral-library CSV


def read_spectral_library(text: str, source_tag: str = "") -> SpectralLibrary:
    """Parse a spectral-library CSV.

    Layout: header row `wavelength_nm,<name1>,<name2>,...` then one row per
    wavelength, strictly increasing down the file.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("empty spectral library")
    head = [cell.strip() for cell in rows[0]]
    if head[0] != "wavelength_nm" or len(head) < 2:
        raise ValueError("library header must be 'wavelength_nm,<name>,...'")
    names = head[1:]
    if len(set(names)) != len(names):
        raise ValueError("duplicate spectrum names in library header")

    n_cols = len(head)
    # One float64 table, one row per wavelength, filled in a single pass:
    # each row is checked for width, then every cell goes through float().
    table = np.empty((len(rows) - 1, n_cols), dtype=np.float64)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n_cols:
            raise ValueError(f"library row {i} has {len(row)} cells, expected {n_cols}")
        try:
            table[i - 2] = np.fromiter(map(float, row), dtype=np.float64, count=n_cols)
        except ValueError as exc:
            raise ValueError(f"library row {i}: unparseable number") from exc
    wl = table[:, 0].copy()
    if np.any(np.diff(wl) <= 0):
        raise ValueError("library wavelengths must be strictly increasing")
    columns = np.ascontiguousarray(table[:, 1:].T)
    entries = [SpectrumRecord(name=name, wavelengths=wl, reflectance=col)
               for name, col in zip(names, columns)]
    return SpectralLibrary(entries=entries, source_tag=source_tag)


def write_spectral_library(lib: SpectralLibrary) -> str:
    """Serialize a library to CSV; all entries must share one wavelength grid."""
    if not lib.entries:
        raise ValueError("cannot write an empty library")
    wl = lib.entries[0].wavelengths
    for e in lib.entries[1:]:
        if e.wavelengths.shape != wl.shape or not np.array_equal(e.wavelengths, wl):
            raise ValueError("library entries must share one wavelength grid to serialize")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["wavelength_nm"] + lib.names())
    for i in range(wl.size):
        row = [repr(float(wl[i]))] + [repr(float(e.reflectance[i])) for e in lib.entries]
        writer.writerow(row)
    return out.getvalue()


def read_spectral_library_file(path) -> SpectralLibrary:
    with open(str(path), "r", encoding="utf-8") as fp:
        return read_spectral_library(fp.read(), source_tag=str(path))


def write_spectral_library_file(lib: SpectralLibrary, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fp:
        fp.write(write_spectral_library(lib))
