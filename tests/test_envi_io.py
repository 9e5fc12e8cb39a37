"""ENVI I/O tests: header parsing, interleave handling against an
index-arithmetic oracle, round trips, and the library CSV format."""

import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_offset_cube
from hypermap.envi_io import (
    DATA_TYPE_CODES,
    EnviHeader,
    SpectralCube,
    parse_envi_header,
    read_cube,
    read_payload,
    read_spectral_library,
    serialize_envi_header,
    write_cube,
    write_cube_file,
    write_spectral_library,
)

MINIMAL = ("ENVI\nsamples = 2\nlines = 1\nbands = 3\ndata type = 4\n"
           "interleave = bsq\nbyte order = 0")


def encode_oracle(values, interleave, dtype):
    """Independent byte encoder: explicit index arithmetic per interleave."""
    lines, samples, bands = values.shape
    flat = []
    if interleave == "bsq":
        for b in range(bands):
            for l in range(lines):
                for s in range(samples):
                    flat.append(values[l, s, b])
    elif interleave == "bil":
        for l in range(lines):
            for b in range(bands):
                for s in range(samples):
                    flat.append(values[l, s, b])
    else:
        for l in range(lines):
            for s in range(samples):
                for b in range(bands):
                    flat.append(values[l, s, b])
    fmt = {"float32": "f", "float64": "d", "uint8": "B", "int16": "h",
           "int32": "i", "uint16": "H", "uint32": "I"}[dtype]
    return struct.pack("<" + fmt * len(flat), *flat)


def make_cube(values, units="radiance"):
    values = np.asarray(values, dtype=np.float64)
    bands = values.shape[2]
    return SpectralCube(values=values, wavelengths=np.arange(1.0, bands + 1),
                        bad_band_mask=np.ones(bands, dtype=bool), units_tag=units)


class TestHeaderParsing:
    def test_minimal_header(self):
        h = parse_envi_header(MINIMAL)
        assert (h.samples, h.lines, h.bands) == (2, 1, 3)
        assert h.data_type == "float32"
        assert h.interleave == "bsq"
        assert h.byte_order == "little"

    def test_wavelength_list_across_lines(self):
        text = MINIMAL + "\nwavelength = { 500.0,\n 600.0, 700.0 }"
        h = parse_envi_header(text)
        assert h.wavelengths == [500.0, 600.0, 700.0]

    def test_wavelength_length_mismatch(self):
        text = MINIMAL + "\nwavelength = { 500.0, 600.0 }"
        with pytest.raises(ValueError, match="wavelength"):
            parse_envi_header(text)

    def test_missing_magic(self):
        with pytest.raises(ValueError, match="ENVI"):
            parse_envi_header("samples = 2\nlines = 1")

    @pytest.mark.parametrize("key", ["samples", "lines", "bands", "data type",
                                     "interleave"])
    def test_missing_required_key(self, key):
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key)]
        with pytest.raises(ValueError, match=key):
            parse_envi_header("\n".join(lines))

    def test_unparseable_number(self):
        with pytest.raises(ValueError, match="samples"):
            parse_envi_header(MINIMAL.replace("samples = 2", "samples = two"))

    def test_case_insensitive_keys_and_extra_preserved(self):
        text = "ENVI\nSamples = 2\nLINES = 1\nbands = 3\nData Type = 4\n" \
               "interleave = bip\nsensor type = Hyperion\nmy key = 17"
        h = parse_envi_header(text)
        assert h.samples == 2
        assert h.extra == {"sensor type": "Hyperion", "my key": "17"}

    def test_parse_serialize_parse_fixed_point(self):
        text = MINIMAL + "\nwavelength = { 500.125, 600.25, 700.5 }\n" \
               "description = { test scene }\nbbl = { 1, 0, 1 }\nfwhm = {10, 10, 11}\n" \
               "sensor type = Hyperion"
        h1 = parse_envi_header(text)
        h2 = parse_envi_header(serialize_envi_header(h1))
        assert h1 == h2
        assert serialize_envi_header(h1) == serialize_envi_header(h2)

    def test_bbl_values_checked(self):
        with pytest.raises(ValueError, match="bbl"):
            parse_envi_header(MINIMAL + "\nbbl = { 1, 2, 1 }")

    def test_comment_blank_and_bare_lines_skipped(self):
        text = MINIMAL.replace("bands = 3", "; comment = 5\n\n  bare line\nbands = 3")
        assert parse_envi_header(text) == parse_envi_header(MINIMAL)

    def test_empty_list_entries_skipped(self):
        h = parse_envi_header(MINIMAL + "\nwavelength = { 500.0, , 600.0, 700.0, }")
        assert h.wavelengths == [500.0, 600.0, 700.0]

    @pytest.mark.parametrize("text, message", [
        (MINIMAL + "\nwavelength = { 500.0,\n 600.0",
         "unterminated '{' list for header key 'wavelength'"),
        (MINIMAL + "\nwavelength = { 500.0, six, 700.0 }",
         "header key 'wavelength': unparseable number 'six'"),
        (MINIMAL.replace("data type = 4", "data type = 6"), "unsupported ENVI data type code 6"),
        (MINIMAL.replace("interleave = bsq", "interleave = xyz"), "unknown interleave 'xyz'"),
        (MINIMAL.replace("byte order = 0", "byte order = 2"), "byte order must be 0 or 1, got 2"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_envi_header(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("change, message", [
        ({"samples": 0}, "samples, lines and bands must all be positive"),
        ({"interleave": "xyz"}, "unknown interleave 'xyz'"),
        ({"data_type": "complex64"}, "unsupported data type 'complex64'"),
        ({"byte_order": "middle"}, "byte order must be 'little' or 'big', got 'middle'"),
        ({"header_offset": -1}, "header offset must be non-negative"),
        ({"fwhm": [10.0, 10.0]}, "fwhm list has 2 entries, expected 3"),
        ({"bad_band_multiplier": [1, 2, 1]}, "bbl entries must be 0 or 1"),
    ])
    def test_header_fields_checked(self, change, message):
        fields = dict(samples=2, lines=1, bands=3, interleave="bsq", data_type="float32")
        with pytest.raises(ValueError) as err:
            EnviHeader(**{**fields, **change})
        assert str(err.value) == message

    def test_unknown_units_tag_reads_as_radiance(self):
        text, raw = write_cube(make_cube(np.ones((1, 2, 3)), units="reflectance"))
        header = parse_envi_header(text.replace("data units = reflectance",
                                                "data units = furlongs"))
        assert header.extra["data units"] == "furlongs"
        assert read_cube(header, raw).units_tag == "radiance"


class TestReadCube:
    def test_single_pixel_bsq(self):
        header = parse_envi_header(MINIMAL.replace("samples = 2", "samples = 1")
                                   .replace("bands = 3", "bands = 2"))
        raw = struct.pack("<ff", 1.0, 2.0)
        cube = read_cube(header, raw)
        assert cube.values.shape == (1, 1, 2)
        assert list(cube.values[0, 0]) == [1.0, 2.0]

    def test_interleave_equivalence(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 100, size=(3, 2, 4)).astype(np.float64)
        cubes = []
        for interleave in ("bsq", "bil", "bip"):
            header = EnviHeader(samples=2, lines=3, bands=4,
                                interleave=interleave, data_type="float64")
            raw = encode_oracle(values, interleave, "float64")
            cubes.append(read_cube(header, raw).values)
        assert np.array_equal(cubes[0], values)
        assert np.array_equal(cubes[0], cubes[1])
        assert np.array_equal(cubes[0], cubes[2])

    def test_truncated_stream(self):
        header = parse_envi_header(MINIMAL)
        raw = struct.pack("<fff", 1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="size mismatch"):
            read_cube(header, raw)

    def test_non_finite_rejected(self):
        header = parse_envi_header(MINIMAL.replace("samples = 2", "samples = 1")
                                   .replace("bands = 3", "bands = 1"))
        raw = struct.pack("<f", float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            read_cube(header, raw)

    def test_big_endian(self):
        header = EnviHeader(samples=1, lines=1, bands=2, interleave="bsq",
                            data_type="float32", byte_order="big")
        raw = struct.pack(">ff", 5.0, -7.0)
        cube = read_cube(header, raw)
        assert list(cube.values[0, 0]) == [5.0, -7.0]

    def test_header_offset(self):
        header = EnviHeader(samples=1, lines=1, bands=1, interleave="bsq",
                            data_type="float64", header_offset=3)
        raw = b"xyz" + struct.pack("<d", 2.5)
        cube = read_cube(header, raw)
        assert cube.values[0, 0, 0] == 2.5


class TestReadPayload:
    def test_whole_read_returns_header_and_file_bytes(self, tmp_path):
        header_text, payload = write_cube(make_cube(np.ones((2, 3, 4))), "bil")
        (tmp_path / "cube.hdr").write_text(header_text)
        (tmp_path / "cube.img").write_bytes(payload)
        header, raw = read_payload(tmp_path / "cube.hdr")
        assert header == parse_envi_header(header_text)
        assert raw.dtype == np.uint8 and raw.tobytes() == payload


class TestReadBlocks:
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("data_type", ["int16", "float64", "float32"])
    @pytest.mark.parametrize("bands", [range(2), range(3, 6), range(7)])
    def test_band_subsets_of_every_interleave(self, tmp_path, interleave, data_type, bands):
        from hypermap.envi_io import _read_blocks

        values = np.arange(5 * 6 * 7, dtype=np.float64).reshape(5, 6, 7) - 90.0
        # The float32 file is big-endian: converted from a non-native type.
        path = write_offset_cube(tmp_path, values, np.ones(7, bool), interleave,
                                 data_type=data_type, offset=24,
                                 byte_order="big" if data_type == "float32" else "little")
        header = parse_envi_header(path.read_text())
        blocks = [(0, 4, bands), (4, 5, bands), (1, 3, range(7)), (2, 5, bands)]
        buffer = None
        for (l0, l1, named), (first, block) in zip(
                blocks, _read_blocks(tmp_path / "cube.img", header, blocks)):
            assert first == l0
            assert block.dtype == np.float64  # an int16 or float32 file is converted
            assert block.tolist() == values[l0:l1, :, named.start:named.stop].tolist()
            buffer = block if buffer is None else buffer
            assert np.shares_memory(block, buffer)  # one buffer for every block
            if interleave != "bsq":
                # A view of the whole lines read: the bands' stride is the file's.
                assert block.strides[2] == (8 if interleave == "bip" else 8 * 6)


class TestWriteCube:
    def test_round_trip_identity_payload(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(2, 3, 4)).astype(np.float32).astype(np.float64)
        cube = make_cube(values)
        header_text, payload = write_cube(cube, "bil", "float32")
        header = parse_envi_header(header_text)
        again = read_cube(header, payload)
        _, payload2 = write_cube(again, "bil", "float32")
        assert payload == payload2

    def test_bsq_bil_permutation_oracle(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 50, size=(3, 2, 4)).astype(np.float64)
        cube = make_cube(values)
        _, payload_bsq = write_cube(cube, "bsq", "float64")
        assert payload_bsq == encode_oracle(values, "bsq", "float64")
        header_text, payload_bil = write_cube(cube, "bil", "float64")
        assert payload_bil == encode_oracle(values, "bil", "float64")
        reread = read_cube(parse_envi_header(header_text), payload_bil)
        _, back_to_bsq = write_cube(reread, "bsq", "float64")
        assert back_to_bsq == payload_bsq

    def test_integer_range_error(self):
        cube = make_cube(np.full((1, 1, 1), 70000.0))
        with pytest.raises(ValueError, match="uint16"):
            write_cube(cube, "bsq", "uint16")

    @pytest.mark.parametrize("layout, message", [
        ({"interleave": "xyz"}, "unknown interleave 'xyz'"),
        ({"interleave": "XYZ"}, "unknown interleave 'xyz'"),
        ({"data_type": "complex64"}, "unsupported data type 'complex64'"),
        ({"byte_order": "middle"}, "byte order must be 'little' or 'big', got 'middle'"),
    ])
    def test_unknown_layout_rejected(self, layout, message):
        with pytest.raises(ValueError) as err:
            write_cube(make_cube(np.ones((1, 2, 3))), **layout)
        assert str(err.value) == message

    def test_all_interleave_pairs_round_trip(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(3, 4, 5))
        cube = make_cube(values, units="reflectance")
        for first in ("bsq", "bil", "bip"):
            text1, raw1 = write_cube(cube, first, "float64")
            mid = read_cube(parse_envi_header(text1), raw1)
            for second in ("bsq", "bil", "bip"):
                text2, raw2 = write_cube(mid, second, "float64")
                final = read_cube(parse_envi_header(text2), raw2)
                assert np.array_equal(final.values, values)
                assert final.units_tag == "reflectance"

    def test_units_tag_round_trips(self):
        cube = make_cube(np.ones((1, 2, 3)), units="mnf_component")
        text, raw = write_cube(cube)
        assert read_cube(parse_envi_header(text), raw).units_tag == "mnf_component"

    def test_randomized_round_trips_all_types(self):
        rng = np.random.default_rng(77)
        interleaves = ("bsq", "bil", "bip")
        dtypes = list(DATA_TYPE_CODES)
        for trial in range(60):
            lines, samples, bands = rng.integers(1, 5, size=3)
            dtype = dtypes[trial % len(dtypes)]
            if dtype in ("float32", "float64"):
                values = rng.normal(size=(lines, samples, bands))
                values = values.astype(np.float32).astype(np.float64)
            else:
                info = np.iinfo(dtype)
                lo, hi = max(info.min, -1000), min(info.max, 1000)
                values = rng.integers(lo, hi + 1, size=(lines, samples, bands))
                values = values.astype(np.float64)
            cube = make_cube(values)
            interleave = interleaves[trial % 3]
            text, raw = write_cube(cube, interleave, dtype)
            back = read_cube(parse_envi_header(text), raw)
            assert np.array_equal(back.values, values)


class TestWriteCubeFile:
    def test_files_hold_write_cube_output(self, tmp_path):
        rng = np.random.default_rng(15)
        values = rng.integers(0, 200, size=(3, 4, 5)).astype(np.float64)
        cube = make_cube(values, units="reflectance")
        for interleave in ("bsq", "bil", "bip"):
            for dtype in DATA_TYPE_CODES:
                header_path = tmp_path / f"{interleave}_{dtype}.hdr"
                write_cube_file(cube, header_path, interleave=interleave, data_type=dtype)
                text, payload = write_cube(cube, interleave, dtype)
                assert header_path.read_text(encoding="utf-8") == text
                assert header_path.with_suffix(".img").read_bytes() == payload

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_write_makes_at_most_one_payload_copy(self, tmp_path, interleave):
        cube = make_cube(np.random.default_rng(16).normal(size=(64, 64, 64)))
        payload = cube.values.nbytes
        tracemalloc.start()
        try:
            write_cube_file(cube, tmp_path / "cube.hdr", interleave=interleave)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One reordered 64 x 64 plane (1/64 of the payload) plus the header
        # text and file buffers; a whole reordered copy would reach 1x.
        assert peak <= 0.05 * payload

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_integer_write_rounds_one_plane_at_a_time(self, tmp_path, interleave):
        cube = make_cube(np.random.default_rng(17).normal(scale=300.0, size=(64, 64, 64)))
        payload = cube.values.nbytes
        tracemalloc.start()
        try:
            write_cube_file(cube, tmp_path / "cube.hdr", interleave=interleave,
                            data_type="int16")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * payload
        assert (tmp_path / "cube.img").read_bytes() == write_cube(cube, interleave, "int16")[1]

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_lines_below_give_the_files_of_the_concatenation(self, tmp_path, interleave):
        rng = np.random.default_rng(18)
        top = make_cube(rng.integers(0, 200, size=(3, 4, 5)).astype(np.float64))
        below = make_cube(rng.integers(0, 200, size=(2, 4, 5)).astype(np.float64))
        write_cube_file(top, tmp_path / "cube.hdr", interleave=interleave, data_type="int16",
                        below=below)
        whole = top.copy_with(values=np.concatenate([top.values, below.values]))
        text, payload = write_cube(whole, interleave, "int16")
        assert (tmp_path / "cube.hdr").read_text(encoding="utf-8") == text
        assert (tmp_path / "cube.img").read_bytes() == payload
        with pytest.raises(ValueError, match="share samples and bands"):
            write_cube_file(top, tmp_path / "x.hdr", below=make_cube(np.ones((2, 4, 4))))

    @pytest.mark.parametrize("layout, message", [
        ({"interleave": "xyz"}, "unknown interleave 'xyz'"),
        ({"data_type": "complex64"}, "unsupported data type 'complex64'"),
    ])
    def test_unknown_layout_writes_nothing(self, tmp_path, layout, message):
        with pytest.raises(ValueError) as err:
            write_cube_file(make_cube(np.ones((1, 2, 3))), tmp_path / "cube.hdr", **layout)
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_creates_missing_directories(self, tmp_path):
        header_path = tmp_path / "new" / "sub" / "cube.hdr"
        image_path = tmp_path / "other" / "cube.img"
        write_cube_file(make_cube(np.ones((1, 2, 3))), header_path, image_path)
        assert header_path.exists() and image_path.exists()


class TestSpectralLibrary:
    def test_minimal_csv(self):
        lib = read_spectral_library("wavelength_nm,quartz\n500,0.2\n600,0.4\n")
        assert lib.names() == ["quartz"]
        assert list(lib.entries[0].wavelengths) == [500.0, 600.0]
        assert list(lib.entries[0].reflectance) == [0.2, 0.4]

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_spectral_library("wavelength_nm,a,a\n500,0.2,0.3\n")

    def test_non_increasing_wavelengths(self):
        with pytest.raises(ValueError, match="increasing"):
            read_spectral_library("wavelength_nm,a\n700,0.2\n500,0.3\n")

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="row 3"):
            read_spectral_library("wavelength_nm,a\n500,0.2\n600,0.3,0.4\n")
        # rows count from the header as row 1, blank lines not counted
        with pytest.raises(ValueError, match="library row 4 has 2 cells, expected 3"):
            read_spectral_library("wavelength_nm,a,b\n500,0.2,0.3\n\n600,0.3,0.4\n700,0.5\n")

    def test_unparseable_cell_names_its_row(self):
        with pytest.raises(ValueError, match="library row 3: unparseable number"):
            read_spectral_library("wavelength_nm,a,b\n500,0.2,0.3\n600,0.3,x\n700,0.5,0.1\n")
        with pytest.raises(ValueError, match="library row 2: unparseable number"):
            read_spectral_library("wavelength_nm,a\n,0.2\n600,0.3\n")

    def test_cells_parse_as_float(self):
        cells = ["0.1", " 0.25 ", "3e-1", "1_0e-2", "0.30000000000000004", "1.4999999999999999"]
        text = "wavelength_nm,a\n" + "".join(
            f"{500 + 10 * i},{cell}\n" for i, cell in enumerate(cells))
        lib = read_spectral_library(text)
        assert lib.entries[0].reflectance.tolist() == [float(c) for c in cells]
        assert lib.entries[0].wavelengths.tolist() == [500.0 + 10 * i for i in range(6)]

    def test_round_trip(self):
        text = "wavelength_nm,a,b\n500.0,0.25,0.5\n600.0,0.3,0.6\n"
        lib = read_spectral_library(text)
        again = read_spectral_library(write_spectral_library(lib))
        assert again.names() == lib.names()
        for e1, e2 in zip(lib.entries, again.entries):
            assert np.array_equal(e1.reflectance, e2.reflectance)

    def test_reflectance_range_enforced(self):
        with pytest.raises(ValueError, match="1.5"):
            read_spectral_library("wavelength_nm,a\n500,1.7\n600,0.4\n")
