"""Block reads of a cube: `CubeFile` blocks and first planes against
`read_cube` for every interleave, data type, byte order and header
offset, the finite check as blocks pass, and the band-block sizes."""

import numpy as np
import pytest

from conftest import write_offset_cube
from hypermap import cube_blocks, envi_io
from hypermap.cube_blocks import CubeFile, band_blocks, line_blocks
from hypermap.envi_io import read_cube, read_payload


class TestCubeFile:
    SHAPE = (7, 5, 9)
    # 720 bytes of lines and of bands: blocks of 2 lines (360 bytes each)
    # and of 2 band planes (280 bytes each), the one-band remainder joining
    # the last: bands 0-1, 2-3, 4-5 and 6-8.
    BLOCK_BYTES = 720

    def write(self, tmp_path, interleave, data_type="float64", byte_order="little", offset=0,
              values=None):
        if values is None:
            values = np.arange(np.prod(self.SHAPE), dtype=np.float64).reshape(self.SHAPE) - 90.0
        return write_offset_cube(tmp_path, values, np.arange(self.SHAPE[2]) % 4 != 0,
                                 interleave, data_type, byte_order, offset, "reflectance")

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("data_type, byte_order, offset", [
        ("float64", "little", 0), ("int16", "little", 0), ("float64", "big", 0),
        ("float32", "little", 24), ("int16", "big", 24)])
    def test_blocks_equal_read_cube(self, tmp_path, monkeypatch, interleave, data_type,
                                    byte_order, offset):
        path = self.write(tmp_path, interleave, data_type, byte_order, offset)
        whole = read_cube(*read_payload(path))
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", self.BLOCK_BYTES)
        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", self.BLOCK_BYTES)
        cube = CubeFile(path)
        assert (cube.lines, cube.samples, cube.bands) == self.SHAPE
        assert cube.wavelengths.tobytes() == whole.wavelengths.tobytes()
        assert cube.bad_band_mask.tolist() == whole.bad_band_mask.tolist()
        assert cube.units_tag == whole.units_tag == "reflectance"

        bands = [(b0, block.copy()) for b0, block in band_blocks(cube)]
        assert [(b0, b.shape[2]) for b0, b in bands] == [(0, 2), (2, 2), (4, 2), (6, 3)]
        assert np.concatenate([b for _, b in bands], axis=2).tobytes() == whole.values.tobytes()
        lines = []
        for l0, block in line_blocks(cube):
            # In the file's memory order, as the whole read keeps it.
            assert np.argsort(block.strides).tolist() == np.argsort(whole.values.strides).tolist()
            lines.append((l0, block.copy()))
        assert [(l0, b.shape[0]) for l0, b in lines] == [(0, 2), (2, 2), (4, 2), (6, 1)]
        assert np.concatenate([b for _, b in lines]).tobytes() == whole.values.tobytes()
        prefix = [(b0, block.copy()) for b0, block in band_blocks(cube, 5)]
        assert [(b0, b.shape[2]) for b0, b in prefix] == [(0, 2), (2, 3)]
        assert np.concatenate([b for _, b in prefix], axis=2).tobytes() == \
            np.ascontiguousarray(whole.values[:, :, :5]).tobytes()
        first = np.ascontiguousarray(whole.values[:, :, :5].transpose(2, 0, 1))
        for source in (cube, whole):
            planes = cube_blocks.first_planes(source, 5)
            assert planes.flags.c_contiguous and planes.tobytes() == first.tobytes()

        # An in-memory cube yields the same blocks, as views.
        assert [(b0, b.shape) for b0, b in band_blocks(whole)] == \
            [(b0, b.shape) for b0, b in bands]
        assert [(l0, b.shape) for l0, b in line_blocks(whole)] == \
            [(l0, b.shape) for l0, b in lines]
        assert all(np.shares_memory(b, whole.values) for _, b in line_blocks(whole))

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_non_finite_value_fails_the_block_that_holds_it(self, tmp_path, monkeypatch,
                                                            interleave):
        path = self.write(tmp_path, interleave, values=np.ones(self.SHAPE))
        # Line 6 (the last), sample 2, band 7 (in the last band block).
        lines, samples, bands = self.SHAPE
        index = {"bsq": (7 * lines + 6) * samples + 2, "bil": (6 * bands + 7) * samples + 2,
                 "bip": (6 * samples + 2) * bands + 7}[interleave]
        payload = bytearray((tmp_path / "cube.img").read_bytes())
        payload[8 * index:8 * index + 8] = np.array([np.nan]).tobytes()
        (tmp_path / "cube.img").write_bytes(payload)
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", self.BLOCK_BYTES)
        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", self.BLOCK_BYTES)
        cube = CubeFile(path)
        for blocks, first in ((line_blocks(cube), [0, 2, 4]), (band_blocks(cube), [0, 2, 4])):
            seen = []
            with pytest.raises(ValueError, match="cube contains non-finite values"):
                for start, _ in blocks:
                    seen.append(start)
            assert seen == first
        # The bands a prefix pass reads hold no NaN.
        assert [b0 for b0, _ in band_blocks(cube, 6)] == [0, 2, 4]

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("data_type, byte_order", [
        ("float64", "little"), ("int16", "little"), ("float32", "big")])
    @pytest.mark.parametrize("keep", [[1, 1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0, 1], 3])
    @pytest.mark.parametrize("with_wavelengths", [True, False])
    def test_selected_bands_equal_whole_read_then_mask(self, tmp_path, monkeypatch, interleave,
                                                       data_type, byte_order, keep,
                                                       with_wavelengths):
        # A band mask is taken from line blocks (as `preprocess` keeps
        # bands), a band count from the first planes (as `ppi` reads its
        # components); both equal the whole read with the bands dropped.
        from hypermap import preprocess

        values = np.arange(5 * 6 * 7, dtype=np.float64).reshape(5, 6, 7) - 90.0
        # The bands are numbered 1..7 without wavelengths, and the kept ones keep their numbers.
        path = write_offset_cube(tmp_path, values, np.arange(7) % 3 != 0, interleave, data_type,
                                 byte_order, offset=24, wavelengths=with_wavelengths,
                                 fwhm=[10.0 + i for i in range(7)] if with_wavelengths else None)
        mask = np.arange(7) < keep if isinstance(keep, int) else np.array(keep, dtype=bool)
        expected = preprocess.remove_bad_bands(read_cube(*read_payload(path)), mask)
        # Blocks of 2 lines of 42 values, and band blocks of 2 or 3 planes.
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", 2 * 42 * 8)
        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", 2 * 30 * 8)
        cube = CubeFile(path)
        assert cube.wavelengths[mask].tobytes() == expected.wavelengths.tobytes()
        assert cube.bad_band_mask[mask].tolist() == expected.bad_band_mask.tolist()
        assert cube.units_tag == expected.units_tag
        if isinstance(keep, int):
            planes = cube_blocks.first_planes(cube, keep)
            assert planes.flags.c_contiguous
            assert planes.tobytes() == expected.values.transpose(2, 0, 1).tobytes()
        else:
            kept = np.concatenate([block[:, :, mask] for _, block in line_blocks(cube)])
            assert kept.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_non_finite_value_in_the_last_dropped_block(self, tmp_path, monkeypatch, interleave):
        path = write_offset_cube(tmp_path, np.ones((5, 6, 7)), np.ones(7, bool), interleave)
        monkeypatch.setattr(envi_io, "BLOCK_BYTES", 2 * 42 * 8)
        assert envi_io._line_ranges(5, 42) == [(0, 2), (2, 4), (4, 5)]
        # Line 4 (the last block), sample 5, band 6 (the last plane).
        index = {"bsq": (6 * 5 + 4) * 6 + 5, "bil": (4 * 7 + 6) * 6 + 5,
                 "bip": (4 * 6 + 5) * 7 + 6}[interleave]
        payload = bytearray((tmp_path / "cube.img").read_bytes())
        payload[8 * index:8 * index + 8] = np.array([np.nan]).tobytes()
        (tmp_path / "cube.img").write_bytes(payload)
        cube = CubeFile(path)
        # A pass over the lines checks every band it reads, the dropped ones
        # too, as `preprocess` does when its mask drops the band.
        with pytest.raises(ValueError, match="cube contains non-finite values"):
            for _ in line_blocks(cube):
                pass
        # The first planes check only the bands they hold, whatever the interleave.
        assert cube_blocks.first_planes(cube, 3).tolist() == np.ones((3, 5, 6)).tolist()
        with pytest.raises(ValueError, match="cube contains non-finite values"):
            cube_blocks.first_planes(cube, 7)

    def test_size_and_header_checked_on_open(self, tmp_path):
        path = self.write(tmp_path, "bil")
        img = tmp_path / "cube.img"
        img.write_bytes(img.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload size mismatch"):
            CubeFile(path)
        img.unlink()
        with pytest.raises(FileNotFoundError):
            CubeFile(path)

    @pytest.mark.parametrize("bands", range(1, 12))
    @pytest.mark.parametrize("planes", [1, 2, 3, 5])
    def test_no_block_holds_exactly_one_band_of_several(self, monkeypatch, bands, planes):
        monkeypatch.setattr(cube_blocks, "BAND_BLOCK_BYTES", planes * 8 * 10)
        ranges = cube_blocks._band_ranges(bands, 10)
        assert [b0 for b0, _ in ranges] + [bands] == [0] + [b1 for _, b1 in ranges]
        step = max(2, planes)
        assert all(b1 - b0 >= min(2, bands) and b1 - b0 <= step + 1 for b0, b1 in ranges)
        assert all(b1 - b0 == step for b0, b1 in ranges[:-1])

    @pytest.mark.parametrize("bands, expected", [
        # 8 planes of 128 x 128 pixels to a MiB: the last band of 17 joins
        # the block before it.
        (17, [(0, 8), (8, 17)]),
        (20, [(0, 8), (8, 16), (16, 20)]),
    ])
    def test_band_blocks_hold_about_a_mib(self, bands, expected):
        assert cube_blocks.BAND_BLOCK_BYTES == 1 << 20
        assert cube_blocks._band_ranges(bands, 128 * 128) == expected
