"""Block reads of a cube: `CubeFile` blocks against `read_cube` for every
interleave, data type, byte order and header offset, the finite check
as blocks pass, and the band-block sizes."""

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
