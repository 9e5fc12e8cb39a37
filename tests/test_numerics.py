"""Numerics tests: the PRNG against an independent splitmix64 reference
and the eigensolver against closed-form characteristic-polynomial roots."""

import math

import numpy as np
import pytest

from conftest import centre_and_covariance
from hypermap import numerics
from hypermap.numerics import RandomSource, spawned_gaussians, splitmix64, symmetric_eig

MASK = (1 << 64) - 1


def reference_splitmix64_stream(seed, count):
    """Independent splitmix64 written from the published recurrence."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def quadratic_eigenvalues(m):
    """Roots of the 2x2 characteristic polynomial, descending."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


def cubic_eigenvalues(m):
    """Roots of the 3x3 characteristic polynomial via the trigonometric
    solution (all roots real for symmetric input), descending."""
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    q = np.trace(m) / 3.0
    p2 = (m[0, 0] - q) ** 2 + (m[1, 1] - q) ** 2 + (m[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return np.array([q, q, q])
    b = (m - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return np.array(sorted([eig1, eig2, eig3], reverse=True))


class TestSplitmix:
    def test_reference_stream_seed_zero(self):
        rs = RandomSource(0)
        assert rs.next_raw() == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF])
    def test_reference_streams(self, seed):
        rs = RandomSource(seed)
        expected = reference_splitmix64_stream(seed, 1000)
        got = [rs.next_raw() for _ in range(1000)]
        assert got == expected

    def test_uniform_range_and_determinism(self):
        u = RandomSource(42).uniforms(10000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        again = RandomSource(42).uniforms(10000)
        assert np.array_equal(u, again)

    def test_uniform_block_matches_scalar(self):
        a, b = RandomSource(5), RandomSource(5)
        block = a.uniforms(100)
        scalars = np.array([b.next_uniform() for _ in range(100)])
        assert np.array_equal(block, scalars)

    def test_spawn_matches_documented_split(self):
        parent = RandomSource(1234)
        child = parent.spawn(17)
        assert child.seed == splitmix64(1234 ^ 17)
        for parent_seed, index in [(1234, 17), (0, 0), (MASK, 2 ** 63 + 9), (2 ** 40 + 3, MASK)]:
            got = numerics._child_seeds(parent_seed, np.array([index], dtype=np.uint64))
            assert int(got[0]) == splitmix64(parent_seed ^ index)

    def test_spawned_gaussians_match_scalar_path(self):
        # (parent seed, first index, stop, draws per row): the last column
        # block's seam, seeds that need masking to 64 bits, and an index
        # range across 2^32.
        cases = [(777, 3, 11, 6), (777, 0, 2, numerics._GAUSSIAN_BLOCK + 1),
                 (-1, 3, 11, 6), (2 ** 64 + 5, 3, 11, 6), (777, 2 ** 32 - 2, 2 ** 32 + 2, 6)]
        for parent_seed, start, stop, n in cases:
            vec = spawned_gaussians(parent_seed, start, stop, n)
            assert vec.shape == (stop - start, n)
            for row, idx in enumerate(range(start, stop)):
                child = RandomSource(parent_seed).spawn(idx)
                assert vec[row].tobytes() == child.gaussians(n).tobytes()


class TestGaussian:
    def test_moments(self):
        g = RandomSource(0).gaussians(100000)
        assert abs(float(g.mean())) < 0.02
        assert abs(float(g.var()) - 1.0) < 0.03

    def test_determinism(self):
        a = RandomSource(314).gaussians(1000)
        b = RandomSource(314).gaussians(1000)
        assert np.array_equal(a, b)

    def test_consumes_two_uniforms_each(self):
        a, b = RandomSource(8), RandomSource(8)
        a.gaussians(5)
        b.uniforms(10)
        assert a.next_raw() == b.next_raw()

    def test_scalar_matches_block(self):
        a, b = RandomSource(21), RandomSource(21)
        block = a.gaussians(4)
        scalars = [b.next_gaussian() for _ in range(4)]
        assert list(block) == scalars


def unblocked_uniforms(seed, start, n):
    """Uniforms at stream positions start+1..start+n in one array pass."""
    steps = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.uint64(seed) + steps * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) * 2.0 ** -64


class TestDrawBlocks:
    """`uniforms` draws in blocks of `_DRAW_BLOCK` uniforms and `gaussians`
    in blocks of `_GAUSSIAN_BLOCK` draws, through reused buffers; the
    result and the stream position must not show the seams."""

    SIZES = (1, numerics._GAUSSIAN_BLOCK - 1, numerics._GAUSSIAN_BLOCK,
             numerics._GAUSSIAN_BLOCK + 1, numerics._DRAW_BLOCK - 1, numerics._DRAW_BLOCK,
             2 * numerics._DRAW_BLOCK + 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_uniforms_equal_unblocked_formula(self, n):
        rs = RandomSource(99)
        u = rs.uniforms(n)
        assert u.tobytes() == unblocked_uniforms(99, 0, n).tobytes()
        assert rs.next_raw() == reference_splitmix64_stream(99, n + 1)[-1]

    @pytest.mark.parametrize("n", SIZES)
    def test_gaussians_equal_unblocked_formula(self, n):
        rs = RandomSource(5)
        g = rs.gaussians(n)
        u = unblocked_uniforms(5, 0, 2 * n)
        expected = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0 ** -64))) * \
            np.cos(2.0 * np.pi * u[1::2])
        assert g.tobytes() == expected.tobytes()
        assert rs.next_uniform() == unblocked_uniforms(5, 2 * n, 1)[0]


class TestGammaSteps:
    @pytest.fixture
    def sizes(self, monkeypatch):
        """The sizes of the tables built outside the cached block table,
        which starts empty."""
        sizes = []
        build = numerics._gamma_steps

        def record(n):
            sizes.append(n)
            return build(n)

        monkeypatch.setattr(numerics, "_gamma_steps", record)
        numerics._block_steps.cache_clear()
        return sizes

    def test_narrow_draws_build_a_table_of_their_steps(self, sizes):
        # `ppi` draws 64 skewers of 20 components: 40 stream positions a
        # row, so a table of 40 steps, and not the shared 1 MB block table;
        # so does one stream's draw of 20.
        g = numerics.spawned_gaussians(11, 0, 64, 20)
        one = RandomSource(11).spawn(5).gaussians(20)
        assert sizes == [40, 40] and numerics._block_steps.cache_info().currsize == 0
        assert g[5].tobytes() == one.tobytes()

    def test_wide_draws_share_the_block_table(self, sizes):
        # A block or more of draws, from one stream or from several, reads
        # the cached table and builds none.
        n = numerics._GAUSSIAN_BLOCK + 1
        g = numerics.spawned_gaussians(11, 0, 2, n)
        one = RandomSource(11).spawn(1).gaussians(n)
        assert sizes == [] and numerics._block_steps.cache_info().hits == 1
        assert g[1].tobytes() == one.tobytes()

    def test_tables_are_prefixes_of_the_block_table(self):
        full = numerics._block_steps()
        for n in (1, 2, 40, 4097):
            for part, whole in zip(numerics._gamma_steps(n), full):
                assert part.tobytes() == whole[:part.size].tobytes()


class TestUnitFloats:
    def test_equals_the_direct_cast(self):
        # Ties at the 53-bit rounding point (round half to even, up and
        # down), the ends of the range and random values.
        edges = [0, 1, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 53 + 3, 2 ** 63 - 1, 2 ** 63,
                 2 ** 63 + 2 ** 10, 2 ** 63 + 3 * 2 ** 10, 2 ** 64 - 2 ** 10, 2 ** 64 - 1,
                 0xFFFFFFFF, 0x100000000, 0xFFFFFFFF00000000]
        rng = np.random.default_rng(6)
        z = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(0, 2 ** 64 - 1, size=5000, dtype=np.uint64,
                                         endpoint=True),
                            rng.integers(0, 2 ** 40, size=500, dtype=np.uint64)])
        expected = z.astype(np.float64) * 2.0 ** -64
        out = numerics._unit_floats(z, np.empty_like(z), np.empty(z.size))
        assert out.tobytes() == expected.tobytes()


class TestSymmetricEig:
    def test_identity(self):
        values, vectors = symmetric_eig(np.eye(3))
        assert np.allclose(values, 1.0)
        assert np.allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        values, vectors = symmetric_eig(np.diag([3.0, 1.0]))
        assert np.allclose(values, [3.0, 1.0])
        assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            symmetric_eig(m)

    def test_sign_convention(self):
        values, vectors = symmetric_eig(np.diag([5.0, 2.0]))
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(2)] > 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_characteristic_polynomial_oracle(self, n):
        rng = np.random.default_rng(2024 + n)
        oracle = quadratic_eigenvalues if n == 2 else cubic_eigenvalues
        for _ in range(1000):
            a = rng.normal(size=(n, n))
            m = (a + a.T) / 2.0
            values, vectors = symmetric_eig(m)
            expected = oracle(m)
            scale = max(1.0, float(np.abs(m).max()))
            assert np.max(np.abs(values - expected)) < 1e-8 * scale
            # residual and orthonormality contracts
            for i in range(n):
                residual = m @ vectors[:, i] - values[i] * vectors[:, i]
                assert np.linalg.norm(residual) <= 1e-9 * max(1.0, np.linalg.norm(m))
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        m = (a + a.T) / 2.0
        values, vectors = symmetric_eig(m)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-8 * np.abs(m).max()


class TestCovariance:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_centring_in_place_equals_centred_copy(self, order):
        x = np.asarray(np.random.default_rng(3).normal(size=(500, 7)) + 4.0, order=order)
        mean = x.mean(axis=0)
        centred = x - mean
        mu, cov = centre_and_covariance(x)
        assert mu.tobytes() == mean.tobytes()
        assert cov.tobytes() == (centred.T @ centred / 499).tobytes()
        assert x.tobytes() == centred.tobytes()
        assert x.flags.f_contiguous == (order == "F")

    def test_merged_block_sums_match_the_whole_matrix(self):
        # Uneven blocks (one of a single sample) far from the origin, where
        # sums taken about zero would lose the covariance.
        x = np.random.default_rng(4).normal(size=(7, 1000)) * 0.01 + 1e4
        moments = numerics.Moments(7)
        for b0, b1 in [(0, 1), (1, 400), (400, 413), (413, 1000)]:
            block = x[:, b0:b1].copy()
            moments.add(block)
            assert moments.count == b1
        mean, cov = centre_and_covariance(x.T.copy())
        np.testing.assert_allclose(moments.mean, mean, rtol=1e-14)
        np.testing.assert_allclose(moments.covariance(), cov, rtol=1e-9,
                                   atol=1e-12 * np.abs(cov).max())
        assert np.array_equal(moments.covariance(), moments.covariance().T)
