"""Numerics tests: the PRNG against an independent splitmix64 reference
and the eigensolver against closed-form characteristic-polynomial roots."""

import math

import numpy as np
import pytest

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

    def test_block_matches_scalar(self):
        a, b = RandomSource(99), RandomSource(99)
        block = a.raw_block(257)
        scalars = [b.next_raw() for _ in range(257)]
        assert [int(v) for v in block] == scalars
        # streams stay aligned afterwards
        assert a.next_raw() == b.next_raw()

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

    def test_spawned_gaussians_match_scalar_path(self):
        vec = spawned_gaussians(777, 3, 11, 6)
        for row, idx in enumerate(range(3, 11)):
            child = RandomSource(777).spawn(idx)
            assert np.array_equal(vec[row], child.gaussians(6))


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
    """`uniforms` and `gaussians` draw in blocks of `_DRAW_BLOCK` uniforms;
    the result and the stream position must not show the seams."""

    SIZES = (numerics._DRAW_BLOCK - 1, numerics._DRAW_BLOCK, 2 * numerics._DRAW_BLOCK + 1)

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
        mu, cov = numerics.centre_and_covariance(x)
        assert mu.tobytes() == mean.tobytes()
        assert cov.tobytes() == (centred.T @ centred / 499).tobytes()
        assert x.tobytes() == centred.tobytes()
        assert x.flags.f_contiguous == (order == "F")
