"""Deterministic numerical kernels: covariance, eigendecomposition, seeded RNG.

Every stochastic stage of the pipeline (PPI skewers, k-means seeding,
synthetic scenes) draws from :class:`RandomSource`, a splitmix64 stream.
The raw 64-bit stream is pure integer arithmetic, so a given seed yields
the same draws on every platform and thread count. Child streams are
seeded by the one seed split, :func:`_child_seeds`.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)

# One uniform draw is the raw 64-bit output scaled by 2^-64; clamping away
# from 0 keeps log() in Box-Muller finite.
_U64_SCALE = 2.0 ** -64
_MIN_UNIFORM = 2.0 ** -64

# Uniforms drawn per step of `uniforms`, and Gaussian columns per step of
# `_gaussian_rows` (two uniforms each): a stream's reused buffers stay ~1 MB
# however many draws are asked for.
_DRAW_BLOCK = 1 << 16
_GAUSSIAN_BLOCK = _DRAW_BLOCK // 2

_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def splitmix64(value: int) -> int:
    """One splitmix64 step: add the golden gamma to `value` and mix.

    Used both as the stream generator inside :class:`RandomSource` and,
    vectorized, as the documented seed split :func:`_child_seeds` (child
    seed = splitmix64(parent seed XOR stream index)).
    """
    z = (int(value) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 output function, applied in place to the
    uint64 state values `z`, which it returns; the shifted values go to
    `scratch`, a uint64 array of `z`'s shape."""
    z ^= np.right_shift(z, _SHIFT30, out=scratch)
    z *= _MIX1_U64
    z ^= np.right_shift(z, _SHIFT27, out=scratch)
    z *= _MIX2_U64
    z ^= np.right_shift(z, _SHIFT31, out=scratch)
    return z


def _gamma_steps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """step × γ (mod 2^64) for the steps 1..n, added to a stream's state to
    give its next states; and the same table's odd and even steps, each
    contiguous, for the two halves of a Box-Muller pair. A table is a
    prefix of any larger one, so the size built does not change a draw."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _GAMMA_U64
    return steps, steps[0::2].copy(), steps[1::2].copy()


# A draw of a whole block or more (`uniforms`, and `synth`'s wide
# `gaussians`) shares this table of every step of a block (1 MB, built on
# first use): building it costs as much as a block's draw. A narrower
# draw (`ppi`'s 64 skewers of k components) builds a table of the steps
# it takes, at about the cost of one of its rows, and so holds no 1 MB
# table.
_block_steps = functools.cache(functools.partial(_gamma_steps, _DRAW_BLOCK))


def _unit_floats(z: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`z * 2^-64` as float64 into `out`, bit for bit, overwriting
    `scratch`. numpy's uint64 -> float64 cast is several times slower than
    its int64 one, so the two 32-bit halves go through the int64 cast:
    `hi * 2^32` and `lo` are exact doubles, so their sum is `z` rounded
    once, as the direct cast rounds it, and scaling by a power of two is
    exact."""
    np.right_shift(z, _SHIFT32, out=scratch)
    np.multiply(scratch.view(np.int64), 2.0 ** 32, out=out)
    np.bitwise_and(z, _LOW32, out=scratch)
    np.add(out, scratch.view(np.int64), out=out)
    out *= _U64_SCALE
    return out


def _child_seeds(parent_seed: int, indices) -> np.ndarray:
    """The seed split: child seed = splitmix64(parent seed XOR stream
    index) for each uint64 index in `indices`, the parent masked to 64 bits
    as :class:`RandomSource` masks its seed. Both :meth:`RandomSource.spawn`
    and :func:`spawned_gaussians` key their child streams by it."""
    z = np.asarray(indices, dtype=np.uint64) ^ np.uint64(int(parent_seed) & _MASK64)
    z += _GAMMA_U64
    return _mix_u64(z, np.empty_like(z))


def _uniform_fill(states, steps, z, scratch, out: np.ndarray) -> np.ndarray:
    """Uniforms at the stream positions `states + steps` into `out`, through
    the uint64 buffers `z` and `scratch` of `out`'s shape."""
    np.add(states, steps, out=z)
    return _unit_floats(_mix_u64(z, scratch), scratch, out)


def _gaussian_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Box-Muller draws: row r holds the first `n` standard normals of the
    stream at state ``states[r]`` (uint64), advanced past them in place.

    Only the cosine branch is kept so each draw maps to a fixed pair of
    stream positions: draw j takes its radius from position 2j + 1 and its
    angle from 2j + 2. Drawn `_GAUSSIAN_BLOCK` columns at a time, the
    radius in place in the result and each half from contiguous states.
    """
    out = np.empty((states.size, n), dtype=np.float64)
    width = 2 * min(n, _GAUSSIAN_BLOCK)
    _, odd, even = _block_steps() if width == _DRAW_BLOCK else _gamma_steps(width)
    z = np.empty((states.size, min(n, _GAUSSIAN_BLOCK)), dtype=np.uint64)
    scratch = np.empty_like(z)
    angle = np.empty(z.shape, dtype=np.float64)
    base = states[:, None]
    for start in range(0, n, _GAUSSIAN_BLOCK):
        block = out[:, start:start + _GAUSSIAN_BLOCK]
        m = block.shape[1]
        zm, sm, am = z[:, :m], scratch[:, :m], angle[:, :m]
        _uniform_fill(base, odd[:m], zm, sm, block)
        np.maximum(block, _MIN_UNIFORM, out=block)
        np.log(block, out=block)
        block *= -2.0
        np.sqrt(block, out=block)
        _uniform_fill(base, even[:m], zm, sm, am)
        am *= 2.0 * np.pi
        np.cos(am, out=am)
        block *= am
        base += np.uint64(2 * m * _GAMMA & _MASK64)
    return out


class RandomSource:
    """Seeded splitmix64 stream with uniform and Gaussian draws.

    Single-owner: parallel consumers must each obtain their own stream via
    :meth:`spawn` rather than sharing one instance.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def next_raw(self) -> int:
        """Next raw 64-bit output."""
        z = self._state
        self._state = (z + _GAMMA) & _MASK64
        return splitmix64(z)

    def next_uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.next_raw() * _U64_SCALE

    def uniforms(self, n: int) -> np.ndarray:
        """`n` uniform draws in [0, 1), consuming the same stream positions
        as repeated :meth:`next_uniform` calls; drawn `_DRAW_BLOCK` at a
        time into the result, through two reused uint64 buffers."""
        out = np.empty(n, dtype=np.float64)
        steps = _block_steps()[0]
        z = np.empty(min(n, _DRAW_BLOCK), dtype=np.uint64)
        scratch = np.empty_like(z)
        for start in range(0, n, _DRAW_BLOCK):
            block = out[start:start + _DRAW_BLOCK]
            m = block.size
            _uniform_fill(np.uint64(self._state), steps[:m], z[:m], scratch[:m], block)
            self._state = (self._state + m * _GAMMA) & _MASK64
        return out

    def gaussians(self, n: int) -> np.ndarray:
        """`n` standard-normal draws via Box-Muller (:func:`_gaussian_rows`),
        consuming two uniforms per draw."""
        state = np.array([self._state], dtype=np.uint64)
        out = _gaussian_rows(state, n)[0]
        self._state = int(state[0])
        return out

    def next_gaussian(self) -> float:
        """Single standard-normal draw (consumes two uniforms)."""
        return float(self.gaussians(1)[0])

    def spawn(self, stream_index: int) -> "RandomSource":
        """Independent child stream for worker `stream_index`, seeded by
        :func:`_child_seeds`, so any partition of indices across workers
        reproduces the same draws."""
        return RandomSource(int(_child_seeds(self.seed, [int(stream_index) & _MASK64])[0]))


def spawned_gaussians(parent_seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Gaussian draws from a batch of spawned child streams: row i holds the
    first `n` Gaussians of ``RandomSource(parent_seed).spawn(start + i)``,
    bit for bit. This is the hot path for PPI skewer generation."""
    return _gaussian_rows(_child_seeds(parent_seed, np.arange(start, stop, dtype=np.uint64)), n)


def centre_and_covariance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and n-1 sample covariance of the rows of `x` (n, b),
    centring `x` in place: the whole-matrix reference for
    :class:`Moments`. A caller that keeps using the centred rows needs no
    second copy of them."""
    mu = x.mean(axis=0)
    x -= mu
    return mu, x.T @ x / max(x.shape[0] - 1, 1)


class Moments:
    """Count, mean and sums of centred cross products of samples that
    arrive a block at a time, as the columns of (bands, m) arrays: the
    noise and data covariances of the MNF and the MTMF background.

    Each block is centred on its own mean and its products are merged into
    the running ones as Chan, Golub & LeVeque (1983, The American
    Statistician 37(3)) merge the sums of two sets, so no product is taken
    about a mean far from its block's.
    """

    def __init__(self, bands: int):
        self.count = 0
        self.total = np.zeros(bands)
        self.products = np.zeros((bands, bands))

    @property
    def mean(self) -> np.ndarray:
        return self.total / max(self.count, 1)

    def add(self, samples: np.ndarray) -> None:
        """Add the columns of the (bands, m) float64 array `samples`, which
        it centres in place."""
        m = samples.shape[1]
        total = samples.sum(axis=1)
        delta = total / m - self.mean
        samples -= (total / m)[:, None]
        self.products += samples @ samples.T
        self.products += np.outer(delta, delta) * (self.count * m / (self.count + m))
        self.total += total
        self.count += m

    def covariance(self) -> np.ndarray:
        """The n-1 sample covariance (n at least 2)."""
        return self.products / max(self.count - 1, 1)


def check_symmetric(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate a square symmetric matrix, returning it as float64.

    Asymmetry is measured against `tol` scaled by max(1, max|m|) so the
    check behaves for covariance matrices of any magnitude.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > tol * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    return m


def symmetric_eig(m: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns. Each eigenvector's sign is
    fixed so its largest-magnitude component is positive.

    Raises ValueError on asymmetry beyond `tol` (relative to max|m|) and
    propagates LinAlgError if the solver fails to converge.
    """
    m = check_symmetric(m, tol)
    # Symmetrize before the solve so tiny drift cannot leak through.
    sym = 0.5 * (m + m.T)
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    # Deterministic sign: largest-|component| entry (first on ties) positive.
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return values, vectors * signs
