"""Deterministic numerical kernels: covariance, eigendecomposition, seeded RNG.

Every stochastic stage of the pipeline (PPI skewers, k-means seeding,
synthetic scenes) draws from :class:`RandomSource`, a splitmix64 stream.
The raw 64-bit stream is pure integer arithmetic, so a given seed yields
the same draws on every platform and thread count.
"""

from __future__ import annotations

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

# Uniforms drawn per step of `uniforms` and `gaussians` (two per Gaussian):
# the stream's temporaries stay ~1 MB however many draws are asked for.
_DRAW_BLOCK = 1 << 16


def splitmix64(value: int) -> int:
    """One splitmix64 step: add the golden gamma to `value` and mix.

    Used both as the stream generator inside :class:`RandomSource` and as
    the documented seed-splitting function (child seed = splitmix64(parent
    seed XOR stream index)).
    """
    z = (int(value) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 output function, applied in place to the
    uint64 state values `z`, which it returns."""
    z ^= z >> np.uint64(30)
    z *= _MIX1_U64
    z ^= z >> np.uint64(27)
    z *= _MIX2_U64
    z ^= z >> np.uint64(31)
    return z


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
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def raw_block(self, n: int) -> np.ndarray:
        """Next `n` raw outputs as uint64, vectorized; identical to n calls
        of :meth:`next_raw`."""
        if n < 0:
            raise ValueError("block size must be non-negative")
        states = np.arange(1, n + 1, dtype=np.uint64)
        states *= _GAMMA_U64
        states += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return _mix_u64(states)

    def next_uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.next_raw() * _U64_SCALE

    def uniforms(self, n: int) -> np.ndarray:
        """`n` uniform draws in [0, 1), consuming the same stream positions
        as repeated :meth:`next_uniform` calls; drawn `_DRAW_BLOCK` at a
        time into the result."""
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _DRAW_BLOCK):
            block = out[start:start + _DRAW_BLOCK]
            np.multiply(self.raw_block(block.size), _U64_SCALE, out=block)
        return out

    def gaussians(self, n: int) -> np.ndarray:
        """`n` standard-normal draws via Box-Muller, two uniforms per draw.

        Only the cosine branch is kept so each output maps to a fixed pair
        of stream positions. Drawn `_DRAW_BLOCK // 2` at a time into the
        result.
        """
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _DRAW_BLOCK // 2):
            block = out[start:start + _DRAW_BLOCK // 2]
            u = self.uniforms(2 * block.size)
            u1 = np.maximum(u[0::2], _MIN_UNIFORM)
            u2 = u[1::2]
            block[:] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return out

    def next_gaussian(self) -> float:
        """Single standard-normal draw (consumes two uniforms)."""
        return float(self.gaussians(1)[0])

    def spawn(self, stream_index: int) -> "RandomSource":
        """Independent child stream for worker `stream_index`.

        Child seed = splitmix64(parent seed XOR stream index), so any
        partition of indices across workers reproduces the same draws.
        """
        return RandomSource(splitmix64(self.seed ^ (int(stream_index) & _MASK64)))


def spawned_gaussians(parent_seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Gaussian draws from a batch of spawned child streams, vectorized.

    Row i holds the first `n` Gaussians of
    ``RandomSource(parent_seed).spawn(start + i)``, bit-identical to the
    scalar path. This is the hot path for PPI skewer generation.
    """
    idx = np.arange(start, stop, dtype=np.uint64)
    seeds = _mix_u64((np.uint64(parent_seed) ^ idx) + _GAMMA_U64)
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64)
    raws = _mix_u64(seeds[:, None] + steps[None, :] * _GAMMA_U64)
    u = raws.astype(np.float64) * _U64_SCALE
    u1 = np.maximum(u[:, 0::2], _MIN_UNIFORM)
    u2 = u[:, 1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def centre_and_covariance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and n-1 sample covariance of the rows of `x` (n, b),
    centring `x` in place: the one owner of the noise, MNF data and MTMF
    background covariances. A caller that keeps using the centred rows
    needs no second copy of them."""
    mu = x.mean(axis=0)
    x -= mu
    return mu, x.T @ x / max(x.shape[0] - 1, 1)


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
