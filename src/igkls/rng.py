"""Deterministic counter-based pseudo-random numbers for instance generation.

The generator is fixed so that instances are reproduced bit for bit from a
64-bit seed:

* word ``k`` of the stream with seed ``s`` is ``mix64(s + (k+1)·GAMMA) mod 2⁶⁴``
  where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
  finalizer (constants ``0xBF58476D1CE4E5B9``, ``0x94D049BB133111EB``,
  shifts 30/27/31);
* uniforms take the top 53 bits: ``u_k = (word_k >> 11) · 2⁻⁵³``;
* Gaussians use Box–Muller with a fixed call order: the n-th standard normal
  consumes uniforms ``2n`` and ``2n+1`` and uses only the cosine branch
  (``z = sqrt(−2 ln u) · cos(2π u')``, with ``u = 0`` clamped to ``2⁻⁵³``);
* a complex Gaussian entry is ``(z_re / √2) + i·(z_im / √2)``, its two normals
  consecutive, and matrices fill row-major.

No state is shared between instances; every draw is a pure function of
(seed, counter).  Gaussians are drawn a whole matrix at a time, with the
words mixed in uint64 and the Box–Muller step in float64 numpy arithmetic.
Each step is the operation one scalar draw makes (exact integer mixing,
correctly rounded products and divisions, numpy's own log, cos and sqrt),
so the stream is the same, bit for bit, however it is batched.

The words and uniforms are exact integer arithmetic, so any implementation
reproduces them.  The Gaussians are pinned to numpy's float64 ``log``,
``cos`` and ``sqrt``, and other math libraries may round differently: C's
``log`` (Python's ``math.log``) differs from numpy's in the last bit on a few
tenths of a percent of uniforms (725 of the first 200,000 of seed 0; the
first normal of seed 116 is one such case), so a reimplementation must use
the same functions to match bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class CounterRng:
    """Counter-based stream of uniforms/Gaussians with a fixed seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def word(self) -> int:
        """Next raw 64-bit word."""
        self._counter += 1
        return _mix64((self.seed + self._counter * _GAMMA) & _MASK)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.word() >> 11) * (2.0 ** -53)

    def gauss(self) -> float:
        """Standard normal via Box–Muller (cosine branch only)."""
        return float(self._normals(1)[0])

    def _normals(self, n: int) -> np.ndarray:
        """The next ``n`` standard normals of the stream, drawn at once."""
        k = np.arange(self._counter + 1, self._counter + 2 * n + 1, dtype=np.uint64)
        self._counter += 2 * n
        z = np.uint64(self.seed) + k * np.uint64(_GAMMA)  # wraps mod 2⁶⁴
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        u1 = np.where(u[0::2] == 0.0, 2.0 ** -53, u[0::2])
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[1::2])

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) (rejection-free modulo fold)."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.word() % (high - low)

    # --- matrix-valued draws (row-major fill order) -------------------------

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard complex Gaussian entries (re then im per entry)."""
        # each part divided on its own: a complex/real division may differ by 1 ulp
        pairs = self._normals(2 * rows * cols) / np.sqrt(2.0)
        return pairs.view(np.complex128).reshape(rows, cols)

    def hermitian(self, n: int) -> np.ndarray:
        g = self.complex_matrix(n, n)
        return 0.5 * (g + np.conj(g.T))

    def unitary(self, n: int) -> np.ndarray:
        """Haar-distributed unitary via QR with the R-diagonal phase fix."""
        if n == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        g = self.complex_matrix(n, n)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        return q * (d / np.abs(d))

    def isometry(self, rows: int, cols: int) -> np.ndarray:
        """First ``cols`` columns of a Haar unitary on C^rows (cols ≤ rows)."""
        if cols > rows:
            raise ValueError("an isometry needs cols <= rows")
        return self.unitary(rows)[:, :cols]

    def unit_vector(self, n: int) -> np.ndarray:
        v = self.complex_matrix(n, 1).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            v = np.zeros(n, dtype=np.complex128)
            if n:
                v[0] = 1.0
            return v
        return v / nrm

    def derive(self, label: int) -> "CounterRng":
        """A statistically independent child stream (for retries/substreams)."""
        return CounterRng(_mix64((self.seed ^ _mix64(label & _MASK)) & _MASK))
