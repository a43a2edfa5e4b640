"""Deterministic counter-based pseudo-random numbers for instance generation.

The generator is fixed so that independent implementations (any language) can
reproduce instances bit-for-bit from a 64-bit seed:

* word ``k`` of the stream with seed ``s`` is ``mix64(s + (k+1)·GAMMA) mod 2⁶⁴``
  where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
  finalizer (constants ``0xBF58476D1CE4E5B9``, ``0x94D049BB133111EB``,
  shifts 30/27/31);
* uniforms take the top 53 bits: ``u_k = (word_k >> 11) · 2⁻⁵³``;
* Gaussians use Box–Muller with a fixed call order: the n-th standard normal
  consumes uniforms ``2n`` and ``2n+1`` and uses only the cosine branch
  (``z = sqrt(−2 ln u) · cos(2π u')``, with ``u = 0`` clamped to ``2⁻⁵³``).

No state is shared between instances; every draw is a pure function of
(seed, counter).
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
        self._gauss_counter = 0

    def word(self) -> int:
        """Next raw 64-bit word."""
        self._counter += 1
        return _mix64((self.seed + self._counter * _GAMMA) & _MASK)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.word() >> 11) * (2.0 ** -53)

    def gauss(self) -> float:
        """Standard normal via Box–Muller (cosine branch only)."""
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) (rejection-free modulo fold)."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.word() % (high - low)

    # --- matrix-valued draws (row-major fill order) -------------------------

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard complex Gaussian entries (re then im per entry)."""
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                re = self.gauss()
                im = self.gauss()
                out[i, j] = complex(re, im) / np.sqrt(2.0)
        return out

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
