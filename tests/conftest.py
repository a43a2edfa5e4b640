"""Shared fixtures and independent oracle helpers for the test suite.

The helpers here deliberately avoid the library's own linear-algebra
shortcuts wherever they serve as oracles: Kronecker products, partial
traces, channel applications and superoperators are recomputed from
first principles (index loops / einsum on reshaped tensors) so that the
package is checked against an independent computation, not against
itself.
"""

from __future__ import annotations

import numpy as np
import pytest

# ---------------------------------------------------------------------------
# randomness for test data (numpy Generator; the package's own CounterRng is
# itself under test, so test-local draws use an unrelated source)
# ---------------------------------------------------------------------------


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def crandn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    q, r = np.linalg.qr(crandn(rng, n, n))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    assert cols <= rows
    return haar_unitary(rng, rows)[:, :cols]


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = crandn(rng, n, n)
    rho = g @ g.conj().T + 1e-3 * np.eye(n)
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = crandn(rng, n, n)
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via an explicit quadruple loop."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def ptrace_oracle(m: np.ndarray, da: int, db: int, over: str) -> np.ndarray:
    """Partial trace via explicit index sums."""
    t = m.reshape(da, db, da, db)
    if over == "A":
        out = np.zeros((db, db), dtype=np.complex128)
        for a in range(da):
            out += t[a, :, a, :]
        return out
    out = np.zeros((da, da), dtype=np.complex128)
    for b in range(db):
        out += t[:, b, :, b]
    return out


def heisenberg_apply_oracle(ops: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Sum op† X op over the Kraus operators."""
    out = np.zeros((ops[0].shape[1], ops[0].shape[1]), dtype=np.complex128)
    for op in ops:
        out += op.conj().T @ x @ op
    return out


def schrodinger_apply_oracle(ops: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def superop_oracle(f, d: int) -> np.ndarray:
    """Matrix of a linear map on L(C^d) in the row-major matrix-unit basis."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    unit = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            unit[i, j] = 1.0
            s[:, i * d + j] = f(unit).reshape(-1)
            unit[i, j] = 0.0
    return s


def gkls_apply_oracle(v: np.ndarray, k: np.ndarray, e: int, x: np.ndarray) -> np.ndarray:
    """L(X) = V†(X⊗1_E)V − K†X − XK, with the environment slot last."""
    d = k.shape[0]
    xe = kron_oracle(x, np.eye(e, dtype=np.complex128)) if e else np.zeros((0, 0))
    first = v.conj().T @ xe @ v if e else np.zeros((d, d), dtype=np.complex128)
    return first - k.conj().T @ x - x @ k


def block_algebra_projector_oracle(d0: int, factors, u_alg: np.ndarray):
    """Orthogonal HS projection onto u·(0 ⊕ ⊕ M_{dA}⊗1_{dB})·u† as a callable."""
    d = u_alg.shape[0]

    def project(x: np.ndarray) -> np.ndarray:
        xt = u_alg.conj().T @ x @ u_alg
        out = np.zeros_like(xt)
        pos = d0
        for da, db in factors:
            blk = xt[pos: pos + da * db, pos: pos + da * db]
            t = blk.reshape(da, db, da, db)
            red = np.zeros((da, da), dtype=np.complex128)
            for b in range(db):
                red += t[:, b, :, b]
            red /= db
            out[pos: pos + da * db, pos: pos + da * db] = kron_oracle(
                red, np.eye(db, dtype=np.complex128)
            )
            pos += da * db
        return u_alg @ out @ u_alg.conj().T

    return project


def frob_oracle(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def orthonormal_span(mats) -> list[np.ndarray]:
    """An HS-orthonormal basis (by QR) of the span of linearly independent
    square matrices."""
    d = mats[0].shape[0]
    q = np.linalg.qr(np.stack([np.reshape(m, -1) for m in mats], axis=1))[0]
    return list(q.T.reshape(-1, d, d))


def _with_one_nan(mats):
    mats = [np.array(m, dtype=np.complex128) for m in mats]
    mats[-1][0, 0] = np.nan
    return mats


# spans that are not *-algebras, as HS-orthonormal bases: the negative
# controls of every closure check
NOT_CLOSED_SPANS = {
    "diag(1,2,3)": orthonormal_span([np.eye(3), np.diag([1.0, 2.0, 3.0])]),
    "E11,E12": orthonormal_span([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]),
    # M₂ without the Z direction: m = 3, but the only candidate pattern is M₂
    "M2-minus-Z": orthonormal_span([np.eye(2), PAULI["X"], PAULI["Y"]]),
    "one-nan": _with_one_nan(orthonormal_span([np.eye(2), PAULI["Z"]])),
}


def count_exact_closure(monkeypatch) -> list:
    """The basis dimension of each call of the exact
    ``algebra.closure_residuals`` from then on."""
    import igkls.algebra as algebra_mod

    calls = []
    real = algebra_mod.closure_residuals

    def counted(alg):
        calls.append(alg.dim)
        return real(alg)

    monkeypatch.setattr(algebra_mod, "closure_residuals", counted)
    return calls


def count_svd(monkeypatch) -> list:
    """The input shape of each ``numpy.linalg.svd`` call from then on."""
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def count_eigh(monkeypatch) -> list:
    """The input shape of each ``numpy.linalg.eigh`` call from then on."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


# ---------------------------------------------------------------------------
# the probed GKLS instances of the benchmark's cli_chain workload
# ---------------------------------------------------------------------------

# perfbench/workloads.py GKLS_SHAPES[0:3] (d = 8, 16, 24) with the seeds
# derive_seed(s, "cli", 0, k) for s = 1, 2, 3.  They are strongly damped:
# tr L/d² runs from −28 to −111, so ‖e^{tL}‖ falls to e^{−1100} at t = 10.
CLI_CHAIN_GKLS = (
    ({"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2,
      "d_f": [[2, 0], [1, 0]]}, (442319043, 691311366, 883578599)),
    ({"factors": [[2, 3], [3, 2], [2, 2]], "d0": 0, "d_env": 2,
      "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 0]]}, (3609265109, 2185952749, 610667569)),
    ({"factors": [[3, 3], [2, 4], [2, 3]], "d0": 1, "d_env": 2,
      "d_f": [[1, 0, 1], [1, 1, 0], [0, 0, 2]]}, (220216629, 2563451837, 1663797051)),
)
CLI_CHAIN_CASES = [
    pytest.param(shape, seed, id=f"d{shape['d0'] + sum(a * b for a, b in shape['factors'])}-{seed}")
    for shape, seeds in CLI_CHAIN_GKLS for seed in seeds
]


def cli_chain_instance(shape: dict, seed: int):
    """(generator, algebra decomposition) of one cli_chain instance."""
    from igkls import random_instance

    bundle = random_instance("gkls", shape, seed=seed)
    return bundle.payload, meta_algebra(bundle)


def meta_algebra(bundle):
    """The algebra a random bundle records in ``meta.algebra``, read by io's
    meta reader as the CLI reads it."""
    from igkls.io import read_meta

    return read_meta(bundle.meta, "algebra", 1e-9)


# ---------------------------------------------------------------------------
# (nothing below needs pytest hooks; kept as a placeholder for collection)
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return rng_for(20260814)
