"""Dense complex linear-algebra primitives shared by all other modules.

Conventions used throughout the package:

* every operator is a 2-D ``numpy.ndarray`` of ``complex128``;
* tensor products put the system factor first and the environment last, and
  ``kron`` follows the row-major index convention ``(i·r_b + k, j·c_b + l)``;
* that (system, environment) row layout has one home: :func:`_on_system`
  applies p⊗1_E and :func:`_on_env` applies 1_d⊗w, both by reshape, in
  place of a ``kron`` with an identity factor;
* ``vec``/``unvec`` are row-major (C order), so ``vec(A X B) = (A ⊗ B^T) vec(X)``;
* every rank decision is :func:`_rank`; all null spaces go through
  :func:`null_space` and all spans through :func:`row_space`, which read
  the rank off one Hermitian eigensolve of a Gram matrix (aᴴa and a·aᴴ)
  where an a-posteriori certificate shows that the SVD would decide the
  same, and take the SVD everywhere else;
* the one matrix exponential is :func:`_expm_scaled`, numpy only, which
  returns e^a as r·2^k; :func:`expm` multiplies the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RANK_FLOOR, TOL_RANK, TOL_VERIFY  # noqa: F401  (re-exported)


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a.T)


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def _linear_scale(*mats) -> float:
    """max(1, ‖m‖_F) over the matrices: the scale of a residual linear in them."""
    return max(1.0, *(frob(m) for m in mats))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization (C order)."""
    return np.asarray(a, dtype=np.complex128).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=np.complex128).reshape(rows, cols)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with explicit validation.

    Entry ``(i·r_b + k, j·c_b + l)`` equals ``a[i, j] · b[k, l]``; dimensions
    multiply.  Zero-dimensional factors are legal and give zero-dimensional
    results, which keeps block-reconstruction code uniform.
    """
    return np.kron(asmatrix(a), asmatrix(b))


def _on_system(p: np.ndarray, x: np.ndarray, e: int = 1) -> np.ndarray:
    """(p ⊗ 1_E)·x for x whose rows are indexed (system, environment).

    x·(w⊗1_E) is ``_on_system(w.T, x.T, E).T``.
    """
    m = x.shape[1]
    return (p @ x.reshape(p.shape[1], e * m)).reshape(p.shape[0] * e, m)


def _on_env(w: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """(1_d ⊗ w)·x for x whose rows are indexed (system, environment)."""
    m = x.shape[1]
    return (w @ x.reshape(d, w.shape[1], m)).reshape(d * w.shape[0], m)


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, over: str) -> np.ndarray:
    """Partial trace of an operator on a bipartite space C^dim_a ⊗ C^dim_b.

    :param m: square matrix of size ``dim_a · dim_b``.
    :param over: ``"A"`` traces out the first factor (result on B),
        ``"B"`` traces out the second (result on A).
    :return: the reduced operator; ``Tr(result) = Tr(m)``.
    """
    m = asmatrix(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {m.shape}")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if over == "A":
        return np.einsum("abac->bc", t)
    if over == "B":
        return np.einsum("abcb->ac", t)
    raise ValueError("over must be 'A' or 'B'")


@dataclass
class SubspaceBasis:
    """An orthonormal basis of a subspace of C^ambient_dim.

    ``vectors`` has one basis vector per row; it may have zero rows (the empty
    span), which is why the ambient dimension is carried explicitly.
    """

    ambient_dim: int
    vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.complex128))

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.complex128)
        if self.vectors.size == 0:
            self.vectors = self.vectors.reshape(0, self.ambient_dim)
        if self.vectors.shape[1] != self.ambient_dim:
            raise ValueError("vector length does not match ambient_dim")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def projector(self) -> np.ndarray:
        """The orthogonal projector onto the span, as an ambient_dim² matrix."""
        r = self.vectors
        return r.T @ np.conj(r)


def _rank(s, tol: float, scale: float) -> int:
    """The one rank rule: #{σ ∈ s : σ > max(tol, RANK_FLOOR)·max(σ_max, scale)},
    with ``scale`` that of the residual checked after the decision (0 keeps
    the cutoff relative), so that both agree on what counts as zero."""
    s = np.asarray(s, dtype=np.float64)
    top = max(scale, float(s.max())) if s.size else scale
    return int(np.count_nonzero(s > max(tol, RANK_FLOOR) * top))


def _finite_svd(m: np.ndarray, error: type, **kwargs):
    """``np.linalg.svd(m, **kwargs)``, or ``error`` with a NaN residual where m
    holds a NaN or an infinity, on which LAPACK stops with "SVD did not converge"."""
    if not np.isfinite(m).all():
        raise error("a Stinespring matrix holds a non-finite entry", residual=math.nan)
    return np.linalg.svd(m, **kwargs)


def svd_rank(m: np.ndarray, tol: float = TOL_RANK) -> int:
    """:func:`_rank` of m relative to its largest singular value."""
    return _rank(np.linalg.svd(asmatrix(m), compute_uv=False), tol, 0.0)


# The Gram route of null_space: δ = _GRAM_ROUNDING·(m+n)·ε·‖a‖_F² bounds
# the error of the computed aᴴa and of its computed eigenvalues (a GEMM with
# m-term sums, then a backward-stable Hermitian eigensolve), and the null
# rows are kept when ‖a·V_k‖_F ≤ _NULL_RESIDUAL·n·ε·max(σ̂, scale)
_GRAM_ROUNDING = 2.0
_NULL_RESIDUAL = 64.0
_EPS = float(np.finfo(np.float64).eps)


def null_space(a: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Orthonormal basis of ker a, one basis vector per row.

    :func:`_rank` decides; ``scale`` is a noise floor for inputs that may be
    pure rounding noise, where a cutoff relative to σ_max alone would keep
    noise.  With ‖a‖_F ≤ max(tol, RANK_FLOOR)·scale/2 all n unit rows are
    null (σ_max ≤ ‖a‖_F; the half absorbs the rounding of the norm) and no
    factorization runs.  Otherwise the rows come from one Hermitian
    eigensolve of aᴴa where :func:`_gram_split` certifies them, and from
    the SVD everywhere else (a singular value between the cutoff and the
    Gram's resolution √(2δ), a small gap, a non-finite entry): a tall input
    is first reduced to its R factor, which has the same singular values and
    right singular vectors, so the tall U is never formed.  The two routes
    give different orthonormal bases of the same null space.  A real input
    gives real rows.
    """
    a = np.asarray(a)
    a, tol = a.astype(np.result_type(a.dtype, np.float64), copy=False), max(tol, RANK_FLOOR)
    if frob(a) <= tol * scale / 2:  # σ_max ≤ ‖a‖_F: pure rounding noise
        return np.eye(a.shape[1], dtype=a.dtype)
    split = _gram_split(a, tol, scale)
    if split is not None:
        return np.ascontiguousarray(split[1][:, :split[2]].T)
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a)
    return np.conj(vh[_rank(s, tol, scale):])


def row_space(a: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Orthonormal basis of the row space of the m × n matrix a, one basis
    vector per row, of the rank and with the noise floor of :func:`null_space`.

    Where :func:`_gram_split` certifies the rank from one eigensolve of
    a·aᴴ = U·diag(w)·Uᴴ, the Gram matrix of aᴴ, the rows are
    R = diag(w)^{-1/2}·Uᴴ·a over the kept w, combinations of a's rows, so
    they span its row space once ‖RRᴴ − 1‖_F ≤ _NULL_RESIDUAL·m·ε.
    Otherwise (also where 1/√w amplifies rounding past that) the SVD
    decides.  The two routes give different orthonormal bases of the same
    span.  A real input gives real rows.
    """
    a = np.asarray(a)
    a, tol = a.astype(np.result_type(a.dtype, np.float64), copy=False), max(tol, RANK_FLOOR)
    if frob(a) <= tol * scale / 2:  # σ_max ≤ ‖a‖_F: pure rounding noise
        return a[:0]
    split = _gram_split(dag(a), tol, scale)
    if split is not None:
        w, u, k = split
        rows = (dag(u[:, k:]) @ a) / np.sqrt(w[k:])[:, None]
        if frob(rows @ dag(rows) - np.eye(len(rows))) <= _NULL_RESIDUAL * len(a) * _EPS:
            return rows
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[:_rank(s, tol, scale)]


def _gram_split(a: np.ndarray, tol: float,
                scale: float) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(w, V, k) for G = aᴴa = V·diag(w)·Vᴴ (w ascending) of the m × n
    matrix a and its null count k, or None unless certified.

    With σ̂ = √max(w_max, 0), the cutoff c = tol·max(σ̂, scale) and
    k = #{w_i ≤ 2δ}, the rows V[:, :k]ᵀ are a's null rows iff (i) k = n or
    w_k − δ > c², so by Weyl's inequality the other n − k singular values
    exceed c, and (ii) ‖a·V[:, :k]‖_F ≤ min(c, _NULL_RESIDUAL·n·ε·max(σ̂,
    scale)), so by Courant–Fischer the k smallest are at most c.
    """
    m, n = a.shape
    size = frob(a)
    delta = _GRAM_ROUNDING * (m + n) * _EPS * (size * size)
    if not (a.size and math.isfinite(delta)):  # NaN, inf, or G would overflow
        return None
    w, v = np.linalg.eigh(a.T.conj() @ a)  # conj() of a real array is a view
    top = max(math.sqrt(max(w[-1], 0.0)), scale)
    cut = tol * top
    k = int(np.count_nonzero(w <= 2 * delta))
    if k < n and not w[k] - delta > cut * cut:
        return None
    if not frob(a @ v[:, :k]) <= min(cut, _NULL_RESIDUAL * n * _EPS * top):
        return None
    return w, v, k


# Higham (2005): the largest ‖A‖₁ for which the degree-13 Padé approximant
# of e^A has backward error at most 2⁻⁵³ (unit roundoff), and its numerator
# coefficients b_0..b_13
_THETA_13 = 5.371920351148152e0
_PADE_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
             1187353796428800.0, 129060195264000.0, 10559470521600.0,
             670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
             16380.0, 182.0, 1.0)


# |k| beyond which r·2^k is inf or 0 in every nonzero entry for an r whose
# largest entry is below 2^8 and whose smallest is at least 2^-1074
_POW2_CLIP = 2200


def _times_pow2(r: np.ndarray, k: int) -> np.ndarray:
    """r·2^k in place, real or complex, exact unless an entry leaves the
    normal doubles."""
    x = r.view(np.float64)
    np.ldexp(x, min(max(k, -_POW2_CLIP), _POW2_CLIP), out=x)
    return r


def _normalized(r: np.ndarray) -> tuple[np.ndarray, int]:
    """(r·2^-e, e), in place, with the largest modulus of a real or an
    imaginary part of r·2^-e in [1/2, 1); e = 0 for r = 0 or a non-finite r."""
    x = r.view(np.float64)
    e = int(np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])
    return _times_pow2(r, -e), e


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^a, real or complex: r·2^k for (r, k) of
    :func:`_expm_scaled`, so a result beyond the doubles is inf (with
    numpy's overflow warning), not an exception.  A real input gives a real
    result.  A non-finite input gives all NaN, so that checks written
    ``not r <= limit`` fail on it."""
    r, k = _expm_scaled(a)
    return _times_pow2(r, k)


def _expm_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(r, k) with e^a = 2^k·r, by scaling and squaring.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited" (SIAM J. Matrix Anal. Appl. 26, 2005): the degree-13 Padé
    approximant is taken of a/2^s, with s ≥ 0 the least such that
    ‖a/2^s‖₁ ≤ θ_13, and squared s times.  Its backward-error bound holds
    for every norm up to θ_13, so the lower degrees of Higham's
    Algorithm 2.3, which only save products on small norms, are left out.
    After each squaring r is rescaled by a power of two (:func:`_normalized`),
    which is exact, so no squaring overflows and r·2^k is bit for bit the
    unscaled result wherever that stays within the normal doubles.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = np.linalg.norm(a, 1) if a.size else 0.0
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=a.dtype), 0
    ident = np.eye(a.shape[0], dtype=a.dtype)
    if norm == 0:
        return ident, 0  # exactly; the solve below rounds b_0/b_0
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a * 2.0**-s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE_B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    k = 0
    for _ in range(s):
        r, e = _normalized(r @ r)
        k = 2 * k + e
    return r, k


def _scaled_power(a: np.ndarray, n: int) -> np.ndarray:
    """a^n·2^-j for some integer j (n ≥ 1): numpy's binary powering, each
    product rescaled by a power of two (:func:`_normalized`), so that none
    overflows."""
    z = result = None
    while n > 0:
        z = a if z is None else _normalized(z @ z)[0]
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else _normalized(result @ z)[0]
    return result


def orthonormalize_span(vectors, tol: float = TOL_RANK, ambient_dim: int | None = None) -> SubspaceBasis:
    """Orthonormal basis of the span of the given vectors: the
    :func:`row_space` of their stack, with the rank relative to σ_max.  An
    empty input is legal but then ``ambient_dim`` must be supplied.
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vecs:
        if ambient_dim is None:
            raise ValueError("empty input requires an explicit ambient_dim")
        return SubspaceBasis(ambient_dim)
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise ValueError(f"vectors of inconsistent ambient dimension: {sorted(dims)}")
    dim = dims.pop()
    if ambient_dim is not None and ambient_dim != dim:
        raise ValueError("ambient_dim does not match the vectors")
    return SubspaceBasis(dim, row_space(np.stack(vecs), tol, 0.0))


def subspace_residual(basis: SubspaceBasis, v) -> float:
    """``‖v − Proj_basis(v)‖₂`` — zero iff v lies in the span numerically."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape[0] != basis.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if basis.count == 0:
        return float(np.linalg.norm(v))
    r = basis.vectors
    coeff = np.conj(r) @ v
    return float(np.linalg.norm(v - r.T @ coeff))


def embed_support(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Embed an operator on a subspace back into the full space: ``p† x p``.

    ``p`` is a coisometry block projection (rows of a unitary), i.e.
    ``p·p† = 1`` on the small space.
    """
    x = asmatrix(x)
    p = asmatrix(p)
    if x.shape[0] != x.shape[1] or x.shape[0] != p.shape[0]:
        raise ValueError(f"incompatible shapes {x.shape} and {p.shape}")
    return dag(p) @ x @ p


def nearest_isometry(m: np.ndarray) -> np.ndarray:
    """Polar projection onto the nearest isometry (columns ≤ rows)."""
    m = asmatrix(m)
    if m.shape[1] == 0:
        return m.copy()
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def _isometry_defect(w: np.ndarray) -> float:
    """‖w†w − 1‖_F, zero exactly for an isometry (0.0 for no columns)."""
    return frob(dag(w) @ w - eye(w.shape[1]))


def _isometry_lstsq(m1: np.ndarray, m2: np.ndarray, limit: float) -> np.ndarray:
    """The least-squares w of w·m1 = m2 (by pseudo-inverse), replaced by its
    :func:`nearest_isometry` when :func:`_isometry_defect` ≤ ``limit``."""
    if m1.size:
        w = m2 @ np.linalg.pinv(m1)
    else:
        w = np.zeros((m2.shape[0], m1.shape[0]), dtype=np.complex128)
    if w.size and _isometry_defect(w) <= limit:
        w = nearest_isometry(w)
    return w


def herm(a: np.ndarray) -> np.ndarray:
    """Self-adjoint part ``(a + a†)/2``."""
    return 0.5 * (a + dag(a))


def im_part(a: np.ndarray) -> np.ndarray:
    """Anti-self-adjoint content as a self-adjoint matrix: ``(a − a†)/2i``."""
    return (a - dag(a)) / 2j
