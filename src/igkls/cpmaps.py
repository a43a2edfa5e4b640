"""Completely positive maps: Kraus/Stinespring/Choi forms and factorizations.

Conventions
-----------
A map Φ: L(C^d_in) → L(C^d_out) is represented in the form
``Φ(X) = V†(X ⊗ 1_E)V`` with ``V`` a ((d_in·d_env) × d_out) matrix whose rows
are indexed row-major by (system, environment) — the environment is always
the *last* tensor slot.  Kraus operators are the environment slices
``φ_n = (1 ⊗ ⟨e_n|)V`` and act as ``Φ(X) = Σ_n φ_n† X φ_n``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (
    AtomicDecomposition,
    _blocks,
    _embed_b,
    _from_frame,
    _image_residuals,
    _to_frame,
    _worst,
)
from .errors import TOL_VERIFY, FactorizationResidual, NotInvariant, NotMinimal, NotSameMap, limit, verify
from .linalg import (
    TOL_RANK,
    _finite_svd,
    _isometry_defect,
    _isometry_lstsq,
    _kron_sum,
    _linear_scale,
    _on_env,
    _on_system,
    _rank,
    asmatrix,
    dag,
    eye,
    frob,
)

__all__ = [
    "StinespringRep",
    "KrausSet",
    "BlockFactorization",
    "InvarianceReport",
    "OrthogonalityReport",
    "kraus_to_stinespring",
    "stinespring_to_kraus",
    "choi",
    "cp_apply",
    "minimal_stinespring",
    "stinespring_minimal_rank",
    "stinespring_gauge",
    "cp_invariance_check",
    "atomic_block_factorize",
    "reassemble_factorization",
    "orthogonality_check",
]


@dataclass
class StinespringRep:
    """Φ(X) = v†(X⊗1_E)v with v ∈ L(C^d_out; C^d_in ⊗ C^d_env)."""

    d_in: int
    d_out: int
    d_env: int
    v: np.ndarray

    def __post_init__(self):
        self.v = asmatrix(self.v)
        expected = (self.d_in * self.d_env, self.d_out)
        if self.v.shape != expected:
            raise ValueError(f"v has shape {self.v.shape}, expected {expected}")

    def env_slices(self) -> np.ndarray:
        """v reshaped to (d_in, d_env, d_out)."""
        return self.v.reshape(self.d_in, self.d_env, self.d_out)


@dataclass
class KrausSet:
    """Φ(X) = Σ_n ops[n]† X ops[n], each op of shape d_in × d_out."""

    d_in: int
    d_out: int
    ops: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.ops = [asmatrix(op) for op in self.ops]
        for op in self.ops:
            if op.shape != (self.d_in, self.d_out):
                raise ValueError(
                    f"op has shape {op.shape}, expected {(self.d_in, self.d_out)}"
                )


@dataclass
class BlockFactorization:
    """Semilocalizable block form of an algebra-invariant Stinespring matrix.

    ``v = (P₀:𝒜† ⊗ 1_E)·v0 + Σ_ij (P_i:𝒜† ⊗ 1_E)(1_{A_i}⊗u_ij)(a_ij⊗1_{D_j})P_j:𝒞``

    a_ij has shape (d_{A_i}·d_F_ij) × d_{C_j}; u_ij is an isometry of shape
    (d_{B_i}·d_env) × (d_F_ij·d_{D_j}).  Order of lists follows the factor
    order of the two decompositions.  Empty blocks (d_F_ij = 0) carry
    zero-dimension matrices.
    """

    v0: np.ndarray
    d_f: list[list[int]]
    a: list[list[np.ndarray]]
    u: list[list[np.ndarray]]
    d_env: int

    def __post_init__(self):
        self.v0 = asmatrix(self.v0)
        self.a = [[asmatrix(m) for m in row] for row in self.a]
        self.u = [[asmatrix(m) for m in row] for row in self.u]
        self.d_f = [[int(n) for n in row] for row in self.d_f]


@dataclass
class InvarianceReport:
    passed: bool
    max_residual: float
    tol: float
    residuals: list[float]
    worst_index: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OrthogonalityReport:
    passed: bool
    max_residual: float
    tol: float
    worst_triple: list[int] | None  # [i, k, l] of the worst u_ik†u_il

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# representation conversions and evaluation
# ---------------------------------------------------------------------------

def kraus_to_stinespring(k: KrausSet) -> StinespringRep:
    """Stack Kraus operators along a standard environment basis."""
    if not k.ops:
        raise ValueError("need at least one Kraus operator")
    return _stinespring(k)


def _stinespring(rep) -> StinespringRep:
    """``rep`` as a Stinespring representation (a KrausSet with no operators
    as d_env = 0): the one place that tells the two representations apart."""
    if isinstance(rep, StinespringRep):
        return rep
    if not isinstance(rep, KrausSet):
        raise TypeError(f"unsupported representation: {type(rep).__name__}")
    ops = np.asarray(rep.ops, dtype=np.complex128).reshape(len(rep.ops), rep.d_in, rep.d_out)
    return StinespringRep(rep.d_in, rep.d_out, len(rep.ops),
                          ops.transpose(1, 0, 2).reshape(rep.d_in * len(rep.ops), rep.d_out))


def stinespring_to_kraus(s: StinespringRep) -> KrausSet:
    """Environment slices φ_n = (1⊗⟨e_n|)v of the Stinespring matrix."""
    slices = s.env_slices()
    return KrausSet(d_in=s.d_in, d_out=s.d_out, ops=[slices[:, n, :] for n in range(s.d_env)])


def cp_apply(rep, x: np.ndarray) -> np.ndarray:
    """Evaluate Φ(x)."""
    s = _stinespring(rep)
    x = asmatrix(x)
    if x.shape != (s.d_in, s.d_in):
        raise ValueError("input dimension mismatch")
    return _images(s.v, s.d_env, x)


def _images(v: np.ndarray, e: int, xs: np.ndarray) -> np.ndarray:
    """v†(X⊗1_E)v for each matrix X of the (n, d_in, d_in) stack ``xs``, or
    for one matrix: the one evaluation of a CP map or a generator's CP part."""
    return dag(v) @ _on_system(xs, v, e)


def choi(rep) -> np.ndarray:
    """Choi matrix Σ_kl E_kl ⊗ Φ(E_kl); PSD exactly when Φ is CP.  Φ(E_kl)[p, q] =
    Σ_n φ̄_n[k, p]·φ_n[l, q] is the :func:`~igkls.linalg._kron_sum` of φ̄ and φ."""
    ops = _stinespring(rep).env_slices().transpose(1, 0, 2)
    n = rep.d_in * rep.d_out
    return _kron_sum(np.conj(ops), ops).transpose(0, 2, 1, 3).reshape(n, n)


# ---------------------------------------------------------------------------
# minimality and gauge
# ---------------------------------------------------------------------------

def _env_slice_matrix(s: StinespringRep) -> np.ndarray:
    """Environment components of all vectors (⟨a|⊗1_E)v|c⟩, as a d_env × (d_in·d_out) matrix."""
    return s.env_slices().transpose(1, 0, 2).reshape(s.d_env, s.d_in * s.d_out)


def stinespring_minimal_rank(s: StinespringRep, tol: float = TOL_RANK) -> int:
    """Dimension of the span of the environment components of (⟨a|⊗1_E)v|c⟩,
    counted at the scale max(1, ‖v‖_F) of the residuals checked after it.

    Equals d_env exactly when the representation is minimal.
    """
    return _rank(_finite_svd(_env_slice_matrix(s), NotMinimal, compute_uv=False), tol, _linear_scale(s.v))


def minimal_stinespring(
    s: StinespringRep, tol: float = TOL_RANK
) -> tuple[StinespringRep, np.ndarray]:
    """Compress the environment to the span actually reached by the map.

    Returns ``(s_min, w)`` with ``w`` an isometry from the minimal environment
    into the original one such that ``(1 ⊗ w)·v_min = v``; the rank is
    :func:`stinespring_minimal_rank`'s.
    """
    u, sv, _ = _finite_svd(_env_slice_matrix(s), FactorizationResidual, full_matrices=False)
    rank = _rank(sv, tol, _linear_scale(s.v))
    w = u[:, :rank]  # d_env × rank, isometry onto the reached span
    return StinespringRep(s.d_in, s.d_out, rank, _on_env(dag(w), s.v, s.d_in)), w


def _map_scale(*vs) -> float:
    """max(1, ‖v‖_F)² over the Stinespring matrices: the scale of Φ(X)."""
    return _linear_scale(*vs) ** 2


def _same_map_residual(s1: StinespringRep, s2: StinespringRep) -> float:
    """max_kl ‖Φ₁(E_kl) − Φ₂(E_kl)‖_F, NaN if either map holds a NaN: the unit images of
    Φ₁ − Φ₂ are one :func:`~igkls.linalg._kron_sum` of conj [φ¹; −φ²] and [φ¹; φ²]."""
    k1, k2 = (s.env_slices().transpose(1, 0, 2) for s in (s1, s2))
    diff = _kron_sum(np.conj(np.concatenate([k1, -k2])), np.concatenate([k1, k2]))
    return _worst(np.linalg.norm(diff.reshape(s1.d_in**2, s1.d_out**2), axis=1))


def stinespring_gauge(
    s1: StinespringRep, s2: StinespringRep, tol: float = TOL_RANK
) -> np.ndarray:
    """Isometry w with (1⊗w)·v1 = v2, for s1 minimal and both maps equal.

    Solved by least squares over the spanning set of environment components;
    minimality of s1 makes the solution unique.  Verifies ``same_map``, then
    that w is an isometry (``gauge_isometry``) and carries v1 to v2
    (``gauge_transport``), each raising :class:`NotSameMap`.
    """
    if (s1.d_in, s1.d_out) != (s2.d_in, s2.d_out):
        raise ValueError("representations act between different spaces")
    scale = _linear_scale(s1.v, s2.v)
    if stinespring_minimal_rank(s1, tol) < s1.d_env:
        raise NotMinimal("first representation has a compressible environment")
    verify("same_map", _same_map_residual(s1, s2), limit(tol, _map_scale(s1.v, s2.v)), NotSameMap,
           "representations define different maps")
    w = _isometry_lstsq(_env_slice_matrix(s1), _env_slice_matrix(s2), limit(tol, scale))
    verify("gauge_isometry", _isometry_defect(w), limit(tol), NotSameMap,
           "the gauge solution is not an isometry")
    verify("gauge_transport", frob(_on_env(w, s1.v, s1.d_in) - s2.v), limit(tol, scale),
           NotSameMap, "gauge isometry does not connect the representations")
    return w


# ---------------------------------------------------------------------------
# invariance and block factorization
# ---------------------------------------------------------------------------

def cp_invariance_check(
    rep,
    dec_a: AtomicDecomposition,
    dec_c: AtomicDecomposition,
    tol: float = TOL_VERIFY,
) -> InvarianceReport:
    """Does Φ map the input algebra into the output algebra?

    Evaluates Φ on an HS-orthonormal basis of the input algebra and measures
    the Frobenius distance of each image from the output algebra.
    """
    s = _stinespring(rep)
    if dec_a.d != s.d_in or dec_c.d != s.d_out:
        raise ValueError("decomposition dimensions do not match the map")
    res = _image_residuals(lambda xs: _images(s.v, s.d_env, xs), dec_a, dec_c)
    max_res = _worst(res)
    return InvarianceReport(max_res <= tol, max_res, tol, res.tolist(),
                            int(np.argmax(res)) if res.size else -1)


def _cp_invariance(s: StinespringRep, dec_a: AtomicDecomposition, dec_c: AtomicDecomposition,
                   tol: float) -> InvarianceReport:
    """:func:`cp_invariance_check` of Φ against ``limit(tol, _map_scale(v))``,
    verified as ``cp_invariance``."""
    report = cp_invariance_check(s, dec_a, dec_c, tol=limit(tol, _map_scale(s.v)))
    verify("cp_invariance", report.max_residual, report.tol, NotInvariant,
           "map does not leave the algebra pair invariant")
    return report


def atomic_block_factorize(
    s: StinespringRep,
    dec_a: AtomicDecomposition,
    dec_c: AtomicDecomposition,
    tol: float = TOL_VERIFY,
) -> BlockFactorization:
    """Factor an invariant map's Stinespring matrix into per-pair pieces.

    For each pair of factors, the block V_ij = (P_i⊗1_E)·v·P_j† splits as
    (1_{A_i}⊗U_ij)(A_ij⊗1_{D_j}) with A_ij a minimal Stinespring matrix of
    the reduced map  X ↦ (1⊗⟨ψ|)V_ij†(X⊗1⊗1_E)V_ij(1⊗|ψ⟩)  and U_ij an
    isometry solved from the overdetermined intertwining relation.

    The map must leave the algebra pair invariant (:func:`_cp_invariance`);
    else :class:`NotInvariant`.
    """
    _cp_invariance(s, dec_a, dec_c, tol)
    return _block_factorize(s, dec_a, dec_c, tol)


def _block_factorize(s: StinespringRep, dec_a: AtomicDecomposition,
                     dec_c: AtomicDecomposition, tol: float) -> BlockFactorization:
    """:func:`atomic_block_factorize` of a map already checked invariant."""
    v = s.v
    e = s.d_env
    bound = limit(tol, _linear_scale(v))

    # rows in factor i of the input algebra must not reach the output null part
    t = _to_frame(v, dec_a, e, 1, dec_in=dec_c)  # (d_in, e, d_out, 1)
    for i, (_, _, si) in enumerate(_blocks(dec_a)):
        verify("null_block", frob(t[si, :, : dec_c.d0]), bound,
               FactorizationResidual, f"factor-{i} rows reach the null output block")

    v0 = _on_system(dec_a.p_null(), v, e)

    d_f: list[list[int]] = []
    a_blocks: list[list[np.ndarray]] = []
    u_blocks: list[list[np.ndarray]] = []
    worst_pair = None
    worst_res = 0.0
    for i, (da, db, si) in enumerate(_blocks(dec_a)):
        d_f.append([])
        a_blocks.append([])
        u_blocks.append([])
        for j, (dc, dd, sj) in enumerate(_blocks(dec_c)):
            v_ij = t[si, :, sj, 0].reshape(da * db * e, dc * dd)
            if frob(v_ij) <= bound:
                # as small as a null block may be: empty pair
                d_f[i].append(0)
                a_blocks[i].append(np.zeros((0, dc), dtype=np.complex128))
                u_blocks[i].append(np.zeros((db * e, 0), dtype=np.complex128))
                continue
            # reference vector: first basis vector of H_{D_j}
            g = v_ij.reshape(da * db * e, dc, dd)[:, :, 0]  # env = B_i⊗E
            g_rep = StinespringRep(d_in=da, d_out=dc, d_env=db * e, v=g)
            a_min, _ = minimal_stinespring(g_rep, tol=tol)
            dfij = a_min.d_env
            a_ij = a_min.v

            # totality: environment components of a_ij span all of H_F
            if stinespring_minimal_rank(a_min, tol) != dfij:
                raise FactorizationResidual(
                    f"pair ({i},{j}): reduced dilation is not minimal"
                )

            # solve (1_A ⊗ U)(A ⊗ 1_D) = V_ij for U by stacked least squares
            lhs = np.zeros((da * dfij, dd, dc, dd), dtype=np.complex128)
            _embed_b(lhs, a_ij)
            lhs = lhs.reshape(da, dfij * dd, dc * dd)
            rhs = v_ij.reshape(da, db * e, dc * dd)
            m1 = np.concatenate(list(lhs), axis=1)  # (df·dd) × (da·dc·dd)
            m2 = np.concatenate(list(rhs), axis=1)  # (db·e) × (da·dc·dd)
            u_ij = _isometry_lstsq(m1, m2, bound)
            res = frob(u_ij @ m1 - m2) if m1.size else frob(m2)
            if res > worst_res:
                worst_res, worst_pair = res, (i, j)

            d_f[i].append(dfij)
            a_blocks[i].append(a_ij)
            u_blocks[i].append(u_ij)

    bf = BlockFactorization(v0=v0, d_f=d_f, a=a_blocks, u=u_blocks, d_env=e)

    ortho = orthogonality_check(bf, tol=limit(tol, factor=1))
    verify("block_isometry_orthogonality", ortho.max_residual, ortho.tol, FactorizationResidual,
           f"isometry/orthogonality violated at {ortho.worst_triple}")
    verify("reassembly", frob(reassemble_factorization(bf, dec_a, dec_c) - v), bound,
           FactorizationResidual, f"reassembly misses the input (worst pair {worst_pair})")
    return bf


def reassemble_factorization(
    bf: BlockFactorization,
    dec_a: AtomicDecomposition,
    dec_c: AtomicDecomposition,
) -> np.ndarray:
    """Rebuild the Stinespring matrix from its block factorization."""
    e = bf.d_env
    t = np.zeros((dec_a.d, e, dec_c.d, 1), dtype=np.complex128)
    for (da, db, si), df_row, a_row, u_row in zip(_blocks(dec_a), bf.d_f, bf.a, bf.u):
        for (dc, dd, sj), dfij, a_ij, u_ij in zip(_blocks(dec_c), df_row, a_row, u_row):
            # (1_A⊗U)(A⊗1_D): rows (a, b, ε), columns (c, δ)
            v_ij = np.einsum("afc,bfd->abcd", a_ij.reshape(da, dfij, dc),
                             u_ij.reshape(db * e, dfij, dd))
            t[si, :, sj, 0] = v_ij.reshape(da * db, e, dc * dd)
    return _on_system(dag(dec_a.p_null()), bf.v0, e) + _from_frame(t, dec_a, dec_in=dec_c)


def orthogonality_check(bf: BlockFactorization, tol: float = TOL_VERIFY) -> OrthogonalityReport:
    """Check u_ik†u_il = δ_kl·1 across all row-sharing pairs (includes isometry).

    A NaN residual fails the check and is reported as the worst triple.
    """
    residuals = {}
    for i, row in enumerate(bf.u):
        for k, u_ik in enumerate(row):
            for l, u_il in enumerate(row):
                prod = dag(u_ik) @ u_il
                target = eye(prod.shape[0]) if k == l else np.zeros_like(prod)
                residuals[(i, k, l)] = frob(prod - target)
    triples, values = list(residuals), list(residuals.values())
    worst = _worst(values)
    worst_triple = list(triples[int(np.argmax(values))]) if worst != 0.0 else None
    return OrthogonalityReport(worst <= tol, worst, tol, worst_triple)
