"""Generators of the form L(X) = V†(X⊗1_E)V − K†X − XK and their normal forms.

The central objects are

* :func:`gkls_minimalize` / :func:`gkls_gauge` — the minimal choice of (V, K)
  for a fixed generator and the (W, ψ, μ) freedom connecting two choices;
* :func:`invariant_split` — the exact three-part split V = (P₀†⊗1)V₀ + A + B,
  K = B†A + ½B†B + K_𝒜 + iH_{𝒜′} + P₀†K₀ valid whenever L leaves the algebra
  invariant;
* :func:`atomic_normal_form` / :func:`reconstruct_from_normal_form` — the
  fully block-factorized form over an atomic algebra, and its inverse;
* :func:`reduce_normal_form_minimal` / :func:`normal_form_gauge` — minimality
  reduction of a normal form and the residual gauge freedom between two
  minimal forms of the same generator.

Minimality, reduction and gauge of a normal form each make one pass of its
block walk: block (i, i) is the little generator (A_ii, K_𝒜i), block (i, j)
the Stinespring map A_ij.  A_ii → A_ii + 1⊗|x⟩ keeps (V, K) fixed with the
ψ-shift B_i → B_i − s, H_{B_i} → H_{B_i} + ½i(g − g†), s = U_ii·(|x⟩⊗1_B),
g = B_i†s: the reduction shifts by x = −φ̃, the gauge by x = W_ii†ψ_i.

Reconstruction deliberately evaluates K through the exact identity
``K = B†A + ½B†B + K_𝒜 + iH_{𝒜′} + P₀†K₀`` (with A, B reassembled from their
blocks): the B†A term carries cross-factor blocks (1⊗B_i†)V_ij^sc with i≠j
which are generically nonzero and must not be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    AtomicDecomposition,
    _embed_a,
    _embed_b,
    _factor_traces,
    _image_residuals,
    _lift,
    _to_frame,
    _trace_a,
    _trace_b,
    _worst,
    algebra_pattern_basis,
    pattern_residual,
    twirl_intertwiner,
    twirl_to_commutant,
)
from .cpmaps import (
    BlockFactorization,
    StinespringRep,
    _block_factorize,
    minimal_stinespring,
    reassemble_factorization,
    stinespring_gauge,
    stinespring_minimal_rank,
)
from .errors import (
    TOL_VERIFY,
    FactorizationResidual,
    NotEquivalent,
    NotInvariant,
    NotMinimal,
    NotSameGenerator,
    NotSameMap,
    limit,
    verify,
)
from .linalg import (
    TOL_RANK,
    _finite_svd,
    _isometry_defect,
    _isometry_lstsq,
    _linear_scale,
    _on_env,
    _on_system,
    _rank,
    asmatrix,
    dag,
    eye,
    frob,
    im_part,
)

__all__ = [
    "GKLSRep",
    "AtomicNormalForm",
    "GaugeData",
    "InvariantSplit",
    "KOnlySplit",
    "MinimalizeResult",
    "GklsGauge",
    "gkls_apply",
    "generator_superoperator",
    "gkls_minimalize",
    "gkls_minimal_rank",
    "gkls_gauge",
    "invariant_split",
    "atomic_normal_form",
    "reconstruct_from_normal_form",
    "reduce_normal_form_minimal",
    "normal_form_gauge",
    "normal_form_residuals",
    "normal_form_minimality",
    "k_only_split",
]


@dataclass
class GKLSRep:
    """L(X) = v†(X⊗1_E)v − k†X − Xk on L(C^d)."""

    d: int
    stine: StinespringRep
    k: np.ndarray

    def __post_init__(self):
        self.k = asmatrix(self.k)
        if self.stine.d_in != self.d or self.stine.d_out != self.d:
            raise ValueError("Stinespring part must act on C^d on both sides")
        if self.k.shape != (self.d, self.d):
            raise ValueError(f"k has shape {self.k.shape}, expected {(self.d, self.d)}")

    @property
    def v(self) -> np.ndarray:
        return self.stine.v

    @property
    def d_env(self) -> int:
        return self.stine.d_env


@dataclass
class AtomicNormalForm:
    """Block data of a generator leaving the algebra of ``dec`` invariant.

    Only shapes are enforced at construction, so that deliberately broken
    forms (negative controls) remain constructible; use
    :func:`normal_form_residuals` for the isometry/orthogonality/self-adjoint
    invariants.
    """

    dec: AtomicDecomposition
    v0: np.ndarray
    k0: np.ndarray
    k_a: list[np.ndarray]
    h_b: list[np.ndarray]
    b: list[np.ndarray]
    d_f: list[list[int]]
    a: list[list[np.ndarray]]
    u: list[list[np.ndarray]]
    d_env: int

    def __post_init__(self):
        dec = self.dec
        e = self.d_env
        self.v0 = asmatrix(self.v0)
        self.k0 = asmatrix(self.k0)
        self.k_a = [asmatrix(m) for m in self.k_a]
        self.h_b = [asmatrix(m) for m in self.h_b]
        self.b = [asmatrix(m) for m in self.b]
        self.d_f = [[int(n) for n in row] for row in self.d_f]
        self.a = [[asmatrix(m) for m in row] for row in self.a]
        self.u = [[asmatrix(m) for m in row] for row in self.u]
        n = len(dec.factors)
        if self.v0.shape != (dec.d0 * e, dec.d):
            raise ValueError("v0 shape mismatch")
        if self.k0.shape != (dec.d0, dec.d):
            raise ValueError("k0 shape mismatch")
        if not (len(self.k_a) == len(self.h_b) == len(self.b) == n):
            raise ValueError("per-factor lists must match the factor count")
        if not (len(self.d_f) == len(self.a) == len(self.u) == n):
            raise ValueError("per-pair tables must have one row per factor")
        for i, (da, db) in enumerate(dec.factors):
            if self.k_a[i].shape != (da, da):
                raise ValueError(f"k_a[{i}] shape mismatch")
            if self.h_b[i].shape != (db, db):
                raise ValueError(f"h_b[{i}] shape mismatch")
            if self.b[i].shape != (db * e, db):
                raise ValueError(f"b[{i}] shape mismatch")
            if not (len(self.d_f[i]) == len(self.a[i]) == len(self.u[i]) == n):
                raise ValueError("per-pair tables must have one column per factor")
            for j, (daj, dbj) in enumerate(dec.factors):
                dfij = self.d_f[i][j]
                if self.a[i][j].shape != (da * dfij, daj):
                    raise ValueError(f"a[{i}][{j}] shape mismatch")
                if self.u[i][j].shape != (db * e, dfij * dbj):
                    raise ValueError(f"u[{i}][{j}] shape mismatch")


@dataclass
class GaugeData:
    """The (W, ψ, μ) freedom between two minimal normal forms."""

    w_ii: list[np.ndarray]
    psi_i: list[np.ndarray]
    mu_i: list[float]
    w_pairs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


@dataclass
class InvariantSplit:
    """V = (P₀†⊗1_E)v0 + a + b and K = b†a + ½b†b + k_alg + i·h_comm + P₀†k0."""

    v0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    k_alg: np.ndarray
    h_comm: np.ndarray
    k0: np.ndarray


@dataclass
class KOnlySplit:
    """K = k_alg + i·h_comm + P₀†k0 for purely anticommutator generators."""

    k_alg: np.ndarray
    h_comm: np.ndarray
    k0: np.ndarray


@dataclass
class MinimalizeResult:
    g_min: GKLSRep
    p: np.ndarray
    phi_vec: np.ndarray


@dataclass
class GklsGauge:
    w: np.ndarray
    psi: np.ndarray
    mu: float


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def gkls_apply(g: GKLSRep, x: np.ndarray) -> np.ndarray:
    """Evaluate L(x)."""
    x = asmatrix(x)
    if x.shape != (g.d, g.d):
        raise ValueError("input dimension mismatch")
    return dag(g.v) @ _on_system(x, g.v, g.d_env) - dag(g.k) @ x - x @ g.k


def _generator_scale(*gs: GKLSRep) -> float:
    """max(1, ‖V‖_F², ‖K‖_F) over the generators: the scale of a residual of
    L, of K, or of a superoperator distance."""
    return max(_linear_scale(*(g.v for g in gs)) ** 2, *(frob(g.k) for g in gs))


def _generator_gap(g1: GKLSRep, g2: GKLSRep) -> float:
    """max(‖V₁ − V₂‖_F / max(1, ‖V‖_F), ‖K₁ − K₂‖_F / :func:`_generator_scale`):
    the gap between two (V, K), each part relative to its own scale."""
    return _worst([frob(g1.v - g2.v) / _linear_scale(g1.v, g2.v),
                   frob(g1.k - g2.k) / _generator_scale(g1, g2)])


def _generator_invariance(g: GKLSRep, dec: AtomicDecomposition, tol: float,
                          basis=None) -> np.ndarray:
    """dist(L(X̂), 𝒜) for each X̂ of ``basis`` (default the pattern basis of
    ``dec``), verified as ``generator_invariance`` against
    ``limit(tol, _generator_scale(g))``."""
    basis = algebra_pattern_basis(dec) if basis is None else basis
    res = _image_residuals(lambda x: gkls_apply(g, x), basis, dec)
    worst_at = int(np.argmax(res)) if res.size else -1
    verify("generator_invariance", _worst(res), limit(tol, _generator_scale(g)), NotInvariant,
           f"generator moves algebra basis element {worst_at} out of the algebra")
    return res


def _superop_factors(g: GKLSRep) -> tuple[np.ndarray, np.ndarray]:
    """Rows vec(A_k), vec(B_k) with L = Σ_k A_k ⊗ B_k on row-major vec(X).

    A = [−K†, 1, φ_n†] and B = [1, −Kᵀ, φ_nᵀ], φ_n the environment slices,
    since vec(A X B) = (A ⊗ Bᵀ) vec(X).
    """
    d, e = g.d, g.d_env
    phi_t = g.v.reshape(d, e, d).transpose(1, 2, 0)  # φ_nᵀ, shape (e, d, d)
    a = np.empty((2 + e, d, d), dtype=np.complex128)
    b = np.empty_like(a)
    a[0], b[0] = -dag(g.k), eye(d)
    a[1], b[1] = eye(d), -g.k.T
    a[2:], b[2:] = np.conj(phi_t), phi_t
    return a.reshape(2 + e, d * d), b.reshape(2 + e, d * d)


def generator_superoperator(g: GKLSRep) -> np.ndarray:
    """L as a d²×d² matrix acting on row-major vec(X).

    Built as one matmul R = Σ_k vec(A_k) vec(B_k)ᵀ of the factors of
    L = Σ_k A_k ⊗ B_k (see :func:`_superop_factors`), then realigned:
    R[(i,j),(k,l)] = L[(i,k),(j,l)].
    """
    d = g.d
    a, b = _superop_factors(g)
    return (a.T @ b).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _superop_distance(g1: GKLSRep, g2: GKLSRep) -> float:
    """‖L₁ − L₂‖_F without building either superoperator.

    Realignment only permutes entries, so the norm equals that of
    [A₁; A₂]ᵀ[B₁; −B₂], one d² × d² matmul of rank at most 4 + e₁ + e₂.
    """
    a1, b1 = _superop_factors(g1)
    a2, b2 = _superop_factors(g2)
    return frob(np.concatenate([a1, a2]).T @ np.concatenate([b1, -b2]))


# ---------------------------------------------------------------------------
# minimality (commutator-span machinery)
# ---------------------------------------------------------------------------

def _commutator_env_family(v: np.ndarray, d: int, e: int) -> np.ndarray:
    """Columns spanning the environment components of {(X⊗1_E)v − vX}|ψ⟩,
    as an e × (d²−1) matrix.

    The component at system index a of ((E_bc⊗1)v − vE_bc)|e_d⟩ equals
    δ_ab·slice(c,d) − δ_cd·slice(a,b), so the span is generated by the
    off-diagonal slices (c ≠ d, row-major) together with the differences
    slice(c,c) − slice(0,0), c ≥ 1.
    """
    sl = v.reshape(d, e, d).transpose(1, 0, 2)  # slice(c,d) is sl[:, c, d]
    diag = np.einsum("ecc->ec", sl)
    return np.concatenate([sl[:, ~np.eye(d, dtype=bool)], diag[:, 1:] - diag[:, :1]], axis=1)


def gkls_minimal_rank(s: StinespringRep, tol: float = TOL_RANK) -> int:
    """dim span{((X⊗1_E)v − vX)|ψ⟩}; equals d·d_env iff (V, K) is minimal.

    The span is invariant under M_d⊗1, since
    (YX⊗1)v − vYX = (Y⊗1)((X⊗1)v − vX) + ((Y⊗1)v − vY)X, so it is
    C^d ⊗ E′ with E′ the span of :func:`_commutator_env_family`, and its
    dimension is d·dim E′.  dim E′ is counted at the scale max(1, ‖v‖_F) of
    the residuals checked after it.
    """
    fam = _commutator_env_family(s.v, s.d_in, s.d_env)
    return s.d_in * _rank(_finite_svd(fam, NotMinimal, compute_uv=False), tol, _linear_scale(s.v))


def _env_constant(resid: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """(φ, ‖resid − 1_d⊗|φ⟩‖_F) with φ the average Σ_a (⟨a|⊗1)resid|a⟩/d, the
    least-squares fit of resid by 1_d⊗|φ⟩."""
    e = resid.shape[0] // d
    phi = np.einsum("aea->e", resid.reshape(d, e, d)) / d
    return phi, frob(resid - _on_env(phi[:, None], eye(d), d))


def gkls_minimalize(g: GKLSRep, tol: float = TOL_RANK) -> MinimalizeResult:
    """Smallest environment realizing the same generator.

    Projects the environment onto the span E′ reached by the commutator
    family, of the dimension :func:`gkls_minimal_rank` counts; the discarded
    part of V is necessarily of the form 1⊗|φ̃⟩ and is absorbed into K as
    K_min = K − (1⊗⟨φ̃|)V + ½‖φ̃‖².
    """
    d = g.d
    u, sv, _ = _finite_svd(_commutator_env_family(g.v, d, g.d_env), FactorizationResidual, full_matrices=False)
    rank = _rank(sv, tol, _linear_scale(g.v))
    p = dag(u[:, :rank])  # rank × e, rows orthonormal: the projection H_E → H_E'
    v_min = _on_env(p, g.v, d)
    phi, structure = _env_constant(g.v - _on_env(dag(p) @ p, g.v, d), d)
    verify("compression_structure", structure, limit(tol, _linear_scale(g.v)), FactorizationResidual,
           "environment-compression residual is not of intertwiner form")
    k_min = (
        g.k
        - _on_env(np.conj(phi)[None, :], g.v, d)
        + 0.5 * float(np.vdot(phi, phi).real) * eye(d)
    )
    g_min = GKLSRep(d=d, stine=StinespringRep(d, d, rank, v_min), k=k_min)
    # certificates: totality on the compressed environment, and map equality
    if gkls_minimal_rank(g_min.stine, tol=tol) != d * rank:
        raise FactorizationResidual("compressed environment is still not minimal")
    verify("same_generator", _superop_distance(g, g_min), limit(tol, _generator_scale(g), 1),
           FactorizationResidual, "minimalization changed the generator")
    return MinimalizeResult(g_min=g_min, p=p, phi_vec=phi)


def gkls_gauge(g1: GKLSRep, g2: GKLSRep, tol: float = TOL_RANK) -> GklsGauge:
    """Find (W, ψ, μ) with v2 = (1⊗W)v1 + 1⊗|ψ⟩ and the matching K relation.

    Requires g1 minimal; W is then unique, solved by least squares on the
    commutator family, and μ is read off the normalized trace of the K
    residual (which is exactly iμ·1).  Verifies ``same_generator``, that W
    is an isometry (``gauge_isometry``) and the V and K gauge relations,
    each raising :class:`NotSameGenerator`.
    """
    if g1.d != g2.d:
        raise ValueError("generators act on different spaces")
    d = g1.d
    v_scale, l_scale = _linear_scale(g1.v, g2.v), _generator_scale(g1, g2)
    verify("same_generator", _superop_distance(g1, g2), limit(tol, l_scale),
           NotSameGenerator, "inputs define different generators")
    if gkls_minimal_rank(g1.stine, tol) < d * g1.d_env:
        raise NotMinimal("first generator has a compressible environment")
    w = _isometry_lstsq(_commutator_env_family(g1.v, d, g1.d_env),
                        _commutator_env_family(g2.v, d, g2.d_env), limit(tol, v_scale))
    verify("gauge_isometry", _isometry_defect(w), limit(tol), NotSameGenerator,
           "the gauge solution is not an isometry")
    psi, structure = _env_constant(g2.v - _on_env(w, g1.v, d), d)
    verify("gauge_v_structure", structure, limit(tol, v_scale, 100), NotSameGenerator,
           "V difference is not of gauge form")
    resid_k = (
        g2.k
        - g1.k
        - _on_env(np.conj(psi)[None, :] @ w, g1.v, d)
        - 0.5 * float(np.vdot(psi, psi).real) * eye(d)
    )
    mu = float(np.trace(resid_k).imag) / d
    verify("gauge_k_structure", frob(resid_k - 1j * mu * eye(d)), limit(tol, l_scale, 100),
           NotSameGenerator, "K difference is not of gauge form")
    return GklsGauge(w=w, psi=psi, mu=mu)


# ---------------------------------------------------------------------------
# invariant algebra: three-part split
# ---------------------------------------------------------------------------

def invariant_split(
    g: GKLSRep, dec: AtomicDecomposition, tol: float = TOL_VERIFY
) -> InvariantSplit:
    """Split (V, K) along the algebra: intertwiner part B, null part V₀/K₀,
    CP part A with Φ_A(𝒜) ⊆ 𝒜, plus K_𝒜 ∈ 𝒜 and self-adjoint H_{𝒜′} ∈ 𝒜′.

    The construction averages V to get B, and splits
    κ = K − B†A − ½B†B through the commutant twirl.  All identities
    reassemble (V, K) exactly; the structural memberships are verified and
    hold whenever the generator actually leaves the algebra invariant.
    """
    return _split(g, dec, tol)[0]


def _split(g: GKLSRep, dec: AtomicDecomposition,
           tol: float) -> tuple[InvariantSplit, np.ndarray]:
    """:func:`invariant_split` and the per-element residuals of its
    ``generator_invariance`` check."""
    if dec.d != g.d:
        raise ValueError("decomposition dimension does not match the generator")
    v_scale, l_scale = _linear_scale(g.v), _generator_scale(g)
    e = g.d_env
    p0 = dec.p_null()
    v0 = _on_system(p0, g.v, e)
    v_null = _on_system(dag(p0), v0, e)
    b = twirl_intertwiner(g.v, dec, e)
    a = g.v - v_null - b
    kappa = g.k - dag(b) @ a - 0.5 * dag(b) @ b
    kc = twirl_to_commutant(kappa, dec)
    h_comm = im_part(kc)
    k_alg = kappa - dag(p0) @ (p0 @ kappa) - 1j * h_comm
    k0 = p0 @ kappa

    # the split identities hold to rounding for any finite input, so these
    # checks come first, at the floor whatever tol, and catch non-finite data
    verify("split_v_reassembly", frob(v_null + a + b - g.v), limit(0.0, v_scale, 1),
           FactorizationResidual, "split blocks do not reassemble V")
    k_back = dag(b) @ a + 0.5 * dag(b) @ b + k_alg + 1j * h_comm + dag(p0) @ k0
    verify("split_k_reassembly", frob(k_back - g.k), limit(0.0, l_scale, 1),
           FactorizationResidual, "split blocks do not reassemble K")

    basis = algebra_pattern_basis(dec)
    res = _generator_invariance(g, dec, tol, basis)
    verify("split_a_invariance",
           _worst(_image_residuals(lambda x: dag(a) @ _on_system(x, a, e), basis, dec)),
           limit(tol, l_scale), NotInvariant,
           "CP part of the split does not leave the algebra invariant")
    verify("split_b_intertwining", _worst([frob(_on_system(x, b, e) - b @ x) for x in basis]),
           limit(tol, v_scale), NotInvariant,
           "intertwiner part of the split does not intertwine the algebra")
    verify("k_alg_membership", pattern_residual(k_alg, dec), limit(tol, l_scale), NotInvariant,
           "algebra part of K is not an algebra element")
    return InvariantSplit(v0=v0, a=a, b=b, k_alg=k_alg, h_comm=h_comm, k0=k0), res


def k_only_split(
    k: np.ndarray, dec: AtomicDecomposition, tol: float = TOL_VERIFY
) -> KOnlySplit:
    """Split of K for the anticommutator generator L(X) = −K†X − XK.

    Raises :class:`NotInvariant` when K does not preserve the algebra, also
    when K holds a NaN.
    """
    k = asmatrix(k)
    if k.shape != (dec.d, dec.d):
        raise ValueError("dimension mismatch")
    no_v = StinespringRep(dec.d, dec.d, 0, np.zeros((0, dec.d)))
    _generator_invariance(GKLSRep(dec.d, no_v, k), dec, tol)
    p0 = dec.p_null()
    kc = twirl_to_commutant(k, dec)
    h_comm = im_part(kc)
    k_alg = k - dag(p0) @ (p0 @ k) - 1j * h_comm
    k0 = p0 @ k
    verify("k_alg_membership", pattern_residual(k_alg, dec), limit(tol, _linear_scale(k)),
           NotInvariant, "algebra part of K is not an algebra element")
    return KOnlySplit(k_alg=k_alg, h_comm=h_comm, k0=k0)


# ---------------------------------------------------------------------------
# atomic normal form
# ---------------------------------------------------------------------------

def reconstruct_from_normal_form(nf: AtomicNormalForm) -> GKLSRep:
    """Rebuild (V, K) from normal-form blocks via the exact split identity."""
    dec = nf.dec
    d = dec.d
    e = nf.d_env
    p0 = dec.p_null()
    a_full = reassemble_factorization(
        BlockFactorization(v0=np.zeros_like(nf.v0), d_f=nf.d_f, a=nf.a, u=nf.u, d_env=e),
        dec, dec)
    b_full = _lift(dec, nf.b, _embed_a, e)
    v = _on_system(dag(p0), nf.v0, e) + a_full + b_full
    k = (
        dag(b_full) @ a_full
        + 0.5 * dag(b_full) @ b_full
        + _lift(dec, nf.k_a, _embed_b)
        + 1j * _lift(dec, nf.h_b, _embed_a)
        + dag(p0) @ nf.k0
    )
    return GKLSRep(d=d, stine=StinespringRep(d, d, e, v), k=k)


def atomic_normal_form(
    g: GKLSRep, dec: AtomicDecomposition, tol: float = TOL_VERIFY
) -> AtomicNormalForm:
    """Full block normal form of an invariant generator.

    Pipeline: three-part split, block factorization of the CP part A
    (input and output algebra both 𝒜), intertwiner blocks of B, commutant
    blocks of H_{𝒜′}, and the exact fold of all null-sector pieces into
    (V₀, K₀).  A and B are checked by :func:`invariant_split`: A is
    factorized without a second invariance check, and B's null block is zero
    by construction, so its blocks B_i are read off directly.
    """
    split = invariant_split(g, dec, tol=tol)
    e = g.d_env
    d0 = dec.d0
    s_a = StinespringRep(d_in=dec.d, d_out=dec.d, d_env=e, v=split.a)
    bf = _block_factorize(s_a, dec, dec, max(tol, TOL_RANK))
    b_i = _factor_traces(_to_frame(split.b, dec, e), dec, _trace_a)

    ht = _to_frame(split.h_comm, dec)
    h0 = ht[:d0, 0, :d0, 0]
    h_b = [0.5 * (h + dag(h)) for h in _factor_traces(ht, dec, _trace_a)]
    k_a = _factor_traces(_to_frame(split.k_alg, dec), dec, _trace_b)

    v0 = split.v0 + bf.v0
    k0 = split.k0 + 1j * h0 @ dec.p_null()

    nf = AtomicNormalForm(
        dec=dec,
        v0=v0,
        k0=k0,
        k_a=k_a,
        h_b=h_b,
        b=b_i,
        d_f=bf.d_f,
        a=bf.a,
        u=bf.u,
        d_env=e,
    )
    verify("normal_form_reconstruction", _generator_gap(reconstruct_from_normal_form(nf), g),
           limit(tol), FactorizationResidual, "normal form does not reconstruct the generator")
    return nf


def normal_form_residuals(nf: AtomicNormalForm) -> dict:
    """Residuals of the normal-form invariants (all ≈ 0 for valid forms)."""
    return {
        "h_selfadjoint": _worst([frob(h - dag(h)) for h in nf.h_b]),
        "u_isometry": _worst([_isometry_defect(u_ik) for row in nf.u for u_ik in row]),
        "u_orthogonality": _worst([frob(dag(u_ik) @ u_il) for row in nf.u
                                   for k, u_ik in enumerate(row)
                                   for l, u_il in enumerate(row) if k != l]),
    }


# ---------------------------------------------------------------------------
# minimality reduction and gauge of normal forms
# ---------------------------------------------------------------------------

def _block_walk(nf: AtomicNormalForm):
    """Yield (i, j, block) row by row, each row's diagonal block first: the
    little generator (A_ii, K_𝒜i) on C^{d_Ai} at i = j, and the Stinespring
    map A_ij from C^{d_Ai} to C^{d_Aj} off the diagonal."""
    factors = nf.dec.factors
    for i, (dai, _) in enumerate(factors):
        yield i, i, GKLSRep(dai, StinespringRep(dai, dai, nf.d_f[i][i], nf.a[i][i]), nf.k_a[i])
        for j, (daj, _) in enumerate(factors):
            if j != i:
                yield i, j, StinespringRep(dai, daj, nf.d_f[i][j], nf.a[i][j])


def _u_times(u: np.ndarray, w: np.ndarray, d_b: int) -> np.ndarray:
    """u·(w⊗1_B)."""
    return _on_system(w.T, u.T, d_b).T


def _psi_shift(nf: AtomicNormalForm, i: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ψ-shift (B_i − s, H_{B_i} + ½i(g − g†)) by x, s = U_ii·(|x⟩⊗1_B)."""
    s = _u_times(nf.u[i][i], x[:, None], nf.dec.factors[i][1])
    g = dag(nf.b[i]) @ s
    return nf.b[i] - s, nf.h_b[i] + 0.5j * (g - dag(g))


def normal_form_minimality(nf: AtomicNormalForm, tol: float = TOL_RANK) -> dict:
    """Certificates: per-factor commutator-span ranks and per-pair slice ranks.

    The form is minimal iff every diagonal rank equals d_{A_i}·d_F_ii and
    every off-diagonal rank equals d_F_ij.
    """
    diag, pairs, minimal = [], {}, True
    for i, j, blk in _block_walk(nf):
        if i == j:
            diag.append(gkls_minimal_rank(blk.stine, tol))
            minimal &= diag[-1] == blk.d * blk.d_env
        else:
            pairs[(i, j)] = stinespring_minimal_rank(blk, tol)
            minimal &= pairs[(i, j)] == blk.d_env
    return {"diagonal_ranks": diag, "pair_ranks": pairs, "minimal": minimal}


def reduce_normal_form_minimal(
    nf: AtomicNormalForm, tol: float = TOL_RANK
) -> AtomicNormalForm:
    """Shrink every H_F_ij to its minimal dimension, compensating exactly.

    Diagonal factors are reduced as little generators (the stripped 1⊗|φ̃⟩
    part of A_ii moves into B_i and twists H_{B_i}: the ψ-shift at x = −φ̃);
    off-diagonal blocks are reduced as plain Stinespring matrices.  The
    reconstructed (V, K) is unchanged.
    """
    k_a, h_b, b = list(nf.k_a), list(nf.h_b), list(nf.b)
    d_f, a, u = ([list(row) for row in t] for t in (nf.d_f, nf.a, nf.u))
    for i, j, blk in _block_walk(nf):
        if i == j:
            res = gkls_minimalize(blk, tol=tol)
            s_min, w = res.g_min.stine, dag(res.p)
            k_a[i] = res.g_min.k
            b[i], h_b[i] = _psi_shift(nf, i, -res.phi_vec)
        else:
            s_min, w = minimal_stinespring(blk, tol=tol)
        a[i][j], d_f[i][j] = s_min.v, s_min.d_env
        u[i][j] = _u_times(nf.u[i][j], w, nf.dec.factors[j][1])
    out = replace(nf, k_a=k_a, h_b=h_b, b=b, d_f=d_f, a=a, u=u)
    verify("reduction_reconstruction",
           _generator_gap(reconstruct_from_normal_form(nf), reconstruct_from_normal_form(out)),
           limit(tol), FactorizationResidual, "minimality reduction changed the generator")
    if not normal_form_minimality(out, tol=tol)["minimal"]:
        raise FactorizationResidual("reduced form fails its minimality certificate")
    return out


def _require_same_decomposition(nf1: AtomicNormalForm, nf2: AtomicNormalForm, tol: float):
    d1, d2 = nf1.dec, nf2.dec
    if (d1.d, d1.d0, d1.factors) != (d2.d, d2.d0, d2.factors):
        raise NotEquivalent("normal forms live over different block structures")
    verify("same_frame", frob(d1.u_alg - d2.u_alg), limit(tol, d1.d, 1), NotEquivalent,
           "normal forms use different algebra frames")
    if nf1.d_env != nf2.d_env:
        raise NotEquivalent("normal forms have different ambient environments")


def normal_form_gauge(
    nf1: AtomicNormalForm,
    nf2: AtomicNormalForm,
    tol: float = TOL_VERIFY,
    mode: str = "full",
) -> GaugeData:
    """Gauge (W_ij, ψ_i, μ_i) carrying minimal form nf1 onto nf2.

    ``mode="algebra-only"`` requires the generators to agree on the algebra
    and fixes the per-factor data;  ``mode="full"`` requires equal (V, K) and
    additionally verifies the induced B_i, H_{B_i}, U_ij and V₀/K₀ relations.
    """
    if mode not in ("algebra-only", "full"):
        raise ValueError("mode must be 'algebra-only' or 'full'")
    _require_same_decomposition(nf1, nf2, tol)
    if not all(normal_form_minimality(nf, tol=max(tol, TOL_RANK))["minimal"] for nf in (nf1, nf2)):
        raise NotMinimal("both normal forms must satisfy the minimality certificates; reduce first")
    g1 = reconstruct_from_normal_form(nf1)
    g2 = reconstruct_from_normal_form(nf2)
    v_scale, l_scale = _linear_scale(g1.v, g2.v), _generator_scale(g1, g2)
    full = mode == "full"
    if full:
        verify("same_reconstruction", _generator_gap(g1, g2), limit(tol), NotEquivalent,
               "normal forms reconstruct different (V, K)")
    else:
        verify("same_on_algebra", _worst([frob(gkls_apply(g1, xhat) - gkls_apply(g2, xhat))
                                          for xhat in algebra_pattern_basis(nf1.dec)]),
               limit(tol, l_scale), NotEquivalent, "generators differ on the algebra")

    out = GaugeData(w_ii=[], psi_i=[], mu_i=[])
    # each block's gauge, then the gaps of its substitutions, each relative
    # to the scale of its block: V-like, K-like or an isometry
    res = [frob(nf1.v0 - nf2.v0) / v_scale, frob(nf1.k0 - nf2.k0) / l_scale] if full else []
    for (i, j, blk1), (_, _, blk2) in zip(_block_walk(nf1), _block_walk(nf2)):
        dai, dbj = nf1.dec.factors[i][0], nf1.dec.factors[j][1]
        try:
            if i == j:
                gauge = gkls_gauge(blk1, blk2, tol=max(tol, TOL_RANK))
                w, psi, mu = gauge.w, gauge.psi, gauge.mu
                out.w_ii.append(w)
                out.psi_i.append(psi)
                out.mu_i.append(mu)
            else:
                w = out.w_pairs[(i, j)] = stinespring_gauge(blk1, blk2, tol=max(tol, TOL_RANK))
        except (NotSameGenerator, NotSameMap) as exc:
            raise NotEquivalent(
                f"factor {i}: diagonal data generate different little generators" if i == j
                else f"pair ({i},{j}): blocks represent different reduced maps",
                residual=exc.residual,
            ) from exc
        v_pred = _on_env(w, blk1.v, dai)
        if i == j:
            v_pred = v_pred + _on_env(psi[:, None], eye(dai), dai)
            k_pred = (blk1.k + _on_env(np.conj(psi)[None, :] @ w, blk1.v, dai)
                      + (0.5 * float(np.vdot(psi, psi).real) + 1j * mu) * eye(dai))
            res.append(frob(k_pred - blk2.k) / l_scale)
            if full:
                b_pred, h_pred = _psi_shift(nf1, i, dag(w) @ psi)
                res += [frob(nf2.b[i] - b_pred) / v_scale,
                        frob(h_pred - mu * eye(dbj) - nf2.h_b[i]) / l_scale]
        res.append(frob(v_pred - blk2.v) / v_scale)
        if full:
            res.append(frob(_u_times(nf1.u[i][j], dag(w), dbj) - nf2.u[i][j]))
    verify("gauge_substitution", _worst(res), limit(tol, factor=100), NotEquivalent,
           "gauge substitutions do not reproduce the second form")
    return out
