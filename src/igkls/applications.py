"""Pipelines built on the normal-form machinery.

Five independent consumers of the block structure:

1. **semicausal generators** on a bipartite system C^dA ⊗ C^dB — build one
   from its parts and test an arbitrary generator for semicausality
   (:func:`semicausal_build`, :func:`semicausal_check`);
2. **decoherence-free certification** — given a generator and a candidate
   unital atomic algebra on which the induced semigroup should act by
   *-automorphisms, verify that the dissipation form's diagonal traces and
   the invariant split's CP part vanish, and read the per-factor environment
   couplings off the split's intertwiner part (:func:`dfs_verify_normal_form`);
3. **maximal abelian invariance coefficients** — for a CP map fixing a
   maximal abelian algebra, build the commutation coefficients c_mn with
   [c, φ_m] = Σ_n c_mn φ_n (:func:`maximal_abelian_coefficients`);
4. **fixed-point (Koashi–Imoto) decomposition** of a trace-preserving
   channel: the preserved/acted tensor split of the channel restricted to
   the support of a maximal-rank fixed state
   (:func:`koashi_imoto_decompose`, :func:`fixed_point_state`);
5. **finite-time invariance probe** — the residual of e^{tL}(X) against the
   algebra at a few times t, from the generator's superoperator in an
   orthonormal Hermitian frame (:func:`semigroup_invariance_probe`).

Picture conventions — a :class:`~igkls.cpmaps.KrausSet` is a bag of matrices;
what they mean is declared per operation.  ``cp_apply`` and everything in the
CP/GKLS modules read them in Heisenberg form Φ(X) = Σ op†·X·op.  The
fixed-point pipelines (:func:`fixed_point_state`,
:func:`koashi_imoto_decompose`) read them in Schrödinger form
T(ρ) = Σ op·ρ·op† with trace preservation Σ op†·op = 1; the two pictures are
connected by adjointing each operator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (
    AlgebraBasis,
    AtomicDecomposition,
    _chunks,
    _decompose_closed,
    _embed_a,
    _embed_b,
    _factor_traces,
    _lift,
    _over_basis,
    _pattern_residuals,
    _to_frame,
    _trace_a,
    _trace_b,
    _unit_images,
    _worst,
)
from .cpmaps import KrausSet, _cp_invariance, _map_scale, kraus_to_stinespring
from .errors import (
    RANK_FLOOR,
    TOL_PROBE,
    TOL_VERIFY,
    AlgebraClosureFailed,
    FactorizationResidual,
    NoFixedState,
    NotDecoherenceFree,
    NotDiagonal,
    NotInvariant,
    NotMaximalAbelian,
    NotTracePreserving,
    _isometry_limit,
    limit,
    verify,
)
from .gkls import AtomicNormalForm, GKLSRep, _generator_images, _generator_scale, _split, generator_superoperator, reconstruct_from_normal_form
from .linalg import TOL_RANK, _expm_scaled, _isometry_defect, _kron_sum, _linear_scale, _rank, _scaled_power, asmatrix, dag, eye, frob, herm, im_part, null_space, row_space

__all__ = [
    "SemicausalReport",
    "DfsCertificate",
    "AbelianCoefficients",
    "KoashiImotoResult",
    "ProbeReport",
    "semicausal_build",
    "semicausal_check",
    "dfs_verify_normal_form",
    "maximal_abelian_coefficients",
    "fixed_point_state",
    "koashi_imoto_decompose",
    "semigroup_invariance_probe",
]


@dataclass
class SemicausalReport:
    """Two codes for one semicausality residual of a generator, from the same images."""

    passed: bool
    max_residual: float
    tol: float
    algebra_residuals: list[float]
    direct_residuals: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DfsCertificate:
    """Per-factor data certifying automorphic action on the algebra.

    ``beta[i][n]`` couples factor i to environment direction n (a block of
    the intertwiner part B); ``kappa_a``/``kappa_b`` split the skew part of K;
    ``h_tilde`` generates the rotation the semigroup performs on the algebra;
    ``psi[i]`` is an empty array for every factor: a certified generator has
    no CP part, so no diagonal multiplier 1⊗|ψ_i⟩.
    """

    beta: list[list[np.ndarray]]
    kappa_a: list[np.ndarray]
    kappa_b: list[np.ndarray]
    h_tilde: np.ndarray
    psi: list[np.ndarray]
    residuals: dict = field(default_factory=dict)


@dataclass
class AbelianCoefficients:
    """Coefficients c_mn with [c, φ_m] = Σ_n c_mn·φ_n, diagonal in the frame."""

    c_mn: list[list[np.ndarray]]
    psi: list[list[np.ndarray]]
    residuals: dict = field(default_factory=dict)


@dataclass
class KoashiImotoResult:
    """Channel structure over the support of a maximal-rank fixed state.

    ``q`` is the coisometry onto that support; ``dec`` decomposes the dual
    fixed-point algebra there; per factor, ``v[i]`` is the isometry acting on
    the H_B slot and ``sigma[i]`` its fixed density matrix.
    """

    q: np.ndarray
    dec: AtomicDecomposition
    v: list[np.ndarray]
    sigma: list[np.ndarray]
    report: dict = field(default_factory=dict)


@dataclass
class ProbeReport:
    """Residuals of e^{tL}(X) against the algebra for each probed time,
    relative to ‖e^{tL}‖_F (see :func:`semigroup_invariance_probe`)."""

    times: list[float]
    max_residuals: list[float]
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# semicausal generators
# ---------------------------------------------------------------------------

def semicausal_build(
    a: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    k_a: np.ndarray,
    h_b: np.ndarray,
) -> GKLSRep:
    """Assemble the general semicausal generator from its parts.

    ``V = (1_A⊗U)(A⊗1_B) + 1_A⊗B`` and
    ``K = (1_A⊗B†U)(A⊗1_B) + ½·1_A⊗B†B + K_A⊗1_B + i·1_A⊗H_B``,
    with A: C^dA → C^dA⊗C^dF, U an isometry C^dF⊗C^dB → C^dB⊗C^dE,
    B: C^dB → C^dB⊗C^dE, and H_B self-adjoint.  This is the one-factor
    normal form over L(C^dA)⊗1_B in the identity frame, so it is rebuilt by
    :func:`~igkls.gkls.reconstruct_from_normal_form`.
    """
    u = asmatrix(u)
    b = asmatrix(b)
    k_a = asmatrix(k_a)
    h_b = asmatrix(h_b)
    if k_a.shape[0] != k_a.shape[1]:
        raise ValueError("k_a must be square")
    if h_b.shape[0] != h_b.shape[1]:
        raise ValueError("h_b must be square")
    da = k_a.shape[0]
    db = h_b.shape[0]
    if da == 0 or db == 0:
        raise ValueError("system factors must be nonempty")
    if b.shape[0] % db:
        raise ValueError(f"b must have shape (dB·dE, dB) with dB={db}")
    e = b.shape[0] // db
    if u.shape[1] % db:
        raise ValueError(f"u must have shape (dB·dE, dF·dB) with dB={db}, dE={e}")
    d_f = u.shape[1] // db
    if u.size:
        iso = _isometry_defect(u)
        if not iso <= limit(TOL_VERIFY, _linear_scale(u)):
            raise ValueError(f"u is not an isometry (residual {iso:.3e})")
    sa = frob(h_b - dag(h_b))
    if not sa <= limit(TOL_VERIFY, _linear_scale(h_b)):
        raise ValueError(f"h_b is not self-adjoint (residual {sa:.3e})")

    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    empty = np.zeros((0, d), dtype=np.complex128)
    # the dataclass rejects the shapes not checked above
    return reconstruct_from_normal_form(AtomicNormalForm(
        dec=dec, v0=empty, k0=empty, k_a=[k_a], h_b=[h_b], b=[b],
        d_f=[[d_f]], a=[[a]], u=[[u]], d_env=e))


def semicausal_check(
    g: GKLSRep, d_a: int, d_b: int, tol: float = TOL_VERIFY
) -> SemicausalReport:
    """Does L leave L(C^dA)⊗1_B invariant?  Two codes for one residual.

    L is applied once per slice of the pattern basis X̂ = X⊗1/√d_B of the
    one-factor decomposition (dA, dB), and each image Z = L(X̂) is measured by
    route one, the generic algebra-invariance residual, and by route two,
    ‖Z − Y⊗1‖_F·√d_B for Y = Tr_B(Z)/d_B: the same distance times √d_B, the
    residual of the unit X⊗1.  Both must stay below ``tol`` times the generator's scale.
    """
    if d_a * d_b != g.d:
        raise ValueError(f"d_a·d_b = {d_a * d_b} does not match d = {g.d}")
    dec_sc = AtomicDecomposition(d=g.d, u_alg=eye(g.d), d0=0, factors=[(d_a, d_b)])

    def both(xs):  # the two routes' residuals of the images Z = L(X̂)
        z = _generator_images(g, xs)
        y = np.einsum("nabcb->nac", z.reshape(-1, d_a, d_b, d_a, d_b)) / d_b
        return np.stack([_pattern_residuals(z, dec_sc), np.linalg.norm(
            z - np.kron(y, eye(d_b)), axis=(1, 2)) * np.sqrt(d_b)], axis=1)
    alg_res, direct_res = (col.tolist() for col in _over_basis(both, dec_sc).T)

    bound = limit(tol, _generator_scale(g))
    worst = _worst(alg_res + direct_res)
    return SemicausalReport(passed=bool(worst <= bound), max_residual=float(worst), tol=float(bound),
                            algebra_residuals=alg_res, direct_residuals=direct_res)


# ---------------------------------------------------------------------------
# decoherence-free subalgebra certification
# ---------------------------------------------------------------------------

def _dissipation_traces(g: GKLSRep, dec: AtomicDecomposition) -> np.ndarray:
    """tr Ψ(X̂,X̂) = ‖C(X̂)‖_F² per X̂ of the pattern basis, in basis order, for the
    dissipation form Ψ(X,Y) = L(X†Y) − X†L(Y) − L(X†)Y + X†L(1)Y = C(X)†C(Y),
    C(X) = (X⊗1)V − VX.  It is tr L(X̂†X̂) − 2·Re⟨X̂, L(X̂)⟩ + ⟨X̂X̂†, L(1)⟩, and for
    the unit X̂ = (a, c) of a factor, X̂†X̂ and X̂X̂† are the units (c, c) and
    (a, a) over √d_B: L is applied once to each unit and once to 1."""
    l_one = _generator_images(g, eye(g.d))

    def terms(xs):  # tr L(X̂), ⟨X̂, L(X̂)⟩ and ⟨X̂, L(1)⟩, real parts
        images = _generator_images(g, xs)
        return np.stack([np.einsum("kii->k", images), np.einsum("kij,kij->k", xs.conj(), images),
                         np.einsum("kij,ij->k", xs.conj(), l_one)], axis=1).real
    traces, overlaps, at_one = _over_basis(terms, dec).T
    out = -2 * overlaps
    off = 0  # basis index of the factor's unit (0, 0)
    for da, db in dec.factors:
        a, c = np.divmod(np.arange(da * da), da)
        out[off:off + da * da] += (traces[off + c * (da + 1)] + at_one[off + a * (da + 1)]) / np.sqrt(db)
        off += da * da
    return out


def dfs_verify_normal_form(
    g: GKLSRep, dec: AtomicDecomposition, tol: float = TOL_VERIFY
) -> DfsCertificate:
    """Certify that the semigroup acts on the (unital) algebra by automorphisms.

    The dissipation form Ψ must vanish on the algebra: ``dfs_dissipation``
    checks max_X̂ |tr Ψ(X̂,X̂)|, which bounds every ‖Ψ(X̂,Ŷ)‖_F by Cauchy–Schwarz
    (:func:`_dissipation_traces`).  Equivalently the CP part A of the invariant
    split V = A + B is zero, so V = B intertwines the algebra (``dfs_cp_part``).
    The per-factor couplings β_{n;i} are the blocks of B, κ_a and κ_b are the
    factor blocks of K_𝒜 and H_{𝒜′}, and the effective rotation generator is
    the lift of κ_a; all are re-verified against the input.
    """
    if dec.d0:
        raise ValueError("the algebra must be unital (no null block) here")
    split, inv = _split(g, dec, tol)  # the one generator_invariance check

    diss = _worst(np.abs(_dissipation_traces(g, dec)))
    verify("dfs_dissipation", diss, limit(tol, _generator_scale(g)), NotDecoherenceFree,
           "dissipation form does not vanish on the algebra")
    v_scale = _linear_scale(g.v)
    verify("dfs_cp_part", frob(split.a), limit(tol, v_scale), NotDecoherenceFree,
           "the CP part of the invariant split does not vanish")

    e = g.d_env
    couplings = _factor_traces(_to_frame(split.b, dec, e), dec, _trace_a)  # B_i, (db·e) × db
    beta = [[m.reshape(db, e, db)[:, n, :] for n in range(e)]
            for m, (_, db) in zip(couplings, dec.factors)]
    kappa_a = [im_part(k) for k in _factor_traces(_to_frame(split.k_alg, dec), dec, _trace_b)]
    kappa_b = [herm(h) for h in _factor_traces(_to_frame(split.h_comm, dec), dec, _trace_a)]
    h_tilde = _lift(dec, kappa_a, _embed_b)

    # re-verify the extracted data against the input representation
    pred = (g.v - _lift(dec, couplings, _embed_a, e)).reshape(g.d, e, g.d)
    kraus_res = _worst(np.linalg.norm(pred, axis=(0, 2)))
    imk_res = frob(im_part(g.k) - h_tilde - _lift(dec, kappa_b, _embed_a))
    verify("dfs_kraus_pattern", kraus_res, limit(tol, v_scale, 100), FactorizationResidual,
           "extracted couplings do not reproduce V")
    verify("dfs_im_k_pattern", imk_res, limit(tol, _generator_scale(g), 100), FactorizationResidual,
           "extracted couplings do not reproduce the skew part of K")
    return DfsCertificate(
        beta=beta,
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        h_tilde=h_tilde,
        psi=[np.zeros(0, dtype=np.complex128) for _ in dec.factors],
        residuals={
            "invariance": _worst(inv),
            "dissipation": diss,
            "kraus_pattern": kraus_res,
            "im_k_pattern": imk_res,
        },
    )


# ---------------------------------------------------------------------------
# maximal abelian invariance coefficients
# ---------------------------------------------------------------------------

def maximal_abelian_coefficients(
    k: KrausSet, dec: AtomicDecomposition, c: np.ndarray, tol: float = TOL_VERIFY
) -> AbelianCoefficients:
    """Coefficients c_mn ∈ 𝒞 with [c, φ_m] = Σ_n c_mn·φ_n (Heisenberg Kraus).

    Requires 𝒞 maximal abelian and atomic — every factor (1,1) and no null
    block — the map invariant on 𝒞, and c diagonal in the frame.  Per frame
    vector the environment directions ψ_ij are mutually orthogonal over j,
    so the eigen-relation C_i ψ_ij = (c_i−c_j)·ψ_ij extends linearly (zero on
    the orthogonal complement); c_mn collects the matrix elements of the C_i.
    """
    if k.d_in != k.d_out:
        raise ValueError("map must be an endomorphism")
    if dec.d != k.d_in:
        raise ValueError("decomposition dimension does not match the map")
    if dec.d0 != 0 or any(f != (1, 1) for f in dec.factors):
        raise NotMaximalAbelian(
            "need d0 = 0 and all factors (1,1) for a maximal abelian frame"
        )
    c = asmatrix(c)
    if c.shape != (dec.d, dec.d):
        raise ValueError("c has the wrong shape")
    d = dec.d
    c_hat = _to_frame(c, dec)[:, 0, :, 0]
    c_scale = _linear_scale(c)
    verify("abelian_diagonal", frob(c_hat - np.diag(np.diag(c_hat))), limit(tol, c_scale), NotDiagonal,
           "c is not diagonal in the decomposition frame")
    c_diag = np.diag(c_hat)

    rep = kraus_to_stinespring(k)
    _cp_invariance(rep, dec, dec, tol)
    v_scale = _linear_scale(rep.v)

    e = rep.d_env
    t = _to_frame(rep.v, dec, e)  # factor i is frame index i
    psi = [[t[i, :, j, :] for j in range(d)] for i in range(d)]

    coeff = np.zeros((e, e, d), dtype=np.complex128)       # C_i stack
    coeff_adj = np.zeros((e, e, d), dtype=np.complex128)   # same for c†
    for i in range(d):
        for j in range(d):
            vec_ij = psi[i][j]
            if not _rank([frob(vec_ij)], tol, v_scale):  # rounding noise at V's scale
                continue
            nrm2 = float(np.real(dag(vec_ij) @ vec_ij)[0, 0])
            outer = vec_ij @ dag(vec_ij)
            s = (c_diag[i] - c_diag[j]) / nrm2
            coeff[:, :, i] += s * outer
            coeff_adj[:, :, i] += np.conj(s) * outer

    u = dec.u_alg
    c_mn = [[(u * coeff[m, n]) @ dag(u) for n in range(e)] for m in range(e)]
    c_mn_adj = [[(u * coeff_adj[m, n]) @ dag(u) for n in range(e)] for m in range(e)]

    comm_res = _worst([
        frob(c @ phi_m - phi_m @ c - sum(c_mn[m][n] @ k.ops[n] for n in range(e)))
        for m, phi_m in enumerate(k.ops)
    ])
    verify("abelian_commutator", comm_res, limit(tol, c_scale * v_scale, 100), NotInvariant,
           "commutation coefficients fail to reproduce [c, φ_m]")
    adj_res = _worst([
        frob(c_mn_adj[m][n] - dag(c_mn[n][m])) for m in range(e) for n in range(e)
    ])
    verify("abelian_adjoint_symmetry", adj_res, limit(tol, c_scale, 100), NotInvariant,
           "coefficients of c† are not the adjoints of those of c")
    return AbelianCoefficients(
        c_mn=c_mn,
        psi=psi,
        residuals={"commutator": comm_res, "adjoint_symmetry": adj_res},
    )


# ---------------------------------------------------------------------------
# fixed points and the Koashi–Imoto split
# ---------------------------------------------------------------------------

def _schrodinger_apply(ops: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum((op @ rho @ dag(op) for op in ops), np.zeros_like(rho))


def _tp_residual(ops: list[np.ndarray], d: int) -> float:
    return frob(sum((dag(op) @ op for op in ops), -eye(d)))


def _fixed_space(ops: list[np.ndarray], d: int, tol: float) -> np.ndarray:
    """HS-orthonormal Hermitian basis, an (m, d, d) stack, of the fixed
    points of X ↦ Σ op·X·op† (of the dual map for the adjointed ops, the
    Koashi–Imoto fallback): the real null rows r of the transfer matrix minus
    1 in the frame of :func:`_hermitian_frame`, as T·r; T is unitary, so the
    singular values and cutoff are the complex matrix's.  The transfer matrix
    Σ_k K_k⊗K̄_k is :func:`~igkls.linalg._kron_sum`."""
    ops = np.asarray(ops)
    s_r = _real_superoperator(_kron_sum(ops, np.conj(ops)).reshape(d * d, -1), d)
    s_r[np.diag_indices(d * d)] -= 1.0
    # noise floor: when the channel fixes everything, the whole matrix is
    # rounding noise and σ_max itself is ~eps
    return _from_hermitian_frame(null_space(s_r, tol, _map_scale(ops)), d)


def _hermitian_span(xs: np.ndarray, tol: float) -> np.ndarray:
    """HS-orthonormal Hermitian basis of the span of the Hermitian (m, d, d)
    stack xs, the real :func:`row_space` of their (re, im) entries (their
    Gram matrix is real), with the rank relative to σ_max."""
    m, d, _ = xs.shape
    rows = row_space(np.ascontiguousarray(xs).reshape(m, -1).view(float), tol, 0.0)
    return np.ascontiguousarray(rows).view(complex).reshape(-1, d, d)


def _dual_fixed_residual(ops: list[np.ndarray], ys: np.ndarray) -> float:
    """Largest ‖Σ op†·y·op − y‖_F / ‖y‖_F over the (m, d, d) stack ys."""
    moved = sum((dag(op) @ ys @ op for op in ops), -ys)
    return _worst(np.linalg.norm(moved, axis=(1, 2)) / np.linalg.norm(ys, axis=(1, 2)))


def _fixed_states(k: KrausSet, tol: float, tp_name: str) -> tuple[float, np.ndarray, np.ndarray]:
    """(tp, hs, ρ) of the Schrödinger channel T: the trace-preservation
    residual, verified as ``tp_name``; an HS-orthonormal Hermitian basis hs
    of Fix(T) (:func:`_fixed_space`); and ρ = Π_Fix(1) = Σ_k tr(h_k)·h_k (not
    normalized), the same for every such basis.  Fix(T) = q†(0 ⊕ ⊕_i
    M_{A_i}⊗σ_i)q with σ_i > 0 (Blume-Kohout, Ng, Poulin & Viola 2010), so
    ρ = q†(0 ⊕ ⊕_i (tr σ_i/tr σ_i²)·1_{A_i}⊗σ_i)q, PSD of maximal rank."""
    if k.d_in != k.d_out:
        raise ValueError("channel must be an endomorphism")
    tp = _tp_residual(k.ops, k.d_in)
    verify(tp_name, tp, limit(tol, math.sqrt(k.d_in)), NotTracePreserving,
           "Kraus set is not trace preserving in the Schrödinger picture")
    hs = _fixed_space(k.ops, k.d_in, tol)
    if not len(hs):
        raise NoFixedState("transfer matrix shows no unit-eigenvalue space")
    return tp, hs, np.tensordot(np.einsum("kii->k", hs).real, hs, axes=1)


def fixed_point_state(k: KrausSet, tol: float = TOL_VERIFY) -> np.ndarray:
    """A density matrix ρ with T(ρ) = ρ for the Schrödinger channel T.

    ρ = Π_Fix(1)/tr, the HS projection of the identity onto the fixed
    points normalized, a fixed state of maximal rank and the unique fixed
    state when there is one; it is verified, else :class:`NoFixedState`.
    """
    _, _, rho = _fixed_states(k, tol, "tp")
    rho = rho / float(np.real(np.trace(rho)))
    verify("fixed_state", frob(_schrodinger_apply(k.ops, rho) - rho), limit(tol, factor=1),
           NoFixedState, "no fixed density matrix certified at tolerance")
    return rho


def koashi_imoto_decompose(
    k: KrausSet, tol: float = TOL_VERIFY, seed: int = 0
) -> KoashiImotoResult:
    """Preserved/acted split of a trace-preserving channel (Schrödinger Kraus).

    Pipeline: (1) fixed-point space of T and a maximal-rank fixed state, whose
    support carries the coisometry q; (2) compress the channel there and map
    its fixed points X to ρ_c^{-1/2}·X·ρ_c^{-1/2} (ρ_c the compressed state),
    the fixed points of the (unital) dual map, verified (the dual transfer
    matrix's null space if they fail); (3) verify they close into a
    *-algebra and decompose it atomically; (4) read each V_i off the
    compressed dilation W in the algebra's frame as Tr_A(W_ii)/d_A, and
    verify that W = ⊕_i (1_{A_i} ⊗ V_i) and that every V_i is an isometry;
    (5) read each σ_i off ρ_c = ⊕ p_i·ρ_{A_i}⊗σ_i as its normalized
    Tr_A(ρ_c,ii); (6) verify the dimension count and that every
    q†·u(X_{A_i}⊗σ_i)u†·q is a fixed point of T.
    """
    tp, hs, rho_max = _fixed_states(k, tol, "ki_tp")
    d = k.d_in
    ops = k.ops
    w, vecs = np.linalg.eigh(herm(rho_max))
    if w[-1] <= 0:
        raise NoFixedState("maximal-rank candidate state vanished")
    r = _rank(w, tol, 0.0)  # ρ_max ≥ 0: its eigenvalues are its singular values
    keep = slice(d - r, d)  # w ascending
    q = dag(vecs[:, keep])  # (r, d), q·q† = 1_r
    pi_supp = dag(q) @ q
    supp_res = _worst(np.linalg.norm(hs - pi_supp @ hs @ pi_supp, axis=(1, 2))
                      / np.linalg.norm(hs, axis=(1, 2)))  # rows of a unitary: never 0
    verify("ki_support", supp_res, limit(tol), NoFixedState,
           "a fixed point leaks out of the candidate support")

    comp = [q @ op @ dag(q) for op in ops]
    comp_tp = _tp_residual(comp, r)

    # ρ_c = q·ρ_max·q† = diag(w[keep]) = ⊕ p_i·ρ_{A_i}⊗σ_i is faithful and Fix(T_c) =
    # ⊕ M_A⊗σ_i, so ρ_c^{-1/2}·Fix(T_c)·ρ_c^{-1/2} = ⊕ M_A⊗1 = Fix(T_c*) (Koashi & Imoto 2002)
    ys = _hermitian_span(q @ hs @ dag(q) / np.sqrt(np.outer(w[keep], w[keep])), tol)
    dual_limit = limit(tol, _map_scale(np.asarray(comp)), 1)  # the SVD route's noise floor
    dual_res = _dual_fixed_residual(comp, ys) if len(ys) == len(hs) else math.nan
    if not dual_res <= dual_limit:
        ys = _fixed_space([dag(op) for op in comp], r, tol)  # ρ_c^{-1/2} amplified rounding
        dual_res = _dual_fixed_residual(comp, ys)
    verify("ki_dual_fixed", dual_res, dual_limit, AlgebraClosureFailed,
           "dual fixed points are not fixed by the compressed dual channel")
    m_fixed, m_dual = len(hs), len(ys)
    if m_fixed != m_dual:
        raise AlgebraClosureFailed(
            f"fixed-space dimensions disagree: {m_fixed} (channel) vs {m_dual} (dual)"
        )

    # the dual fixed-point set must already be an algebra: verify, don't
    # assume.  The basis is HS-orthonormal, so each product's residual is
    # relative to its factors' size, not its own (orthogonal projectors
    # multiply to ~0, which lies in every span).
    dec, closure = _decompose_closed(AlgebraBasis(r, list(ys)), max(tol, TOL_RANK), seed,
                                     AlgebraClosureFailed)
    if dec.d0:
        raise AlgebraClosureFailed("dual fixed-point algebra misses the identity")

    # the dual's dilation on Fix(T_c*) = ⊕ M_A⊗1 is ⊕ 1_A⊗V_i: the normal form with d_F = 1
    w_st = kraus_to_stinespring(KrausSet(d_in=r, d_out=r, ops=comp))
    e = w_st.d_env
    v_blocks = _factor_traces(_to_frame(w_st.v, dec, e), dec, _trace_a)
    pat_res = frob(w_st.v - _lift(dec, v_blocks, _embed_a, e))
    verify("ki_pattern", pat_res, limit(tol, _linear_scale(w_st.v)), FactorizationResidual,
           "compressed dilation is off the ⊕(1⊗V_i) block pattern")
    # the bundle decoder's isometry limit for the smallest V_i, so every certified V_i loads
    iso_res = _worst([_isometry_defect(vi) for vi in v_blocks])
    iso_limit = _isometry_limit(tol, min(db for _, db in dec.factors) * e)
    verify("ki_isometry", iso_res, iso_limit, FactorizationResidual,
           "a factor V_i of the compressed dilation is not an isometry")

    # ρ_c = diag(w[keep]) = ⊕ p_i·ρ_{A_i}⊗σ_i in the frame of dec
    sigma = _factor_traces(_to_frame(np.diag(w[keep]), dec), dec, _trace_a)
    traces = [float(np.real(np.trace(s))) for s in sigma]
    if not np.min(traces) > 0:
        raise NoFixedState("a factor block of the compressed fixed state has no trace")
    sigma = [s / tr for s, tr in zip(sigma, traces)]

    fam = dag(q) @ _unit_images(dec, sigma) @ q
    fam_res = _worst(np.linalg.norm(_schrodinger_apply(ops, fam) - fam, axis=(1, 2)))
    verify("ki_fixed_family", fam_res, limit(tol, factor=100), FactorizationResidual,
           "claimed fixed-point family is not fixed by the channel")

    report = {
        "d": d,
        "support_dim": r,
        "dim_fixed": m_fixed,
        "dim_dual_fixed": m_dual,
        "factor_dims": [list(f) for f in dec.factors],
        "tp_residual": float(tp),
        "compressed_tp_residual": float(comp_tp),
        "support_residual": float(supp_res),
        "closure_adjoint_residual": float(closure[0]),
        "closure_product_residual": float(closure[1]),
        "pattern_residual": float(pat_res),
        "fixed_family_residual": float(fam_res),
    }
    return KoashiImotoResult(q=q, dec=dec, v=v_blocks, sigma=sigma, report=report)


# ---------------------------------------------------------------------------
# semigroup probe
# ---------------------------------------------------------------------------

def _hermitian_frame(d: int) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal Hermitian basis of L(C^d) as gathers on row-major vec.

    Element r = (a, b) is E_aa for a = b, (E_ab + E_ba)/√2 for a < b and
    i(E_ab − E_ba)/√2 for a > b, so vec H_r = w1[r]·e_r + w̄1[r]·e_{perm[r]}
    with perm the transpose of the index.  The unitary T = [vec H_r] is
    diag(w1) + Π·diag(w̄1), Π the permutation matrix of perm, and T†MT
    costs O(d⁴) gathers instead of a dense product.
    """
    row, col = np.divmod(np.arange(d * d), d)
    h = 1 / np.sqrt(2)
    return np.where(row < col, h, np.where(row > col, 1j * h, 0.5)), col * d + row


def _from_hermitian_frame(rows: np.ndarray, d: int) -> np.ndarray:
    """T·r for each row r of ``rows`` (T of :func:`_hermitian_frame`): the
    matrices Σ_r' r[r']·H_r', as an (m, d, d) stack."""
    w1, perm = _hermitian_frame(d)
    return (rows * w1 + (rows * np.conj(w1))[:, perm]).reshape(-1, d, d)


def _real_superoperator(s: np.ndarray, d: int) -> np.ndarray:
    """T†sT, real and contiguous, for the T of :func:`_hermitian_frame` and a
    superoperator s (on row-major vec) that preserves Hermiticity;
    overwrites s.  With T = diag(w1) + Π·diag(w̄1) and s·Π = Π·s̄,
    T†sT = 2·Re[(s' + diag(w1/w̄1_Π)·Π·s')·diag(w1)] for s' = diag(w̄1)·s,
    where w1_r/w̄1_{perm r} is i off the diagonal rows and 1 on them.  Column
    c contributes Re of the bracket for real w1_c and −Im for imaginary
    w1_c, so after multiplying those columns by i (exact) every entry is
    Re s'_r − Im s'_{perm r}, 2·Re s'_r on a diagonal row r, times 2|w1_c|:
    one real gather, rounded as the complex product."""
    w1, perm = _hermitian_frame(d)
    s *= np.conj(w1)[:, None]
    s *= np.where(w1.imag != 0, 1j, 1)
    out = s.imag[perm]
    diag = np.arange(0, d * d, d + 1)
    out[diag] = -s.real[diag]
    np.subtract(s.real, out, out=out)
    out *= 2 * np.abs(w1)
    return out


def _centred_real_generator(g: GKLSRep) -> np.ndarray:
    """L_r − μ: the superoperator in the frame of :func:`_hermitian_frame`
    (:func:`_real_superoperator`), minus μ = tr(L_r)/d²."""
    d = g.d
    l_r = _real_superoperator(generator_superoperator(g), d)
    l_r[np.diag_indices(d * d)] -= np.trace(l_r) / (d * d)
    return l_r


def _integer_ratio(t: float, t0: float) -> int | None:
    """k if t = k·t₀ to rounding (|t − k·t₀| ≤ RANK_FLOOR·t) with 2 ≤ k ≤ 128, else None.

    k ≤ 128 keeps the power E(t₀)^k to at most 12 matrix products, about
    what one direct exponential costs.
    """
    k = np.rint(t / t0) if t0 > 0 else 0.0
    return int(k) if 2 <= k <= 128 and abs(t - k * t0) <= RANK_FLOOR * t else None


@np.errstate(all="ignore")
def semigroup_invariance_probe(
    g: GKLSRep,
    dec: AtomicDecomposition,
    times: list[float],
    tol: float = TOL_PROBE,
) -> ProbeReport:
    """Residual of e^{tL}(X) against the algebra, per probed time.

    The finite-time maps are evaluated by exponentiating the superoperator,
    so this measures invariance of the *semigroup* rather than of L itself.
    L preserves Hermiticity, so in an orthonormal Hermitian basis
    (:func:`_hermitian_frame`) it is a real matrix L_r.  The probe
    exponentiates the trace-centred t·(L_r − μ), μ = tr(L_r)/d²
    (:func:`_centred_real_generator`), with the numpy scaling-and-squaring
    Padé kernel :func:`~igkls.linalg._expm_scaled`.  A time that is an
    integer multiple k ≥ 2 of the time before it (to 1e-12 relative,
    k ≤ 128) reuses that propagator as E(t) = E(t₀)^k by repeated squaring
    (:func:`_integer_ratio`, :func:`~igkls.linalg._scaled_power`), so the
    times 0.1, 1, 10 cost one Padé evaluation and eight matrix products,
    and at most two propagators are held at once.

    The propagator E = e^{t(L_r − μ)} is applied to the algebra's
    orthonormal pattern basis, and the reported residual at time t is
    max_X dist(E(X), 𝒜) / ‖E‖_F.  The factor e^{tμ} that turns E into
    e^{tL} cancels from this ratio, and ‖E‖_F = ‖e^{t(L − μ)}‖_F in any
    orthonormal basis, so the ratio is the leak of e^{tL} relative to the
    size of e^{tL} itself: it stays at rounding level for invariant
    generators and does not vanish for damped ones that leak.  The ratio
    does not depend on the scale of E either, so E is held as E·2^-j, with
    j chosen after every squaring and product so that its largest entry
    lies in [1/2, 1): scaling by a power of two is exact, so the residuals
    are those of the unscaled E wherever it stays within the doubles, and
    rescaling time (V → cV, K → c²K) cannot make E overflow.  ‖E‖_F lies
    between ‖E‖₂ and d·‖E‖₂ and equals d at t = 0, so near t = 0 the same
    ``tol`` is up to d times weaker than against ‖E‖₂, and weaker at
    larger d.  Each residual is compared against ``limit(tol, factor=1)``;
    a NaN residual (from a non-finite generator) fails the probe, and
    warnings are off (``np.errstate``), so it is not a ``RuntimeWarning``
    (an error under ``-W error``).
    """
    if dec.d != g.d:
        raise ValueError("decomposition dimension does not match the generator")
    d = g.d
    w1, perm = _hermitian_frame(d)
    l_r = _centred_real_generator(g)
    def to_frame(xs):  # T†·vec(X̂), one row per element
        rows = xs.reshape(len(xs), d * d)
        return np.conj(w1) * rows + w1 * rows[:, perm]
    prev = coords = None  # (t₀, E(t₀)·2^-j) of the previous time
    max_res = []
    for t in map(float, times):
        k = _integer_ratio(t, prev[0]) if prev else None
        propagator = _scaled_power(prev[1], k) if k else _expm_scaled(t * l_r)[0]
        prev = (t, propagator)
        if coords is None:  # made after the first exponential, not held through it
            coords = np.ascontiguousarray(_over_basis(to_frame, dec).T)
        yc = propagator @ coords.real + 1j * (propagator @ coords.imag)
        worst = _worst([_worst(_pattern_residuals(_from_hermitian_frame(yc[:, s].T, d), dec))
                        for s in _chunks(yc.shape[1], 16 * d * d)])
        max_res.append(worst / frob(propagator))
    bound = limit(tol, factor=1)
    return ProbeReport(times=[float(t) for t in times], max_residuals=max_res,
                       tol=bound, passed=bool(all(res <= bound for res in max_res)))
