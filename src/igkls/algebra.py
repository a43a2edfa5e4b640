"""Finite-dimensional weakly closed *-algebras of matrices.

An algebra is represented either by an HS-orthonormal basis
(:class:`AlgebraBasis`) or structurally by an :class:`AtomicDecomposition`:
a unitary ``u_alg`` together with ``(d0, [(d_A_i, d_B_i)])`` such that every
algebra element, conjugated by ``u_alg†``, is zero on the first ``d0``
coordinates and of the form ``X_{A_i} ⊗ 1_{B_i}`` on the i-th diagonal block.

Every block construction in the package is one move in that frame:
conjugate by U = ``u_alg`` (``_to_frame``/``_from_frame``, with optional
environment slots, the last tensor slot), take factor block i
(``_blocks``, ``_factor_block``), reduce it by Tr_A/d_A or Tr_B/d_B
(``_trace_a``/``_trace_b``) or write 1_A⊗Y or X⊗1_B into it
(``_embed_a``/``_embed_b``, through the trace's index string read as a
writable diagonal view), and conjugate back (``_lift``).  All modules share
these private helpers, and the pattern-basis loop :func:`invariance_residuals`.

The two exact averaging operations (`twirl_to_commutant`,
`twirl_intertwiner`) replace group integrals by closed-form partial traces,
which is exact in finite dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailed, NotClosed, NotIntertwiner
from .linalg import (
    TOL_RANK,
    _on_system,
    asmatrix,
    dag,
    eye,
    frob,
    kron,
    null_space,
    orthonormalize_span,
    subspace_residual,
    vec,
)
from .rng import CounterRng

_MAX_RETRIES = 8
_GAP_FRACTION = 1e-6  # minimal relative eigenvalue gap for a generic element


@dataclass
class AlgebraBasis:
    """HS-orthonormal basis of a *-closed subspace of L(C^ambient_dim)."""

    ambient_dim: int
    basis: list[np.ndarray]
    contains_identity: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class AtomicDecomposition:
    """Structural form of an atomic algebra; see the module docstring."""

    d: int
    u_alg: np.ndarray
    d0: int
    factors: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.u_alg = asmatrix(self.u_alg)
        self.factors = [(int(a), int(b)) for a, b in self.factors]
        total = self.d0 + sum(a * b for a, b in self.factors)
        if total != self.d:
            raise ValueError(f"block dims sum to {total}, ambient is {self.d}")

    def offsets(self) -> list[int]:
        """Start offset of each factor block (after the d0 null block)."""
        return [s.start for _, _, s in _blocks(self)]

    def p_null(self) -> np.ndarray:
        """P₀ ∈ L(H; H₀): the first d0 rows of u_alg†."""
        return dag(self.u_alg)[: self.d0, :]

    def p_factor(self, i: int) -> np.ndarray:
        """P_i ∈ L(H; H_{A_i}⊗H_{B_i}): the rows of u_alg† for factor i."""
        _, _, s = list(_blocks(self))[i]
        return dag(self.u_alg)[s, :]


# ---------------------------------------------------------------------------
# the block frame (see the module docstring)
# ---------------------------------------------------------------------------

def _blocks(dec: AtomicDecomposition):
    """(d_A, d_B, slice) of each factor block, in factor order."""
    pos = dec.d0
    for da, db in dec.factors:
        yield da, db, slice(pos, pos + da * db)
        pos += da * db


def _to_frame(x: np.ndarray, dec: AtomicDecomposition, e_out: int = 1, e_in: int = 1,
              dec_in: AtomicDecomposition | None = None) -> np.ndarray:
    """(U†⊗1_{E_out})·x·(U_in⊗1_{E_in}) as a (d, e_out, d_in, e_in) array;
    U_in is the frame of ``dec_in``, default ``dec``."""
    u_in = (dec if dec_in is None else dec_in).u_alg
    rows = _on_system(dag(dec.u_alg), x, e_out)
    t = _on_system(u_in.T, rows.T, e_in).T
    return t.reshape(dec.d, e_out, u_in.shape[0], e_in)


def _from_frame(t: np.ndarray, dec: AtomicDecomposition,
                dec_in: AtomicDecomposition | None = None) -> np.ndarray:
    """Inverse of :func:`_to_frame`: the (d·e_out) × (d_in·e_in) matrix."""
    u_in = (dec if dec_in is None else dec_in).u_alg
    d, e_out, d_in, e_in = t.shape
    rows = _on_system(dec.u_alg, t.reshape(d * e_out, d_in * e_in), e_out)
    return _on_system(np.conj(u_in), rows.T, e_in).T


def _factor_block(t: np.ndarray, da: int, db: int, s: slice) -> np.ndarray:
    """Diagonal block ``s`` of a frame array as a (d_A, d_B·e_out, d_A, d_B·e_in)
    view of ``t``."""
    return t[s, :, s, :].reshape(da, db * t.shape[1], da, db * t.shape[3])


def _trace_a(blk: np.ndarray) -> np.ndarray:
    """Tr_A(blk)/d_A."""
    return np.einsum("abac->bc", blk) / blk.shape[0]


def _trace_b(blk: np.ndarray) -> np.ndarray:
    """Tr_B(blk)/d_B, for a block without environment slots."""
    return np.einsum("abcb->ac", blk) / blk.shape[1]


def _embed_a(blk: np.ndarray, y: np.ndarray) -> None:
    """Write 1_A⊗y into the zero block view ``blk``."""
    np.einsum("abac->abc", blk)[...] = y


def _embed_b(blk: np.ndarray, x: np.ndarray) -> None:
    """Write x⊗1_B into the zero block view ``blk`` (x may be rectangular)."""
    np.einsum("abcb->acb", blk)[...] = x[:, :, None]


def _factor_traces(t: np.ndarray, dec: AtomicDecomposition, trace) -> list[np.ndarray]:
    """``trace`` of every factor block of the frame array ``t``."""
    return [trace(_factor_block(t, da, db, s)) for da, db, s in _blocks(dec)]


def _lift(dec: AtomicDecomposition, parts, embed, e_out: int = 1, e_in: int = 1,
          null: np.ndarray | None = None) -> np.ndarray:
    """Σ_i (P_i†⊗1)·embed(parts[i])·(P_i⊗1), plus the frame null block ``null``."""
    t = np.zeros((dec.d, e_out, dec.d, e_in), dtype=np.complex128)
    if null is not None:
        t[: dec.d0, :, : dec.d0, :] = null
    for (da, db, s), part in zip(_blocks(dec), parts):
        embed(_factor_block(t, da, db, s), part)
    return _from_frame(t, dec)


# ---------------------------------------------------------------------------
# basis-level operations
# ---------------------------------------------------------------------------

def _orthonormal_matrices(mats, d: int, tol: float) -> list[np.ndarray]:
    sb = orthonormalize_span([vec(m) for m in mats], tol=tol, ambient_dim=d * d)
    return [sb.vectors[k].reshape(d, d) for k in range(sb.count)]


def _span_residual(x: np.ndarray, basis: list[np.ndarray]) -> float:
    if not basis:
        return frob(x)
    v = vec(x)
    b = np.stack([vec(m) for m in basis], axis=0)
    coeff = np.conj(b) @ v
    return float(np.linalg.norm(v - b.T @ coeff))


def close_star_algebra(generators, unital: bool, tol: float = TOL_RANK,
                       dim: int | None = None) -> AlgebraBasis:
    """Smallest *-closed, product-closed subspace containing the generators.

    Sweeps adjoints and pairwise products into the span until the dimension
    stabilizes.  With ``unital=True`` the identity is included up front.
    With no generators at all, ``dim`` fixes the ambient space (the scalars
    on C¹ when omitted).
    """
    gens = [asmatrix(g) for g in generators]
    dims = {g.shape for g in gens}
    if any(r != c for r, c in dims):
        raise ValueError("generators must be square")
    if len(dims) > 1:
        raise ValueError("generators must share one dimension")
    if dim is not None and gens and gens[0].shape[0] != dim:
        raise ValueError("dim contradicts the generators' dimension")
    if not gens and not unital:
        raise ValueError("need at least one generator or unital=True")
    d = gens[0].shape[0] if gens else (1 if dim is None else int(dim))
    seed = list(gens)
    if unital:
        seed.append(eye(d))
    basis = _orthonormal_matrices(seed, d, tol)
    while True:
        candidates = list(basis)
        candidates += [dag(b) for b in basis]
        candidates += [a @ b for a in basis for b in basis]
        new_basis = _orthonormal_matrices(candidates, d, tol)
        if len(new_basis) == len(basis):
            basis = new_basis
            break
        basis = new_basis
    ident = subspace_residual(
        orthonormalize_span([vec(b) for b in basis], tol=tol), vec(eye(d))
    )
    return AlgebraBasis(d, basis, contains_identity=bool(ident <= tol * np.sqrt(d)))


def membership_residual(x: np.ndarray, alg: AlgebraBasis) -> float:
    """Frobenius distance from x to span(alg)."""
    x = asmatrix(x)
    if x.shape != (alg.ambient_dim, alg.ambient_dim):
        raise ValueError("dimension mismatch")
    return _span_residual(x, alg.basis)


def commutant(alg: AlgebraBasis, tol: float = TOL_RANK) -> AlgebraBasis:
    """Commutant 𝒜′ as the nullspace of the stacked maps X ↦ b_iX − Xb_i."""
    d = alg.ambient_dim
    if not alg.basis:
        full = [np.zeros((d, d), dtype=np.complex128) for _ in range(d * d)]
        for k in range(d * d):
            full[k][k // d, k % d] = 1.0
        return AlgebraBasis(d, full, contains_identity=True)
    stacked = np.empty((alg.dim * d * d, d * d), dtype=np.complex128)
    ident = eye(d)
    for k, b in enumerate(alg.basis):
        stacked[k * d * d : (k + 1) * d * d] = kron(b, ident) - kron(ident, b.T)
    # for a central basis the stacked commutators are pure rounding noise, so
    # the cutoff is anchored to the basis scale as well
    null_rows = null_space(stacked, tol, max(frob(b) for b in alg.basis))
    return AlgebraBasis(d, list(null_rows.reshape(-1, d, d)), contains_identity=True)


def closure_residuals(alg: AlgebraBasis) -> tuple[float, float]:
    """(adjoint, product) closure residuals of the basis; both ~0 for algebras,
    NaN if any residual is NaN."""
    adj = _worst([_span_residual(dag(a), alg.basis) for a in alg.basis])
    prod = _worst([_span_residual(a @ b, alg.basis)
                   for a in alg.basis for b in alg.basis])
    return adj, prod


# ---------------------------------------------------------------------------
# pattern helpers for a known decomposition
# ---------------------------------------------------------------------------

def _unit_images(dec: AtomicDecomposition, mids) -> list[np.ndarray]:
    """U(0 ⊕ … E_ac⊗M_i …)U† for each factor i (M_i = ``mids[i]``) and each
    matrix unit E_ac on A_i, in factor order and (a, c) row-major."""
    out = []
    for (da, db, s), m in zip(_blocks(dec), mids):
        w = dec.u_alg[:, s].reshape(dec.d, da, db)
        units = np.einsum("xab,ycb->acxy", w @ m, np.conj(w))
        out.extend(units.reshape(da * da, dec.d, dec.d))
    return out


def algebra_pattern_basis(dec: AtomicDecomposition, normalized: bool = True) -> list[np.ndarray]:
    """HS-orthonormal basis of the algebra determined by ``dec``.

    One element per matrix unit on each A-factor: U(0 ⊕ … E_ab⊗1_B …)U†/√d_B.
    """
    return _unit_images(dec, [eye(db) / np.sqrt(db) if normalized else eye(db)
                              for _, db in dec.factors])


def algebra_project(x: np.ndarray, dec: AtomicDecomposition) -> np.ndarray:
    """HS-orthogonal projection of x onto the algebra of ``dec``."""
    return _lift(dec, _factor_traces(_to_frame(asmatrix(x), dec), dec, _trace_b), _embed_b)


def commutant_project(x: np.ndarray, dec: AtomicDecomposition) -> np.ndarray:
    """HS-orthogonal projection of x onto the commutant 𝒜′ of ``dec``.

    The commutant keeps the full null block: 𝒜′ = U(L(H₀) ⊕ ⊕ 1_{A_i}⊗L(H_{B_i}))U†,
    so this is :func:`twirl_to_commutant` plus P₀†P₀·x·P₀†P₀.
    """
    p0 = dec.p_null()
    return twirl_to_commutant(x, dec) + dag(p0) @ (p0 @ asmatrix(x) @ dag(p0)) @ p0


def pattern_residual(x: np.ndarray, dec: AtomicDecomposition) -> float:
    """Frobenius distance of x from the algebra of ``dec``."""
    return frob(asmatrix(x) - algebra_project(x, dec))


def invariance_residuals(apply, dec_in: AtomicDecomposition,
                         dec_out: AtomicDecomposition | None = None) -> list[float]:
    """pattern_residual(apply(X̂), dec_out) for each X̂ of
    ``algebra_pattern_basis(dec_in)``, in that order (``dec_out`` defaults
    to ``dec_in``)."""
    dec_out = dec_in if dec_out is None else dec_out
    return [pattern_residual(apply(x), dec_out) for x in algebra_pattern_basis(dec_in)]


def _worst(residuals) -> float:
    """Largest residual, 0.0 for none; NaN if any residual is NaN, so that a
    check written ``not worst <= limit`` fails on it."""
    return float(np.max(residuals, initial=0.0))


# ---------------------------------------------------------------------------
# exact twirls
# ---------------------------------------------------------------------------

def twirl_to_commutant(x: np.ndarray, dec: AtomicDecomposition) -> np.ndarray:
    """Average of ``Û† x Û`` over the algebra's unitaries (zero on the null part).

    Closed form: in the ``u_alg`` frame all blocks touching H₀ and all
    off-diagonal factor blocks vanish, and diagonal block i becomes
    ``1_{A_i} ⊗ Tr_{A_i}(X_ii)/d_{A_i}``.  Idempotent; range inside 𝒜′.
    """
    x = asmatrix(x)
    if x.shape != (dec.d, dec.d):
        raise ValueError("dimension mismatch")
    return _lift(dec, _factor_traces(_to_frame(x, dec), dec, _trace_a), _embed_a)


def twirl_intertwiner(v: np.ndarray, dec: AtomicDecomposition, e: int) -> np.ndarray:
    """Average ``(Û†⊗1_E) v Û`` — the projection used to split off B from V.

    Returns ``B = Σ_i (P_i†⊗1_E)(1_{A_i}⊗B_i)P_i`` with
    ``B_i = Tr_{A_i}[(P_i⊗1_E) v P_i†]/d_{A_i}``; B intertwines the algebra
    action: ``(X_𝒜⊗1_E)B = B X_𝒜``.
    """
    v = asmatrix(v)
    d = dec.d
    if v.shape != (d * e, d):
        raise ValueError(f"expected shape {(d * e, d)}, got {v.shape}")
    return _lift(dec, _factor_traces(_to_frame(v, dec, e), dec, _trace_a), _embed_a, e)


@dataclass
class IntertwinerParts:
    """Blocks of an operator satisfying ``(X̂⊗1_E)b = b(X̂⊗1_Ẽ)`` for all X̂ ∈ 𝒜."""

    b0: np.ndarray
    b_i: list[np.ndarray]


def intertwiner_decompose(
    b: np.ndarray,
    dec: AtomicDecomposition,
    e_out: int,
    e_in: int,
    tol: float = TOL_RANK,
) -> IntertwinerParts:
    """Extract {B₀, B_i} from an intertwiner b ∈ L(H⊗H_Ẽ; H⊗H_E).

    Raises :class:`NotIntertwiner` if b does not satisfy the half-commutation
    relation, or if the extracted blocks fail to reassemble b (also when b
    holds a NaN).
    """
    b = asmatrix(b)
    d = dec.d
    if b.shape != (d * e_out, d * e_in):
        raise ValueError(f"expected shape {(d * e_out, d * e_in)}, got {b.shape}")
    scale = max(1.0, frob(b))
    worst = _worst([
        frob(_on_system(xhat, b, e_out) - _on_system(xhat.T, b.T, e_in).T)
        for xhat in algebra_pattern_basis(dec)
    ])
    if not worst <= tol * scale * 10:
        raise NotIntertwiner("input does not intertwine the algebra action", residual=worst)

    t = _to_frame(b, dec, e_out, e_in)
    null = t[: dec.d0, :, : dec.d0, :]
    parts = _factor_traces(t, dec, _trace_a)
    res = frob(_lift(dec, parts, _embed_a, e_out, e_in, null=null) - b)
    if not res <= 1e-9 * scale * 10:
        raise NotIntertwiner("block reassembly does not reproduce the input", residual=res)
    return IntertwinerParts(b0=null.reshape(dec.d0 * e_out, dec.d0 * e_in), b_i=parts)


# ---------------------------------------------------------------------------
# atomic decomposition
# ---------------------------------------------------------------------------

def _cluster_eigenvalues(w: np.ndarray, gap_tol: float) -> list[np.ndarray] | None:
    """Group sorted eigenvalues into clusters; None if any gap is ambiguous.

    Gaps below gap_tol/100 merge, gaps above gap_tol split; anything between
    signals a failed genericity draw.
    """
    order = np.argsort(w)
    clusters = [[order[0]]]
    for prev, cur in zip(order[:-1], order[1:]):
        gap = w[cur] - w[prev]
        if gap < gap_tol / 100.0:
            clusters[-1].append(cur)
        elif gap >= gap_tol:
            clusters.append([cur])
        else:
            return None
    return [np.asarray(c) for c in clusters]


def _center_coefficients(basis: list[np.ndarray], tol: float) -> np.ndarray:
    """Coefficient vectors c, one per row, with Σ c_k b_k commuting with every b_j."""
    m = len(basis)
    ds = basis[0].shape[0]
    rows = np.zeros((m * ds * ds, m), dtype=np.complex128)
    for j, bj in enumerate(basis):
        for k, bk in enumerate(basis):
            rows[j * ds * ds : (j + 1) * ds * ds, k] = vec(bk @ bj - bj @ bk)
    # for an abelian basis every commutator is ~eps: anchor to the basis scale
    return null_space(rows, tol, max(frob(b) for b in basis))


def _fingerprint(block: np.ndarray) -> tuple:
    ev = np.linalg.eigvals(block)
    pairs = sorted((round(z.real / 1e-6) * 1e-6, round(z.imag / 1e-6) * 1e-6) for z in ev)
    return tuple(pairs)


def atomic_decompose(
    alg: AlgebraBasis,
    tol: float = TOL_RANK,
    seed: int = 0,
) -> AtomicDecomposition:
    """Compute the structural (null ⊕ factors) form of a *-closed algebra.

    Pipeline: restrict to the joint support, split the support along the
    spectrum of a generic self-adjoint central element (one cluster per
    factor), split each factor along a generic self-adjoint algebra element
    (d_A distinct eigenvalues of multiplicity d_B), align the degenerate
    eigenframes with algebra partial isometries, and verify the block pattern
    on every input basis element.  Retries with a fresh derived seed on any
    genericity failure.
    """
    d = alg.ambient_dim
    closure = _worst(closure_residuals(alg))
    if not closure <= max(tol * 100, 1e-8):
        raise NotClosed("basis is not closed under adjoint/product", residual=closure)

    # support / null split (shared by all attempts; eigh is deterministic)
    if alg.dim == 0:
        return AtomicDecomposition(d=d, u_alg=eye(d), d0=d, factors=[])
    s_op = sum(dag(b) @ b for b in alg.basis)
    w, vecs = np.linalg.eigh(s_op)
    wmax = float(w[-1])
    if wmax <= 0:
        return AtomicDecomposition(d=d, u_alg=eye(d), d0=d, factors=[])
    null_mask = w <= tol * wmax
    d0 = int(np.count_nonzero(null_mask))
    e_null = vecs[:, null_mask]
    e_supp = vecs[:, ~null_mask]
    ds = d - d0
    restricted = [dag(e_supp) @ b @ e_supp for b in alg.basis]

    center_coeffs = _center_coefficients(restricted, tol)
    n_factors_expected = center_coeffs.shape[0]
    if n_factors_expected == 0:
        raise DecompositionFailed("support algebra has an empty center")

    base_rng = CounterRng(seed)
    last_residual = float("nan")
    for attempt in range(_MAX_RETRIES):
        rng = base_rng.derive(attempt)
        try:
            dec = _attempt_decompose(
                alg, restricted, center_coeffs, e_null, e_supp, d, d0, ds, tol, rng
            )
        except _GenericityFailure as exc:
            last_residual = exc.residual
            continue
        return dec
    raise DecompositionFailed(
        f"no generic split found in {_MAX_RETRIES} attempts", residual=last_residual
    )


class _GenericityFailure(Exception):
    def __init__(self, residual: float = float("nan")):
        self.residual = residual


def _generic_self_adjoint(mats: list[np.ndarray], rng: CounterRng) -> np.ndarray:
    x = sum(rng.gauss() * m for m in mats)
    return 0.5 * (x + dag(x))


def _attempt_decompose(alg, restricted, center_coeffs, e_null, e_supp,
                       d, d0, ds, tol, rng) -> AtomicDecomposition:
    n_factors = center_coeffs.shape[0]
    center_mats = [
        sum(c[k] * restricted[k] for k in range(len(restricted)))
        for c in center_coeffs
    ]
    z = _generic_self_adjoint(center_mats, rng)
    wz, vz = np.linalg.eigh(z)
    spread = max(float(wz[-1] - wz[0]), 1.0)
    clusters = _cluster_eigenvalues(wz, _GAP_FRACTION * spread)
    if clusters is None or len(clusters) != n_factors:
        raise _GenericityFailure()

    factor_cols: list[np.ndarray] = []
    factor_dims: list[tuple[int, int]] = []
    for cl in clusters:
        f_i = vz[:, cl]  # ds × n_i
        n_i = f_i.shape[1]
        fac_basis = [dag(f_i) @ m @ f_i for m in restricted]
        x = _generic_self_adjoint(fac_basis, rng)
        wx, vx = np.linalg.eigh(x)
        spread_x = max(float(wx[-1] - wx[0]), 1.0)
        sub = _cluster_eigenvalues(wx, _GAP_FRACTION * spread_x)
        if sub is None:
            raise _GenericityFailure()
        sizes = {len(c) for c in sub}
        if len(sizes) != 1:
            raise _GenericityFailure()
        db = sizes.pop()
        da = len(sub)
        if da * db != n_i:
            raise _GenericityFailure()

        frames = [vx[:, c] for c in sub]  # each n_i × db
        if da > 1:
            y = sum(rng.complex_matrix(1, 1)[0, 0] * m for m in fac_basis)
            aligned = [frames[0]]
            scale_y = max(frob(y), 1e-30)
            for a in range(1, da):
                m_a = dag(frames[a]) @ y @ frames[0]
                sv = np.linalg.svd(m_a, compute_uv=False)
                if sv.size == 0 or sv[-1] < 1e-8 * scale_y:
                    raise _GenericityFailure()
                u_m, _, vh_m = np.linalg.svd(m_a)
                aligned.append(frames[a] @ (u_m @ vh_m))
        else:
            aligned = frames

        cols = np.concatenate(aligned, axis=1)  # order (a, b) row-major, f_i frame
        factor_cols.append(e_supp @ f_i @ cols)
        factor_dims.append((da, db))

    # deterministic factor order: (d_A, d_B), then the spectral fingerprint
    # of the first input basis element compressed to the factor subspace
    b1 = alg.basis[0]
    keyed = []
    for cols, dims in zip(factor_cols, factor_dims):
        fp = _fingerprint(dag(cols) @ b1 @ cols)
        keyed.append((dims, fp, cols))
    keyed.sort(key=lambda t: (t[0], t[1]))

    columns = [_phase_fix_columns(e_null)]
    factors = []
    for dims, _, cols in keyed:
        columns.append(_phase_fix_factor(cols, *dims))
        factors.append(dims)
    u_alg = np.concatenate(columns, axis=1) if columns else eye(d)

    dec = AtomicDecomposition(d=d, u_alg=u_alg, d0=d0, factors=factors)
    worst = 0.0
    for b in alg.basis:
        worst = max(worst, pattern_residual(b, dec))
    if worst > max(1e-9, tol * 10):
        raise _GenericityFailure(residual=worst)
    return dec


def _phase_fix_columns(cols: np.ndarray) -> np.ndarray:
    """Multiply each column by a phase making its largest entry real positive."""
    out = cols.copy()
    for j in range(out.shape[1]):
        v = out[:, j]
        k = int(np.argmax(np.abs(v)))
        if abs(v[k]) > 0:
            out[:, j] = v * (np.conj(v[k]) / abs(v[k]))
    return out


def _phase_fix_factor(cols: np.ndarray, da: int, db: int) -> np.ndarray:
    """Phase-fix an aligned (d_A·d_B)-column factor frame.

    Only phases of the structured form α_a + β_b keep the X_A⊗1_B block
    pattern, so we fix the β_b from the first eigenframe's columns and one
    α_a per remaining frame (from its first column).
    """
    w = cols.reshape(cols.shape[0], da, db).copy()
    for b in range(db):
        v = w[:, 0, b]
        k = int(np.argmax(np.abs(v)))
        if abs(v[k]) > 0:
            w[:, :, b] *= np.conj(v[k]) / abs(v[k])
    for a in range(1, da):
        v = w[:, a, 0]
        k = int(np.argmax(np.abs(v)))
        if abs(v[k]) > 0:
            w[:, a, :] *= np.conj(v[k]) / abs(v[k])
    return w.reshape(cols.shape[0], da * db)


def algebra_from_decomposition(dec: AtomicDecomposition) -> AlgebraBasis:
    """The AlgebraBasis corresponding to an AtomicDecomposition."""
    basis = algebra_pattern_basis(dec)
    contains_identity = dec.d0 == 0 and bool(dec.factors)
    return AlgebraBasis(dec.d, basis, contains_identity=contains_identity)
