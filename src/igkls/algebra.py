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
these private helpers, the pattern-basis loop :func:`invariance_residuals`
and the batched pattern check ``_pattern_residuals`` behind it.

The two exact averaging operations (`twirl_to_commutant`,
`twirl_intertwiner`) replace group integrals by closed-form partial traces,
which is exact in finite dimension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailed, NotClosed, NotIntertwiner, limit, verify
from .linalg import (
    TOL_RANK,
    _linear_scale,
    _on_system,
    _rank,
    asmatrix,
    dag,
    eye,
    frob,
    null_space,
    row_space,
    vec,
)
from .rng import CounterRng

_MAX_RETRIES = 8
_GAP_FRACTION = 1e-6  # minimal relative eigenvalue gap for a generic element
# largest dist(x†, span)/‖x‖_F, x a generic element, of a span that
# `commutant` treats as *-closed; an orthonormalised algebra basis has ~1e-15
_STAR_CLOSED = 1e-12
# least σ_min/‖y‖_F of the block of y that aligns two eigenframes of a factor
_ALIGN_FLOOR = 1e-8
_FINGERPRINT_QUANTUM = 1e-6  # eigenvalue rounding of a factor's fingerprint


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
#
# Each construction that would stack one map per basis element (m = dim 𝒜 of
# them) instead takes two generic elements x = Σ g_k b_k and y of the span,
# works in the eigenframe of h = (x + x†)/2 (the commutant's Z are
# block-diagonal there; the decomposition's factors are the groups of
# eigenspaces of h that y links, with no centre) and checks its answer exactly
# against the whole basis; a failed draw retries with a derived seed
# (Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010).

# size of one batched product stack: a larger one is mapped and page-faulted
# in again on every call.  A d = 12 commutation residual takes 286 µs at 64 KiB
# (0 minor faults), 420 µs at 256 KiB (150), 618 µs at 1 MiB (130) and 536 µs
# as all pairs in two GEMMs (292); at d = 8 88, 74, 73 and 56 µs, fault free
# (2-CPU x86-64, 1 BLAS thread): the d = 12 loss outweighs the d = 8 gain
_STACK_BYTES = 1 << 16


def _stacked(mats, d: int) -> np.ndarray:
    """The matrices as one (n, d, d) complex array."""
    return np.asarray(mats, dtype=np.complex128).reshape(-1, d, d)


def _span_residuals(rows: np.ndarray, basis_rows: np.ndarray) -> np.ndarray:
    """‖r − Πr‖ for each row r of ``rows``; Π projects onto the span of the
    orthonormal rows ``basis_rows``."""
    return np.linalg.norm(rows - (rows @ np.conj(basis_rows.T)) @ basis_rows, axis=1)


def _chunks(n: int, per_item: int):
    """Slices of range(n) whose items take at most _STACK_BYTES together."""
    step = max(1, _STACK_BYTES // max(per_item, 1))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _commutation_residual(left, right) -> float:
    """Largest ‖[a, b]‖_F over a ∈ ``left``, b ∈ ``right`` (0.0 for none),
    batched; NaN if any entry is NaN."""
    if not len(left) or not len(right):
        return 0.0
    d = np.shape(left[0])[0]
    a, b = _stacked(left, d), _stacked(right, d)
    return _worst([_worst(np.linalg.norm(a[s, None] @ b - b @ a[s, None], axis=(2, 3)))
                   for s in _chunks(len(a), 16 * len(b) * d * d)])


def _ad_stack(xs, blocks) -> np.ndarray:
    """[ad_x; ad_y; …] on the X that vanish outside the diagonal blocks
    (``blocks``, slices) of the frame: for each x the d² × Σn_k² matrix of
    X ↦ xX − Xx, rows the row-major vec(xX − Xx), columns the entries of
    each block in turn, row-major.  With the single block [0, d) this is
    x⊗1 − 1⊗xᵀ on vec(X), written without a kron."""
    d = xs[0].shape[0]
    cols = []
    for s in blocks:
        n = s.stop - s.start
        t = np.zeros((len(xs), d, d, n, n), dtype=np.complex128)
        for x, tx in zip(xs, t):
            # the unit E_lj of the block goes to x[:, l]·e_jᵀ − e_l·x[j, :]
            np.einsum("iclc->icl", tx[:, s])[...] = x[:, s][:, None, :]
            np.einsum("icij->icj", tx[s])[...] -= x[s].T[None]
        cols.append(t.reshape(-1, n * n))
    return np.concatenate(cols, axis=1)


class _GenericityFailure(Exception):
    def __init__(self, residual: float = float("nan")):
        self.residual = residual


def _generic_elements(mats: np.ndarray, rng: CounterRng, count: int) -> list[np.ndarray]:
    """``count`` independent elements Σ g_k·mats[k] with complex Gaussian g."""
    g = rng.complex_matrix(count, len(mats))
    return list((g @ mats.reshape(len(mats), -1)).reshape(count, *mats.shape[1:]))


def _retry_generic(attempt, seed: int, what: str):
    """``attempt(rng)`` with the derived stream of each retry in turn, until
    it does not raise :class:`_GenericityFailure`."""
    base_rng = CounterRng(seed)
    last_residual = float("nan")
    for k in range(_MAX_RETRIES):
        try:
            return attempt(base_rng.derive(k))
        except _GenericityFailure as exc:
            last_residual = exc.residual
    raise DecompositionFailed(f"no generic {what} found in {_MAX_RETRIES} attempts",
                              residual=last_residual)


def close_star_algebra(generators, unital: bool, tol: float = TOL_RANK,
                       dim: int | None = None) -> AlgebraBasis:
    """Smallest *-closed, product-closed subspace containing the generators.

    The span of the words in G = span(generators ∪ adjoints), which is
    *-closed: each sweep multiplies the directions the previous sweep added
    by an orthonormal basis of G from the left and keeps what is new, until
    nothing is (one sweep per word length, so a single diagonal generator
    with d distinct eigenvalues takes d sweeps).  Each sweep keeps the
    :func:`~igkls.linalg.row_space` of its candidate block, projected off
    the basis, at scale 1; a block with ‖cand‖_F ≤ tol/2 has none and ends
    the closure without a factorization.
    With ``unital=True`` the identity is included up front; otherwise the
    letters' orthonormal rows are the starting basis.  With no generators at
    all, ``dim`` fixes the ambient space (the scalars on C¹ when omitted).
    A generator with a NaN or infinite entry raises :class:`NotClosed`.
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
    size = _worst([frob(g) for g in gens])
    if not np.isfinite(size):
        raise NotClosed("generators hold a non-finite entry", residual=size)
    d = gens[0].shape[0] if gens else (1 if dim is None else int(dim))
    letters = gens + [dag(g) for g in gens]
    rows = row_space(_stacked(letters, d).reshape(-1, d * d), tol, 0.0)
    left = _stacked(rows, d)[:, None]
    basis = row_space(_stacked(letters + [eye(d)], d).reshape(-1, d * d), tol, 0.0) if unital else rows
    new = basis
    while len(new) and len(left):
        cand = (left @ _stacked(new, d)).reshape(-1, d * d)
        for _ in range(2):  # the second pass restores orthogonality to ~eps
            cand -= (cand @ np.conj(basis.T)) @ basis
        # the candidates are products of HS-unit matrices: norm at most 1
        new = row_space(cand, tol, 1.0)
        basis = np.concatenate([basis, new])
    ident = _span_residuals(vec(eye(d))[None], basis)[0]
    return AlgebraBasis(d, list(_stacked(basis, d)),
                        contains_identity=bool(ident <= tol * np.sqrt(d)))


def membership_residual(x: np.ndarray, alg: AlgebraBasis) -> float:
    """Frobenius distance from x to span(alg)."""
    x = asmatrix(x)
    d = alg.ambient_dim
    if x.shape != (d, d):
        raise ValueError("dimension mismatch")
    return float(_span_residuals(vec(x)[None], _stacked(alg.basis, d).reshape(-1, d * d))[0])


def commutant(alg: AlgebraBasis, tol: float = TOL_RANK) -> AlgebraBasis:
    """Commutant 𝒜′ of span(alg): the Z with [x, Z] = [y, Z] = 0 for two
    generic elements x, y of the span.

    For a *-closed span, h = (x + x†)/2 lies in the span, so every element
    of 𝒜′ commutes with h and is block-diagonal on the eigenspaces of h:
    the null space is taken over the block-diagonal Z in the eigenframe of
    h, a 2d² × Σn_k² stack for eigenvalue clusters of sizes n_k.  A span
    that is not *-closed (x† farther than 10⁻¹²·‖x‖_F from it; for generic x,
    iff some b_j† is outside) takes the identity frame with one cluster, the
    2d² × d² stack.

    The null space always contains 𝒜′ provided no cluster splits a true
    eigenspace of h.  With s = max(spread of the eigenvalues, 1), clusters
    merge gaps below 10⁻⁸·s (rounding splits a degenerate eigenvalue far
    less) and a gap between 10⁻⁸·s and 10⁻⁶·s retries the draw
    (:func:`_eigenspaces`), so none does.  The null space is kept
    once each of its elements commutes with every basis element, which
    shows only that it lies inside 𝒜′; else the draw is retried.  The
    largest ‖[c, b]‖_F of the kept draw is verified as ``commutation``
    against the limit it was accepted under.  A basis with a NaN or
    infinite entry, or no draw accepted, raises :class:`DecompositionFailed`.
    """
    d = alg.ambient_dim
    if not alg.basis:
        return AlgebraBasis(d, list(eye(d * d).reshape(d * d, d, d)), contains_identity=True)
    mats = _stacked(alg.basis, d)
    scale = max(frob(b) for b in mats)
    if not np.isfinite(scale):
        raise DecompositionFailed("basis holds a non-finite entry", residual=scale)
    flat = mats.reshape(len(mats), -1)
    bound = limit(tol, scale, 100)

    def attempt(rng):
        x, y = _generic_elements(mats, rng, 2)
        star_closed = _span_residuals(vec(dag(x))[None], flat)[0] <= _STAR_CLOSED * frob(x)
        frame, blocks = _eigenspaces(0.5 * (x + dag(x))) if star_closed else (eye(d), [slice(0, d)])
        if blocks is None:
            raise _GenericityFailure()
        xf, yf = dag(frame) @ x @ frame, dag(frame) @ y @ frame
        # for a central span the stack is pure rounding noise, so the cutoff
        # is anchored to the elements' scale as well
        rows = null_space(_ad_stack([xf, yf], blocks), tol, max(frob(x), frob(y)))
        z = np.zeros((len(rows), d, d), dtype=np.complex128)
        pos = 0
        for s in blocks:
            n = s.stop - s.start
            z[:, s, s] = rows[:, pos:pos + n * n].reshape(-1, n, n)
            pos += n * n
        comm = frame @ z @ dag(frame)
        res = _commutation_residual(comm, mats)
        if not res <= bound:
            raise _GenericityFailure(residual=res)
        return comm, res

    comm, res = _retry_generic(attempt, 0, "commutant draw")
    verify("commutation", res, bound, DecompositionFailed,
           "commutant elements do not commute with the basis")
    return AlgebraBasis(d, list(comm), contains_identity=True)


def closure_residuals(alg: AlgebraBasis) -> tuple[float, float]:
    """(adjoint, product) closure residuals of the orthonormal basis, the
    largest distance of any b_j† and any product b_j·b_k from the span; both
    ~0 for algebras, NaN if any residual is NaN.  One matmul of each left
    factor against the stacked basis, then one projection."""
    d = alg.ambient_dim
    mats = _stacked(alg.basis, d)
    rows = mats.reshape(-1, d * d)
    prod = _worst([_worst(_span_residuals((mats[s, None] @ mats[None]).reshape(-1, d * d), rows))
                   for s in _chunks(len(mats), 16 * len(mats) * d * d)])
    adj = _span_residuals(np.conj(mats.transpose(0, 2, 1)).reshape(len(mats), -1), rows)
    return _worst(adj), prod


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
    return float(_pattern_residuals(asmatrix(x)[None], dec)[0])


def _pattern_residuals(xs, dec: AtomicDecomposition) -> np.ndarray:
    """Frobenius distance of each matrix of ``xs`` from the algebra of
    ``dec``, the row norms of :func:`_pattern_defects`.  A NaN in one matrix
    is NaN in its slot only."""
    return np.linalg.norm(_pattern_defects(xs, dec), axis=1)


def _pattern_defects(xs, dec: AtomicDecomposition) -> np.ndarray:
    """x − π(x) in the ``u_alg`` frame, one row-major row per matrix x of
    ``xs``, for π the HS-orthogonal projection onto the algebra of ``dec``.
    One matmul moves the whole stack to the frame, where x − π(x) is t with
    each factor block t_ii replaced by t_ii − Tr_B(t_ii)/d_B ⊗ 1_B (one
    einsum per factor) and everything else kept."""
    d = dec.d
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.size and xs.shape[1:] != (d, d):
        raise ValueError(f"expected {d}×{d} matrices, got {xs.shape[1:]}")
    t = dag(dec.u_alg) @ xs.reshape(-1, d, d) @ dec.u_alg
    for da, db, s in _blocks(dec):
        blk = t[:, s, s].reshape(-1, da, db, da, db)
        np.einsum("nabcb->nacb", blk)[...] -= np.einsum("nabcb->nac", blk)[..., None] / db
    return t.reshape(len(t), d * d)


def invariance_residuals(apply, dec_in: AtomicDecomposition,
                         dec_out: AtomicDecomposition | None = None) -> list[float]:
    """pattern_residual(apply(X̂), dec_out) for each X̂ of
    ``algebra_pattern_basis(dec_in)``, in that order (``dec_out`` defaults
    to ``dec_in``); the images are checked as one stack."""
    dec_out = dec_in if dec_out is None else dec_out
    return _image_residuals(apply, algebra_pattern_basis(dec_in), dec_out).tolist()


def _image_residuals(apply, basis, dec: AtomicDecomposition) -> np.ndarray:
    """pattern_residual(apply(X), dec) for each X of ``basis``, as one stack
    (for callers that reuse one pattern basis)."""
    return _pattern_residuals([apply(x) for x in basis], dec)


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
    scale = _linear_scale(b)
    worst = _worst([
        frob(_on_system(xhat, b, e_out) - _on_system(xhat.T, b.T, e_in).T)
        for xhat in algebra_pattern_basis(dec)
    ])
    verify("intertwiner", worst, limit(tol, scale), NotIntertwiner,
           "input does not intertwine the algebra action")

    t = _to_frame(b, dec, e_out, e_in)
    null = t[: dec.d0, :, : dec.d0, :]
    parts = _factor_traces(t, dec, _trace_a)
    verify("intertwiner_reassembly", frob(_lift(dec, parts, _embed_a, e_out, e_in, null=null) - b),
           limit(tol, scale), NotIntertwiner, "block reassembly does not reproduce the input")
    return IntertwinerParts(b0=null.reshape(dec.d0 * e_out, dec.d0 * e_in), b_i=parts)


# ---------------------------------------------------------------------------
# atomic decomposition
# ---------------------------------------------------------------------------

def _eigenspaces(h: np.ndarray):
    """Eigenvectors of the self-adjoint ``h`` (columns, eigenvalues
    ascending) and the index ranges (slices) of its eigenvalue clusters;
    None for the clusters if a gap is ambiguous.  With g = ``_GAP_FRACTION``
    times the spread of the eigenvalues (at least 1), gaps below g/100
    merge, gaps of g or more split, and anything between signals a failed
    genericity draw."""
    w, v = np.linalg.eigh(h)
    tol = _GAP_FRACTION * max(float(w[-1] - w[0]), 1.0)
    gaps = np.diff(w)
    if not np.all((gaps < tol / 100.0) | (gaps >= tol)):
        return v, None
    edges = [0, *(np.flatnonzero(gaps >= tol) + 1).tolist(), len(w)]
    return v, [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _fingerprint(block: np.ndarray) -> tuple:
    q = _FINGERPRINT_QUANTUM
    return tuple(sorted((round(z.real / q) * q, round(z.imag / q) * q)
                        for z in np.linalg.eigvals(block)))


def atomic_decompose(
    alg: AlgebraBasis,
    tol: float = TOL_RANK,
    seed: int = 0,
) -> AtomicDecomposition:
    """Compute the structural (null ⊕ factors) form of a *-closed algebra.

    Pipeline: restrict to the joint support, draw two generic elements x, y
    of the span, group the eigenspaces of h = (x + x†)/2 into factors by the
    blocks of y that link them (d_A of multiplicity d_B each), refine all
    their frames by one more eigensolve, align each factor's frames with
    y's blocks (:func:`_attempt_decompose`), and verify the block pattern on
    every input basis element, which also certifies closure
    (:func:`_closure_bound`).  Retries with a fresh derived seed on any
    genericity failure.  A span that is not closed raises :class:`NotClosed`.
    """
    return _decompose_closed(alg, tol, seed)[0]


def _decompose_closed(alg: AlgebraBasis, tol: float, seed: int,
                      error: type = NotClosed) -> tuple[AtomicDecomposition, tuple[float, float]]:
    """:func:`atomic_decompose` and the (adjoint, product) closure residuals
    it verified against ``limit(tol, factor=100)``, raising ``error`` above it.

    They are bounds certified by the decomposition's final pattern check
    (:func:`_closure_bound`).  The exact O(m³d²) :func:`closure_residuals`
    runs instead, once, if the basis holds a non-finite entry, the
    decomposition fails (its :class:`DecompositionFailed` is re-raised if
    the span is closed; a span that is not closed fails every attempt's
    pattern check or has m ≠ Σ d_A²), or a bound exceeds the limit: a span
    that is not closed raises ``error``, never :class:`DecompositionFailed`.
    """
    bound = limit(tol, factor=100)
    mats = _stacked(alg.basis, alg.ambient_dim)
    closure, failure = None, None
    try:
        if not np.isfinite(mats).all():
            raise DecompositionFailed("basis holds a non-finite entry")
        dec, defects = _decompose(mats, alg.ambient_dim, tol, seed)
        closure = _closure_bound(defects)
    except DecompositionFailed as exc:
        failure = exc
    if closure is None or not max(closure) <= bound:
        closure = closure_residuals(alg)
    verify("closure_adjoint", closure[0], bound, error, "basis is not closed under adjoints")
    verify("closure_product", closure[1], bound, error, "basis is not closed under products")
    if failure is not None:
        raise failure
    return dec, closure


def _closure_bound(r: np.ndarray) -> tuple[float, float]:
    """(s + ε, s + 2ε + ε²) ≥ :func:`closure_residuals` of an HS-orthonormal
    basis b_1 … b_m, given the rows R = [vec e_1; …; vec e_m] in any
    orthonormal coordinates, e_j = b_j − π(b_j), for π the HS-orthogonal
    projection onto a *-algebra P of dimension m (the pattern algebra
    U(0 ⊕ ⊕ M_{d_A}⊗1)U†, m = Σ d_A²); ε = max_j ‖e_j‖_F and
    s = min(‖R‖_F, ‖RR†‖_F^{1/2}).

    The sines of the principal angles between S = span(b) and P are the
    singular values σ of (1 − Π_P)[b_1 … b_m], that is of R, so at most
    σ_max(R) ≤ (Σσ⁴)^{1/4} = ‖RR†‖_F^{1/2} ≤ (Σσ²)^{1/2} = ‖R‖_F, hence
    at most s; as dim S = dim P, dist(p, S) ≤ s‖p‖_F for p ∈ P.
    π(b_j)† ∈ P and ‖π(b_j)‖_F ≤ 1 give dist(b_j†, S) ≤ s + ε.
    π(b_j)π(b_k) ∈ P has norm ≤ 1, and
    b_j b_k − π(b_j)π(b_k) = e_j π(b_k) + π(b_j) e_k + e_j e_k, so
    dist(b_j b_k, S) ≤ s + 2ε + ε².
    """
    eps = np.linalg.norm(r, axis=1)
    r = r[:, np.any(r != 0, axis=0)]  # zero columns (d_B = 1 blocks) add nothing
    gram = r @ dag(r) if r.shape[0] <= r.shape[1] else dag(r) @ r  # ‖RR†‖_F = ‖R†R‖_F
    s = min(float(np.linalg.norm(eps)), float(np.sqrt(np.linalg.norm(gram))))
    e = _worst(eps)
    return s + e, s + 2 * e + e * e


def _decompose(mats: np.ndarray, d: int, tol: float,
               seed: int) -> tuple[AtomicDecomposition, np.ndarray]:
    """The decomposition of span(``mats``), a finite basis stack, and each
    basis element's residual from its pattern algebra as the rows of
    :func:`_pattern_defects`."""
    # support / null split (shared by all attempts): the null part is the
    # common kernel of the stack a = [b_1; …; b_m], the support its
    # orthogonal complement.  With 1 = Σ c_k·b_k + r, c_k = conj(tr b_k), every
    # unit v has ‖a·v‖ ≥ (1 − ‖r‖_F)/‖c‖: where the rank rule puts that
    # above its cutoff (‖a‖_F ≥ σ_max as the scale), a has no kernel
    c = np.conj(np.einsum("kii->k", mats))
    rest = frob(eye(d) - np.tensordot(c, mats, axes=1))
    full = frob(c) > 0 and _rank([(1 - rest) / frob(c)], tol, frob(mats))
    e_null = np.zeros((d, 0), complex) if full else null_space(mats.reshape(-1, d), tol, 0.0).T
    e_supp, restricted = None, mats  # no common kernel: the support is C^d
    if e_null.shape[1]:  # the complement of orthonormal columns: no rank to decide
        e_supp = np.linalg.qr(e_null, mode="complete")[0][:, e_null.shape[1]:]
        if not e_supp.shape[1]:  # also for an empty basis
            return AtomicDecomposition(d, eye(d), d, []), np.zeros((len(mats), d * d))
        restricted = dag(e_supp) @ mats @ e_supp
    return _retry_generic(
        lambda rng: _attempt_decompose(mats, restricted, e_null, e_supp, tol, rng), seed, "split")


def _attempt_decompose(mats, restricted, e_null, e_supp, tol,
                       rng) -> tuple[AtomicDecomposition, np.ndarray]:
    """One split of the support algebra span(``restricted``) from a generic
    self-adjoint h = (x + x†)/2 and a generic y (Murota et al.); ``e_supp``
    embeds the support in C^d, None for C^d itself.

    In the algebra's frame h = ⊕ h_i⊗1_{B_i} and y = ⊕ Y_i⊗1_{B_i}, so each
    eigenvalue cluster of h is e_a⊗C^{d_B} in one factor and y links
    clusters of one factor only: the factors are the connected components of
    the cluster graph whose edges are y's frame blocks above
    ``_GAP_FRACTION``·‖y‖_F.  The support algebra is unital and holds h, so it
    holds each cluster's eigenprojector P_c, and Π_S(P_c), the projection onto
    the span, is an algebra element up to second order: one eigensolve of
    z = Σ_c w_c·Π_S(P_c) gives every cluster's frame, in h's order, with gaps
    of 1.  The weights w_c = c − (n_clusters − 1)/2 are centred, as an
    identity part of z would carry the span's noise into the frames.  SVDs of
    y's d_B × d_B blocks align a factor's frames.  An attempt is kept only if
    its pattern check passes and Σ d_A² = m, so a false split or merge of
    factors is retried, never returned.
    """
    x, y = _generic_elements(restricted, rng, 2)
    h = 0.5 * (x + dag(x))
    vh, clusters = _eigenspaces(h)
    if clusters is None:
        raise _GenericityFailure()
    starts = [c.start for c in clusters]
    y_scale = frob(y)
    power = np.abs(dag(vh) @ y @ vh) ** 2
    linked = np.add.reduceat(np.add.reduceat(power, starts, axis=0), starts, axis=1) \
        > (_GAP_FRACTION * y_scale) ** 2
    reach = linked | linked.T | np.eye(len(clusters), dtype=bool)
    for _ in range(len(clusters).bit_length()):  # paths of doubling length
        reach = reach @ reach
    # factor index of each cluster, the factors ordered by first cluster
    label = np.unique(reach.argmax(axis=1), return_inverse=True)[1]
    weights = np.repeat(np.arange(len(clusters)) - (len(clusters) - 1) / 2,
                        [c.stop - c.start for c in clusters])
    rows = restricted.reshape(len(restricted), -1)
    z = ((np.conj(rows) @ ((vh * weights) @ dag(vh)).reshape(-1)) @ rows).reshape(h.shape)
    vz = np.linalg.eigh(0.5 * (z + dag(z)))[1]  # h's clusters in order, gaps of 1

    factors = []  # ((d_A, d_B), factor columns) per factor
    for k in range(label.max() + 1):
        frames = [vz[:, clusters[c]] for c in np.flatnonzero(label == k)]  # each n × d_B
        if len({f.shape[1] for f in frames}) != 1:
            raise _GenericityFailure()
        da, db = len(frames), frames[0].shape[1]
        for a in range(1, da):
            u_m, sv, vh_m = np.linalg.svd(dag(frames[a]) @ y @ frames[0])
            if sv[-1] < _ALIGN_FLOOR * y_scale:
                raise _GenericityFailure()
            frames[a] = frames[a] @ (u_m @ vh_m)
        cols = np.concatenate(frames, axis=1)  # order (a, b) row-major
        factors.append(((da, db), cols if e_supp is None else e_supp @ cols))
    # deterministic factor order: (d_A, d_B), then, between factors of equal
    # shape only, the spectral fingerprint of the fixed element Σ_k (k+1)·b_k
    # compressed to each (b_0 alone can vanish on several and leave it to the draw)
    shapes = Counter(dims for dims, _ in factors)
    if len(shapes) < len(factors):  # two factors share a shape
        probe = np.tensordot(np.arange(1.0, len(mats) + 1), mats, axes=1)
    factors.sort(key=lambda t: (t[0], _fingerprint(dag(t[1]) @ probe @ t[1])
                                if shapes[t[0]] > 1 else ()))

    d0 = e_null.shape[1]
    u_alg = np.concatenate([_phase_fix_factor(e_null, 1, d0)]
                           + [_phase_fix_factor(cols, *dims) for dims, cols in factors], axis=1)
    dec = AtomicDecomposition(d=len(u_alg), u_alg=u_alg, d0=d0,
                              factors=[dims for dims, _ in factors])
    defects = _pattern_defects(mats, dec)
    res = _worst(np.linalg.norm(defects, axis=1))
    if not res <= limit(tol) or sum(da * da for da, _ in dec.factors) != len(mats):
        raise _GenericityFailure(residual=res)
    return dec, defects


def _phase_fix_factor(cols: np.ndarray, da: int, db: int) -> np.ndarray:
    """Phase-fix an aligned (d_A·d_B)-column factor frame (with d_A = 1,
    each column on its own).

    Only phases of the structured form α_a + β_b keep the X_A⊗1_B block
    pattern, so we fix the β_b from the first eigenframe's columns and one
    α_a per remaining frame (from its first column), each by making the
    largest entry of that column real positive.
    """
    w = cols.reshape(cols.shape[0], da, db).copy()
    for b in range(db):
        w[:, :, b] *= _unit_phase(w[:, 0, b])
    for a in range(1, da):
        w[:, a, :] *= _unit_phase(w[:, a, 0])
    return w.reshape(cols.shape[0], da * db)


def _unit_phase(v: np.ndarray) -> complex:
    """conj(v_k)/|v_k| for the entry v_k of largest modulus; 1 for v = 0."""
    vk = v[int(np.argmax(np.abs(v)))]
    return np.conj(vk) / abs(vk) if abs(vk) > 0 else 1.0


def algebra_from_decomposition(dec: AtomicDecomposition) -> AlgebraBasis:
    """The AlgebraBasis corresponding to an AtomicDecomposition."""
    basis = algebra_pattern_basis(dec)
    contains_identity = dec.d0 == 0 and bool(dec.factors)
    return AlgebraBasis(dec.d, basis, contains_identity=contains_identity)
