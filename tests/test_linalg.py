"""Dense linear-algebra primitives, checked against loop-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import igkls.algebra as algebra_mod
import igkls.applications as applications
from igkls import (
    AlgebraBasis,
    AtomicDecomposition,
    algebra_from_decomposition,
    close_star_algebra,
    commutant,
    dag,
    embed_support,
    eye,
    frob,
    herm,
    im_part,
    koashi_imoto_decompose,
    kron,
    nearest_isometry,
    orthonormalize_span,
    partial_trace,
    random_instance,
    subspace_residual,
    svd_rank,
    unvec,
    vec,
)
from igkls.applications import _centred_real_generator
from igkls.io import read_meta
from igkls.linalg import (_THETA_13, _expm_scaled, _isometry_lstsq, _kron_sum, _on_env, _on_system,
                          expm, null_space, row_space)
from conftest import (
    CLI_CHAIN_CASES,
    cli_chain_instance,
    count_eigh,
    count_svd,
    crandn,
    haar_isometry,
    haar_unitary,
    kron_oracle,
    ptrace_oracle,
    rng_for,
)


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------


def test_kron_matches_quadruple_loop_oracle():
    rng = rng_for(101)
    for ra, ca, rb, cb in [(2, 3, 4, 2), (1, 1, 3, 3), (3, 2, 2, 5)]:
        a = crandn(rng, ra, ca)
        b = crandn(rng, rb, cb)
        assert frob(kron(a, b) - kron_oracle(a, b)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_kron_associative(seed):
    rng = rng_for(seed)
    dims = rng.integers(1, 4, size=6)
    a = crandn(rng, dims[0], dims[1])
    b = crandn(rng, dims[2], dims[3])
    c = crandn(rng, dims[4], dims[5])
    assert frob(kron(kron(a, b), c) - kron(a, kron(b, c))) <= 1e-12


def test_kron_mixed_product_rule():
    rng = rng_for(102)
    a, b = crandn(rng, 3, 2), crandn(rng, 2, 4)
    c, d = crandn(rng, 2, 3), crandn(rng, 3, 2)
    lhs = kron(a, c) @ kron(b, d)
    rhs = kron(a @ b, c @ d)
    assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(lhs))


# ---------------------------------------------------------------------------
# vec / unvec (row-major convention)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e", [0, 1, 3])
def test_on_system_matches_kron_with_environment_identity(e):
    rng = rng_for(104 + e)
    p = crandn(rng, 2, 3)  # rectangular system operator
    x = crandn(rng, 3 * e, 4)
    want = kron_oracle(p, np.eye(e, dtype=np.complex128)) @ x
    got = _on_system(p, x, e)
    assert got.shape == want.shape == (2 * e, 4)
    assert frob(got - want) <= 1e-13
    # the right action x·(p⊗1_E) through transposes
    y = crandn(rng, 5, 2 * e)
    right = _on_system(p.T, y.T, e).T
    assert frob(right - y @ kron_oracle(p, np.eye(e, dtype=np.complex128))) <= 1e-13


@pytest.mark.parametrize("e", [0, 1, 3])
def test_on_env_matches_kron_with_system_identity(e):
    rng = rng_for(108 + e)
    d = 3
    for rows, cols in [(e, 2), (2, e)]:  # rectangular environment maps
        w = crandn(rng, rows, cols)
        x = crandn(rng, d * cols, 4)
        want = kron_oracle(np.eye(d, dtype=np.complex128), w) @ x
        got = _on_env(w, x, d)
        assert got.shape == want.shape == (d * rows, 4)
        assert frob(got - want) <= 1e-13


@pytest.mark.parametrize("n", [0, 1, 3])
def test_kron_sum_matches_a_sum_of_krons_on_rectangular_stacks(n):
    # four different sizes pin the [i, j, p, q] order; no terms give zeros
    rng = rng_for(121 + n)
    a = crandn(rng, n * 2, 3).reshape(n, 2, 3)
    b = crandn(rng, n * 4, 5).reshape(n, 4, 5)
    want = sum((kron_oracle(x, y) for x, y in zip(a, b)), np.zeros((8, 15), dtype=np.complex128))
    got = _kron_sum(a, b)
    assert got.shape == (2, 4, 3, 5) and got.dtype == np.complex128
    assert frob(got.reshape(8, 15) - want) <= 1e-13
    assert n or not got.any()


def test_isometry_lstsq_solves_and_snaps_near_isometries():
    rng = rng_for(112)
    w0 = haar_isometry(rng, 4, 2)
    m1 = crandn(rng, 2, 6)
    assert frob(_isometry_lstsq(m1, w0 @ m1, 1e-8) - w0) <= 1e-12
    # far from an isometry: the least-squares solution is kept as it is
    a = 2.0 * w0
    assert frob(_isometry_lstsq(m1, a @ m1, 1e-8) - a) <= 1e-12
    # an empty system gives the zero map of the right shape
    assert _isometry_lstsq(np.zeros((0, 6)), crandn(rng, 4, 6), 1e-8).shape == (4, 0)


def test_vec_unvec_round_trip():
    rng = rng_for(103)
    x = crandn(rng, 3, 5)
    assert np.array_equal(unvec(vec(x), 3, 5), x)


def test_vec_of_sandwich_is_kron_action():
    # row-major convention: vec(A X B) = (A ⊗ Bᵀ) vec(X)
    rng = rng_for(104)
    a = crandn(rng, 3, 3)
    x = crandn(rng, 3, 4)
    b = crandn(rng, 4, 4)
    lhs = vec(a @ x @ b)
    rhs = kron(a, b.T) @ vec(x)
    assert frob((lhs - rhs).reshape(-1, 1)) <= 1e-12 * max(1.0, float(np.linalg.norm(lhs)))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_of_product_states():
    rng = rng_for(105)
    p = crandn(rng, 3, 3)
    q = crandn(rng, 2, 2)
    m = kron_oracle(p, q)
    out_b = partial_trace(m, 3, 2, over="B")
    out_a = partial_trace(m, 3, 2, over="A")
    assert frob(out_b - np.trace(q) * p) <= 1e-12
    assert frob(out_a - np.trace(p) * q) <= 1e-12


def test_partial_trace_matches_loop_oracle_and_preserves_trace():
    rng = rng_for(106)
    m = crandn(rng, 12, 12)
    for over, (da, db) in (("A", (3, 4)), ("B", (4, 3)), ("A", (2, 6))):
        got = partial_trace(m, da, db, over=over)
        want = ptrace_oracle(m, da, db, over=over)
        assert frob(got - want) <= 1e-13
        assert abs(np.trace(got) - np.trace(m)) <= 1e-12


def test_partial_trace_rejects_bad_shapes():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), 2, 2, over="A")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 2, 2, over="C")


# ---------------------------------------------------------------------------
# spans, ranks, residuals
# ---------------------------------------------------------------------------


def test_orthonormalize_span_dimension_matches_rank_oracle():
    rng = rng_for(107)
    amb, r = 8, 3
    gens = crandn(rng, amb, r)
    # 6 vectors, all combinations of the same r independent columns
    vectors = [gens @ crandn(rng, r, 1).reshape(-1) for _ in range(6)]
    sb = orthonormalize_span(vectors, ambient_dim=amb)
    stacked = np.stack(vectors, axis=1)
    assert sb.count == np.linalg.matrix_rank(stacked, tol=1e-9)
    gram = sb.vectors @ dag(sb.vectors)  # basis vectors are the rows
    assert frob(gram - eye(sb.count)) <= 1e-10


def test_orthonormalize_span_empty_and_zero_input():
    sb = orthonormalize_span([], ambient_dim=4)
    assert sb.count == 0 and sb.ambient_dim == 4
    sb2 = orthonormalize_span([np.zeros(4)], ambient_dim=4)
    assert sb2.count == 0


def test_subspace_residual_matches_projector_oracle():
    rng = rng_for(108)
    basis_vectors = haar_isometry(rng, 6, 2)
    sb = orthonormalize_span([basis_vectors[:, 0], basis_vectors[:, 1]], ambient_dim=6)
    # oracle projector from the known orthonormal generating columns
    proj = basis_vectors @ dag(basis_vectors)
    for _ in range(5):
        v = crandn(rng, 6, 1).reshape(-1)
        want = float(np.linalg.norm(v - proj @ v))
        assert abs(subspace_residual(sb, v) - want) <= 1e-12
    # vectors inside the span have zero residual
    inside = basis_vectors @ crandn(rng, 2, 1).reshape(-1)
    assert subspace_residual(sb, inside) <= 1e-12


def test_svd_rank_detects_constructed_rank():
    rng = rng_for(109)
    left = crandn(rng, 7, 3)
    right = crandn(rng, 3, 5)
    m = left @ right
    assert svd_rank(m) == 3
    assert svd_rank(np.zeros((4, 4))) == 0
    assert svd_rank(1e-14 * crandn(rng, 3, 3)) in (0, 3)  # relative threshold
    # scaling the matrix must not change the decision (relative cutoff)
    assert svd_rank(1e-8 * m) == 3


# ---------------------------------------------------------------------------
# embeddings and polar projections
# ---------------------------------------------------------------------------


def test_embed_support_composition():
    rng = rng_for(110)
    u = haar_unitary(rng, 6)
    p = dag(u)[:4, :]  # coisometry rows
    x = crandn(rng, 4, 4)
    emb = embed_support(x, p)
    # compressing back recovers x, and the embedding lives on the support
    assert frob(p @ emb @ dag(p) - x) <= 1e-12
    pi = dag(p) @ p
    assert frob(emb - pi @ emb @ pi) <= 1e-12


def test_nearest_isometry_projects_and_fixes_isometries():
    rng = rng_for(111)
    w = haar_isometry(rng, 5, 3)
    assert frob(nearest_isometry(w) - w) <= 1e-12
    m = w + 0.05 * crandn(rng, 5, 3)
    out = nearest_isometry(m)
    assert frob(dag(out) @ out - eye(3)) <= 1e-12
    # polar factor is the closest isometry; it must not be further than w
    assert frob(out - m) <= frob(w - m) + 1e-12


# ---------------------------------------------------------------------------
# hermitian split
# ---------------------------------------------------------------------------


def test_herm_im_part_reconstruct_and_are_selfadjoint():
    rng = rng_for(112)
    a = crandn(rng, 4, 4)
    h, im = herm(a), im_part(a)
    assert frob(h - dag(h)) <= 1e-13
    assert frob(im - dag(im)) <= 1e-13
    assert frob(a - (h + 1j * im)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_dag_is_involutive_antihomomorphism(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 5))
    a = crandn(rng, n, n)
    b = crandn(rng, n, n)
    assert np.array_equal(dag(dag(a)), a)
    assert frob(dag(a @ b) - dag(b) @ dag(a)) <= 1e-12


# ---------------------------------------------------------------------------
# null space kernel
# ---------------------------------------------------------------------------


def _null_space_reference(a, tol, scale):
    """Full-U SVD with the cutoff tol·max(σ_max, scale): (rank, null rows)."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * max(smax, scale))) if smax > 0 else 0
    return rank, np.conj(vh[rank:])


def _assert_null_space_matches_reference(a, tol, scale, proj_tol=1e-10):
    rank, want = _null_space_reference(a, tol, scale)
    got = null_space(a, tol, scale)
    assert got.shape == (a.shape[1] - rank, a.shape[1])
    assert frob(got @ dag(got) - eye(got.shape[0])) <= 1e-10
    # each row r is a null vector up to the cutoff: a·rᵀ vanishes
    assert frob(a @ got.T) <= max(tol, 1e-9) * max(frob(a), scale, 1.0)
    assert frob(got.T @ np.conj(got) - want.T @ np.conj(want)) <= proj_tol
    return got


def _planted_algebra(rng, d0, factors):
    d = d0 + sum(a * b for a, b in factors)
    dec = AtomicDecomposition(d=d, u_alg=haar_unitary(rng, d), d0=d0, factors=factors)
    return algebra_from_decomposition(dec)


def _commutator_stack(basis):
    d = basis[0].shape[0]
    return np.vstack([kron_oracle(b, eye(d)) - kron_oracle(eye(d), b.T) for b in basis])


def test_null_space_matches_full_svd_on_planted_commutant_stacks():
    rng = rng_for(113)
    shapes = [
        (0, [(2, 1), (1, 2)]),
        (1, [(2, 2), (1, 1)]),
        (2, [(2, 3)]),
        (1, [(2, 2), (3, 1), (1, 2)]),
        (0, [(3, 2), (2, 3)]),
    ]
    for d0, factors in shapes:
        alg = _planted_algebra(rng, d0, factors)
        stacked = _commutator_stack(alg.basis)
        assert stacked.shape[0] > stacked.shape[1]  # the QR branch
        bscale = max(frob(b) for b in alg.basis)
        got = _assert_null_space_matches_reference(stacked, 1e-9, bscale)
        assert got.shape[0] == d0 ** 2 + sum(db * db for _, db in factors)
        comm = commutant(alg)
        assert comm.dim == got.shape[0]


def test_null_space_noise_floor_on_central_and_abelian_bases():
    rng = rng_for(114)
    d = 6
    u = haar_unitary(rng, d)
    # a central basis: its commutator stack is pure rounding noise
    central = [u @ (eye(d) / np.sqrt(d)) @ dag(u)]
    stacked = _commutator_stack(central)
    got = _assert_null_space_matches_reference(stacked, 1e-9, 1.0)
    assert got.shape[0] == d * d
    assert commutant(AlgebraBasis(d, central)).dim == d * d
    # an abelian basis: every pairwise commutator is rounding noise, so the
    # centre-coefficient matrix must have a full null space
    abelian = _planted_algebra(rng, 0, [(1, 1)] * d).basis
    rows = np.stack(
        [np.concatenate([vec(bk @ bj - bj @ bk) for bj in abelian]) for bk in abelian],
        axis=1,
    )
    assert 0.0 < frob(rows) <= 1e-12
    got = _assert_null_space_matches_reference(rows, 1e-9, 1.0)
    assert got.shape[0] == d
    # negative control: without the floor, rounding noise counts as rank
    assert null_space(rows, 1e-9, 0.0).shape[0] < d


def test_null_space_of_pure_rounding_noise_runs_no_factorization(monkeypatch):
    # ‖a‖_F ≤ tol·scale/2 bounds σ_max below the cutoff: every row is null,
    # with no eigensolve and no SVD
    rng = rng_for(114)
    d = 6
    u = haar_unitary(rng, d)
    stacked = _commutator_stack([u @ (eye(d) / np.sqrt(d)) @ dag(u)])
    assert 0.0 < frob(stacked) <= 1e-9 / 2
    _, want = _null_space_reference(stacked, 1e-9, 1.0)
    svds = count_svd(monkeypatch)
    eighs = count_eigh(monkeypatch)
    got = null_space(stacked, 1e-9, 1.0)
    assert svds == [] and eighs == []
    monkeypatch.undo()
    assert got.shape == (d * d, d * d)
    assert frob(got.T @ np.conj(got) - want.T @ np.conj(want)) <= 1e-10


def test_null_space_noise_floor_on_a_channel_that_fixes_everything():
    rng = rng_for(115)
    d = 4
    c = crandn(rng, 3, 1).reshape(-1)
    c /= np.linalg.norm(c)
    u = haar_unitary(rng, d)
    ops = [ck * (u @ dag(u)) for ck in c]
    transfer = sum(kron_oracle(op, np.conj(op)) for op in ops) - eye(d * d)
    assert frob(transfer) <= 1e-12
    kscale = max(1.0, sum(frob(op) ** 2 for op in ops))
    got = _assert_null_space_matches_reference(transfer, 1e-12, kscale)
    assert got.shape[0] == d * d


def test_null_space_of_wide_and_square_inputs():
    rng = rng_for(116)
    wide = crandn(rng, 3, 7)
    assert _assert_null_space_matches_reference(wide, 1e-9, 0.0).shape[0] == 4
    square = crandn(rng, 6, 3) @ crandn(rng, 3, 6)
    assert _assert_null_space_matches_reference(square, 1e-9, 0.0).shape[0] == 3
    assert null_space(np.zeros((2, 5)), 1e-9, 0.0).shape == (5, 5)
    assert null_space(eye(4), 1e-9, 0.0).shape == (0, 4)


def test_null_space_keeps_a_real_input_real():
    rng = rng_for(117)
    for shape in ((4, 9), (6, 6), (12, 5)):  # wide, square, tall (R factor)
        a = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        got = null_space(a, 1e-9, 0.0)
        assert got.dtype == np.float64
        assert got.shape == (shape[1] - 3, shape[1])
        assert frob(got @ got.T - np.eye(len(got))) <= 1e-12
        assert frob(a @ got.T) <= 1e-12 * frob(a)
    assert null_space(np.eye(3, dtype=int), 1e-9, 0.0).dtype == np.float64


def _planted_singular_values(rng, m, n, s, real):
    """u·diag(s)·vᴴ for random isometries u (m × r) and v (n × r), r = len(s),
    real orthogonal ones for a real input."""
    if real:
        u, v = (np.linalg.qr(rng.standard_normal((k, len(s))))[0] for k in (m, n))
    else:
        u, v = haar_isometry(rng, m, len(s)), haar_isometry(rng, n, len(s))
    return (u * np.asarray(s)) @ dag(v)


# (tol, the planted fourth singular value over σ_max = 1, rank, whether the
# SVD answers); δ = 2·(m+n)·ε·‖a‖_F² is about 2e-14 here, and G = aᴴa
# resolves singular values down to √(2δ) ≈ 2e-7
_CERTIFICATE_CASES = [
    # above the cutoff 1e-9, below G's resolution: ‖a·V_k‖_F ≈ 1e-8 > c
    (1e-9, 1e-8, 4, True),
    # rounding level: certified null, ‖a·V_k‖_F ≤ 64·n·ε ≈ 1.7e-13
    (1e-9, 1e-13, 3, False),
    # below a loose cutoff 1e-2 but resolved by G: w_k − δ ≈ 2.5e-5 ≤ c², so
    # Weyl cannot place it above c
    (1e-2, 5e-3, 3, True),
    # below the cutoff, but rows with ‖a·V_k‖_F ≈ 1e-11 are not null to
    # a multiple of machine precision
    (1e-9, 1e-11, 3, True),
]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(16, 12), (7, 12), (12, 12)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("tol, planted, rank, by_svd", _CERTIFICATE_CASES)
def test_null_space_certificate_hands_unresolved_ranks_to_the_svd(
        monkeypatch, shape, real, tol, planted, rank, by_svd):
    m, n = shape
    a = _planted_singular_values(rng_for(118), m, n, [1.0, 0.6, 0.3, planted], real)
    calls = count_svd(monkeypatch)
    got = null_space(a, tol, 0.0)
    assert len(calls) == by_svd
    monkeypatch.undo()
    # a kept singular value of 1e-8 fixes the null space only to about
    # ε/1e-8 (Wedin), so QR + SVD and the full-U reference differ by up to
    # that much (1.3e-9 on the tall real input)
    _assert_null_space_matches_reference(a, tol, 0.0, 1e-10 if rank == 3 else 1e-7)
    assert got.shape == (n - rank, n)
    assert got.dtype == (np.float64 if real else np.complex128)


# ---------------------------------------------------------------------------
# row_space: spans from one certified eigensolve of a·aᴴ
# ---------------------------------------------------------------------------

def _assert_row_space_matches_svd(a, tol, scale, proj_tol=1e-12):
    """row_space(a) against an inlined thin SVD with the cutoff
    tol·max(σ_max, scale): the same rank, orthonormal rows, the same
    projector onto the row space."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    top = max(s[0], scale) if s.size else scale
    want = vh[:int(np.count_nonzero(s > tol * top))]
    got = row_space(a, tol, scale)
    assert got.shape == want.shape
    assert got.dtype == np.result_type(a.dtype, np.float64)
    assert frob(got @ dag(got) - np.eye(len(got))) <= proj_tol
    assert frob(dag(got) @ got - dag(want) @ want) <= proj_tol
    return got


def _spy_row_space(monkeypatch, module):
    """(a, tol, scale) of every row_space call that ``module`` makes."""
    calls = []
    real = module.row_space
    monkeypatch.setattr(module, "row_space",
                        lambda a, tol, scale: calls.append((np.array(a), tol, scale)) or real(a, tol, scale))
    return calls


@pytest.mark.parametrize("factors", [
    [(2, 2), (1, 2), (2, 1)],            # d = 8
    [(2, 2)] * 3,                        # d = 12
    [(2, 4), (2, 4), (1, 8)],            # d = 24
])
def test_row_space_matches_the_svd_on_closure_candidate_blocks(factors, monkeypatch):
    planted = _planted_algebra(rng_for(119), 0, factors)
    g = crandn(rng_for(120), 2, planted.dim)
    gens = [sum(c * b for c, b in zip(row, planted.basis)) for row in g]
    calls = _spy_row_space(monkeypatch, algebra_mod)
    close_star_algebra(gens, unital=False)
    monkeypatch.undo()
    blocks = [a for a, _, scale in calls if scale == 1.0]
    svds = count_svd(monkeypatch)
    kept = [len(_assert_row_space_matches_svd(a, 1e-9, 1.0)) for a in blocks]
    assert len(svds) == len(blocks)  # the reference's own, none in row_space
    letters = row_space(*calls[0])  # the generators and their adjoints, at scale 0
    assert calls[0][2] == 0.0 and sum(kept) == planted.dim - len(letters)


def test_row_space_matches_the_svd_on_the_koashi_imoto_dual_span(monkeypatch):
    for seed in (1, 2, 3):
        bundle = random_instance("koashi_imoto", seed=seed)
        kraus = read_meta(bundle.meta, "channel", 1e-9).schrodinger_kraus()
        calls = _spy_row_space(monkeypatch, applications)
        koashi_imoto_decompose(kraus)
        monkeypatch.undo()
        assert len(calls) == 1
        a, tol, scale = calls[0]
        assert a.dtype == np.float64 and scale == 0.0
        assert len(_assert_row_space_matches_svd(a, tol, scale)) == len(a)


def test_row_space_of_wide_tall_and_noise_inputs(monkeypatch):
    rng = rng_for(121)
    wide = crandn(rng, 5, 3) @ crandn(rng, 3, 20)
    assert len(_assert_row_space_matches_svd(wide, 1e-9, 0.0)) == 3
    tall = crandn(rng, 20, 3) @ crandn(rng, 3, 6)
    assert len(_assert_row_space_matches_svd(tall, 1e-9, 0.0)) == 3
    real = rng.standard_normal((9, 4)) @ rng.standard_normal((4, 7))
    assert len(_assert_row_space_matches_svd(real, 1e-9, 0.0)) == 4
    assert row_space(np.zeros((3, 5)), 1e-9, 0.0).shape == (0, 5)
    # pure rounding noise against a unit scale: no rows, and no factorization
    noise = 1e-17 * crandn(rng, 16, 144)
    svds, eighs = count_svd(monkeypatch), count_eigh(monkeypatch)
    assert row_space(noise, 1e-9, 1.0).shape == (0, 144)
    assert (svds, eighs) == ([], [])
    monkeypatch.undo()
    # a relative cutoff keeps all of it
    assert len(_assert_row_space_matches_svd(noise, 1e-9, 0.0)) == 16


# (tol, planted singular values, rank, whether the SVD answers); δ = 2·(m+n)·ε·‖a‖_F²
# is at most 3e-14 here, so a·aᴴ resolves singular values down to √(2δ) ≈ 2.5e-7
_ROW_SPACE_CASES = [
    # rounding level: certified, three rows
    (1e-9, [1.0, 0.6, 0.3, 1e-14], 3, False),
    # well conditioned: certified, four rows
    (1e-9, [1.0, 0.6, 0.3, 0.1], 4, False),
    # above the cutoff 1e-9, below the Gram's resolution: the "null" direction
    # of aᴴ has ‖aᴴ·u‖ ≈ 1e-8 > c, condition (ii)
    (1e-9, [1.0, 0.6, 0.3, 1e-8], 4, True),
    # below a loose cutoff 0.5 but resolved: w − δ ≈ 0.16 ≤ c², condition (i)
    (0.5, [1.0, 0.9, 0.8, 0.4], 3, True),
    # certified rank, but 1/√w amplifies the Gram's rounding to
    # ‖RRᴴ − 1‖_F ≈ 80–280 times 64·m·ε: the orthonormality check
    (1e-9, [1.0, 0.6, 0.3, 1e-3], 4, True),
]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(16, 12), (7, 12), (12, 12)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("tol, planted, rank, by_svd", _ROW_SPACE_CASES)
def test_row_space_certificate_hands_unresolved_spans_to_the_svd(
        monkeypatch, shape, real, tol, planted, rank, by_svd):
    m, n = shape
    a = _planted_singular_values(rng_for(122), m, n, planted, real)
    calls = count_svd(monkeypatch)
    got = row_space(a, tol, 0.0)
    assert len(calls) == by_svd
    monkeypatch.undo()
    assert got.shape == (rank, n)
    want = _assert_row_space_matches_svd(a, tol, 0.0)
    assert frob(dag(got) @ got - dag(want) @ want) <= 1e-12


# ---------------------------------------------------------------------------
# expm, against scipy.linalg.expm as the oracle
# ---------------------------------------------------------------------------


def _rel(a, b) -> float:
    """‖a − b‖_F/‖b‖_F, scaled first so that a tiny b does not underflow."""
    s = np.abs(b).max()
    return float(np.linalg.norm((a - b) / s) / np.linalg.norm(b / s))


# 1-norms from small up to θ_13, where s = 0 (a θ_13 set too high leaves
# the approximant unscaled where it is not accurate), and above it, where
# the argument is scaled by 2^s, s = 2, 7
_NORMS = (1e-3, 1.5e-2, 0.25, 0.95, 2.1, 0.95 * _THETA_13, 3 * _THETA_13,
          100 * _THETA_13)


@pytest.mark.parametrize("norm", _NORMS)
def test_expm_matches_scipy_below_and_above_theta_13(norm):
    import scipy.linalg

    rng = rng_for(120)
    for n in (1, 3, 12):
        real = rng.standard_normal((n, n))
        for a in (real, crandn(rng, n, n)):
            a = a * (norm / np.linalg.norm(a, 1))
            got = expm(a)
            assert got.dtype == a.dtype
            assert _rel(got, scipy.linalg.expm(a)) <= 1e-12


def test_expm_of_zero_is_the_identity_and_of_a_scalar_is_exp():
    for dtype in (np.float64, np.complex128):
        got = expm(np.zeros((5, 5), dtype=dtype))
        assert got.dtype == dtype
        assert np.array_equal(got, np.eye(5))
    # the Padé denominator at ‖a‖₁ ≈ θ_13 costs digits: 3.7e-14 at z = 40
    for z in (-50.0, -1.0, 1e-8, 0.3, 2.0, 40.0, 1 + 2j, -3 + 30j):
        np.testing.assert_allclose(expm(np.array([[z]]))[0, 0], np.exp(z), rtol=1e-13)
    assert expm(np.zeros((0, 0))).shape == (0, 0)


def test_expm_gives_nan_on_non_finite_input_and_rejects_non_square():
    a = np.eye(3)
    a[1, 2] = np.inf
    assert np.isnan(expm(a)).all()
    assert np.isnan(expm(np.asfortranarray(a.astype(complex)))).all()  # not C-ordered
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_expm_beyond_the_doubles_is_inf_and_its_scaled_form_is_finite():
    # e^{±800} is 2^{±1154.2}: beyond the doubles either way, but r·2^k holds it
    for z in (800.0, -800.0, 800.0 + 3j):
        r, k = _expm_scaled(np.array([[z]]))
        assert 0.5 <= max(abs(r[0, 0].real), abs(r[0, 0].imag)) < 1
        assert math.isclose(math.log(abs(r[0, 0])) + k * math.log(2), z.real, rel_tol=1e-13)
        assert np.isclose(r[0, 0] / abs(r[0, 0]), np.exp(1j * np.imag(z)), rtol=1e-12)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.isinf(expm(np.array([[800.0]]))).all()
    assert np.array_equal(expm(np.array([[-800.0]])), [[0.0]])
    r, k = _expm_scaled(np.diag([1e300, -1e300]))  # no squaring overflows
    assert k > 2**900 and 0.5 <= r[0, 0] < 1 and np.count_nonzero(r) == 1


@pytest.mark.parametrize("shape, seed", CLI_CHAIN_CASES)
def test_expm_and_its_powers_on_the_cli_chain_generators(shape, seed):
    # the probe's t·(L_r − μ) at d = 8, 16, 24: 1-norms 2.4 to 1200
    import scipy.linalg

    g, _ = cli_chain_instance(shape, seed)
    l_r = _centred_real_generator(g)
    direct = {}
    for t in (0.1, 1.0, 10.0):
        direct[t] = expm(t * l_r)
        assert _rel(direct[t], scipy.linalg.expm(t * l_r)) <= 1e-12
    # the probe reuses E(t₀)^k for t = k·t₀
    assert _rel(np.linalg.matrix_power(direct[0.1], 10), direct[1.0]) <= 1e-12
    assert _rel(np.linalg.matrix_power(direct[1.0], 10), direct[10.0]) <= 1e-12
