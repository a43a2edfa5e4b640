"""Tests for the application-level routines: semicausal generators,
decoherence-free certification, abelian commutation coefficients, channel
fixed points, the Koashi–Imoto split, and the finite-time invariance probe.

Every nontrivial expected value is produced by an oracle computed in this
file (explicit Kraus arithmetic, hand-built channels with known structure)
before being compared to the library output.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from igkls import (
    AlgebraClosureFailed,
    AtomicDecomposition,
    DecompositionFailed,
    FactorizationResidual,
    GKLSRep,
    KrausSet,
    NoFixedState,
    NotDecoherenceFree,
    NotDiagonal,
    NotInvariant,
    NotMaximalAbelian,
    NotTracePreserving,
    StinespringRep,
    atomic_block_factorize,
    dfs_verify_normal_form,
    fixed_point_state,
    gkls_apply,
    koashi_imoto_decompose,
    kraus_to_stinespring,
    maximal_abelian_coefficients,
    random_instance,
    semicausal_build,
    semicausal_check,
    semigroup_invariance_probe,
)
import igkls.cpmaps as cpmaps_mod
from igkls import applications
from igkls.algebra import _embed_a, _embed_b, _lift, algebra_pattern_basis, pattern_residual
from igkls.applications import _hermitian_frame, _integer_ratio
from igkls.errors import _recording
from igkls.io import read_meta
from igkls.linalg import dag, eye, frob, kron
from igkls.rng import CounterRng

from conftest import (
    CLI_CHAIN_CASES,
    PAULI,
    cli_chain_instance,
    count_eigh,
    count_exact_closure,
    count_svd,
    crandn,
    haar_isometry,
    haar_unitary,
    meta_algebra,
    random_density,
    random_hermitian,
    rng_for,
    superop_oracle,
)


def make_gkls(v: np.ndarray, k: np.ndarray) -> GKLSRep:
    d = k.shape[0]
    e = v.shape[0] // d
    return GKLSRep(d=d, stine=StinespringRep(d, d, e, v), k=k)


def schrodinger(ops, rho):
    return sum(op @ rho @ dag(op) for op in ops)


# ---------------------------------------------------------------------------
# semicausal generators
# ---------------------------------------------------------------------------

def test_semicausal_build_anticommutator_only():
    rng = rng_for(501)
    da, db, e = 2, 2, 1
    k_a = crandn(rng, da, da)
    g = semicausal_build(
        a=np.zeros((da, da), dtype=np.complex128),
        u=haar_isometry(rng, db * e, db),
        b=np.zeros((db * e, db), dtype=np.complex128),
        k_a=k_a,
        h_b=np.zeros((db, db), dtype=np.complex128),
    )
    assert frob(g.v) <= 1e-14
    for _ in range(3):
        x = crandn(rng, da, da)
        expected = kron(-dag(k_a) @ x - x @ k_a, eye(db))
        assert frob(gkls_apply(g, kron(x, eye(db))) - expected) <= 1e-12
    assert semicausal_check(g, da, db).passed


def test_semicausal_build_identity_a_gives_environment_side_action():
    rng = rng_for(502)
    da, db, e = 2, 2, 2
    u = haar_isometry(rng, db * e, db)
    b = crandn(rng, db * e, db)
    g = semicausal_build(
        a=eye(da),
        u=u,
        b=b,
        k_a=np.zeros((da, da), dtype=np.complex128),
        h_b=random_hermitian(rng, db),
    )
    assert frob(g.v - kron(eye(da), u + b)) <= 1e-12
    rep = semicausal_check(g, da, db)
    assert rep.passed
    assert rep.max_residual <= 1e-9 * 10 * max(1.0, frob(g.v) ** 2, frob(g.k))


def _nan_at_0(m):
    m = m.copy()
    m[0, 0] = np.nan
    return m


# part of semicausal_build's (a, u, b, k_a, h_b) → its replacement, and the
# ValueError it raises; every other part is valid, at dA = dB = 2 and dE = 1
SEMICAUSAL_REJECTS = {
    "u_not_isometry": ("u", lambda u: 2.0 * u, "u is not an isometry"),
    "u_nan": ("u", _nan_at_0, "u is not an isometry"),
    "h_b_not_self_adjoint": ("h_b", lambda _: np.array([[0.0, 1.0], [0.0, 0.0]]),
                             "h_b is not self-adjoint"),
    "h_b_nan": ("h_b", lambda _: np.diag([np.nan, 0.0]), "h_b is not self-adjoint"),
    "k_a_not_square": ("k_a", lambda _: np.zeros((2, 3)), "k_a must be square"),
    "h_b_not_square": ("h_b", lambda _: np.zeros((2, 3)), "h_b must be square"),
    "no_a_system": ("k_a", lambda _: np.zeros((0, 0)), "nonempty"),
    "no_b_system": ("h_b", lambda _: np.zeros((0, 0)), "nonempty"),
    "b_rows": ("b", lambda _: np.zeros((3, 2)), "b must have shape"),
    "u_cols": ("u", lambda u: u[:, :1], "u must have shape"),
    "b_cols": ("b", lambda _: np.zeros((2, 3)), r"b\[0\] shape mismatch"),
    "u_rows": ("u", lambda u: np.vstack([u, np.zeros((1, 2))]), r"u\[0\]\[0\] shape mismatch"),
    "a_shape": ("a", lambda _: np.zeros((3, 2)), r"a\[0\]\[0\] shape mismatch"),
}


@pytest.mark.parametrize("case", sorted(SEMICAUSAL_REJECTS))
def test_semicausal_build_validates_inputs(case):
    da, db, e = 2, 2, 1
    parts = {"a": np.zeros((da, da)), "u": haar_isometry(rng_for(503), db * e, db),
             "b": np.zeros((db * e, db)), "k_a": np.zeros((da, da)), "h_b": np.zeros((db, db))}
    assert semicausal_build(**parts).d == da * db
    key, change, message = SEMICAUSAL_REJECTS[case]
    parts[key] = change(parts[key])
    with pytest.raises(ValueError, match=message):
        semicausal_build(**parts)


def test_semicausal_check_passes_built_generators():
    for seed in range(504, 510):
        rng = rng_for(seed)
        da = int(rng.integers(1, 4))
        db = int(rng.integers(1, 4))
        d_f = int(rng.integers(1, 3))
        e = d_f + int(rng.integers(0, 3))
        g = semicausal_build(
            a=crandn(rng, da * d_f, da),
            u=haar_isometry(rng, db * e, d_f * db),
            b=crandn(rng, db * e, db),
            k_a=crandn(rng, da, da),
            h_b=random_hermitian(rng, db),
        )
        rep = semicausal_check(g, da, db)
        assert rep.passed, rep.max_residual
        # both measurement routes agree on the verdict
        tol_eff = rep.tol
        assert (max(rep.algebra_residuals) <= tol_eff) == (
            max(rep.direct_residuals) <= tol_eff
        )


def test_semicausal_check_fails_swap_coupling():
    d = 2
    swap = np.zeros((4, 4), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    g = make_gkls(swap, 0.5 * eye(4))
    rep = semicausal_check(g, d, d)
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_semicausal_check_environment_only_k_branches():
    rng = rng_for(505)
    da, db = 2, 2
    d = da * db
    zero_v = np.zeros((d, d), dtype=np.complex128)
    # skew C: C† + C = 0, so L(X⊗1) = −X⊗(C†+C) = 0 is semicausal
    c_skew = 1j * random_hermitian(rng, db)
    assert semicausal_check(make_gkls(zero_v, kron(eye(da), c_skew)), da, db).passed
    # generic C: C† + C has a non-scalar part that leaks into the B slot
    c_gen = crandn(rng, db, db)
    herm_part = dag(c_gen) + c_gen
    herm_part -= np.trace(herm_part) / db * eye(db)
    assert frob(herm_part) > 0.1
    rep = semicausal_check(make_gkls(zero_v, kron(eye(da), c_gen)), da, db)
    assert not rep.passed


# ---------------------------------------------------------------------------
# decoherence-free certification
# ---------------------------------------------------------------------------

def test_dfs_pure_hamiltonian_generator():
    rng = rng_for(510)
    da, db, e = 2, 2, 1
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    h_a = random_hermitian(rng, da)
    h_b = random_hermitian(rng, db)
    k = 1j * (kron(h_a, eye(db)) + kron(eye(da), h_b))
    g = make_gkls(np.zeros((d * e, d), dtype=np.complex128), k)
    cert = dfs_verify_normal_form(g, dec)
    for blocks in cert.beta:
        for blk in blocks:
            assert frob(blk) <= 1e-10
    h_a_traceless = h_a - np.trace(h_a) / da * eye(da)
    assert frob(cert.h_tilde - kron(h_a_traceless, eye(db))) <= 1e-10
    assert max(cert.residuals.values()) <= 1e-9


def test_dfs_environment_side_coupling_recovered():
    rng = rng_for(511)
    da, db, e = 2, 2, 2
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    b = crandn(rng, db * e, db)
    v = kron(eye(da), b)
    k = 0.5 * dag(v) @ v
    cert = dfs_verify_normal_form(make_gkls(v, k), dec)
    slices = b.reshape(db, e, db)
    for idx in range(e):
        assert frob(cert.beta[0][idx] - slices[:, idx, :]) <= 1e-8
    assert max(cert.residuals.values()) <= 1e-8


def test_dfs_scalar_block_plus_drift_recovered():
    rng = rng_for(512)
    da, db, e = 2, 2, 2
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    c = 0.8 + 0.3j
    u00 = haar_isometry(rng, db * e, db)
    b0 = crandn(rng, db * e, db)
    total = c * u00 + b0
    v = kron(eye(da), total)
    k = 0.5 * dag(v) @ v + 1j * kron(random_hermitian(rng, da), eye(db))
    cert = dfs_verify_normal_form(make_gkls(v, k), dec)
    slices = total.reshape(db, e, db)
    for idx in range(e):
        assert frob(cert.beta[0][idx] - slices[:, idx, :]) <= 1e-8


def test_dfs_recovers_planted_couplings_in_a_rotated_two_factor_frame():
    # V = Σ_i 1_{A_i}⊗B_i and K = ½V†V + i(Σ_i H_{A_i}⊗1 + 1⊗H_{B_i}) in the
    # frame U: the trace of H_{A_i} is a multiple of the identity, so it moves
    # from κ_a to κ_b
    rng = CounterRng(514)
    factors, e = [(2, 2), (1, 3)], 2
    d = sum(da * db for da, db in factors)
    dec = AtomicDecomposition(d=d, u_alg=rng.derive(1).unitary(d), d0=0, factors=factors)
    b = [rng.derive(10 + i).complex_matrix(db * e, db) for i, (_, db) in enumerate(factors)]
    h_a = [rng.derive(20 + i).hermitian(da) for i, (da, _) in enumerate(factors)]
    h_b = [rng.derive(30 + i).hermitian(db) for i, (_, db) in enumerate(factors)]
    v = _lift(dec, b, _embed_a, e)
    k = 0.5 * dag(v) @ v + 1j * (_lift(dec, h_a, _embed_b) + _lift(dec, h_b, _embed_a))
    cert = dfs_verify_normal_form(make_gkls(v, k), dec)
    kappa_a = []
    for i, (da, db) in enumerate(factors):
        shift = np.trace(h_a[i]).real / da
        kappa_a.append(h_a[i] - shift * eye(da))
        for n in range(e):
            assert frob(cert.beta[i][n] - b[i].reshape(db, e, db)[:, n, :]) <= 1e-10
        assert frob(cert.kappa_a[i] - kappa_a[i]) <= 1e-10
        assert frob(cert.kappa_b[i] - (h_b[i] + shift * eye(db))) <= 1e-10
        assert cert.psi[i].shape == (0,)
    assert frob(cert.h_tilde - _lift(dec, kappa_a, _embed_b)) <= 1e-10


def test_dissipation_forms_match_the_four_application_formula_on_every_pair():
    # two factors, d_B = 2 and 3, in a rotated frame: X̂†Ŷ is zero across the
    # factors and across rows, a unit divided by √d_B otherwise.  The
    # generator is invariant but not decoherence free, so Ψ does not vanish
    bundle = random_instance("gkls", {"factors": [[2, 2], [1, 3]], "d0": 0, "d_env": 2},
                             seed=3)
    g, dec = bundle.payload, meta_algebra(bundle)
    basis = algebra_pattern_basis(dec)
    l_one = gkls_apply(g, eye(g.d))
    forms = list(applications._dissipation_forms(g, dec))
    assert len(forms) == len(basis) == 5
    worst = 0.0
    for x, psi in zip(basis, forms):
        xd = dag(x)
        for y, got in zip(basis, psi):
            want = (gkls_apply(g, xd @ y) - xd @ gkls_apply(g, y) - gkls_apply(g, xd) @ y
                    + xd @ l_one @ y)
            assert frob(got - want) <= 1e-12 * max(1.0, frob(g.k))
            worst = max(worst, frob(want))
    assert worst > 0.1


def test_dfs_rejects_cross_factor_jump():
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    v = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |1><2| jump
    k = 0.5 * dag(v) @ v
    with pytest.raises(NotDecoherenceFree):
        dfs_verify_normal_form(make_gkls(v, k), dec)


def test_dfs_rejects_genuinely_dissipative_generator():
    rng = rng_for(513)
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(2, 1)])
    v = crandn(rng, 4, 2)
    k = 0.5 * dag(v) @ v
    with pytest.raises(NotDecoherenceFree):
        dfs_verify_normal_form(make_gkls(v, k), dec)


def test_dfs_requires_unital_algebra():
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=1, factors=[(1, 1)])
    g = make_gkls(np.zeros((2, 2), dtype=np.complex128),
                  np.zeros((2, 2), dtype=np.complex128))
    with pytest.raises(ValueError):
        dfs_verify_normal_form(g, dec)


# ---------------------------------------------------------------------------
# maximal abelian commutation coefficients
# ---------------------------------------------------------------------------

def diag_dec(d: int) -> AtomicDecomposition:
    return AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(1, 1)] * d)


def test_abelian_dephasing_commutes_with_observable():
    p = 0.7
    ops = [np.sqrt(p) * eye(2), np.sqrt(1 - p) * PAULI["Z"]]
    k = KrausSet(d_in=2, d_out=2, ops=ops)
    c = np.diag([1.0, -1.0]).astype(np.complex128)
    res = maximal_abelian_coefficients(k, diag_dec(2), c)
    for row in res.c_mn:
        for blk in row:
            assert frob(blk) <= 1e-12
    assert res.residuals["commutator"] <= 1e-12
    assert res.residuals["adjoint_symmetry"] == 0.0


def test_abelian_cyclic_shift_coefficients_match_oracle():
    d = 3
    shift = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    k = KrausSet(d_in=d, d_out=d, ops=[shift])
    c_vals = np.array([0.4, -1.1, 2.3])
    c = np.diag(c_vals).astype(np.complex128)
    res = maximal_abelian_coefficients(k, diag_dec(d), c)
    # [c, S] = Σ_j (c_{j+1} − c_j)|j+1><j| = c_00 · S with diagonal c_00
    expected = np.diag([c_vals[i] - c_vals[(i - 1) % d] for i in range(d)])
    assert frob(res.c_mn[0][0] - expected) <= 1e-12
    pred = res.c_mn[0][0] @ shift
    assert frob(c @ shift - shift @ c - pred) <= 1e-12
    assert res.residuals["adjoint_symmetry"] == 0.0


def test_abelian_monomial_kraus_maps():
    # generalized permutation Kraus operators preserve the diagonal algebra
    for seed in range(520, 524):
        rng = rng_for(seed)
        d = 3
        ops = []
        for _ in range(2):
            perm = rng.permutation(d)
            p_mat = np.zeros((d, d), dtype=np.complex128)
            for j in range(d):
                p_mat[perm[j], j] = 1.0
            ops.append(p_mat @ np.diag(crandn(rng, d, 1)[:, 0]))
        k = KrausSet(d_in=d, d_out=d, ops=ops)
        c = np.diag(rng.normal(size=d)).astype(np.complex128)
        res = maximal_abelian_coefficients(k, diag_dec(d), c)
        e = len(ops)
        for m in range(e):
            pred = sum(res.c_mn[m][n] @ ops[n] for n in range(e))
            assert frob(c @ ops[m] - ops[m] @ c - pred) <= 1e-9
        assert res.residuals["adjoint_symmetry"] == 0.0


def test_abelian_rejects_bad_inputs():
    rng = rng_for(524)
    k_id = KrausSet(d_in=2, d_out=2, ops=[eye(2)])
    dec_fat = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(2, 1)])
    with pytest.raises(NotMaximalAbelian):
        maximal_abelian_coefficients(k_id, dec_fat, eye(2))
    with pytest.raises(NotDiagonal):
        maximal_abelian_coefficients(k_id, diag_dec(2), PAULI["X"])
    had = (PAULI["X"] + PAULI["Z"]) / np.sqrt(2)
    k_had = KrausSet(d_in=2, d_out=2, ops=[had])
    with pytest.raises(NotInvariant):
        maximal_abelian_coefficients(k_had, diag_dec(2), np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------
# fixed points of channels
# ---------------------------------------------------------------------------

def depolarizing_ops(p: float) -> list[np.ndarray]:
    return [
        np.sqrt(1 - 3 * p / 4) * eye(2),
        np.sqrt(p / 4) * PAULI["X"],
        np.sqrt(p / 4) * PAULI["Y"],
        np.sqrt(p / 4) * PAULI["Z"],
    ]


def test_fixed_point_depolarizing_is_maximally_mixed():
    k = KrausSet(d_in=2, d_out=2, ops=depolarizing_ops(0.7))
    rho = fixed_point_state(k)
    assert frob(rho - eye(2) / 2) <= 1e-9


def test_fixed_point_amplitude_damping_is_ground_state():
    gamma = 0.3
    ops = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=np.complex128),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128),
    ]
    rho = fixed_point_state(KrausSet(d_in=2, d_out=2, ops=ops))
    assert frob(rho - np.diag([1.0, 0.0])) <= 1e-8


def test_fixed_point_unitary_and_identity_channels():
    u = np.diag([1.0, np.exp(1j)]).astype(np.complex128)
    rho = fixed_point_state(KrausSet(d_in=2, d_out=2, ops=[u]))
    assert frob(schrodinger([u], rho) - rho) <= 1e-9
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert frob(rho - dag(rho)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    rho3 = fixed_point_state(KrausSet(d_in=3, d_out=3, ops=[eye(3)]))
    assert frob(rho3 - schrodinger([eye(3)], rho3)) <= 1e-12
    assert abs(np.trace(rho3) - 1.0) <= 1e-12


def test_fixed_point_rejects_non_trace_preserving():
    k = KrausSet(d_in=2, d_out=2, ops=[0.5 * eye(2)])
    with pytest.raises(NotTracePreserving):
        fixed_point_state(k)


# Fix((1−ε)·id + ε·Φ) = Fix(Φ) for every ε > 0.  At ε = 1e-8 the nonzero
# singular values of the transfer matrix minus 1 are ε times Φ's: 7.06e-9 on
# seed 7 and 1.35e-9 on seed 9, above a null floor of 4e-16 but under
# _fixed_space's cutoff tol·max(σ_max, scale) of 9e-9 and 1e-8.  So the
# fixed space gets spurious directions (27 for 18, 61 for 10), and the
# candidate state moves by 1.02e-9 and 1.61e-9 > the fixed_state limit of
# 1e-9.  Built from the true fixed space it moves by 7e-17: the rank
# decision fails, not the absolute limit.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_fixed_space's rank cutoff lies above the σ gap of a near-identity "
                          "channel and counts ε·σ as null")
@pytest.mark.parametrize("seed", [7, 9])
def test_fixed_point_state_of_a_near_identity_channel(seed):
    phi = read_meta(random_instance("koashi_imoto", seed=seed).meta, "channel").schrodinger_kraus()
    d, eps = phi.d_in, 1e-8
    ops = [np.sqrt(1 - eps) * eye(d)] + [np.sqrt(eps) * op for op in phi.ops]
    s = np.linalg.svd(superop_oracle(lambda x: schrodinger(phi.ops, x), d) - np.eye(d * d),
                      compute_uv=False)
    assert len(applications._fixed_space(ops, d, 1e-9)) == np.count_nonzero(s <= 1e-12)
    rho = fixed_point_state(KrausSet(d, d, ops))
    assert frob(schrodinger(ops, rho) - rho) <= 1e-12


# ---------------------------------------------------------------------------
# Koashi–Imoto split
# ---------------------------------------------------------------------------

def test_koashi_imoto_dephasing():
    p = 0.75
    ops = [np.sqrt(p) * eye(2), np.sqrt(1 - p) * PAULI["Z"]]
    res = koashi_imoto_decompose(KrausSet(d_in=2, d_out=2, ops=ops))
    assert sorted(res.report["factor_dims"]) == [[1, 1], [1, 1]]
    assert res.report["dim_fixed"] == 2
    assert res.report["dim_dual_fixed"] == 2
    assert res.report["support_dim"] == 2
    for sig in res.sigma:
        assert sig.shape == (1, 1)
        assert abs(sig[0, 0] - 1.0) <= 1e-9


def test_koashi_imoto_identity_channel():
    res = koashi_imoto_decompose(KrausSet(d_in=3, d_out=3, ops=[eye(3)]))
    assert res.report["factor_dims"] == [[3, 1]]
    assert res.report["dim_fixed"] == 9
    assert res.report["dim_dual_fixed"] == 9


def test_koashi_imoto_trace_and_replace():
    rng = rng_for(530)
    d = 2
    sigma = random_density(rng, d)
    lam, vecs = np.linalg.eigh(sigma)
    ops = []
    for m in range(d):
        bra = np.zeros((1, d), dtype=np.complex128)
        bra[0, m] = 1.0
        for n in range(d):
            ops.append(np.sqrt(max(lam[n], 0.0)) * vecs[:, n][:, None] @ bra)
    res = koashi_imoto_decompose(KrausSet(d_in=d, d_out=d, ops=ops))
    assert res.report["dim_fixed"] == 1
    assert res.report["dim_dual_fixed"] == 1
    assert res.report["factor_dims"] == [[1, d]]
    got = np.sort(np.linalg.eigvalsh(res.sigma[0]))
    assert np.allclose(got, np.sort(lam), atol=1e-8)


def test_koashi_imoto_random_channels_dimension_match():
    for seed in range(531, 534):
        rng = rng_for(seed)
        d, e = 3, 2
        w = haar_isometry(rng, d * e, d)
        ops = [w.reshape(d, e, d)[:, n, :] for n in range(e)]
        res = koashi_imoto_decompose(KrausSet(d_in=d, d_out=d, ops=ops))
        assert res.report["dim_fixed"] == res.report["dim_dual_fixed"]
        assert res.report["fixed_family_residual"] <= 1e-7


def test_koashi_imoto_generic_unitary_channel():
    # the dual fixed algebra of conjugation by a generic unitary is spanned
    # by its two orthogonal spectral projectors — whose product is zero, so
    # the closure check must not normalize residuals by the product's norm
    rng = rng_for(536)
    u = haar_unitary(rng, 2)
    res = koashi_imoto_decompose(KrausSet(d_in=2, d_out=2, ops=[u]))
    assert sorted(res.report["factor_dims"]) == [[1, 1], [1, 1]]
    assert res.report["dim_fixed"] == 2
    assert res.report["dim_dual_fixed"] == 2
    assert res.report["pattern_residual"] <= 1e-8


def test_koashi_imoto_rejects_non_trace_preserving():
    rng = rng_for(535)
    with pytest.raises(NotTracePreserving):
        koashi_imoto_decompose(KrausSet(d_in=2, d_out=2, ops=[crandn(rng, 2, 2)]))


def _planted_ki_channel(rng, factors, e=2):
    """(ops, u, sigmas): Schrödinger Kraus ops u(⊕ 1_A ⊗ N_i)u†, a random
    channel N_i on each B, and the fixed state σ_i of each N_i."""
    d = sum(a * b for a, b in factors)
    u = haar_unitary(rng, d)
    isos = [haar_isometry(rng, db * e, db) for _, db in factors]
    ops = []
    for n in range(e):
        z = np.zeros((d, d), dtype=np.complex128)
        off = 0
        for (da, db), w in zip(factors, isos):
            z[off:off + da * db, off:off + da * db] = np.kron(np.eye(da), w.reshape(db, e, db)[:, n, :])
            off += da * db
        ops.append(u @ z @ dag(u))
    sigmas = []
    for (_, db), w in zip(factors, isos):
        kraus = w.reshape(db, e, db).transpose(1, 0, 2)
        transfer = sum(np.kron(k, np.conj(k)) for k in kraus)
        sigma = np.conj(np.linalg.svd(transfer - np.eye(db * db))[2][-1]).reshape(db, db)
        sigmas.append(sigma / np.trace(sigma))
    return ops, u, sigmas


def _planted_ki_ops(rng, factors, e=2):
    """Schrödinger Kraus ops u(⊕ 1_A ⊗ N_i)u†, a random channel N_i on each B."""
    return _planted_ki_channel(rng, factors, e)[0]


def _trace_and_replace_ops(rng, d):
    lam, vecs = np.linalg.eigh(random_density(rng, d))
    return [np.sqrt(max(lam[n], 0.0)) * np.outer(vecs[:, n], eye(d)[m])
            for m in range(d) for n in range(d)]


def _random_channel_ops(rng, d, e=2):
    w = haar_isometry(rng, d * e, d)
    return [w.reshape(d, e, d)[:, n, :] for n in range(e)]


_FIXED_SPACE_CHANNELS = {
    "dephasing": lambda rng: [np.sqrt(0.75) * eye(2), np.sqrt(0.25) * PAULI["Z"]],
    "identity": lambda rng: [eye(3)],
    "generic-unitary": lambda rng: [haar_unitary(rng, 4)],
    "trace-and-replace": lambda rng: _trace_and_replace_ops(rng, 3),
    "random-d3-a": lambda rng: _random_channel_ops(rng, 3),
    "random-d3-b": lambda rng: _random_channel_ops(rng, 3),
    "planted-d12": lambda rng: _planted_ki_ops(rng, [(3, 2), (2, 3)]),
}


def _fixed_rows_oracle(transfer, scale, tol=1e-9):
    """Null rows x, (T − 1)x = 0, of the complex transfer matrix T, with the
    library's cutoff: singular values above tol·max(σ_max, scale) count."""
    _, sv, vh = np.linalg.svd(transfer - np.eye(transfer.shape[0]))
    rank = int(np.count_nonzero(sv > tol * max(sv[0], scale)))
    return np.conj(vh[rank:])


@pytest.mark.parametrize("name", list(_FIXED_SPACE_CHANNELS))
def test_real_frame_fixed_spaces_match_the_complex_transfer_matrix(name):
    ops = _FIXED_SPACE_CHANNELS[name](rng_for(538 + len(name)))
    d = ops[0].shape[0]
    scale = max(1.0, sum(frob(op) ** 2 for op in ops))
    for kraus, transfer in (
        (ops, sum(np.kron(op, np.conj(op)) for op in ops)),            # channel
        ([dag(op) for op in ops], sum(np.kron(dag(op), op.T) for op in ops)),  # dual
    ):
        got = applications._fixed_space(kraus, d, 1e-9)
        want = _fixed_rows_oracle(transfer, scale)
        assert len(got) == len(want) > 0
        rows = got.reshape(len(got), -1)
        assert frob(got - np.conj(got.transpose(0, 2, 1))) <= 1e-12  # Hermitian
        assert frob(np.conj(rows) @ rows.T - eye(len(got))) <= 1e-12  # HS-orthonormal
        assert frob(rows.T @ np.conj(rows) - want.T @ np.conj(want)) <= 1e-10


# ---------------------------------------------------------------------------
# the maximal fixed state Π_Fix(1)
# ---------------------------------------------------------------------------

def _with_transient(ops, k, gamma=0.5, seed=548):
    """The channel of ``ops`` on S plus k transient levels E that decay into
    S: Kraus ops op ⊕ 0, √(1−γ)·(0 ⊕ 1_E) and √γ·|s_j⟩⟨e_j| for unit vectors
    s_j ∈ S, so every fixed point lives on S."""
    if not k:
        return ops
    d = ops[0].shape[0]
    out = [np.pad(op, (0, k)) for op in ops] + [np.sqrt(1 - gamma) * np.diag([0.0] * d + [1.0] * k)]
    targets = haar_isometry(rng_for(seed), d, k)
    for j in range(k):
        c = np.zeros((d + k, d + k), dtype=np.complex128)
        c[:d, d + j] = np.sqrt(gamma) * targets[:, j]
        out.append(c)
    return out


@pytest.mark.parametrize("factors, transient", [
    ([(3, 2), (2, 3)], 0), ([(2, 2), (1, 2)], 0), ([(1, 3), (2, 1)], 0), ([(3, 2), (2, 3)], 2)])
def test_maximal_fixed_state_is_the_projection_of_one(factors, transient):
    # Fix(T) = u(⊕ M_{A_i}⊗σ_i)u† ⊕ 0, so Π_Fix(1) = u(⊕ (tr σ_i/tr σ_i²)·1_{A_i}⊗σ_i)u† ⊕ 0
    ops, u, sigmas = _planted_ki_channel(rng_for(546), factors)
    r = ops[0].shape[0]
    ops = _with_transient(ops, transient)
    d = r + transient
    assert frob(sum(dag(op) @ op for op in ops) - eye(d)) <= 1e-12
    _, _, rho = applications._fixed_states(KrausSet(d, d, ops), 1e-9, "tp")
    want = np.zeros((r, r), dtype=np.complex128)
    off = 0
    for (da, db), sigma in zip(factors, sigmas):
        blk = slice(off, off + da * db)
        want[blk, blk] = np.trace(sigma) / np.trace(sigma @ sigma) * np.kron(np.eye(da), sigma)
        off += da * db
    assert frob(rho - np.pad(u @ want @ dag(u), (0, transient))) <= 1e-10
    w = np.linalg.eigvalsh(rho)  # the rank of the support, r
    assert np.count_nonzero(w > 1e-9 * w[-1]) == r and w[transient] > 1e-3


def _abs_sum(hs):
    """Σ_k |h_k|, a maximal-rank fixed point that depends on the basis."""
    w, v = np.linalg.eigh(hs)
    return ((v * np.abs(w)[:, None]) @ np.conj(v.transpose(0, 2, 1))).sum(axis=0)


def test_maximal_fixed_state_does_not_depend_on_the_fixed_point_basis(monkeypatch):
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    kraus = KrausSet(12, 12, ops)
    _, hs, rho = applications._fixed_states(kraus, 1e-9, "tp")
    rot = np.linalg.qr(np.random.default_rng(547).standard_normal((len(hs), len(hs))))[0]
    rotated = np.tensordot(rot, hs, axes=1)  # another HS-orthonormal Hermitian basis
    _spy(monkeypatch, "_fixed_space", lambda args, out: np.tensordot(rot, out, axes=1))
    _, hs_rot, rho_rot = applications._fixed_states(kraus, 1e-9, "tp")
    assert frob(hs_rot - rotated) <= 1e-12
    assert frob(rho_rot - rho) <= 1e-12
    assert frob(_abs_sum(rotated) - _abs_sum(hs)) > 1e-2  # Σ_k |h_k| moves


def test_koashi_imoto_at_d12_runs_no_stacked_eigensolve(monkeypatch):
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    eighs = count_eigh(monkeypatch)
    res = koashi_imoto_decompose(KrausSet(12, 12, ops))
    assert eighs and all(len(shape) == 2 for shape in eighs), eighs
    assert _structure(res) == (13, 13, 12, 0, [(2, 3), (3, 2)])


# ---------------------------------------------------------------------------
# the dual fixed algebra mapped from the channel's fixed points
# ---------------------------------------------------------------------------

def _spy(monkeypatch, name, record):
    """Wrap applications.<name>; ``record(args, out)`` sees every call and
    its output and returns what the call returns."""
    real = getattr(applications, name)
    monkeypatch.setattr(applications, name, lambda *args: record(args, real(*args)))


def _spy_fixed_space(monkeypatch):
    """The Kraus stack of every _fixed_space call, in call order."""
    calls = []
    _spy(monkeypatch, "_fixed_space", lambda args, out: calls.append(np.asarray(args[0])) or out)
    return calls


def _dual_svd_calls(calls, ops, q):
    """How many of the recorded calls after the first (the channel's own, whose
    ops a self-dual channel shares) took the dual of the compressed channel,
    the ops (q·op·q†)†."""
    dual = np.stack([dag(q @ op @ dag(q)) for op in ops])
    return sum(c.shape == dual.shape and frob(c - dual) <= 1e-12 for c in calls[1:])


def _ki_channel_ops(bundle):
    """Schrödinger Kraus ops of the channel stored in a koashi_imoto bundle."""
    return read_meta(bundle.meta, "channel", 1e-9).schrodinger_kraus().ops


def _random_ki_ops(seed):
    return _ki_channel_ops(random_instance("koashi_imoto", seed=seed))


def _structure(res):
    rep = res.report
    return (rep["dim_fixed"], rep["dim_dual_fixed"], rep["support_dim"], res.dec.d0,
            sorted(res.dec.factors))


def _gad_block_ops(delta, seed=541):
    """u(1_2/2 ⊕ N)u† per Kraus index, N the generalized amplitude damping at
    γ = 1/2 whose fixed state is diag(1 − δ, δ): ρ_c has an eigenvalue ~δ."""
    g, p = 0.5, 1 - delta
    blocks = [np.sqrt(p) * np.array([[1, 0], [0, np.sqrt(1 - g)]]),
              np.sqrt(p) * np.array([[0, np.sqrt(g)], [0, 0]]),
              np.sqrt(1 - p) * np.array([[np.sqrt(1 - g), 0], [0, 1]]),
              np.sqrt(1 - p) * np.array([[0, 0], [np.sqrt(g), 0]])]
    u = haar_unitary(rng_for(seed), 4)
    ops = []
    for b in blocks:
        z = np.zeros((4, 4), dtype=np.complex128)
        z[:2, :2] = eye(2) / 2
        z[2:, 2:] = b
        ops.append(u @ z @ dag(u))
    return ops


def test_koashi_imoto_maps_the_dual_fixed_points_without_the_dual_svd(monkeypatch):
    calls = _spy_fixed_space(monkeypatch)
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])  # d = 12
    res = koashi_imoto_decompose(KrausSet(d_in=12, d_out=12, ops=ops))
    assert _structure(res) == (13, 13, 12, 0, [(2, 3), (3, 2)])
    assert len(calls) >= 1 and _dual_svd_calls(calls, ops, res.q) == 0
    for seed in range(1, 11):
        calls.clear()
        bundle = random_instance("koashi_imoto", seed=seed)
        ops = _ki_channel_ops(bundle)
        assert len(calls) >= 1 and _dual_svd_calls(calls, ops, bundle.payload.q) == 0


def test_koashi_imoto_falls_back_to_one_dual_svd_on_an_ill_conditioned_fixed_state(
        monkeypatch):
    # at δ = 1e-8, ρ_c^{-1/2} amplifies rounding past the limit (4e-9 at r = 4)
    calls = _spy_fixed_space(monkeypatch)
    checks = []
    with _recording(lambda *check: checks.append(check)):
        res = koashi_imoto_decompose(KrausSet(4, 4, _gad_block_ops(1e-8)))
    assert _dual_svd_calls(calls, _gad_block_ops(1e-8), res.q) == 1
    dual = [c for c in checks if c[0] == "ki_dual_fixed"]
    assert len(dual) == 1 and dual[0][1] <= 1e-12 < dual[0][2]
    calls.clear()
    well = koashi_imoto_decompose(KrausSet(4, 4, _gad_block_ops(1e-2)))
    assert _dual_svd_calls(calls, _gad_block_ops(1e-2), well.q) == 0
    assert _structure(res) == _structure(well) == (5, 5, 4, 0, [(1, 2), (2, 1)])


def test_koashi_imoto_falls_back_to_one_dual_svd_when_the_mapped_basis_is_short(
        monkeypatch):
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    want = _structure(koashi_imoto_decompose(KrausSet(12, 12, ops)))
    calls = _spy_fixed_space(monkeypatch)
    _spy(monkeypatch, "_hermitian_span", lambda args, out: out[:-1])
    res = koashi_imoto_decompose(KrausSet(12, 12, ops))
    assert _dual_svd_calls(calls, ops, res.q) == 1
    assert _structure(res) == want


def _perturbed_basis(ys, rel, scale):
    """scale·(y + rel·‖y‖_F·e/‖e‖_F) for each y, e a fixed random direction."""
    e = np.random.default_rng(7).standard_normal(ys.shape) * (1 + 1j)
    norms = np.linalg.norm(ys, axis=(1, 2))[:, None, None]
    return scale * (ys + rel * norms * e / np.linalg.norm(e, axis=(1, 2))[:, None, None])


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_ki_dual_fixed_rejects_a_perturbed_dual_basis_at_any_scale(monkeypatch, scale):
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    mapped = []
    _spy(monkeypatch, "_hermitian_span", lambda args, out: mapped.append(out) or out)
    res = koashi_imoto_decompose(KrausSet(12, 12, ops))
    comp = [res.q @ op @ dag(res.q) for op in ops]
    limit = 1e-9 * 12  # max(tol, 1e-12)·Σ‖q·op·q†‖²_F = tol·r
    assert applications._dual_fixed_residual(comp, scale * mapped[0]) <= limit
    assert applications._dual_fixed_residual(comp, _perturbed_basis(mapped[0], 1e-6, scale)) > limit

    # the perturbed basis from both routes: the mapped one and the fallback SVD
    calls = _spy_fixed_space(monkeypatch)
    _spy(monkeypatch, "_hermitian_span", lambda args, out: _perturbed_basis(out, 1e-6, scale))
    _spy(monkeypatch, "_fixed_space",
         lambda args, out: out if len(calls) == 1 else _perturbed_basis(out, 1e-6, scale))
    checks = []
    with pytest.raises(AlgebraClosureFailed) as info, \
            _recording(lambda *check: checks.append(check)):
        koashi_imoto_decompose(KrausSet(12, 12, ops))
    assert _dual_svd_calls(calls, ops, res.q) == 1
    assert [c[0] for c in checks] == ["ki_tp", "ki_support", "ki_dual_fixed"]
    assert info.value.residual == checks[-1][1] > checks[-1][2] == pytest.approx(limit)


@pytest.mark.parametrize("name", list(_FIXED_SPACE_CHANNELS))
def test_mapped_dual_span_matches_the_dual_transfer_matrix(monkeypatch, name):
    ops = _FIXED_SPACE_CHANNELS[name](rng_for(538 + len(name)))
    d = ops[0].shape[0]
    mapped = []
    _spy(monkeypatch, "_hermitian_span", lambda args, out: mapped.append(out) or out)
    calls = _spy_fixed_space(monkeypatch)
    res = koashi_imoto_decompose(KrausSet(d, d, ops))
    assert _dual_svd_calls(calls, ops, res.q) == 0
    comp = [res.q @ op @ dag(res.q) for op in ops]
    scale = max(1.0, sum(frob(op) ** 2 for op in comp))
    want = _fixed_rows_oracle(sum(np.kron(dag(op), op.T) for op in comp), scale)
    got = mapped[0].reshape(len(mapped[0]), -1)
    assert len(got) == len(want) == res.report["dim_dual_fixed"]
    assert frob(np.conj(got) @ got.T - eye(len(got))) <= 1e-12  # HS-orthonormal
    assert frob(got.T @ np.conj(got) - want.T @ np.conj(want)) <= 1e-10


# ---------------------------------------------------------------------------
# V_i and σ_i read off the algebra's frame
# ---------------------------------------------------------------------------

_KI_PARITY_CHANNELS = {
    "planted-d6": lambda rng: _planted_ki_ops(rng, [(2, 2), (1, 2)]),
    "planted-d12": lambda rng: _planted_ki_ops(rng, [(3, 2), (2, 3)]),
    **{name: _FIXED_SPACE_CHANNELS[name]
       for name in ("dephasing", "identity", "trace-and-replace", "generic-unitary")},
    **{f"random-ki-{seed}": lambda rng, seed=seed: _random_ki_ops(seed) for seed in range(1, 11)},
}


def _block_factorization_route(ops, res):
    """V_i and σ_i by the general route on the library's own q and
    decomposition: atomic_block_factorize of the compressed dilation, whose
    diagonal pairs are (1_A⊗U_ii)(A_ii⊗1) with A_ii = c·1_A, |c| = 1, then a
    fixed density matrix of each channel V_i."""
    r = res.q.shape[0]
    w_st = kraus_to_stinespring(KrausSet(r, r, [res.q @ op @ dag(res.q) for op in ops]))
    e = w_st.d_env
    bf = atomic_block_factorize(w_st, res.dec, res.dec, tol=1e-9)
    vs, sigmas = [], []
    for i, (da, db) in enumerate(res.dec.factors):
        assert bf.d_f[i][i] == 1
        c = np.trace(bf.a[i][i]) / da
        vs.append(c / abs(c) * bf.u[i][i])
        slices = vs[-1].reshape(db, e, db)
        sigmas.append(fixed_point_state(KrausSet(db, db, [slices[:, n] for n in range(e)])))
    return vs, sigmas


@pytest.mark.parametrize("name", list(_KI_PARITY_CHANNELS))
def test_koashi_imoto_v_and_sigma_match_the_block_factorization_route(name):
    ops = _KI_PARITY_CHANNELS[name](rng_for(538 + len(name)))
    d = ops[0].shape[0]
    res = koashi_imoto_decompose(KrausSet(d, d, ops))
    vs, sigmas = _block_factorization_route(ops, res)
    assert len(res.v) == len(res.sigma) == len(vs) == len(res.dec.factors)
    for got, want in zip(res.v + res.sigma, vs + sigmas):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_koashi_imoto_runs_no_block_factorization_and_one_fixed_space_svd(monkeypatch):
    called = []
    for module, name in ((cpmaps_mod, "cp_invariance_check"), (cpmaps_mod, "_block_factorize"),
                         (applications, "fixed_point_state")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: called.append(name))
    calls = _spy_fixed_space(monkeypatch)
    for ops in (_planted_ki_ops(rng_for(540), [(3, 2), (2, 3)]), _random_ki_ops(3)):
        calls.clear()
        d = ops[0].shape[0]
        koashi_imoto_decompose(KrausSet(d, d, ops))
        assert len(calls) == 1
    assert called == []


def test_fixed_space_of_the_planted_d12_channel_runs_no_svd(monkeypatch):
    # the 144 × 144 real transfer matrix: its null space is certified from
    # one Hermitian eigensolve of its Gram matrix
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    calls = count_svd(monkeypatch)
    hs = applications._fixed_space(ops, 12, 1e-9)
    assert calls == []
    monkeypatch.undo()
    transfer = sum(np.kron(op, np.conj(op)) for op in ops)
    want = _fixed_rows_oracle(transfer, max(1.0, sum(frob(op) ** 2 for op in ops)))
    rows = hs.reshape(len(hs), -1)
    assert len(hs) == len(want) == 13
    assert frob(rows.T @ np.conj(rows) - want.T @ np.conj(want)) <= 1e-10


def _nudged(xs, rel):
    """The k-th of the n matrices x of the stack xs plus rel·(k+1)/n·‖x‖_F·h/‖h‖_F,
    h a fixed random Hermitian matrix: the last x changes most."""
    xs = np.asarray(xs)
    h = random_hermitian(rng_for(545), xs.shape[-1])
    size = rel * np.arange(1, len(xs) + 1) / len(xs) * np.linalg.norm(xs, axis=(1, 2))
    return xs + size[:, None, None] * h / frob(h)


def test_batched_ki_residuals_match_the_per_element_loops(monkeypatch):
    # defects far above rounding and below the limits: a 1e-10 leak of the
    # damping channel's fixed point out of its support, a 1e-9 change of the
    # planted channel's fixed-point family
    damping = [np.diag([1.0, np.sqrt(0.7)]), np.sqrt(0.3) * np.outer(eye(2)[0], eye(2)[1])]
    planted = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    for ops, name, rel, check in ((damping, "_fixed_space", 1e-10, "ki_support"),
                                  (planted, "_unit_images", 1e-9, "ki_fixed_family")):
        seen, checks = [], {}
        _spy(monkeypatch, name,
             lambda args, out, rel=rel: seen.append(_nudged(out, rel)) or seen[-1])
        d = ops[0].shape[0]
        with _recording(lambda *check: checks.setdefault(check[0], check[1])):
            res = koashi_imoto_decompose(KrausSet(d, d, ops))
        monkeypatch.undo()
        pi = dag(res.q) @ res.q
        if check == "ki_support":
            loop = max(frob(h - pi @ h @ pi) / frob(h) for h in seen[0])
        else:
            family = (dag(res.q) @ z @ res.q for z in seen[0])
            loop = max(frob(schrodinger(ops, c) - c) for c in family)
        assert 1e-12 < checks[check] == pytest.approx(loop, rel=1e-6)


def _ki_failure(monkeypatch, patch, error):
    """Run KI on the planted d = 12 channel with ``patch(monkeypatch)``
    applied; expect ``error`` and return the checks recorded until then."""
    patch(monkeypatch)
    ops = _planted_ki_ops(rng_for(540), [(3, 2), (2, 3)])
    checks = []
    with pytest.raises(error), _recording(lambda *check: checks.append(check)):
        koashi_imoto_decompose(KrausSet(12, 12, ops))
    return checks


def _rotate_first_factor(monkeypatch):
    """Rotate u_alg by a generic unitary inside factor 0 (6 columns at d0 = 0
    for either order of the planted factors): no longer the algebra's frame."""
    real = applications._decompose_closed

    def rotated(*args):
        dec, closure = real(*args)
        u = dec.u_alg.copy()
        u[:, :6] = u[:, :6] @ haar_unitary(rng_for(543), 6)
        return AtomicDecomposition(dec.d, u, dec.d0, dec.factors), closure

    monkeypatch.setattr(applications, "_decompose_closed", rotated)


def _scale_dilation(monkeypatch):
    """Scale the compressed dilation by 1.01: still ⊕ 1⊗V_i, but no isometry."""
    real = applications.kraus_to_stinespring

    def scaled(k):
        w = real(k)
        return StinespringRep(w.d_in, w.d_out, w.d_env, 1.01 * w.v)

    monkeypatch.setattr(applications, "kraus_to_stinespring", scaled)


def _change_rho_c_block(change):
    """A patch that replaces factor 0's block (d0 = 0) of ρ_c in the
    algebra's frame by change(block, d_A, d_B); the dilation's frame is left
    alone."""
    def patch(monkeypatch):
        real = applications._to_frame

        def spy(x, dec, *env):
            t = real(x, dec, *env)
            if not env:  # ρ_c; the dilation's call names its environment size
                da, db = dec.factors[0]
                t[:da * db, :, :da * db, :] = change(t[:da * db, :, :da * db, :], da, db)
            return t

        monkeypatch.setattr(applications, "_to_frame", spy)
    return patch


def _nudge(block, da, db):
    """block + 1e-6·‖block‖_F·(1_A⊗h)/‖1_A⊗h‖_F, h a fixed random Hermitian
    matrix on B: the whole change reaches Tr_A of the block."""
    h = np.kron(eye(da), random_hermitian(rng_for(544), db))
    h *= 1e-6 * frob(block.reshape(h.shape)) / frob(h)
    return block + h.reshape(block.shape)


@pytest.mark.parametrize("patch, check", [
    (_rotate_first_factor, "ki_pattern"),
    (_scale_dilation, "ki_isometry"),
    (_change_rho_c_block(_nudge), "ki_fixed_family"),
], ids=["ki_pattern", "ki_isometry", "ki_fixed_family"])
def test_each_ki_factor_check_rejects_its_own_defect(monkeypatch, patch, check):
    checks = _ki_failure(monkeypatch, patch, FactorizationResidual)
    name, residual, limit = checks[-1]
    assert name == check and not residual <= limit
    assert all(res <= lim for _, res, lim in checks[:-1])


def test_a_factor_block_of_rho_c_without_trace_raises_no_fixed_state(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before dividing by the zero trace
        checks = _ki_failure(monkeypatch, _change_rho_c_block(lambda block, da, db: 0 * block),
                             NoFixedState)
    assert [c[0] for c in checks][-2:] == ["ki_pattern", "ki_isometry"]


# ---------------------------------------------------------------------------
# finite-time invariance probe
# ---------------------------------------------------------------------------

def test_probe_invariant_generator_passes():
    bundle = random_instance("gkls", seed=540)
    g = bundle.payload
    dec = meta_algebra(bundle)
    rep = semigroup_invariance_probe(g, dec, [0.1, 1.0, 10.0])
    assert rep.passed
    assert all(res <= 1e-6 for res in rep.max_residuals)


def test_probe_time_zero_is_exact():
    bundle = random_instance("gkls", seed=541)
    g = bundle.payload
    dec = meta_algebra(bundle)
    rep = semigroup_invariance_probe(g, dec, [0.0])
    assert rep.max_residuals[0] <= 1e-12


def test_probe_leakage_scales_linearly_in_time():
    rng = rng_for(542)
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    v = crandn(rng, 2, 2)
    g = make_gkls(v, np.zeros((2, 2), dtype=np.complex128))
    small = semigroup_invariance_probe(g, dec, [1e-4, 2e-4], tol=1e-12)
    r1, r2 = small.max_residuals
    assert r1 > 1e-8  # well above floating noise
    assert 1.9 <= r2 / r1 <= 2.1  # first-order leakage
    assert not semigroup_invariance_probe(g, dec, [1.0]).passed


def dense_probe_reference(g, dec, times, tol=1e-6):
    """The probe as a dense complex expm of L in the matrix-unit basis."""
    import scipy.linalg

    l_super = superop_oracle(lambda x: gkls_apply(g, x), g.d)
    out = []
    for t in times:
        prop = scipy.linalg.expm(t * l_super)
        res = max(pattern_residual((prop @ x.reshape(-1)).reshape(g.d, g.d), dec)
                  for x in algebra_pattern_basis(dec))
        out.append(res / np.linalg.norm(prop))
    return out, all(r <= tol for r in out)


def test_hermitian_frame_is_a_unitary_change_to_hermitian_matrices():
    for d in (1, 2, 5):
        w1, w2, perm = _hermitian_frame(d)
        t = np.diag(w1) + np.eye(d * d)[:, perm] @ np.diag(w2)
        assert frob(dag(t) @ t - eye(d * d)) <= 1e-14
        for r in range(d * d):
            h = t[:, r].reshape(d, d)
            assert frob(h - dag(h)) == 0.0


_PROBE_SHAPES = [
    {"factors": [[1, 2], [1, 1]], "d0": 1, "d_env": 2},          # d = 4
    {"factors": [[2, 2], [1, 2]], "d0": 0, "d_env": 2},          # d = 6
    {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2},          # d = 8
    {"factors": [[2, 3], [2, 2]], "d0": 0, "d_env": 1},          # d = 10
    {"factors": [[2, 2], [2, 2], [1, 4]], "d0": 0, "d_env": 2},  # d = 12
]


@pytest.mark.parametrize("shape", _PROBE_SHAPES)
def test_probe_matches_dense_complex_expm_reference(shape):
    # invariant and perturbed generators, each as sampled (strongly damped)
    # and with K shifted so that tr L = 0 (images of norm ~1 at every t)
    bundle = random_instance("gkls", shape, seed=550)
    g = bundle.payload
    d = g.d
    dec = meta_algebra(bundle)
    rng = rng_for(551 + d)
    v_pert = g.v + 0.05 * crandn(rng, *g.v.shape)
    times = [0.1, 1.0, 10.0]
    for v in (g.v, v_pert):
        g_raw = make_gkls(v, g.k)
        mu = np.trace(superop_oracle(lambda x: gkls_apply(g_raw, x), d)).real / d**2
        for k in (g.k, g.k + 0.5 * mu * eye(d)):
            gg = make_gkls(v, k)
            want, verdict = dense_probe_reference(gg, dec, times)
            rep = semigroup_invariance_probe(gg, dec, times)
            assert rep.passed == verdict
            np.testing.assert_allclose(rep.max_residuals, want, rtol=1e-6, atol=1e-12)
    assert max(want) > 1e-3  # the centred perturbed case leaks visibly


@pytest.mark.parametrize("shape, seed", CLI_CHAIN_CASES)
def test_probe_on_cli_chain_instances_fails_when_perturbed_and_matches_scipy(shape, seed):
    # invariant: rounding level at every t.  K + 1e-2·‖K‖·G/‖G‖ (G complex
    # Gaussian) leaks, so the probe must fail at t = 0.1 and t = 1; with power
    # reuse and rescaled propagators it must match one dense scipy expm per
    # time of the same generator shifted to tr L = 0 (K + μ/2·1 subtracts μ
    # from L, which leaves the residual ratio unchanged)
    g, dec = cli_chain_instance(shape, seed)
    times = [0.1, 1.0, 10.0]
    assert max(semigroup_invariance_probe(g, dec, times).max_residuals) <= 1e-13
    gauss = crandn(rng_for(seed), g.d, g.d)
    leaky = make_gkls(g.v, g.k + 1e-2 * frob(g.k) * gauss / frob(gauss))
    rep = semigroup_invariance_probe(leaky, dec, times)
    assert not rep.passed
    assert min(rep.max_residuals[:2]) > rep.tol
    mu = np.trace(superop_oracle(lambda x: gkls_apply(leaky, x), g.d)).real / g.d**2
    want, _ = dense_probe_reference(make_gkls(leaky.v, leaky.k + 0.5 * mu * eye(g.d)), dec, times)
    np.testing.assert_allclose(rep.max_residuals, want, rtol=1e-12, atol=0)


def test_probe_reuses_a_propagator_only_for_an_integer_multiple_of_its_time():
    assert _integer_ratio(10.0, 1.0) == 10
    assert _integer_ratio(0.3, 0.1) == 3
    for t in (0.35, 0.1, 1.0 + 1e-9, 0.1 * 129, float("nan"), float("inf")):
        assert _integer_ratio(t, 0.1) is None
    assert _integer_ratio(5.0, 0.0) is None
    assert _integer_ratio(5.0, -1.0) is None


def test_probe_survives_a_large_scalar_shift_of_k():
    # K − 100·1 multiplies e^{tL} by e^{200t}: a dense expm overflows at
    # t = 10 and its NaN residual used to vanish inside max(); the centred
    # probe sees the same images up to the scalar
    bundle = random_instance(
        "gkls", {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2}, seed=7)
    g = bundle.payload
    dec = meta_algebra(bundle)
    shifted = make_gkls(g.v, g.k - 100 * eye(g.d))
    rep = semigroup_invariance_probe(shifted, dec, [0.1, 1.0, 10.0])
    assert rep.passed
    assert all(np.isfinite(r) and r <= 1e-12 for r in rep.max_residuals)


def test_probe_fails_on_a_nan_residual(monkeypatch):
    bundle = random_instance("gkls", seed=540)
    dec = meta_algebra(bundle)
    monkeypatch.setattr(applications, "_pattern_residuals",
                        lambda xs, dec: np.full(len(xs), np.nan))
    rep = semigroup_invariance_probe(bundle.payload, dec, [0.1, 10.0])
    assert not rep.passed
    assert all(np.isnan(r) for r in rep.max_residuals)


def test_abelian_coefficients_reject_an_observable_with_one_nan():
    p = 0.7
    ops = [np.sqrt(p) * eye(2), np.sqrt(1 - p) * PAULI["Z"]]
    k = KrausSet(d_in=2, d_out=2, ops=ops)
    c = np.diag([1.0, -1.0]).astype(np.complex128)
    c[1, 1] = np.nan
    with pytest.raises(NotDiagonal):
        maximal_abelian_coefficients(k, diag_dec(2), c)


@pytest.mark.parametrize("pipeline", [fixed_point_state, koashi_imoto_decompose])
def test_fixed_point_pipelines_reject_a_kraus_set_with_one_nan(pipeline):
    op = eye(3)
    op[2, 1] = np.nan
    with pytest.raises(NotTracePreserving) as info:
        pipeline(KrausSet(d_in=3, d_out=3, ops=[op]))
    assert np.isnan(info.value.residual)


def test_koashi_imoto_certifies_closure_without_the_exact_check(monkeypatch):
    calls = count_exact_closure(monkeypatch)
    ops = [np.sqrt(0.5) * eye(2), np.sqrt(0.5) * PAULI["Z"]]
    res = koashi_imoto_decompose(KrausSet(d_in=2, d_out=2, ops=ops))
    assert calls == []
    # the certified bounds s + ε and s + 2ε + ε² of a closed span
    assert res.report["closure_adjoint_residual"] <= 1e-12
    assert res.report["closure_product_residual"] <= 1e-12


def test_koashi_imoto_falls_back_to_one_exact_closure_check(monkeypatch):
    import igkls.algebra as algebra_mod

    calls = count_exact_closure(monkeypatch)

    def fails(mats, d, tol, seed):
        raise DecompositionFailed("no generic split found")

    monkeypatch.setattr(algebra_mod, "_decompose", fails)
    ops = [np.sqrt(0.5) * eye(2), np.sqrt(0.5) * PAULI["Z"]]
    with pytest.raises(DecompositionFailed):  # the span is closed: the failure stands
        koashi_imoto_decompose(KrausSet(d_in=2, d_out=2, ops=ops))
    assert calls == [2]
