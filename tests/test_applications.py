"""Tests for the application-level routines: semicausal generators,
decoherence-free certification, abelian commutation coefficients, channel
fixed points, the Koashi–Imoto split, and the finite-time invariance probe.

Every nontrivial expected value is produced by an oracle computed in this
file (explicit Kraus arithmetic, hand-built channels with known structure)
before being compared to the library output.
"""

from __future__ import annotations

import numpy as np
import pytest

from igkls import (
    AtomicDecomposition,
    GKLSRep,
    KrausSet,
    NoFixedState,
    NotDecoherenceFree,
    NotDiagonal,
    NotInvariant,
    NotMaximalAbelian,
    NotTracePreserving,
    StinespringRep,
    dfs_verify_normal_form,
    fixed_point_state,
    gkls_apply,
    koashi_imoto_decompose,
    maximal_abelian_coefficients,
    random_instance,
    semicausal_build,
    semicausal_check,
    semigroup_invariance_probe,
)
from igkls import applications
from igkls.algebra import algebra_pattern_basis, pattern_residual
from igkls.applications import _hermitian_frame
from igkls.io import _decode_algebra
from igkls.linalg import dag, eye, frob, kron

from conftest import (
    PAULI,
    crandn,
    haar_isometry,
    haar_unitary,
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


def test_semicausal_build_validates_inputs():
    rng = rng_for(503)
    da, db, e = 2, 2, 1
    good_u = haar_isometry(rng, db * e, db)
    zero_a = np.zeros((da, da), dtype=np.complex128)
    zero_b = np.zeros((db * e, db), dtype=np.complex128)
    zero = np.zeros((db, db), dtype=np.complex128)
    with pytest.raises(ValueError):
        semicausal_build(zero_a, 2.0 * good_u, zero_b, zero_a, zero)
    with pytest.raises(ValueError):
        semicausal_build(zero_a, good_u, zero_b, zero_a,
                         np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        semicausal_build(np.zeros((3, 2)), good_u, zero_b, zero_a, zero)


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


# ---------------------------------------------------------------------------
# finite-time invariance probe
# ---------------------------------------------------------------------------

def test_probe_invariant_generator_passes():
    bundle = random_instance("gkls", seed=540)
    g = bundle.payload
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    rep = semigroup_invariance_probe(g, dec, [0.1, 1.0, 10.0])
    assert rep.passed
    assert all(res <= 1e-6 for res in rep.max_residuals)


def test_probe_time_zero_is_exact():
    bundle = random_instance("gkls", seed=541)
    g = bundle.payload
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
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
        worst = 0.0
        for x in algebra_pattern_basis(dec):
            y = (prop @ x.reshape(-1)).reshape(g.d, g.d)
            worst = max(worst, pattern_residual(y, dec) / max(1.0, frob(y)))
        out.append(worst)
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
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
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


def test_probe_survives_a_large_scalar_shift_of_k():
    # K − 100·1 multiplies e^{tL} by e^{200t}: a dense expm overflows at
    # t = 10 and its NaN residual used to vanish inside max(); the centred
    # probe sees the same images up to the scalar
    bundle = random_instance(
        "gkls", {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2}, seed=7)
    g = bundle.payload
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    shifted = make_gkls(g.v, g.k - 100 * eye(g.d))
    rep = semigroup_invariance_probe(shifted, dec, [0.1, 1.0, 10.0])
    assert rep.passed
    assert all(np.isfinite(r) and r <= 1e-12 for r in rep.max_residuals)


def test_probe_fails_on_a_nan_residual(monkeypatch):
    bundle = random_instance("gkls", seed=540)
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    monkeypatch.setattr(applications, "pattern_residual", lambda x, dec: float("nan"))
    rep = semigroup_invariance_probe(bundle.payload, dec, [0.1, 10.0])
    assert not rep.passed
    assert all(np.isnan(r) for r in rep.max_residuals)
