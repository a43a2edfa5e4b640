"""Tests for GKLS generators: evaluation, minimality, gauge, and normal form.

Expected values come from independent oracles: generators are evaluated
through explicit Kraus sums, minimalization results are checked against
hand-computed environment compressions, and gauge recovery is tested on
forward-constructed pairs whose gauge data is known by construction.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import sys

import numpy as np
import pytest

from igkls import (
    AtomicDecomposition,
    AtomicNormalForm,
    FactorizationResidual,
    GKLSRep,
    IgklsError,
    NotEquivalent,
    NotIntertwiner,
    NotInvariant,
    NotMinimal,
    NotSameGenerator,
    StinespringRep,
    algebra_pattern_basis,
    atomic_normal_form,
    generator_superoperator,
    gkls_apply,
    gkls_gauge,
    gkls_minimal_rank,
    gkls_minimalize,
    intertwiner_decompose,
    invariant_split,
    k_only_split,
    minimal_stinespring,
    normal_form_gauge,
    normal_form_minimality,
    normal_form_residuals,
    pattern_residual,
    random_instance,
    reconstruct_from_normal_form,
    reduce_normal_form_minimal,
    stinespring_gauge,
    stinespring_minimal_rank,
    svd_rank,
    twirl_intertwiner,
    twirl_to_commutant,
)
from igkls import algebra, gkls, linalg
from igkls.errors import _recording
from igkls.gkls import _commutator_env_family, _superop_distance
from igkls.linalg import dag, eye, frob, kron

from conftest import (
    crandn,
    haar_isometry,
    haar_unitary,
    kron_oracle,
    meta_algebra,
    random_hermitian,
    rng_for,
    superop_oracle,
)


def make_gkls(v: np.ndarray, k: np.ndarray) -> GKLSRep:
    d = k.shape[0]
    e = v.shape[0] // d
    return GKLSRep(d=d, stine=StinespringRep(d, d, e, v), k=k)


def gkls_kraus_oracle(v: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(X) = sum_n L_n† X L_n − K†X − XK with L_n the environment slices."""
    d = k.shape[0]
    e = v.shape[0] // d
    slices = v.reshape(d, e, d)
    out = -dag(k) @ x - x @ k
    for n in range(e):
        ln = slices[:, n, :]
        out = out + dag(ln) @ x @ ln
    return out


def superop_gap(g1: GKLSRep, g2: GKLSRep) -> float:
    return frob(generator_superoperator(g1) - generator_superoperator(g2))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_gkls_apply_pure_hamiltonian_is_commutator():
    rng = rng_for(401)
    d = 3
    h = random_hermitian(rng, d)
    g = make_gkls(np.zeros((d, d), dtype=np.complex128), 1j * h)
    for _ in range(4):
        x = crandn(rng, d, d)
        assert frob(gkls_apply(g, x) - 1j * (h @ x - x @ h)) <= 1e-12


def test_gkls_apply_matches_kraus_oracle():
    rng = rng_for(402)
    d, e = 3, 2
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g = make_gkls(v, k)
    for _ in range(4):
        x = crandn(rng, d, d)
        assert frob(gkls_apply(g, x) - gkls_kraus_oracle(v, k, x)) <= 1e-12
    sup = generator_superoperator(g)
    oracle = superop_oracle(lambda y: gkls_kraus_oracle(v, k, y), d)
    assert frob(sup - oracle) <= 1e-11


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("e", [0, 1, 3])
def test_generator_superoperator_matches_dense_oracle(d, e):
    rng = rng_for(430 + 10 * d + e)
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g = make_gkls(v, k)
    oracle = superop_oracle(lambda y: gkls_kraus_oracle(v, k, y), d)
    assert frob(generator_superoperator(g) - oracle) <= 1e-12 * max(1.0, frob(oracle))


def test_superop_distance_matches_dense_oracle():
    rng = rng_for(445)
    for d, e1, e2 in [(2, 0, 1), (3, 1, 3), (4, 2, 2), (5, 3, 0)]:
        v1, k1 = crandn(rng, d * e1, d), crandn(rng, d, d)
        v2, k2 = crandn(rng, d * e2, d), crandn(rng, d, d)
        want = frob(superop_oracle(lambda y: gkls_kraus_oracle(v1, k1, y), d)
                    - superop_oracle(lambda y: gkls_kraus_oracle(v2, k2, y), d))
        got = _superop_distance(make_gkls(v1, k1), make_gkls(v2, k2))
        assert abs(got - want) <= 1e-12 * want
    # a gauge-equivalent pair with a larger environment defines the same L
    d, e = 3, 2
    v, k = crandn(rng, d * e, d), crandn(rng, d, d)
    g1 = make_gkls(v, k)
    g2 = gauge_transform(g1, haar_isometry(rng, e + 2, e), crandn(rng, e + 2, 1)[:, 0], 0.3)
    assert _superop_distance(g1, g2) <= 1e-12 * frob(generator_superoperator(g1))


def test_gkls_apply_annihilates_identity_for_balanced_k():
    rng = rng_for(403)
    d, e = 3, 2
    v = crandn(rng, d * e, d)
    k = 0.5 * dag(v) @ v
    g = make_gkls(v, k)
    assert frob(gkls_apply(g, eye(d))) <= 1e-12


def test_gkls_apply_respects_adjoints():
    rng = rng_for(404)
    d, e = 4, 3
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g = make_gkls(v, k)
    for _ in range(5):
        x = crandn(rng, d, d)
        assert frob(gkls_apply(g, dag(x)) - dag(gkls_apply(g, x))) <= 1e-10


# ---------------------------------------------------------------------------
# minimality of the environment
# ---------------------------------------------------------------------------

def test_minimal_rank_generic_and_scalar_cases():
    rng = rng_for(405)
    d, e = 2, 2
    v = crandn(rng, d * e, d)
    assert gkls_minimal_rank(StinespringRep(d, d, e, v)) == d * e
    chi = crandn(rng, e, 1)
    v_pure = kron(eye(d), chi)
    assert gkls_minimal_rank(StinespringRep(d, d, e, v_pure)) == 0


@pytest.mark.parametrize("d,e,reach", [(3, 2, 2), (3, 3, 1), (1, 2, 2)])
def test_commutator_families_match_loop_references(d, e, reach):
    rng = rng_for(404)
    # environment slices confined to `reach` directions, plus a 1⊗|χ⟩ part
    v = (kron_oracle(np.eye(d), crandn(rng, e, reach)) @ crandn(rng, d * reach, d)
         + kron_oracle(np.eye(d), crandn(rng, e, 1)))
    sl = v.reshape(d, e, d)
    env = [sl[c, :, dd] for c in range(d) for dd in range(d) if c != dd]
    env += [sl[c, :, c] - sl[0, :, 0] for c in range(1, d)]
    want_env = np.stack(env, axis=1) if env else np.zeros((e, 0))
    assert np.array_equal(_commutator_env_family(v, d, e), want_env)
    # {((X⊗1_E)v − vX)|ψ⟩} over matrix units X and basis ψ: C^d ⊗ span(env family)
    direct = []
    for b in range(d):
        for c in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[b, c] = 1.0
            direct += list((kron_oracle(unit, np.eye(e)) @ v - v @ unit).T)
    direct = np.stack(direct, axis=1)
    rank = svd_rank(direct)
    assert gkls_minimal_rank(StinespringRep(d, d, e, v)) == rank == d * svd_rank(want_env)
    assert rank == d * reach if d > 1 else rank == 0


def test_minimalize_pure_environment_vector():
    rng = rng_for(406)
    d, e = 3, 2
    chi = crandn(rng, e, 1)
    v = kron(eye(d), chi)
    k = crandn(rng, d, d)
    res = gkls_minimalize(make_gkls(v, k))
    assert res.g_min.d_env == 0
    assert res.g_min.v.shape == (0, d)
    norm2 = float(np.vdot(chi, chi).real)
    assert frob(res.g_min.k - (k - 0.5 * norm2 * eye(d))) <= 1e-12
    assert np.allclose(res.phi_vec, chi[:, 0], atol=1e-12)


def test_minimalize_keeps_minimal_generator():
    rng = rng_for(407)
    d, e = 2, 2
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    assert gkls_minimal_rank(StinespringRep(d, d, e, v)) == d * e
    g = make_gkls(v, k)
    res = gkls_minimalize(g)
    assert res.g_min.d_env == e
    # the environment may be rotated but nothing is absorbed into K
    assert frob(res.g_min.k - k) <= 1e-10
    assert np.linalg.norm(res.phi_vec) <= 1e-10
    assert frob(res.g_min.v - kron(eye(d), res.p) @ v) <= 1e-12
    assert superop_gap(g, res.g_min) <= 1e-10


def test_minimalize_strips_padding_and_pure_component():
    rng = rng_for(408)
    d, e_small, e_big = 2, 2, 4
    v = crandn(rng, d * e_small, d)
    k = crandn(rng, d, d)
    assert gkls_minimal_rank(StinespringRep(d, d, e_small, v)) == d * e_small
    emb = haar_isometry(rng, e_big, e_small)
    chi = crandn(rng, e_big, 1)
    v_pad = kron(eye(d), emb) @ v + kron(eye(d), chi)
    g_pad = make_gkls(v_pad, k)
    res = gkls_minimalize(g_pad)
    assert res.g_min.d_env == e_small
    assert superop_gap(g_pad, res.g_min) <= 1e-9


# ---------------------------------------------------------------------------
# gauge between minimal generators
# ---------------------------------------------------------------------------

def gauge_transform(g: GKLSRep, w: np.ndarray, psi: np.ndarray, mu: float) -> GKLSRep:
    d = g.d
    v2 = kron(eye(d), w) @ g.v + kron(eye(d), psi[:, None])
    k2 = (
        g.k
        + kron(eye(d), np.conj(psi)[None, :] @ w) @ g.v
        + (0.5 * float(np.vdot(psi, psi).real) + 1j * mu) * eye(d)
    )
    e2 = w.shape[0]
    return GKLSRep(d=d, stine=StinespringRep(d, d, e2, v2), k=k2)


def test_gauge_recovers_planted_transformation():
    for seed in range(409, 415):
        rng = rng_for(seed)
        d, e = 2, 2
        v = crandn(rng, d * e, d)
        k = crandn(rng, d, d)
        assert gkls_minimal_rank(StinespringRep(d, d, e, v)) == d * e
        g1 = make_gkls(v, k)
        w0 = haar_unitary(rng, e)
        psi0 = crandn(rng, e, 1)[:, 0]
        mu0 = float(rng.normal())
        g2 = gauge_transform(g1, w0, psi0, mu0)
        assert superop_gap(g1, g2) <= 1e-10
        gauge = gkls_gauge(g1, g2)
        assert frob(gauge.w - w0) <= 1e-8
        assert np.linalg.norm(gauge.psi - psi0) <= 1e-8
        assert abs(gauge.mu - mu0) <= 1e-8


def test_gauge_identity_and_scalar_k_shift():
    rng = rng_for(416)
    d, e = 2, 2
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g1 = make_gkls(v, k)
    gauge = gkls_gauge(g1, g1)
    assert frob(gauge.w - eye(e)) <= 1e-9
    assert np.linalg.norm(gauge.psi) <= 1e-9
    assert abs(gauge.mu) <= 1e-9
    g2 = make_gkls(v, k + 0.7j * eye(d))
    gauge2 = gkls_gauge(g1, g2)
    assert frob(gauge2.w - eye(e)) <= 1e-9
    assert np.linalg.norm(gauge2.psi) <= 1e-9
    assert abs(gauge2.mu - 0.7) <= 1e-10


def test_gauge_rejects_different_generator_and_nonminimal_input():
    rng = rng_for(417)
    d, e = 2, 2
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g1 = make_gkls(v, k)
    g2 = make_gkls(v, k + np.diag([1.0, 2.0]).astype(np.complex128))
    with pytest.raises(NotSameGenerator):
        gkls_gauge(g1, g2)
    chi = crandn(rng, e, 1)
    g_flat = make_gkls(kron(eye(d), chi), k)
    with pytest.raises(NotMinimal):
        gkls_gauge(g_flat, g_flat)


def test_minimalize_then_gauge_over_random_generators():
    # a rank cutoff relative to σ_max alone kept the rounding-noise
    # environment of seeds 13 and 173 (σ ~ 1e-16), and gauge then failed
    for seed in range(40):
        g = random_instance("gkls", seed=seed).payload
        res = gkls_minimalize(g)
        assert gkls_minimal_rank(res.g_min.stine) == g.d * res.g_min.d_env
        gkls_gauge(res.g_min, g)
    assert gkls_minimalize(random_instance("gkls", seed=13).payload).g_min.d_env == 0


@pytest.mark.parametrize("factor", [1.0, 1e4])
def test_minimalize_keeps_a_small_genuine_environment(factor):
    # σ ≈ 1e-6·‖V‖_F lies far above the noise floor at any scale of V; at
    # 1e-13·‖V‖_F it is below tol·‖V‖_F and goes, at V·1 and at V·10⁴
    rng = rng_for(425)
    d = 3
    k = crandn(rng, d, d)
    for weight, kept in [(1e-6, 2), (1e-13, 1)]:
        big, small = crandn(rng, d, d), crandn(rng, d, d)
        slices = np.stack([big, weight * frob(big) / frob(small) * small], axis=1)
        g = make_gkls(factor * slices.reshape(2 * d, d), k)
        res = gkls_minimalize(g)
        assert res.g_min.d_env == kept
        gkls_gauge(res.g_min, g)


def test_same_generator_certificates_fail_on_nan():
    # with one NaN in K the superoperator gap is NaN; a check written
    # `gap > bound` let it through, so minimalize returned a NaN K_min and
    # gauge a finite μ
    bundle = random_instance(
        "gkls", {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2}, seed=7)
    g = gkls_minimalize(bundle.payload).g_min
    k = g.k.copy()
    k[0, 1] = np.nan
    g_nan = GKLSRep(d=g.d, stine=g.stine, k=k)
    with pytest.raises(FactorizationResidual, match="changed the generator"):
        gkls_minimalize(g_nan)
    with pytest.raises(NotSameGenerator, match="different generators"):
        gkls_gauge(g, g_nan)
    with pytest.raises(NotSameGenerator, match="different generators"):
        gkls_gauge(g_nan, g)


# ---------------------------------------------------------------------------
# invariant three-part split
# ---------------------------------------------------------------------------

def test_invariant_split_pure_intertwiner_generator():
    rng = rng_for(418)
    da, db, e = 2, 2, 2
    dec = AtomicDecomposition(d=da * db, u_alg=eye(da * db), d0=0,
                              factors=[(da, db)])
    b_i = crandn(rng, db * e, db)
    hb = random_hermitian(rng, db)
    v = kron(eye(da), b_i)
    k = 0.5 * dag(v) @ v + 1j * kron(eye(da), hb)
    g = make_gkls(v, k)
    split = invariant_split(g, dec)
    scale = max(1.0, frob(v), frob(k))
    assert split.v0.shape == (0, da * db)
    assert split.k0.shape == (0, da * db)
    assert frob(split.a) <= 1e-9 * scale
    assert frob(split.b - v) <= 1e-9 * scale
    assert frob(split.k_alg) <= 1e-9 * scale
    assert frob(split.h_comm - kron(eye(da), hb)) <= 1e-9 * scale


def test_invariant_split_reassembly_check_is_typed_and_fails_on_nan():
    # a NaN in K slips past the structural checks (every comparison with NaN
    # is false) and must be caught by the reassembly check, also under -O
    rng = rng_for(420)
    d, e = 3, 2
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(d, 1)])
    k = crandn(rng, d, d)
    k[0, 1] = np.nan
    with pytest.raises(FactorizationResidual, match="reassemble K"):
        invariant_split(make_gkls(crandn(rng, d * e, d), k), dec)


def test_invariant_split_full_matrix_algebra():
    rng = rng_for(419)
    d, e = 3, 2
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(d, 1)])
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    g = make_gkls(v, k)
    split = invariant_split(g, dec)
    scale = max(1.0, frob(v), frob(k))
    # B intertwines the full matrix algebra, hence B = 1 ⊗ |χ⟩
    chi = np.einsum("aea->e", split.b.reshape(d, e, d)) / d
    assert frob(split.b - kron(eye(d), chi[:, None])) <= 1e-9 * scale
    # exact reassembly of (V, K)
    v_back = split.a + split.b
    k_back = (
        dag(split.b) @ split.a
        + 0.5 * dag(split.b) @ split.b
        + split.k_alg
        + 1j * split.h_comm
    )
    assert frob(v_back - v) <= 1e-12 * scale
    assert frob(k_back - k) <= 1e-12 * scale**2
    assert pattern_residual(split.k_alg, dec) <= 1e-9 * scale
    # the commutant of the full algebra is scalar
    lam = np.trace(split.h_comm) / d
    assert frob(split.h_comm - lam * eye(d)) <= 1e-9 * scale


def test_invariant_split_pure_null_algebra():
    rng = rng_for(420)
    d, e = 2, 2
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=d, factors=[])
    v = crandn(rng, d * e, d)
    k = crandn(rng, d, d)
    split = invariant_split(make_gkls(v, k), dec)
    scale = max(1.0, frob(v), frob(k))
    assert frob(split.v0 - v) <= 1e-12 * scale
    assert frob(split.a) <= 1e-12 * scale
    assert frob(split.b) <= 1e-12 * scale
    assert frob(split.k0 - k) <= 1e-12 * scale
    assert frob(split.k_alg) <= 1e-12 * scale
    assert frob(split.h_comm) <= 1e-12 * scale


def test_invariant_split_rejects_generic_generator():
    rng = rng_for(421)
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    v = crandn(rng, 2, 2)  # one environment dimension, generic: moves offdiagonals
    k = np.zeros((2, 2), dtype=np.complex128)
    with pytest.raises(NotInvariant):
        invariant_split(make_gkls(v, k), dec)


def test_invariant_split_hamiltonian_only():
    rng = rng_for(422)
    da, db, e = 2, 2, 1
    d = da * db
    u = haar_unitary(rng, d)
    dec = AtomicDecomposition(d=d, u_alg=u, d0=0, factors=[(da, db)])
    ha = random_hermitian(rng, da)
    hb = random_hermitian(rng, db)
    h = u @ (kron(ha, eye(db)) + kron(eye(da), hb)) @ dag(u)
    g = make_gkls(np.zeros((d * e, d), dtype=np.complex128), 1j * h)
    split = invariant_split(g, dec)
    scale = max(1.0, frob(h))
    assert frob(split.a) <= 1e-12 * scale
    assert frob(split.b) <= 1e-12 * scale
    assert pattern_residual(split.k_alg, dec) <= 1e-9 * scale
    assert frob(twirl_to_commutant(split.h_comm, dec) - split.h_comm) <= 1e-9 * scale
    assert frob(split.k_alg + 1j * split.h_comm - 1j * h) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# K-only split
# ---------------------------------------------------------------------------

def test_k_only_split_structure_and_reassembly():
    rng = rng_for(423)
    dec_bundle = random_instance("algebra", params={"factors": [[1, 1], [1, 2]], "d0": 1}, seed=423)
    dec = dec_bundle.payload
    d = dec.d
    p0 = dec.p_null()
    k_alg0 = np.zeros((d, d), dtype=np.complex128)
    h0 = np.zeros((d, d), dtype=np.complex128)
    for i, (da, db) in enumerate(dec.factors):
        p_i = dec.p_factor(i)
        k_alg0 += dag(p_i) @ kron(crandn(rng, da, da), eye(db)) @ p_i
        h0 += dag(p_i) @ kron(eye(da), random_hermitian(rng, db)) @ p_i
    c = crandn(rng, dec.d0, d)
    k = k_alg0 + 1j * h0 + dag(p0) @ c
    split = k_only_split(k, dec)
    scale = max(1.0, frob(k))
    back = split.k_alg + 1j * split.h_comm + dag(p0) @ split.k0
    assert frob(back - k) <= 1e-13 * scale
    assert pattern_residual(split.k_alg, dec) <= 1e-9 * scale
    assert frob(split.h_comm - dag(split.h_comm)) <= 1e-13 * scale
    assert frob(twirl_to_commutant(split.h_comm, dec) - split.h_comm) <= 1e-9 * scale
    assert frob(split.k0 - p0 @ k) <= 1e-13 * scale


def test_k_only_split_null_coupling_goes_to_k0():
    rng = rng_for(424)
    dec = AtomicDecomposition(d=3, u_alg=eye(3), d0=1, factors=[(1, 2)])
    c = crandn(rng, 1, 3)
    k = dag(dec.p_null()) @ c
    split = k_only_split(k, dec)
    assert frob(split.k_alg) <= 1e-12
    assert frob(split.h_comm) <= 1e-12
    assert frob(split.k0 - c) <= 1e-12


def test_k_only_split_imaginary_identity_goes_to_h_comm():
    dec = AtomicDecomposition(d=4, u_alg=eye(4), d0=0, factors=[(2, 1), (1, 2)])
    k = 1j * eye(4)
    split = k_only_split(k, dec)
    assert frob(split.h_comm - eye(4)) <= 1e-12
    assert frob(split.k_alg) <= 1e-12


def test_k_only_split_rejects_noninvariant_k():
    dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    k = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    with pytest.raises(NotInvariant):
        k_only_split(k, dec)


def test_k_only_split_fails_on_nan():
    # one NaN entry makes the residuals NaN; Python's max(0.0, nan) drops it
    # and `worst > limit` passes it, so the check must be NaN-propagating
    dec = random_instance("algebra", params={"factors": [[2, 1], [1, 2]], "d0": 1},
                          seed=425).payload
    k = 1j * eye(dec.d)
    k_only_split(k, dec)
    k[0, 1] = np.nan
    with pytest.raises(NotInvariant):
        k_only_split(k, dec)


def test_invariance_checks_fail_on_one_nan_residual(monkeypatch):
    # a NaN that is not the first residual is dropped by Python's max, so the
    # worst residual must be taken NaN-propagating
    g, dec = decode_instance(426, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    real = algebra._pattern_residuals

    def second_is_nan(xs, d):
        out = real(xs, d)
        out[1:2] = np.nan
        return out

    monkeypatch.setattr(algebra, "_pattern_residuals", second_is_nan)
    with pytest.raises(NotInvariant, match="basis element 1"):
        invariant_split(g, dec)
    with pytest.raises(NotInvariant):
        k_only_split(1j * eye(dec.d), dec)


def test_split_a_invariance_fails_when_the_twirl_drops_the_intertwiner(monkeypatch):
    # B = 0 leaves B's part in A = V − (P₀†⊗1)V₀, and Φ_A gains the terms
    # B†(X⊗1)A + A†(X⊗1)B + B†B·X, which leave the algebra; L itself is
    # unchanged, so generator_invariance passes and this check fails first
    g, dec = decode_instance(427, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    invariant_split(g, dec)
    monkeypatch.setattr(gkls, "twirl_intertwiner", lambda v, dec, e: np.zeros_like(v))
    name, residual, lim = _last_check(lambda: invariant_split(g, dec), NotInvariant)
    assert name == "split_a_invariance" and residual > lim


def test_split_b_intertwining_fails_when_the_twirl_keeps_all_of_v(monkeypatch):
    # B = V leaves A = −(P₀†⊗1)V₀, whose map vanishes on the algebra and so
    # passes split_a_invariance; B then carries V's CP part, which does not
    # intertwine the algebra
    g, dec = decode_instance(427, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    invariant_split(g, dec)
    monkeypatch.setattr(gkls, "twirl_intertwiner", lambda v, dec, e: v)
    name, residual, lim = _last_check(lambda: invariant_split(g, dec), NotInvariant)
    assert name == "split_b_intertwining" and residual > lim


def test_k_alg_membership_fails_when_the_commutant_twirl_is_zero(monkeypatch):
    # H_𝒜′ = 0 leaves κ's commutant part in K_𝒜; K still reassembles
    g, dec = decode_instance(1, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    invariant_split(g, dec)
    monkeypatch.setattr(gkls, "twirl_to_commutant", lambda x, dec: np.zeros_like(x))
    name, residual, lim = _last_check(lambda: invariant_split(g, dec), NotInvariant)
    assert name == "k_alg_membership" and residual > lim


def test_intertwiner_reassembly_fails_when_the_factor_traces_are_zero(monkeypatch):
    # the intertwiner check passes; zero parts lift to the null block of B alone
    g, dec = decode_instance(1, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    b = twirl_intertwiner(g.v, dec, g.d_env)
    intertwiner_decompose(b, dec, g.d_env, 1)
    real = algebra._factor_traces
    monkeypatch.setattr(algebra, "_factor_traces",
                        lambda t, dec, trace: [np.zeros_like(p) for p in real(t, dec, trace)])
    name, residual, lim = _last_check(lambda: intertwiner_decompose(b, dec, g.d_env, 1),
                                      NotIntertwiner)
    assert name == "intertwiner_reassembly" and residual > lim


# ---------------------------------------------------------------------------
# atomic normal form: round trips and negative control
# ---------------------------------------------------------------------------

def decode_instance(seed: int, params: dict | None = None):
    bundle = random_instance("gkls", params=params, seed=seed)
    g = bundle.payload
    dec = meta_algebra(bundle)
    return g, dec


def test_atomic_normal_form_zero_generator():
    dec = AtomicDecomposition(d=4, u_alg=eye(4), d0=0, factors=[(2, 2)])
    e = 2
    g = make_gkls(np.zeros((4 * e, 4), dtype=np.complex128),
                  np.zeros((4, 4), dtype=np.complex128))
    nf = atomic_normal_form(g, dec)
    back = reconstruct_from_normal_form(nf)
    assert frob(back.v) <= 1e-12
    assert frob(back.k) <= 1e-12


def test_atomic_normal_form_round_trips_sampled_instances():
    for seed in range(430, 438):
        g, dec = decode_instance(seed)
        nf = atomic_normal_form(g, dec)
        back = reconstruct_from_normal_form(nf)
        scale = max(1.0, frob(g.v), frob(g.k))
        assert frob(back.v - g.v) <= 1e-8 * scale
        assert frob(back.k - g.k) <= 1e-8 * scale
        res = normal_form_residuals(nf)
        assert res["h_selfadjoint"] <= 1e-9
        assert res["u_isometry"] <= 1e-9
        assert res["u_orthogonality"] <= 1e-9


def test_normal_form_checks_fail_on_one_nan():
    g, dec = decode_instance(3, {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2})
    nf = atomic_normal_form(g, dec)
    h_b = [h.copy() for h in nf.h_b]
    h_b[0][0, 0] = np.nan
    bad = AtomicNormalForm(
        dec=nf.dec, v0=nf.v0, k0=nf.k0, k_a=nf.k_a, h_b=h_b, b=nf.b,
        d_f=nf.d_f, a=nf.a, u=nf.u, d_env=nf.d_env,
    )
    assert np.isnan(normal_form_residuals(bad)["h_selfadjoint"])
    with pytest.raises(FactorizationResidual):
        reduce_normal_form_minimal(bad)

    def raises_with_nan(error, fn, *args):
        with pytest.raises(error) as info:
            fn(*args)
        assert np.isnan(info.value.residual)

    # one NaN in a diagonal, then in an off-diagonal A block, and one in V:
    # never numpy's "SVD did not converge", always an igkls error at NaN
    two = {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2}
    three = {"factors": [[2, 2], [1, 3], [1, 1]], "d0": 1, "d_env": 3,
             "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}
    # A_11 is the diagonal block of the d_A = 1 factor, whose commutator
    # family is empty: the guard reads the Stinespring matrix itself
    for params, (i, j) in ((two, (0, 0)), (two, (1, 1)), (three, (0, 1))):
        nf = random_instance("normal_form", params=params, seed=3).payload
        a = [list(row) for row in nf.a]
        assert a[i][j].size
        a[i][j] = a[i][j].copy()
        a[i][j][0, 0] = np.nan
        bad = dataclasses.replace(nf, a=a)
        raises_with_nan(FactorizationResidual, reduce_normal_form_minimal, bad)
        raises_with_nan(NotMinimal, normal_form_gauge, bad, bad)
        raises_with_nan(IgklsError, normal_form_minimality, bad)

    g = random_instance("gkls", seed=1).payload
    g.v[0, 0] = np.nan
    for fn, args in ((gkls_minimal_rank, [g.stine]), (gkls_minimalize, [g]),
                     (stinespring_minimal_rank, [g.stine]), (minimal_stinespring, [g.stine]),
                     (stinespring_gauge, [g.stine, g.stine])):
        raises_with_nan(IgklsError, fn, *args)


def test_reconstruct_with_corrupted_block_isometry_is_not_invariant():
    # find an instance whose leading diagonal block has at least two columns
    # so that a generic mixing matrix genuinely breaks the isometry pattern
    for seed in range(440, 480):
        g, dec = decode_instance(seed)
        nf = atomic_normal_form(g, dec)
        db0 = dec.factors[0][1]
        if nf.d_f[0][0] * db0 >= 2 and frob(nf.a[0][0]) > 0.1:
            break
    else:
        pytest.fail("no suitable instance found")
    rng = rng_for(441)
    cols = nf.d_f[0][0] * db0
    mix = eye(cols) + 0.3 * crandn(rng, cols, cols)
    u = [list(row) for row in nf.u]
    u[0][0] = u[0][0] @ mix
    broken = AtomicNormalForm(
        dec=nf.dec, v0=nf.v0, k0=nf.k0, k_a=nf.k_a, h_b=nf.h_b, b=nf.b,
        d_f=nf.d_f, a=nf.a, u=u, d_env=nf.d_env,
    )
    g_bad = reconstruct_from_normal_form(broken)
    with pytest.raises(NotInvariant) as info:
        invariant_split(g_bad, dec)
    assert info.value.residual >= 1e-3


# ---------------------------------------------------------------------------
# minimality reduction of normal forms
# ---------------------------------------------------------------------------

def _form_with_pure_block_part() -> AtomicNormalForm:
    """One factor (2, 2) whose A_00 is a minimal block on one environment mode
    plus a pure part 1⊗|φ̃⟩, φ̃ ≠ 0, on a second mode."""
    rng = rng_for(450)
    da, db, e = 2, 2, 3
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    a_small = crandn(rng, da, da)  # minimal little block on one mode
    assert gkls_minimal_rank(StinespringRep(da, da, 1, a_small)) == da
    emb = np.array([[1.0], [0.0]], dtype=np.complex128)
    phi_pad = crandn(rng, 2, 1)
    a00 = kron(eye(da), emb) @ a_small + kron(eye(da), phi_pad)
    u00 = haar_isometry(rng, db * e, 2 * db)
    return AtomicNormalForm(
        dec=dec,
        v0=np.zeros((0, d), dtype=np.complex128),
        k0=np.zeros((0, d), dtype=np.complex128),
        k_a=[crandn(rng, da, da)],
        h_b=[random_hermitian(rng, db)],
        b=[crandn(rng, db * e, db)],
        d_f=[[2]],
        a=[[a00]],
        u=[[u00]],
        d_env=e,
    )


def _last_check(fn, error=None) -> tuple:
    """(name, residual, limit) of the last check a call of fn records; the
    call must raise ``error``, or nothing when it is None."""
    checks = []
    with _recording(lambda *check: checks.append(check)), \
            (pytest.raises(error) if error else contextlib.nullcontext()):
        fn()
    return checks[-1]


def _flip_psi_shift(monkeypatch):
    """Make gkls._psi_shift shift by −x: the compensation with the wrong sign."""
    shift = gkls._psi_shift
    monkeypatch.setattr(gkls, "_psi_shift", lambda nf, i, x: shift(nf, i, -x))


def test_reduce_moves_pure_block_part_into_intertwiner():
    nf = _form_with_pure_block_part()
    (da, db), a00, u00 = nf.dec.factors[0], nf.a[0][0], nf.u[0][0]
    red = reduce_normal_form_minimal(nf)
    assert red.d_f[0][0] == 1
    # oracle: rerun the little-generator compression and apply the documented
    # moves of the stripped pure part into the intertwiner and H_B blocks
    little = GKLSRep(d=da, stine=StinespringRep(da, da, 2, a00), k=nf.k_a[0])
    res = gkls_minimalize(little)
    delta = u00 @ kron(res.phi_vec[:, None], eye(db))
    g_mat = dag(nf.b[0]) @ delta
    assert frob(red.a[0][0] - res.g_min.v) <= 1e-12
    assert frob(red.k_a[0] - res.g_min.k) <= 1e-12
    assert frob(red.b[0] - (nf.b[0] + delta)) <= 1e-12
    assert frob(red.h_b[0] - (nf.h_b[0] - 0.5j * (g_mat - dag(g_mat)))) <= 1e-12
    assert frob(red.u[0][0] - u00 @ kron(dag(res.p), eye(db))) <= 1e-12
    g_old = reconstruct_from_normal_form(nf)
    g_new = reconstruct_from_normal_form(red)
    scale = max(1.0, frob(g_old.v), frob(g_old.k))
    assert frob(g_old.v - g_new.v) <= 1e-10 * scale
    assert frob(g_old.k - g_new.k) <= 1e-10 * scale
    assert normal_form_minimality(red)["minimal"]


def test_reduction_reconstruction_fails_on_a_wrong_sign_psi_shift(monkeypatch):
    nf = _form_with_pure_block_part()
    name, residual, lim = _last_check(lambda: reduce_normal_form_minimal(nf))
    assert name == "reduction_reconstruction" and residual <= lim
    _flip_psi_shift(monkeypatch)
    name, residual, lim = _last_check(lambda: reduce_normal_form_minimal(nf), FactorizationResidual)
    assert name == "reduction_reconstruction" and residual > lim


def test_reduce_drops_dead_pair_block():
    params = {"factors": [[1, 2], [1, 2]], "d_f": [[1, 1], [1, 1]], "d_env": 2}
    bundle = random_instance("normal_form", params=params, seed=451)
    nf = bundle.payload
    assert nf.d_f[0][1] == 1
    a = [list(row) for row in nf.a]
    a[0][1] = np.zeros_like(a[0][1])
    dead = AtomicNormalForm(
        dec=nf.dec, v0=nf.v0, k0=nf.k0, k_a=nf.k_a, h_b=nf.h_b, b=nf.b,
        d_f=nf.d_f, a=a, u=nf.u, d_env=nf.d_env,
    )
    red = reduce_normal_form_minimal(dead)
    assert red.d_f[0][1] == 0
    assert red.u[0][1].shape == (nf.dec.factors[0][1] * nf.d_env, 0)
    g_old = reconstruct_from_normal_form(dead)
    g_new = reconstruct_from_normal_form(red)
    scale = max(1.0, frob(g_old.v), frob(g_old.k))
    assert frob(g_old.v - g_new.v) <= 1e-8 * scale
    assert frob(g_old.k - g_new.k) <= 1e-8 * scale
    assert normal_form_minimality(red)["minimal"]


# ---------------------------------------------------------------------------
# gauge between minimal normal forms
# ---------------------------------------------------------------------------

def apply_normal_form_gauge(nf: AtomicNormalForm, w_ii, psi_i, mu_i, w_pairs):
    """Forward-construct the gauge-equivalent normal form."""
    dec = nf.dec
    n = len(dec.factors)
    k_a = []
    h_b = []
    b = []
    a = [list(row) for row in nf.a]
    u = [list(row) for row in nf.u]
    for i, (dai, dbi) in enumerate(dec.factors):
        w = w_ii[i]
        psi = psi_i[i]
        a[i][i] = kron(eye(dai), w) @ nf.a[i][i] + kron(eye(dai), psi[:, None])
        k_a.append(
            nf.k_a[i]
            + kron(eye(dai), np.conj(psi)[None, :] @ w) @ nf.a[i][i]
            + (0.5 * float(np.vdot(psi, psi).real) + 1j * mu_i[i]) * eye(dai)
        )
        shift = nf.u[i][i] @ kron((dag(w) @ psi)[:, None], eye(dbi))
        b.append(nf.b[i] - shift)
        g_mat = dag(nf.b[i]) @ shift
        h_b.append(nf.h_b[i] + 0.5j * (g_mat - dag(g_mat)) - mu_i[i] * eye(dbi))
        for j, (_, dbj) in enumerate(dec.factors):
            w_ij = w if j == i else w_pairs[(i, j)]
            u[i][j] = nf.u[i][j] @ kron(dag(w_ij), eye(dbj))
            if j != i:
                a[i][j] = kron(eye(dai), w_ij) @ nf.a[i][j]
    return AtomicNormalForm(
        dec=dec, v0=nf.v0, k0=nf.k0, k_a=k_a, h_b=h_b, b=b,
        d_f=nf.d_f, a=a, u=u, d_env=nf.d_env,
    )


def planted_gauge_data(nf: AtomicNormalForm, rng):
    w_ii = []
    psi_i = []
    mu_i = []
    w_pairs = {}
    for i in range(len(nf.dec.factors)):
        dfi = nf.d_f[i][i]
        w_ii.append(haar_unitary(rng, dfi) if dfi else np.zeros((0, 0), dtype=np.complex128))
        psi_i.append(0.5 * crandn(rng, dfi, 1)[:, 0] if dfi
                     else np.zeros(0, dtype=np.complex128))
        mu_i.append(float(rng.normal()))
        for j in range(len(nf.dec.factors)):
            if j == i:
                continue
            dfij = nf.d_f[i][j]
            w_pairs[(i, j)] = (haar_unitary(rng, dfij) if dfij
                               else np.zeros((0, 0), dtype=np.complex128))
    return w_ii, psi_i, mu_i, w_pairs


def _reduced_gkls_form(seed: int) -> AtomicNormalForm:
    bundle = random_instance("gkls", seed=seed)
    return reduce_normal_form_minimal(atomic_normal_form(bundle.payload, meta_algebra(bundle)))


# three factors, d0 = 1, with empty pair blocks next to live ones
THREE_FACTORS = {"factors": [[4, 4], [3, 3], [2, 3]], "d0": 1, "d_env": 2,
                 "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 0]]}


def test_normal_form_gauge_recovers_planted_data():
    hits = 0
    three = reduce_normal_form_minimal(
        random_instance("normal_form", params=THREE_FACTORS, seed=456).payload)
    assert three.d_f[0] == [1, 1, 0]  # an empty pair block next to live ones
    forms = [(seed, _reduced_gkls_form(seed)) for seed in (452, 453, 454, 455)] + [(456, three)]
    for seed, nf1 in forms:
        rng = rng_for(1000 + seed)
        w_ii, psi_i, mu_i, w_pairs = planted_gauge_data(nf1, rng)
        nf2 = apply_normal_form_gauge(nf1, w_ii, psi_i, mu_i, w_pairs)
        gauge = normal_form_gauge(nf1, nf2, mode="full")
        for i in range(len(nf1.dec.factors)):
            assert frob(gauge.w_ii[i] - w_ii[i]) <= 1e-7
            assert np.linalg.norm(gauge.psi_i[i] - psi_i[i]) <= 1e-7
            assert abs(gauge.mu_i[i] - mu_i[i]) <= 1e-7
            hits += nf1.d_f[i][i] > 0
        for key, w in w_pairs.items():
            assert frob(gauge.w_pairs[key] - w) <= 1e-7
    assert hits > 0  # at least one nontrivial diagonal gauge was exercised


def test_normal_form_gauge_names_the_block_whose_gauge_fails():
    # A_ij → (1⊗T)A_ij with U_ij → U_ij(T⁻¹⊗1) keeps (V, K) but changes the
    # block's own map, so only that block's gauge fails
    nf = reduce_normal_form_minimal(
        random_instance("normal_form", params=THREE_FACTORS, seed=456).payload)
    for (i, j), want in (((0, 0), r"factor 0: diagonal data"), ((0, 1), r"pair \(0,1\): blocks")):
        (dai, _), (_, dbj) = nf.dec.factors[i], nf.dec.factors[j]
        t = np.diag([1.5] + [1.0] * (nf.d_f[i][j] - 1)).astype(np.complex128)
        a, u = [list(row) for row in nf.a], [list(row) for row in nf.u]
        a[i][j] = kron(eye(dai), t) @ a[i][j]
        u[i][j] = u[i][j] @ kron(np.linalg.inv(t), eye(dbj))
        for mode in ("full", "algebra-only"):
            with pytest.raises(NotEquivalent, match=want):
                normal_form_gauge(nf, dataclasses.replace(nf, a=a, u=u), mode=mode)


def test_gauge_substitution_fails_on_a_wrong_sign_psi_shift(monkeypatch):
    nf1 = _reduced_gkls_form(454)  # one factor, d_F = 2
    data = planted_gauge_data(nf1, rng_for(1454))
    assert max(np.linalg.norm(psi) for psi in data[1]) > 0.1
    nf2 = apply_normal_form_gauge(nf1, *data)
    name, residual, lim = _last_check(lambda: normal_form_gauge(nf1, nf2, mode="full"))
    assert name == "gauge_substitution" and residual <= lim
    _flip_psi_shift(monkeypatch)
    name, residual, lim = _last_check(lambda: normal_form_gauge(nf1, nf2, mode="full"),
                                      NotEquivalent)
    assert name == "gauge_substitution" and residual > lim


def test_normal_form_gauge_identity_and_scalar_shift():
    params = {"factors": [[2, 2]], "d0": 0, "d_f": [[1]], "d_env": 2}
    bundle = random_instance("normal_form", params=params, seed=456)
    nf1 = reduce_normal_form_minimal(bundle.payload)
    gauge = normal_form_gauge(nf1, nf1, mode="full")
    assert frob(gauge.w_ii[0] - eye(nf1.d_f[0][0])) <= 1e-9
    assert np.linalg.norm(gauge.psi_i[0]) <= 1e-9
    assert abs(gauge.mu_i[0]) <= 1e-9
    # moving 0.3·i between k_a and h_b leaves (V, K) fixed and shows up as mu
    da0, db0 = nf1.dec.factors[0]
    nf2 = AtomicNormalForm(
        dec=nf1.dec, v0=nf1.v0, k0=nf1.k0,
        k_a=[nf1.k_a[0] + 0.3j * eye(da0)],
        h_b=[nf1.h_b[0] - 0.3 * eye(db0)],
        b=nf1.b, d_f=nf1.d_f, a=nf1.a, u=nf1.u, d_env=nf1.d_env,
    )
    gauge2 = normal_form_gauge(nf1, nf2, mode="full")
    assert abs(gauge2.mu_i[0] - 0.3) <= 1e-9
    assert frob(gauge2.w_ii[0] - eye(nf1.d_f[0][0])) <= 1e-8
    assert np.linalg.norm(gauge2.psi_i[0]) <= 1e-8


def test_normal_form_gauge_rejects_different_generators():
    params = {"factors": [[2, 2]], "d0": 0, "d_f": [[1]], "d_env": 2}
    nf1 = reduce_normal_form_minimal(
        random_instance("normal_form", params=params, seed=457).payload
    )
    nf2 = reduce_normal_form_minimal(
        random_instance("normal_form", params=params, seed=458).payload
    )
    with pytest.raises(NotEquivalent):
        normal_form_gauge(nf1, nf2, mode="full")


@pytest.mark.parametrize("field", ["k0", "h_b"])
def test_normal_form_gauge_rejects_a_nan_entry(field):
    params = {"factors": [[2, 2]], "d0": 1, "d_f": [[1]], "d_env": 2}
    nf1 = reduce_normal_form_minimal(
        random_instance("normal_form", params=params, seed=459).payload
    )
    k0 = nf1.k0.copy()
    h_b = [h.copy() for h in nf1.h_b]
    (k0 if field == "k0" else h_b[0])[0, 0] = np.nan
    nf2 = AtomicNormalForm(
        dec=nf1.dec, v0=nf1.v0, k0=k0, k_a=nf1.k_a, h_b=h_b, b=nf1.b,
        d_f=nf1.d_f, a=nf1.a, u=nf1.u, d_env=nf1.d_env,
    )
    with pytest.raises(NotEquivalent):
        normal_form_gauge(nf1, nf2, mode="full")



@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_form_gauge_algebra_only(seed):
    nf = random_instance("normal_form", seed=seed).payload
    nf1 = reduce_normal_form_minimal(nf)
    gauge = normal_form_gauge(nf1, nf1, mode="algebra-only")
    for w, psi, mu in zip(gauge.w_ii, gauge.psi_i, gauge.mu_i):
        assert frob(w - eye(w.shape[0])) <= 1e-8
        assert np.linalg.norm(psi) <= 1e-8 and abs(mu) <= 1e-8
    # K moved on the algebra: the generators differ there
    moved = AtomicNormalForm(
        dec=nf1.dec, v0=nf1.v0, k0=nf1.k0, k_a=[k + 1e-3 for k in nf1.k_a], h_b=nf1.h_b,
        b=nf1.b, d_f=nf1.d_f, a=nf1.a, u=nf1.u, d_env=nf1.d_env,
    )
    checks = []
    with _recording(lambda *check: checks.append(check)), pytest.raises(NotEquivalent):
        normal_form_gauge(nf1, moved, mode="algebra-only")
    name, residual, tol = checks[-1]
    assert name == "same_on_algebra" and residual > tol
    if seed == 0:  # the unreduced form is not minimal
        with pytest.raises(NotMinimal):
            normal_form_gauge(nf, nf, mode="algebra-only")

# ---------------------------------------------------------------------------
# the (system, environment) layout lives in linalg's slot helpers
# ---------------------------------------------------------------------------

def _is_identity(m) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0]))


def test_normal_form_pipeline_makes_no_identity_factor_krons(monkeypatch):
    """kron(x, 1) and kron(1, x) are reshapes (linalg._on_system/_on_env);
    a d = 32 normal form, its reduction and its gauge make none of them."""
    orig = linalg.kron
    sites = collections.Counter()

    def counting_kron(a, b):
        if _is_identity(a) or _is_identity(b):
            caller = sys._getframe(1)
            sites[f"{caller.f_code.co_filename}:{caller.f_lineno} "
                  f"({caller.f_code.co_name})"] += 1
        return orig(a, b)

    for name, mod in list(sys.modules.items()):
        if (name == "igkls" or name.startswith("igkls.")) \
                and getattr(mod, "kron", None) is orig:
            monkeypatch.setattr(mod, "kron", counting_kron)
    shape = {"factors": [[4, 4], [3, 3], [2, 3]], "d0": 1, "d_env": 2,
             "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 0]]}
    bundle = random_instance("gkls", shape, seed=1)
    dec = meta_algebra(bundle)
    nf = reduce_normal_form_minimal(atomic_normal_form(bundle.payload, dec))
    normal_form_gauge(nf, nf)
    assert not sites, dict(sites)
