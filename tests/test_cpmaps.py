"""CP maps: representations, minimality, gauge, invariance, block form."""

import numpy as np
import pytest

from igkls import (
    AtomicDecomposition,
    KrausSet,
    NotInvariant,
    NotMinimal,
    NotSameMap,
    StinespringRep,
    atomic_block_factorize,
    choi,
    cp_apply,
    cp_invariance_check,
    dag,
    eye,
    frob,
    kraus_to_stinespring,
    kron,
    minimal_stinespring,
    orthogonality_check,
    random_instance,
    reassemble_factorization,
    stinespring_gauge,
    stinespring_minimal_rank,
    stinespring_to_kraus,
)
from igkls.io import _decode_algebra
from conftest import (
    PAULI,
    crandn,
    haar_isometry,
    haar_unitary,
    heisenberg_apply_oracle,
    kron_oracle,
    rng_for,
    superop_oracle,
)


def _random_kraus(rng, d, n):
    return KrausSet(d_in=d, d_out=d, ops=[crandn(rng, d, d) / np.sqrt(n) for _ in range(n)])


# ---------------------------------------------------------------------------
# representations and evaluation
# ---------------------------------------------------------------------------


def test_cp_apply_kraus_matches_loop_oracle():
    rng = rng_for(300)
    k = _random_kraus(rng, 3, 2)
    x = crandn(rng, 3, 3)
    assert frob(cp_apply(k, x) - heisenberg_apply_oracle(k.ops, x)) <= 1e-12


def test_kraus_stinespring_round_trips_preserve_the_map():
    rng = rng_for(301)
    k = _random_kraus(rng, 3, 2)
    s = kraus_to_stinespring(k)
    assert (s.d_in, s.d_out, s.d_env) == (3, 3, 2)
    back = stinespring_to_kraus(s)
    for op1, op2 in zip(k.ops, back.ops):
        assert frob(op1 - op2) <= 1e-15
    # both representations evaluate identically
    s_mat = superop_oracle(lambda x: cp_apply(s, x), 3)
    k_mat = superop_oracle(lambda x: cp_apply(k, x), 3)
    assert frob(s_mat - k_mat) <= 1e-12


def test_cp_apply_unitary_conjugation_and_unitality():
    rng = rng_for(302)
    u = haar_unitary(rng, 3)
    k = KrausSet(d_in=3, d_out=3, ops=[u])
    x = crandn(rng, 3, 3)
    assert frob(cp_apply(k, x) - dag(u) @ x @ u) <= 1e-12
    assert frob(cp_apply(k, eye(3)) - eye(3)) <= 1e-12


def test_representation_shape_validation():
    with pytest.raises(ValueError):
        KrausSet(d_in=2, d_out=2, ops=[np.zeros((3, 2))])
    with pytest.raises(ValueError):
        StinespringRep(d_in=2, d_out=2, d_env=2, v=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------


def test_choi_of_identity_channel_is_maximally_entangled():
    k = KrausSet(d_in=2, d_out=2, ops=[eye(2)])
    c = choi(k)
    w = np.linalg.eigvalsh(c)
    assert np.count_nonzero(w > 1e-10) == 1
    assert abs(w[-1] - 2.0) <= 1e-12
    omega = np.zeros(4, dtype=np.complex128)
    omega[0] = omega[3] = 1.0 / np.sqrt(2.0)
    assert frob(c - 2.0 * np.outer(omega, omega.conj())) <= 1e-12


def test_choi_of_dephasing_has_rank_two():
    k = KrausSet(d_in=2, d_out=2,
                 ops=[PAULI["I"] / np.sqrt(2), PAULI["Z"] / np.sqrt(2)])
    w = np.linalg.eigvalsh(choi(k))
    assert np.count_nonzero(w > 1e-10) == 2


def test_choi_of_random_cp_map_is_psd():
    rng = rng_for(303)
    k = _random_kraus(rng, 3, 3)
    w = np.linalg.eigvalsh(choi(k))
    assert w.min() >= -1e-10


# ---------------------------------------------------------------------------
# minimal dilations
# ---------------------------------------------------------------------------


def test_minimal_stinespring_collapses_redundant_kraus_set():
    k = KrausSet(d_in=2, d_out=2,
                 ops=[PAULI["I"] / np.sqrt(2), 0.5 * PAULI["Z"], 0.5 * PAULI["Z"]])
    s = kraus_to_stinespring(k)
    assert stinespring_minimal_rank(s) == 2
    s_min, w = minimal_stinespring(s)
    assert s_min.d_env == 2
    assert w.shape == (3, 2)
    assert frob(dag(w) @ w - eye(2)) <= 1e-12
    assert frob(kron(eye(2), w) @ s_min.v - s.v) <= 1e-12
    m1 = superop_oracle(lambda x: cp_apply(s, x), 2)
    m2 = superop_oracle(lambda x: cp_apply(s_min, x), 2)
    assert frob(m1 - m2) <= 1e-12


def test_minimal_stinespring_of_zero_map_drops_the_environment():
    k = KrausSet(d_in=2, d_out=2, ops=[np.zeros((2, 2))])
    s_min, w = minimal_stinespring(kraus_to_stinespring(k))
    assert s_min.d_env == 0
    assert w.shape == (1, 0)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frob(cp_apply(s_min, x)) == 0.0


def test_minimal_stinespring_keeps_already_minimal_inputs():
    rng = rng_for(304)
    k = _random_kraus(rng, 2, 3)  # three generic Kraus operators: minimal
    s = kraus_to_stinespring(k)
    assert stinespring_minimal_rank(s) == 3
    s_min, w = minimal_stinespring(s)
    assert s_min.d_env == 3
    assert frob(kron(eye(2), w) @ s_min.v - s.v) <= 1e-12


@pytest.mark.parametrize("stinespring", [False, True], ids=["kraus", "stinespring"])
def test_choi_of_rectangular_map_matches_unit_loop_oracle(stinespring):
    # d_in ≠ d_out pins the (k, p), (l, q) index order of the unit-image tensor
    rng = rng_for(315)
    d_in, d_out = 2, 3
    k = KrausSet(d_in=d_in, d_out=d_out, ops=[crandn(rng, d_in, d_out) for _ in range(3)])
    want = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for a in range(d_in):
        for b in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=np.complex128)
            unit[a, b] = 1.0
            want += kron_oracle(unit, heisenberg_apply_oracle(k.ops, unit))
    rep = kraus_to_stinespring(k) if stinespring else k
    assert frob(choi(rep) - want) <= 1e-12


# ---------------------------------------------------------------------------
# dilation gauge
# ---------------------------------------------------------------------------


def test_stinespring_gauge_recovers_seeded_unitary():
    rng = rng_for(305)
    s1 = kraus_to_stinespring(_random_kraus(rng, 3, 2))
    assert stinespring_minimal_rank(s1) == 2
    w0 = haar_unitary(rng, 2)
    s2 = StinespringRep(3, 3, 2, kron(eye(3), w0) @ s1.v)
    w = stinespring_gauge(s1, s2)
    assert frob(w - w0) <= 1e-8


def test_stinespring_gauge_of_identical_representations_is_identity():
    rng = rng_for(306)
    s1 = kraus_to_stinespring(_random_kraus(rng, 2, 2))
    w = stinespring_gauge(s1, s1)
    assert frob(w - eye(2)) <= 1e-10


def test_stinespring_gauge_detects_environment_padding():
    rng = rng_for(307)
    s1 = kraus_to_stinespring(_random_kraus(rng, 2, 2))
    pad = np.zeros((3, 2), dtype=np.complex128)
    pad[0, 0] = pad[1, 1] = 1.0
    s2 = StinespringRep(2, 2, 3, kron(eye(2), pad) @ s1.v)
    w = stinespring_gauge(s1, s2)
    assert frob(w - pad) <= 1e-8


def test_stinespring_gauge_rejects_non_minimal_first_argument():
    rng = rng_for(308)
    op = crandn(rng, 2, 2)
    k = KrausSet(d_in=2, d_out=2, ops=[op, op])  # doubled operator: compressible
    s = kraus_to_stinespring(k)
    with pytest.raises(NotMinimal):
        stinespring_gauge(s, s)


def test_stinespring_gauge_rejects_different_maps():
    rng = rng_for(309)
    s1 = kraus_to_stinespring(_random_kraus(rng, 2, 2))
    s2 = kraus_to_stinespring(_random_kraus(rng, 2, 2))
    with pytest.raises(NotSameMap):
        stinespring_gauge(s1, s2)


def test_stinespring_gauge_rejects_a_nan_entry():
    rng = rng_for(309)
    s1 = kraus_to_stinespring(_random_kraus(rng, 2, 2))
    s2 = StinespringRep(2, 2, 2, s1.v.copy())
    s2.v[1, 0] = np.nan
    with pytest.raises(NotSameMap):
        stinespring_gauge(s1, s2)


# ---------------------------------------------------------------------------
# algebra invariance
# ---------------------------------------------------------------------------


def _factor_dec(d_a, d_b):
    return AtomicDecomposition(d=d_a * d_b, u_alg=eye(d_a * d_b), d0=0,
                               factors=[(d_a, d_b)])


def _swap_matrix(d):
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def test_cp_invariance_check_accepts_local_unitary_conjugation():
    rng = rng_for(310)
    u_a = haar_unitary(rng, 2)
    k = KrausSet(d_in=4, d_out=4, ops=[kron(u_a, eye(2))])
    report = cp_invariance_check(k, _factor_dec(2, 2), _factor_dec(2, 2), tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_cp_invariance_check_rejects_swap_conjugation():
    k = KrausSet(d_in=4, d_out=4, ops=[_swap_matrix(2)])
    report = cp_invariance_check(k, _factor_dec(2, 2), _factor_dec(2, 2), tol=1e-9)
    assert not report.passed
    assert report.max_residual > 1e-1
    assert 0 <= report.worst_index < len(report.residuals)


# ---------------------------------------------------------------------------
# block factorization of invariant maps
# ---------------------------------------------------------------------------


def test_atomic_block_factorize_environment_side_map():
    # Kraus operators 1_A ⊗ b_n act only on the multiplicity slot; the b_n are
    # env slices of one isometry so that Σ b_n†b_n = 1 and the image of x⊗1 is x⊗1
    rng = rng_for(311)
    da, db, n = 2, 2, 2
    w_env = haar_isometry(rng, db * n, db).reshape(db, n, db)
    ops = [kron(eye(da), w_env[:, idx, :]) for idx in range(n)]
    k = KrausSet(d_in=da * db, d_out=da * db, ops=ops)
    s = kraus_to_stinespring(k)
    dec = _factor_dec(da, db)
    bf = atomic_block_factorize(s, dec, dec)
    assert bf.d_f == [[1]]
    # the system-side factor is scalar: a ∝ 1_A
    a = bf.a[0][0]
    c = np.trace(a) / da
    assert frob(a - c * eye(da)) <= 1e-9
    v_back = reassemble_factorization(bf, dec, dec)
    assert frob(v_back - s.v) <= 1e-8 * max(1.0, frob(s.v))


def test_atomic_block_factorize_round_trip_on_random_invariant_maps():
    for seed in range(6):
        bundle = random_instance("cp_map", {}, seed=seed + 50)
        rec = bundle.payload
        dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
        bf = atomic_block_factorize(rec.stine, dec, dec)
        rep = orthogonality_check(bf)
        assert rep.passed, rep.max_residual
        assert rep.max_residual <= 1e-9
        v_back = reassemble_factorization(bf, dec, dec)
        scale = max(1.0, frob(rec.stine.v))
        assert frob(v_back - rec.stine.v) <= 1e-8 * scale


def test_atomic_block_factorize_zero_cross_blocks():
    # pinned multiplicity table with zero off-diagonal coupling
    params = {"factors": [[1, 2], [1, 1]], "d0": 0, "d_env": 2,
              "d_f": [[1, 0], [0, 1]]}
    bundle = random_instance("cp_map", params, seed=9)
    rec = bundle.payload
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    bf = atomic_block_factorize(rec.stine, dec, dec)
    assert bf.d_f[0][1] == 0 and bf.d_f[1][0] == 0
    assert bf.a[0][1].size == 0 and bf.u[1][0].size == 0
    v_back = reassemble_factorization(bf, dec, dec)
    assert frob(v_back - rec.stine.v) <= 1e-8 * max(1.0, frob(rec.stine.v))


def test_atomic_block_factorize_rejects_non_invariant_maps():
    k = KrausSet(d_in=4, d_out=4, ops=[_swap_matrix(2)])
    dec = _factor_dec(2, 2)
    with pytest.raises(NotInvariant):
        atomic_block_factorize(kraus_to_stinespring(k), dec, dec)


def test_orthogonality_check_flags_corrupted_isometries():
    bundle = random_instance("cp_map", {"factors": [[2, 2]], "d0": 0, "d_env": 2,
                                        "d_f": [[2]]}, seed=4)
    rec = bundle.payload
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    bf = atomic_block_factorize(rec.stine, dec, dec)
    assert orthogonality_check(bf).passed
    rng = rng_for(312)
    bf.u[0][0] = bf.u[0][0] @ (eye(bf.u[0][0].shape[1])
                               + 0.3 * crandn(rng, bf.u[0][0].shape[1], bf.u[0][0].shape[1]))
    rep = orthogonality_check(bf)
    assert not rep.passed
    assert rep.worst_triple is not None


def test_orthogonality_check_fails_on_a_nan_entry():
    bundle = random_instance("cp_map", {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2,
                                        "d_f": [[2, 0], [1, 0]]}, seed=1)
    dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
    bf = atomic_block_factorize(bundle.payload.stine, dec, dec)
    assert orthogonality_check(bf).passed
    bf.u[1][0][0, 0] = np.nan
    rep = orthogonality_check(bf)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    assert rep.worst_triple[0] == 1
