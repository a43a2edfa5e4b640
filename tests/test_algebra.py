"""*-algebra closure, commutants, twirls, and the atomic decomposition."""

import numpy as np
import pytest

from igkls import (
    AlgebraBasis,
    AtomicDecomposition,
    NotClosed,
    NotIntertwiner,
    algebra_from_decomposition,
    algebra_pattern_basis,
    atomic_decompose,
    close_star_algebra,
    closure_residuals,
    commutant,
    commutant_project,
    dag,
    eye,
    frob,
    intertwiner_decompose,
    kron,
    membership_residual,
    pattern_residual,
    twirl_intertwiner,
    twirl_to_commutant,
)
from conftest import (
    PAULI,
    block_algebra_projector_oracle,
    crandn,
    frob_oracle,
    haar_unitary,
    kron_oracle,
    rng_for,
)


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_close_star_algebra_of_pauli_z_is_two_dimensional():
    alg = close_star_algebra([PAULI["Z"]], unital=True)
    assert alg.dim == 2
    # span is exactly the diagonal matrices
    for m in (eye(2), PAULI["Z"], np.diag([3.0, -1.0])):
        assert membership_residual(m, alg) <= 1e-10
    assert membership_residual(PAULI["X"], alg) > 0.9


def test_close_star_algebra_no_generators_unital_is_scalars():
    alg = close_star_algebra([], unital=True, tol=1e-9)
    assert alg.dim == 1
    assert alg.ambient_dim == 1
    assert alg.contains_identity
    assert membership_residual(eye(1), alg) <= 1e-12
    # an explicit ambient dimension scales the same answer
    alg3 = close_star_algebra([], unital=True, dim=3)
    assert alg3.ambient_dim == 3 and alg3.dim == 1
    assert membership_residual(eye(3), alg3) <= 1e-10


def test_close_star_algebra_single_offdiagonal_unit_generates_full_m2():
    alg = close_star_algebra([_unit(2, 0, 1)], unital=False)
    assert alg.dim == 4
    for i in range(2):
        for j in range(2):
            assert membership_residual(_unit(2, i, j), alg) <= 1e-10


def test_closure_residuals_certify_product_and_adjoint_closure():
    rng = rng_for(200)
    gens = [crandn(rng, 3, 3) for _ in range(2)]
    alg = close_star_algebra(gens, unital=True)
    adj_res, prod_res = closure_residuals(alg)
    assert adj_res <= 1e-10
    assert prod_res <= 1e-10


def test_membership_residual_matches_projection_oracle():
    alg = close_star_algebra([PAULI["Z"]], unital=True)  # diagonal 2×2 matrices
    x = _unit(2, 0, 1)
    # oracle: distance of x from the diagonal subspace is ‖offdiag(x)‖ = 1
    assert membership_residual(x, alg) == pytest.approx(1.0, abs=1e-12)
    y = np.array([[2.0, 0.5], [0.0, -1.0]])
    assert membership_residual(y, alg) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------


def test_commutant_of_scalars_is_everything():
    com = commutant(AlgebraBasis(ambient_dim=2, basis=[eye(2) / np.sqrt(2)],
                                 contains_identity=True))
    assert com.dim == 4


def test_commutant_of_full_matrix_algebra_is_scalars():
    full = close_star_algebra([_unit(2, 0, 1)], unital=False)
    com = commutant(full)
    assert com.dim == 1
    assert membership_residual(eye(2) / np.sqrt(2), com) <= 1e-10


def test_commutant_of_m2_tensor_one_is_one_tensor_m3():
    gens = [kron(p, eye(3)) for p in (PAULI["X"], PAULI["Z"])]
    alg = close_star_algebra(gens, unital=True)
    com = commutant(alg)
    assert com.dim == 9
    for i in range(3):
        for j in range(3):
            assert membership_residual(kron(eye(2), _unit(3, i, j)), com) <= 1e-9
    # commutation really holds
    for b in com.basis:
        for g in gens:
            assert frob(b @ g - g @ b) <= 1e-9


def test_bicommutant_reproduces_the_algebra():
    rng = rng_for(201)
    for trial in range(3):
        gens = [crandn(rng, 4, 4) for _ in range(2)]
        alg = close_star_algebra(gens, unital=True)
        bicom = commutant(commutant(alg))
        assert bicom.dim == alg.dim
        for b in alg.basis:
            assert membership_residual(b, bicom) <= 1e-8
        for b in bicom.basis:
            assert membership_residual(b, alg) <= 1e-8


# ---------------------------------------------------------------------------
# twirls — Pauli-group oracle first
# ---------------------------------------------------------------------------


def _pauli_twirl_oracle(x: np.ndarray, db: int) -> np.ndarray:
    """Conditional expectation onto (M₂⊗1_db)′ via the Pauli 1-design."""
    out = np.zeros_like(x)
    for name in ("I", "X", "Y", "Z"):
        g = kron_oracle(PAULI[name], np.eye(db, dtype=np.complex128))
        out += dag(g) @ x @ g
    return out / 4.0


def test_twirl_to_commutant_matches_pauli_group_average():
    rng = rng_for(202)
    for db in (1, 2, 3):
        u = haar_unitary(rng, 2 * db)
        dec = AtomicDecomposition(d=2 * db, u_alg=u, d0=0, factors=[(2, db)])
        x = crandn(rng, 2 * db, 2 * db)
        want = u @ _pauli_twirl_oracle(dag(u) @ x @ u, db) @ dag(u)
        got = twirl_to_commutant(x, dec)
        assert frob(got - want) <= 1e-10


def test_twirl_to_commutant_is_idempotent_and_lands_in_commutant():
    rng = rng_for(203)
    dec = AtomicDecomposition(
        d=9, u_alg=haar_unitary(rng, 9), d0=1, factors=[(2, 2), (2, 2)]
    )
    alg = algebra_from_decomposition(dec)
    com = commutant(alg)
    for _ in range(4):
        x = crandn(rng, 9, 9)
        t1 = twirl_to_commutant(x, dec)
        t2 = twirl_to_commutant(t1, dec)
        assert frob(t2 - t1) <= 1e-10 * max(1.0, frob(x))
        assert membership_residual(t1, com) <= 1e-9 * max(1.0, frob(x))
    # commutant elements with no null component are fixed points
    c = sum(crandn(rng, 1, 1)[0, 0] * b for b in com.basis)
    pi0 = dag(dec.p_null()) @ dec.p_null()
    c = c - pi0 @ c @ pi0  # strip the null block, which the twirl zeroes
    assert frob(twirl_to_commutant(c, dec) - c) <= 1e-9 * max(1.0, frob(c))


def _pauli_intertwiner_oracle(v: np.ndarray, db: int, e: int) -> np.ndarray:
    """Average (P†⊗1_db⊗1_e)·v·(P⊗1_db) over the Pauli basis of M₂."""
    out = np.zeros_like(v)
    for name in ("I", "X", "Y", "Z"):
        p = PAULI[name]
        left = kron_oracle(kron_oracle(dag(p), np.eye(db)), np.eye(e))
        right = kron_oracle(p, np.eye(db))
        out += left @ v @ right
    return out / 4.0


def test_twirl_intertwiner_matches_pauli_group_average():
    rng = rng_for(204)
    db, e = 2, 2
    d = 2 * db
    u = haar_unitary(rng, d)
    dec = AtomicDecomposition(d=d, u_alg=u, d0=0, factors=[(2, db)])
    v = crandn(rng, d * e, d)
    v_hat = kron(dag(u), eye(e)) @ v @ u
    want = kron(u, eye(e)) @ _pauli_intertwiner_oracle(v_hat, db, e) @ dag(u)
    got = twirl_intertwiner(v, dec, e)
    assert frob(got - want) <= 1e-10


def test_twirl_intertwiner_output_intertwines_and_is_idempotent():
    rng = rng_for(205)
    dec = AtomicDecomposition(
        d=7, u_alg=haar_unitary(rng, 7), d0=1, factors=[(2, 1), (2, 2)]
    )
    e = 2
    v = crandn(rng, 7 * e, 7)
    w = twirl_intertwiner(v, dec, e)
    w2 = twirl_intertwiner(w, dec, e)
    assert frob(w2 - w) <= 1e-10 * max(1.0, frob(v))
    for xhat in algebra_pattern_basis(dec):
        assert frob(kron(xhat, eye(e)) @ w - w @ xhat) <= 1e-9 * max(1.0, frob(v))


# ---------------------------------------------------------------------------
# intertwiner block extraction
# ---------------------------------------------------------------------------


def test_intertwiner_decompose_round_trip():
    rng = rng_for(206)
    dec = AtomicDecomposition(
        d=7, u_alg=haar_unitary(rng, 7), d0=1, factors=[(2, 1), (2, 2)]
    )
    e = 2
    # forward-construct an intertwiner from random blocks
    b0 = crandn(rng, 1 * e, 1 * 1)
    blocks = [crandn(rng, 1 * e, 1), crandn(rng, 2 * e, 2)]
    b = kron(dag(dec.p_null()), eye(e)) @ b0 @ dec.p_null()
    for i, (da, db) in enumerate(dec.factors):
        p_i = dec.p_factor(i)
        b += kron(dag(p_i), eye(e)) @ kron(eye(da), blocks[i]) @ p_i
    parts = intertwiner_decompose(b, dec, e, 1)
    assert frob(parts.b0 - b0) <= 1e-10
    for got, want in zip(parts.b_i, blocks):
        assert frob(got - want) <= 1e-10


def test_intertwiner_decompose_fails_on_nan():
    # one NaN entry makes every residual NaN, which `worst > limit` passes
    rng = rng_for(208)
    dec = AtomicDecomposition(
        d=7, u_alg=haar_unitary(rng, 7), d0=1, factors=[(2, 1), (2, 2)]
    )
    b = twirl_intertwiner(crandn(rng, 7 * 2, 7), dec, 2)
    intertwiner_decompose(b, dec, 2, 1)
    b[3, 2] = np.nan
    with pytest.raises(NotIntertwiner):
        intertwiner_decompose(b, dec, 2, 1)


def test_intertwiner_decompose_rejects_non_intertwiners():
    rng = rng_for(207)
    dec = AtomicDecomposition(d=4, u_alg=eye(4), d0=0, factors=[(2, 2)])
    v = crandn(rng, 4 * 2, 4)
    with pytest.raises(NotIntertwiner):
        intertwiner_decompose(v, dec, 2, 1)


# ---------------------------------------------------------------------------
# atomic decomposition
# ---------------------------------------------------------------------------


def _multiset(dec: AtomicDecomposition):
    return dec.d0, sorted(dec.factors)


def test_atomic_decompose_full_matrix_algebra():
    alg = close_star_algebra([_unit(3, 0, 1), _unit(3, 1, 2)], unital=True)
    dec = atomic_decompose(alg)
    assert _multiset(dec) == (0, [(3, 1)])


def test_atomic_decompose_diagonal_algebra():
    alg = close_star_algebra([np.diag([1.0, -1.0])], unital=True)
    dec = atomic_decompose(alg)
    assert _multiset(dec) == (0, [(1, 1), (1, 1)])


def test_atomic_decompose_non_unital_multiplicity_algebra():
    # span{diag(0, 1, 1)}: null line plus a (1,2) factor
    alg = close_star_algebra([np.diag([0.0, 1.0, 1.0])], unital=False)
    dec = atomic_decompose(alg)
    assert _multiset(dec) == (1, [(1, 2)])


def test_atomic_decompose_recovers_conjugated_block_structures():
    rng = rng_for(208)
    shapes = [
        (0, [(2, 1), (1, 2)]),
        (1, [(2, 2)]),
        (2, [(1, 1), (2, 1)]),
        (0, [(3, 1), (1, 3)]),
    ]
    for trial, (d0, factors) in enumerate(shapes):
        d = d0 + sum(a * b for a, b in factors)
        planted = AtomicDecomposition(
            d=d, u_alg=haar_unitary(rng, d), d0=d0, factors=factors
        )
        alg = algebra_from_decomposition(planted)
        dec = atomic_decompose(alg, seed=trial)
        assert _multiset(dec) == _multiset(planted)
        # the recovered frame reproduces the same operator subspace
        proj = block_algebra_projector_oracle(dec.d0, dec.factors, dec.u_alg)
        for basis_el in alg.basis:
            assert frob(proj(basis_el) - basis_el) <= 1e-8
        # and the declared pattern residual agrees with the oracle projector
        x = crandn(rng, d, d)
        assert pattern_residual(x, dec) == pytest.approx(
            frob(x - proj(x)), abs=1e-10
        )


def test_atomic_decompose_rejects_non_algebra_subspace():
    # the span of a single non-normal matrix is not closed under products
    bad = AlgebraBasis(ambient_dim=2, basis=[_unit(2, 0, 1)], contains_identity=False)
    with pytest.raises(NotClosed):
        atomic_decompose(bad)


def test_algebra_pattern_basis_is_orthonormal_and_spans_the_algebra():
    rng = rng_for(209)
    dec = AtomicDecomposition(
        d=6, u_alg=haar_unitary(rng, 6), d0=2, factors=[(2, 2)]
    )
    basis = algebra_pattern_basis(dec)
    assert len(basis) == 4  # dim M₂ = d_A²
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            ip = np.trace(dag(x) @ y)
            want = 1.0 if i == j else 0.0
            assert abs(ip - want) <= 1e-12
        assert pattern_residual(x, dec) <= 1e-12


_PLANTED = [(0, [(2, 3), (1, 2)]), (2, [(3, 1), (2, 2)]), (1, [(2, 2), (1, 3), (1, 1)])]


def test_algebra_pattern_basis_order_is_factor_then_row_major_units():
    # element k is U(0 ⊕ E_ab⊗1)U†/√d_B, factors in order, (a, b) row-major;
    # per_element_residuals and InvarianceReport.worst_index follow it
    rng = rng_for(210)
    for d0, factors in _PLANTED:
        d = d0 + sum(da * db for da, db in factors)
        u = haar_unitary(rng, d)
        dec = AtomicDecomposition(d=d, u_alg=u, d0=d0, factors=factors)
        want = []
        pos = d0
        for da, db in factors:
            for a in range(da):
                for b in range(da):
                    m = np.zeros((d, d), dtype=np.complex128)
                    m[pos: pos + da * db, pos: pos + da * db] = kron_oracle(
                        _unit(da, a, b), np.eye(db, dtype=np.complex128))
                    want.append(u @ m @ u.conj().T / np.sqrt(db))
            pos += da * db
        got = algebra_pattern_basis(dec)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert frob_oracle(x - y) <= 1e-13


def test_commutant_project_is_the_orthogonal_projection_onto_the_commutant():
    # reference: the commutant from the null-space route, which shares no
    # code with the block frame
    rng = rng_for(211)
    for d0, factors in _PLANTED:
        d = d0 + sum(da * db for da, db in factors)
        dec = AtomicDecomposition(d=d, u_alg=haar_unitary(rng, d), d0=d0,
                                  factors=factors)
        comm = commutant(algebra_from_decomposition(dec))
        assert comm.dim == d0 ** 2 + sum(db * db for _, db in factors)
        rows = np.stack([c.reshape(-1) for c in comm.basis])  # orthonormal
        x = crandn(rng, d, d)
        want = (rows.T @ (rows.conj() @ x.reshape(-1))).reshape(d, d)
        got = commutant_project(x, dec)
        assert frob_oracle(got - want) <= 1e-10
        # the projection differs from the twirl by exactly the null block
        p0 = dec.u_alg[:, :d0]
        null = p0 @ (p0.conj().T @ x @ p0) @ p0.conj().T
        assert frob_oracle(got - twirl_to_commutant(x, dec) - null) <= 1e-13
        assert (frob_oracle(null) > 0.1) == (d0 > 0)
