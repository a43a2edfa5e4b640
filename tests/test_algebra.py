"""*-algebra closure, commutants, twirls, and the atomic decomposition."""

import time
import tracemalloc

import numpy as np
import pytest

import igkls.algebra as algebra_mod
from igkls import (
    AlgebraBasis,
    AtomicDecomposition,
    DecompositionFailed,
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
    random_instance,
    twirl_intertwiner,
    twirl_to_commutant,
)
from conftest import (
    PAULI,
    block_algebra_projector_oracle,
    count_eigh,
    count_svd,
    crandn,
    NOT_CLOSED_SPANS,
    count_exact_closure,
    frob_oracle,
    haar_unitary,
    kron_oracle,
    orthonormal_span,
    rng_for,
)


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_close_star_algebra_rejects_a_generator_with_one_nan():
    with pytest.raises(NotClosed) as info:
        close_star_algebra([np.diag([1.0, 2.0, np.nan])], unital=True)
    assert np.isnan(info.value.residual)


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


def test_closure_residuals_match_the_pairwise_loop_on_a_span_that_is_not_closed():
    rng = rng_for(202)
    d, m = 4, 5
    q = np.linalg.qr(crandn(rng, d * d, m))[0]  # orthonormal columns
    basis = [q[:, k].reshape(d, d) for k in range(m)]

    def dist(x):  # distance from span(basis) by least squares
        coeff = np.linalg.lstsq(q, x.reshape(-1), rcond=None)[0]
        return frob_oracle((x.reshape(-1) - q @ coeff).reshape(d, d))

    adj, prod = closure_residuals(AlgebraBasis(d, basis))
    assert adj == pytest.approx(max(dist(dag(b)) for b in basis), rel=1e-12)
    assert prod == pytest.approx(max(dist(a @ b) for a in basis for b in basis), rel=1e-12)
    assert min(adj, prod) > 0.1


def test_closure_check_fails_on_one_nan():
    alg = close_star_algebra([np.diag([1.0, 2.0, 3.0])], unital=True)
    basis = [b.copy() for b in alg.basis]
    basis[-1][0, 0] = np.nan
    bad = AlgebraBasis(ambient_dim=3, basis=basis, contains_identity=True)
    assert all(np.isnan(r) for r in closure_residuals(bad))
    with pytest.raises(NotClosed):
        atomic_decompose(bad)


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


@pytest.mark.parametrize("factors, d0", [
    ([(2, 2), (2, 2), (1, 3)], 1), ([(2, 2), (1, 3)], 0),
    # the first basis element vanishes on all but one factor of these
    ([(1, 3), (2, 2), (2, 2)], 1), ([(1, 1)] * 6, 0), ([(2, 1)] * 3, 2),
])
def test_atomic_decompose_orders_the_factors_alike_at_every_seed(factors, d0):
    # factors of one shape are ordered by the spectrum of the fixed element
    # Σ_k (k+1)·b_k compressed to each, so no draw of the generic elements
    # can reorder them; factors of distinct shapes by the shape alone
    planted = random_instance("algebra", {"factors": factors, "d0": d0}, seed=5).payload
    alg = algebra_from_decomposition(planted)
    first = None
    for seed in range(10):
        dec = atomic_decompose(alg, seed=seed)
        assert dec.factors == sorted(factors)
        projectors = [dec.u_alg[:, s] @ dag(dec.u_alg[:, s]) for _, _, s in algebra_mod._blocks(dec)]
        first = projectors if first is None else first
        assert max(frob(p - q) for p, q in zip(projectors, first)) <= 1e-8


@pytest.mark.parametrize("factors, d0, count", [
    ([(1, 1)] * 12, 0, 2), ([(2, 2)] * 3, 0, 2), ([(2, 2)] * 3, 2, 3)])
def test_atomic_decompose_eigensolves_do_not_grow_with_the_factor_count(
        factors, d0, count, monkeypatch):
    # h and z: every cluster's frame comes out of z's one eigensolve, none
    # from h compressed to a factor; a span that holds 1 has no kernel to
    # solve for, while a null block takes the support Gram's eigensolve
    planted = random_instance("algebra", {"factors": factors, "d0": d0}, seed=1).payload
    alg = algebra_from_decomposition(planted)
    eighs = count_eigh(monkeypatch)
    svds = count_svd(monkeypatch)
    dec = atomic_decompose(alg, seed=0)
    assert (dec.d0, dec.factors) == (d0, sorted(factors))
    assert len(eighs) == count, eighs
    assert all(shape[0] <= 2 for shape in svds), svds  # the d_B × d_B frame alignments only


def _spy_null_space(monkeypatch):
    """The input shape of every algebra.null_space call."""
    calls = []
    real = algebra_mod.null_space
    monkeypatch.setattr(algebra_mod, "null_space",
                        lambda a, *args: calls.append(np.shape(a)) or real(a, *args))
    return calls


@pytest.mark.parametrize("factors", [[(2, 2), (1, 3)], [(1, 1)] * 6, [(3, 1), (1, 2)]])
def test_a_span_that_holds_one_skips_the_support_solve_bit_for_bit(factors, monkeypatch):
    planted = random_instance("algebra", {"factors": factors, "d0": 0}, seed=2).payload
    alg = algebra_from_decomposition(planted)
    calls = _spy_null_space(monkeypatch)
    skipped = atomic_decompose(alg, seed=3)
    assert calls == []
    monkeypatch.setattr(algebra_mod, "_rank", lambda *args: 0)  # the skip off
    solved = atomic_decompose(alg, seed=3)
    assert calls == [(len(alg.basis) * planted.d, planted.d)]
    assert np.array_equal(skipped.u_alg, solved.u_alg)
    assert (skipped.d0, skipped.factors) == (solved.d0, solved.factors) == (0, sorted(factors))


def test_the_support_solve_runs_where_the_bound_cannot_show_a_trivial_kernel(monkeypatch):
    calls = _spy_null_space(monkeypatch)
    # a null block: 1 is not in the span, 1 − Π(1) has norm √d0 ≥ 1
    planted = random_instance("algebra", {"factors": [(2, 2), (1, 3)], "d0": 1}, seed=2).payload
    dec = atomic_decompose(algebra_from_decomposition(planted), seed=3)
    assert (dec.d0, calls) == (1, [(5 * 8, 8)])
    # 1 in the span, but σ_min ≥ 1/‖c‖ = 1/√d = 1/2 does not clear the cutoff
    # tol·‖a‖_F = 0.3·√5: null_space decides, and finds no kernel
    calls.clear()
    planted = random_instance("algebra", {"factors": [(2, 1), (1, 2)], "d0": 0}, seed=2).payload
    dec = atomic_decompose(algebra_from_decomposition(planted), tol=0.3, seed=3)
    assert (dec.d0, calls) == (0, [(5 * 4, 4)])


def test_atomic_decompose_rejects_non_algebra_subspace():
    # the span of a single non-normal matrix is not closed under products
    bad = AlgebraBasis(ambient_dim=2, basis=[_unit(2, 0, 1)], contains_identity=False)
    with pytest.raises(NotClosed):
        atomic_decompose(bad)


@pytest.mark.parametrize("name", list(NOT_CLOSED_SPANS))
def test_a_span_that_is_not_closed_raises_not_closed_after_one_exact_check(name, monkeypatch):
    basis = NOT_CLOSED_SPANS[name]
    calls = count_exact_closure(monkeypatch)
    with pytest.raises(NotClosed):
        atomic_decompose(AlgebraBasis(basis[0].shape[0], basis))
    assert calls == [len(basis)]


def test_a_certificate_above_the_limit_falls_back_to_the_exact_check(monkeypatch):
    # a bound is not a verdict: a closed span whose bound is too weak passes
    alg = algebra_from_decomposition(_planted(rng_for(232), 1, [(2, 1), (1, 2)]))
    calls = count_exact_closure(monkeypatch)
    monkeypatch.setattr(algebra_mod, "_closure_bound", lambda eps: (1.0, 1.0))
    dec = atomic_decompose(alg)
    assert calls == [alg.dim]
    assert dec.d0 == 1 and sorted(dec.factors) == [(1, 2), (2, 1)]


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6])
def test_closure_certificate_bounds_the_exact_residuals(eps, monkeypatch):
    rng = rng_for(231)
    planted = _planted(rng, 1, [(2, 2), (1, 3), (2, 1)])  # d = 9, m = 9
    d = planted.d
    noisy = [b + eps * g / frob(g) for b, g in
             zip(algebra_pattern_basis(planted), (crandn(rng, d, d) for _ in range(9)))]
    alg = AlgebraBasis(d, orthonormal_span(noisy))
    oracle = closure_residuals(alg)
    # the bound from the distances to the planted pattern algebra
    bound = algebra_mod._closure_bound(algebra_mod._pattern_defects(alg.basis, planted))
    assert oracle[0] <= bound[0] and oracle[1] <= bound[1]
    assert max(bound) <= 10 * max(eps, 1e-14)  # within a few √m·ε: not vacuous
    if eps > 1e-8:
        return  # the decomposition's eigenvalue gaps resolve only smaller noise
    # and from the pattern the decomposition finds, with no exact check: its
    # pattern check passes up to max(1e-9, 10·tol), the closure up to 100·tol
    calls = count_exact_closure(monkeypatch)
    dec, certified = algebra_mod._decompose_closed(alg, max(1e-9, eps), 0)
    assert calls == []
    assert sorted(dec.factors) == [(1, 3), (2, 1), (2, 2)]
    assert oracle[0] <= certified[0] and oracle[1] <= certified[1]
    assert max(certified) <= 6 * max(eps, 1e-14)


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8])
def test_closure_certificate_holds_over_consecutive_seeds(eps, monkeypatch):
    # the certificate of the decomposition the pipeline finds, not of the
    # planted one, over every seed of a range: no lucky seed carries it
    calls = count_exact_closure(monkeypatch)
    for seed in range(231, 241):
        rng = rng_for(seed)
        planted = _planted(rng, 1, [(2, 2), (1, 3), (2, 1)])
        d = planted.d
        noisy = [b + eps * g / frob(g) for b, g in
                 zip(algebra_pattern_basis(planted), (crandn(rng, d, d) for _ in range(9)))]
        alg = AlgebraBasis(d, orthonormal_span(noisy))
        oracle = closure_residuals(alg)
        dec, certified = algebra_mod._decompose_closed(alg, max(1e-9, eps), 0)
        assert calls == []  # certified, with no exact check
        assert sorted(dec.factors) == [(1, 3), (2, 1), (2, 2)]
        assert oracle[0] <= certified[0] and oracle[1] <= certified[1]
        assert max(certified) <= 6 * eps, seed


def test_closure_bound_takes_the_gram_norm_between_the_spectral_and_frobenius_norms():
    rng = rng_for(236)
    for rows, cols in [(9, 81), (40, 16), (1, 5), (12, 12)]:
        r = crandn(rng, rows, cols)
        sigma = np.linalg.svd(r, compute_uv=False)
        gram = np.sqrt(frob_oracle(r @ dag(r)))
        assert sigma[0] <= gram * (1 + 1e-12) and gram <= frob_oracle(r) * (1 + 1e-12)
        e = max(np.linalg.norm(r, axis=1))
        bound = algebra_mod._closure_bound(r)
        assert bound[0] == pytest.approx(gram + e, rel=1e-12)
        assert bound[1] == pytest.approx(gram + 2 * e + e * e, rel=1e-12)
    # zero columns, as d_B = 1 blocks leave, change no norm
    padded = np.concatenate([r, np.zeros((12, 30))], axis=1)
    assert algebra_mod._closure_bound(padded) == pytest.approx(bound, rel=1e-12)


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


# ---------------------------------------------------------------------------
# the generic-element routes: parity with the full-basis constructions,
# negative controls, large spans
# ---------------------------------------------------------------------------

# the algebra_engine benchmark's planted shapes, (d0, factors)
_ENGINE_SHAPES = [
    (0, [(2, 2), (1, 2), (2, 1)]),
    (1, [(2, 2), (1, 3)]),
    (0, [(2, 2), (1, 2)]),
    (0, [(3, 2), (2, 3)]),
    (0, [(2, 2), (2, 2), (2, 2)]),
    (0, [(2, 2), (2, 2), (2, 2), (2, 2)]),
    (0, [(2, 4), (2, 4), (1, 8)]),
]


def _planted(rng, d0, factors):
    d = d0 + sum(a * b for a, b in factors)
    return AtomicDecomposition(d=d, u_alg=haar_unitary(rng, d), d0=d0, factors=factors)


def _commutant_rows_oracle(basis, tol=1e-9):
    """The full-basis commutant: null space of the (m·d², d²) stack of every
    X ↦ b_k X − X b_k."""
    d = basis[0].shape[0]
    stack = np.vstack([np.kron(b, eye(d)) - np.kron(eye(d), b.T) for b in basis])
    return algebra_mod.null_space(stack, tol, max(frob(b) for b in basis))


def _center_rows_oracle(basis, tol=1e-9):
    """The full-basis centre: null space of the (m·d², m) map
    c ↦ ([Σ c_k b_k, b_j])_j."""
    rows = np.vstack([
        np.stack([(bk @ bj - bj @ bk).reshape(-1) for bk in basis], axis=1)
        for bj in basis
    ])
    return algebra_mod.null_space(rows, tol, max(frob(b) for b in basis))


def _projector(rows):
    return rows.T @ np.conj(rows)


def test_commutant_matches_the_full_basis_oracle_on_the_engine_shapes():
    rng = rng_for(220)
    for d0, factors in _ENGINE_SHAPES:
        alg = algebra_from_decomposition(_planted(rng, d0, factors))
        want = _commutant_rows_oracle(alg.basis)
        got = np.stack([c.reshape(-1) for c in commutant(alg).basis])
        assert got.shape[0] == want.shape[0] == d0 ** 2 + sum(b * b for _, b in factors)
        assert frob_oracle(_projector(got) - _projector(want)) <= 1e-10


def test_commutant_matches_the_full_basis_oracle_on_a_span_that_is_not_star_closed(
        monkeypatch):
    _, frames = _spy_frames_and_draws(monkeypatch)
    rng = rng_for(221)
    d = 5
    # upper-triangular matrices: the span is closed under neither adjoints
    # nor products, so x† is not available, but x and y are
    span = [np.triu(crandn(rng, d, d)) for _ in range(3)]
    basis = [m.reshape(d, d) for m in
             np.linalg.qr(np.stack([m.reshape(-1) for m in span], axis=1))[0].T]
    alg = AlgebraBasis(d, basis)
    assert closure_residuals(alg)[0] > 0.1
    want = _commutant_rows_oracle(basis)
    got = np.stack([c.reshape(-1) for c in commutant(alg).basis])
    assert got.shape == want.shape
    assert frob_oracle(_projector(got) - _projector(want)) <= 1e-10
    # a strictly upper-triangular span has a larger commutant than the scalars
    nil = AlgebraBasis(d, [_unit(d, 0, d - 1), _unit(d, 0, d - 2)])
    want = _commutant_rows_oracle(nil.basis)
    got = np.stack([c.reshape(-1) for c in commutant(nil).basis])
    assert got.shape == want.shape and got.shape[0] > 1
    assert frob_oracle(_projector(got) - _projector(want)) <= 1e-10
    assert frames == []  # both spans take the identity frame


def _perturbed(basis, eps, direction):
    """The orthonormalised span of basis[0] + eps·direction and the rest."""
    d = basis[0].shape[0]
    rows = np.stack([b.reshape(-1) for b in basis])
    rows[0] = rows[0] + eps * direction.reshape(-1)
    q = np.linalg.qr(rows.T)[0].T
    return AlgebraBasis(d, [m.reshape(d, d) for m in q])


def _spy_frames_and_draws(monkeypatch):
    """Record every generic draw and every eigenframe the commutant takes."""
    draws, frames = [], []
    real_draw, real_frame = algebra_mod._generic_elements, algebra_mod._eigenspaces
    monkeypatch.setattr(algebra_mod, "_generic_elements",
                        lambda mats, rng, count: draws.append(real_draw(mats, rng, count))
                        or draws[-1])
    monkeypatch.setattr(algebra_mod, "_eigenspaces", lambda h: frames.append(h) or real_frame(h))
    return draws, frames


def test_commutant_of_a_span_just_above_the_star_closed_limit_takes_the_identity_frame(
        monkeypatch):
    rng = rng_for(229)
    alg = algebra_from_decomposition(_planted(rng, 1, [(2, 2), (1, 3)]))
    direction = crandn(rng, alg.ambient_dim, alg.ambient_dim)
    limit = algebra_mod._STAR_CLOSED
    draws, frames = _spy_frames_and_draws(monkeypatch)

    def run(span):
        """The commutant's rows, and dist(x†, span)/‖x‖_F of its first draw x
        (a least-squares oracle)."""
        draws.clear()
        frames.clear()
        got = np.stack([c.reshape(-1) for c in commutant(span).basis])
        x = draws[0][0]
        rows = np.stack([b.reshape(-1) for b in span.basis]).T
        v = dag(x).reshape(-1)
        return got, frob_oracle(v - rows @ np.linalg.lstsq(rows, v, rcond=None)[0]) / frob_oracle(x)

    per_eps = run(_perturbed(alg.basis, 1e-6, direction))[1] / 1e-6
    # at 0.8 the largest dist(b_j†, span) is above the limit: only x† decides
    for factor, eigenframe in ((1.25, False), (0.8, True)):
        span = _perturbed(alg.basis, factor * limit / per_eps, direction)
        got, dist = run(span)
        assert (dist <= limit) == eigenframe
        assert limit < closure_residuals(span)[0] <= 4 * limit
        assert bool(frames) == eigenframe
        want = _commutant_rows_oracle(span.basis)
        assert got.shape == want.shape and got.shape[0] == 1 + 4 + 9
        assert frob_oracle(_projector(got) - _projector(want)) <= 1e-10


def test_commutant_rejects_a_basis_with_one_nan():
    basis = [_unit(3, i, i) for i in range(3)]
    basis[0][0, 0] = np.nan
    with pytest.raises(DecompositionFailed) as info:
        commutant(AlgebraBasis(3, basis))
    assert np.isnan(info.value.residual)


def test_batched_pattern_residuals_match_the_per_element_loop():
    rng = rng_for(228)
    for d0, factors in _ENGINE_SHAPES:
        dec = _planted(rng, d0, factors)
        d = dec.d
        xs = [crandn(rng, d, d) for _ in range(3)] + algebra_pattern_basis(dec)[:3]
        xs[1][0, d - 1] = np.nan
        got = algebra_mod._pattern_residuals(xs, dec)
        want = np.array([frob_oracle(x - algebra_mod.algebra_project(x, dec)) for x in xs])
        # a NaN stays in its own slot
        assert np.isnan(got).tolist() == [k == 1 for k in range(len(xs))]
        scale = max(frob_oracle(x) for k, x in enumerate(xs) if k != 1)
        for k, x in enumerate(xs):
            if k != 1:
                assert abs(got[k] - want[k]) <= 1e-14 * scale
                assert abs(pattern_residual(x, dec) - want[k]) <= 1e-14 * scale
        assert np.isnan(pattern_residual(xs[1], dec))


def test_factor_projectors_are_the_planted_central_projectors_on_the_engine_shapes():
    # each factor found by linking h's eigenspaces through y is one planted
    # factor, and the factors' projectors span the full-basis centre
    rng = rng_for(222)
    for k, (d0, factors) in enumerate(_ENGINE_SHAPES):
        planted = _planted(rng, d0, factors)
        alg = algebra_from_decomposition(planted)
        dec = atomic_decompose(alg, seed=k)
        got = [dag(dec.p_factor(i)) @ dec.p_factor(i) for i in range(len(dec.factors))]
        want = [dag(planted.p_factor(j)) @ planted.p_factor(j) for j in range(len(factors))]
        match = [min(range(len(want)), key=lambda j: frob_oracle(p - want[j])) for p in got]
        assert sorted(match) == list(range(len(factors)))
        for i, j in enumerate(match):
            assert dec.factors[i] == planted.factors[j]
            assert frob_oracle(got[i] - want[j]) <= 1e-10
        centre = _center_rows_oracle(alg.basis) @ np.stack(alg.basis).reshape(alg.dim, -1)
        rows = np.stack([p.reshape(-1) / frob_oracle(p) for p in got])
        assert centre.shape[0] == len(factors)
        assert frob_oracle(_projector(rows) - _projector(centre)) <= 1e-10


def _scripted_draws(monkeypatch, bad):
    """Make the first len(bad) generic draws return the given elements;
    later draws are generic again.  Returns the list of draws made."""
    real = algebra_mod._generic_elements
    calls = []

    def draw(mats, rng, count):
        calls.append(count)
        if len(calls) <= len(bad):
            return [bad[len(calls) - 1]] * count
        return real(mats, rng, count)

    monkeypatch.setattr(algebra_mod, "_generic_elements", draw)
    return calls


def test_commutant_retries_a_non_generic_draw(monkeypatch):
    rng = rng_for(223)
    planted = _planted(rng, 1, [(2, 2), (1, 3)])
    alg = algebra_from_decomposition(planted)
    d = planted.d
    # the identity commutes with everything; the planted algebra's unit is
    # central: both give a null space far larger than 𝒜′
    central = planted.u_alg @ np.diag([0.0] + [1.0] * 4 + [2.0] * 3) @ dag(planted.u_alg)
    calls = _scripted_draws(monkeypatch, [eye(d), central])
    comm = commutant(alg)
    assert len(calls) == 3
    assert comm.dim == 1 + 4 + 9
    for c in comm.basis:
        assert frob(c - commutant_project(c, planted)) <= 1e-9


def test_commutant_with_only_non_generic_draws_raises_decomposition_failed(monkeypatch):
    alg = close_star_algebra([_unit(3, 0, 1), _unit(3, 1, 2)], unital=True)
    calls = _scripted_draws(monkeypatch, [eye(3)] * 100)
    with pytest.raises(DecompositionFailed) as info:
        commutant(alg)
    assert len(calls) == algebra_mod._MAX_RETRIES
    assert info.value.residual > 0.1


def _attempt_residuals(monkeypatch) -> list:
    """The largest pattern residual of each decomposition attempt from then on."""
    real = algebra_mod._pattern_defects
    seen = []

    def spy(xs, dec):
        defects = real(xs, dec)
        seen.append(float(np.max(np.linalg.norm(defects, axis=1))))
        return defects

    monkeypatch.setattr(algebra_mod, "_pattern_defects", spy)
    return seen


def test_atomic_decompose_retries_a_non_generic_draw(monkeypatch):
    rng = rng_for(224)
    planted = _planted(rng, 0, [(2, 2), (1, 3)])
    alg = algebra_from_decomposition(planted)
    calls = _scripted_draws(monkeypatch, [eye(planted.d)] * 2)
    seen = _attempt_residuals(monkeypatch)
    # h = y = 1 has one eigenspace: one (1, 7) factor, whose pattern check
    # rejects the draw
    dec = atomic_decompose(alg)
    assert len(calls) == 3
    assert seen[0] > 0.1 and seen[1] > 0.1 and seen[2] <= 1e-9
    assert _multiset(dec) == _multiset(planted)


def test_atomic_decompose_with_only_non_generic_draws_raises(monkeypatch):
    rng = rng_for(225)
    planted = _planted(rng, 0, [(2, 2), (1, 3)])
    alg = algebra_from_decomposition(planted)
    calls = _scripted_draws(monkeypatch, [eye(planted.d)] * 100)
    with pytest.raises(DecompositionFailed) as info:
        atomic_decompose(alg)
    assert len(calls) == algebra_mod._MAX_RETRIES
    assert info.value.residual > 0.1


def _scripted_y(monkeypatch, make_y):
    """Make the first draw's linking element y ``make_y(x, mats)``, for the
    draw x that gives h = (x + x†)/2; later draws are generic.  Returns the
    list of draws made."""
    real = algebra_mod._generic_elements
    calls = []

    def draw(mats, rng, count):
        calls.append(count)
        x, y = real(mats, rng, count)
        return [x, make_y(x, mats)] if len(calls) == 1 else [x, y]

    monkeypatch.setattr(algebra_mod, "_generic_elements", draw)
    return calls


def test_a_false_merge_of_factors_is_retried_by_the_dimension_count(monkeypatch):
    # a y off the span links the two (1, 2) factors into one (2, 2) factor
    # whose pattern algebra M₂⊗1 contains the span: only m = Σ d_A² rejects it
    planted = _planted(rng_for(233), 1, [(1, 2), (1, 2)])
    alg = algebra_from_decomposition(planted)
    calls = _scripted_y(monkeypatch, lambda x, mats: crandn(rng_for(234), *mats.shape[1:]))
    seen = _attempt_residuals(monkeypatch)
    dec = atomic_decompose(alg)
    assert len(calls) == 2
    assert max(seen) <= 1e-9 and len(seen) == 2
    assert _multiset(dec) == (1, [(1, 2), (1, 2)])


def test_a_false_split_of_a_factor_is_retried_by_the_pattern_check(monkeypatch):
    # y = h links no two eigenspaces of h: every cluster becomes a d_A = 1
    # factor, and the span's off-diagonal units fail the pattern check
    planted = _planted(rng_for(235), 0, [(2, 2), (1, 3)])
    alg = algebra_from_decomposition(planted)
    calls = _scripted_y(monkeypatch, lambda x, mats: 0.5 * (x + dag(x)))
    seen = _attempt_residuals(monkeypatch)
    dec = atomic_decompose(alg)
    assert len(calls) == 2
    assert seen[0] > 0.1 and seen[1] <= 1e-9
    assert _multiset(dec) == (0, [(1, 3), (2, 2)])


def test_a_split_and_a_merge_that_keep_the_dimension_count_are_retried_by_the_pattern_check(
        monkeypatch):
    # y links the two d_A = 1 factors but not the M₂ factor's two
    # eigenspaces: (2, 1), (1, 1), (1, 1) again, with m = Σ d_A², so only
    # the pattern check can reject it
    planted = _planted(rng_for(237), 0, [(2, 1), (1, 1), (1, 1)])
    alg = algebra_from_decomposition(planted)

    def swap_links(x, mats):
        v = np.linalg.eigh(0.5 * (x + dag(x)))[1]
        true_links = sum(np.abs(dag(v) @ b @ v) for b in mats) > 1e-6
        lone = np.flatnonzero(true_links.sum(axis=1) == 1)  # the d_A = 1 factors
        assert len(lone) == 2
        y = np.diag(np.arange(1.0, len(v) + 1)).astype(np.complex128)
        y[lone[0], lone[1]] = y[lone[1], lone[0]] = 1.0
        return v @ y @ dag(v)

    calls = _scripted_y(monkeypatch, swap_links)
    seen = _attempt_residuals(monkeypatch)
    dec = atomic_decompose(alg)
    assert len(calls) == 2
    assert seen[0] > 0.1 and seen[1] <= 1e-9
    assert _multiset(dec) == (0, [(1, 1), (1, 1), (2, 1)])


def test_commutation_residual_is_batched_and_fails_on_nan():
    rng = rng_for(226)
    a = [crandn(rng, 4, 4) for _ in range(3)]
    b = [crandn(rng, 4, 4) for _ in range(5)]
    want = max(frob_oracle(x @ y - y @ x) for x in a for y in b)
    assert algebra_mod._commutation_residual(a, b) == pytest.approx(want, rel=1e-12)
    assert algebra_mod._commutation_residual([], b) == 0.0
    b[2] = b[2].copy()
    b[2][1, 3] = np.nan
    assert np.isnan(algebra_mod._commutation_residual(a, b))


def test_commutation_residual_keeps_its_stacks_small():
    # at d = 12, two 12-element bases: one stack of all 12⁴ commutator
    # entries is ~650 KB, which is mapped and page-faulted in on every call
    rng = rng_for(227)
    a = [crandn(rng, 12, 12) for _ in range(12)]
    b = [crandn(rng, 12, 12) for _ in range(12)]
    want = max(frob_oracle(x @ y - y @ x) for x in a for y in b)
    tracemalloc.start()
    try:
        got = algebra_mod._commutation_residual(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(want, rel=1e-12)
    assert peak < 256 * 1024


def test_close_star_algebra_of_a_diagonal_generator_takes_one_sweep_per_power():
    d = 24
    alg = close_star_algebra([np.diag(np.arange(1.0, d + 1))], unital=False)
    assert alg.dim == d
    assert alg.contains_identity
    for i in range(d):
        assert membership_residual(_unit(d, i, i), alg) <= 1e-9
    assert max(closure_residuals(alg)) <= 1e-10


def test_close_star_algebra_factorizes_once_per_sweep_that_finds_something(monkeypatch):
    # two generic elements of ⊕_3 M_2 ⊗ 1_2 (d = 12, dimension 12): the
    # letters' orthonormalization, then one sweep that reaches the whole
    # algebra; the second sweep's 32 × 144 block is rounding noise
    planted = algebra_from_decomposition(_planted(rng_for(236), 0, [(2, 2)] * 3))
    g = crandn(rng_for(237), 2, planted.dim)
    gens = [sum(c * b for c, b in zip(row, planted.basis)) for row in g]
    svds = count_svd(monkeypatch)
    eighs = count_eigh(monkeypatch)
    alg = close_star_algebra(gens, unital=False)
    # one Gram eigensolve each: the 4 letters, the 16 × 144 candidate block
    assert (svds, eighs) == ([], [(4, 4), (16, 16)])
    monkeypatch.undo()
    assert alg.dim == 12
    assert alg.contains_identity
    for b in planted.basis:
        assert membership_residual(b, alg) <= 1e-9
    assert max(closure_residuals(alg)) <= 1e-10


@pytest.mark.parametrize("d0, factors, dim", [
    (0, [(16, 2)], 4),
    (0, [(32, 1)], 1),
    (8, [(12, 2)], 8 * 8 + 4),
])
def test_commutant_at_d32_within_a_wall_bound(d0, factors, dim):
    planted = _planted(rng_for(227), d0, factors)
    alg = algebra_from_decomposition(planted)
    start = time.perf_counter()
    comm = commutant(alg)
    elapsed = time.perf_counter() - start
    assert comm.dim == dim
    assert algebra_mod._commutation_residual(comm.basis, alg.basis) <= 1e-10
    for c in comm.basis[:4]:
        assert frob(c - commutant_project(c, planted)) <= 1e-10
    assert elapsed <= 5.0
