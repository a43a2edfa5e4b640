"""Verification-report command line: ``igkls <command> [--in FILE]...``.

Every command reads zero or more JSON bundles, runs a pipeline from the
library with tolerances taken from the flags, and prints a report listing
each residual it computed next to the tolerance it was compared against.
Reports are JSON by default; ``--text`` renders the same content for humans.

Exit codes: 0 — all verifications passed; 1 — a mathematical verification
failed (the report says which residual and by how much); 2 — input or usage
error (malformed JSON, missing bundle, unknown flag).

``--out`` receives the command's product when it has one (the decomposed
algebra, the normal form, the reconstructed generator, the minimalized map,
the Koashi–Imoto structure, the random instance); commands that only verify
write the report there instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .algebra import (
    AtomicDecomposition,
    _worst,
    algebra_from_decomposition,
    atomic_decompose,
    closure_residuals,
    commutant,
    invariance_residuals,
)
from .applications import (
    dfs_verify_normal_form,
    koashi_imoto_decompose,
    maximal_abelian_coefficients,
    semicausal_check,
    semigroup_invariance_probe,
)
from .cpmaps import (
    StinespringRep,
    atomic_block_factorize,
    choi,
    cp_invariance_check,
    kraus_to_stinespring,
    minimal_stinespring,
    orthogonality_check,
    reassemble_factorization,
    stinespring_gauge,
    stinespring_to_kraus,
)
from .errors import IgklsError, InvariantError, NotInvariant, ParseError, SchemaError
from .gkls import (
    GKLSRep,
    _superop_distance,
    _superop_norm,
    atomic_normal_form,
    gkls_apply,
    gkls_gauge,
    gkls_minimalize,
    invariant_split,
    normal_form_gauge,
    normal_form_minimality,
    normal_form_residuals,
    reconstruct_from_normal_form,
    reduce_normal_form_minimal,
)
from .io import (
    KINDS,
    CpMapRecord,
    InstanceBundle,
    _decode_algebra,
    _decode_cmatrix,
    _encode_algebra,
    bundle_to_dict,
    decode,
    encode_cmatrix,
    kraus_picture_adjoint,
    random_instance,
    write_bundle,
)
from .linalg import _on_env, dag, eye, frob

__all__ = ["main", "run_report", "COMMANDS"]

COMMANDS = (
    "algebra-decompose",
    "commutant",
    "cp-factorize",
    "gkls-normal-form",
    "gkls-reconstruct",
    "check-invariance",
    "minimalize",
    "gauge-compare",
    "semicausal",
    "dfs",
    "abelian",
    "koashi-imoto",
    "probe",
    "random",
)

PROBE_TIMES = (0.1, 1.0, 10.0)


class UsageError(Exception):
    """Bad inputs at the CLI boundary (exit code 2)."""


class _Report:
    def __init__(self, command: str, tolerances: dict):
        self.doc = {
            "command": command,
            "tolerances": tolerances,
            "checks": [],
            "result": {},
            "ok": True,
        }

    def check(self, name: str, residual: float, tolerance: float | None,
              passed: bool | None = None) -> bool:
        if passed is None:
            passed = tolerance is None or residual <= tolerance
        self.doc["checks"].append({
            "name": name,
            "residual": float(residual),
            "tolerance": None if tolerance is None else float(tolerance),
            "passed": bool(passed),
        })
        if not passed:
            self.doc["ok"] = False
        return passed

    def fact(self, name: str, passed: bool, detail: str = "") -> bool:
        self.doc["checks"].append({
            "name": name,
            "residual": None,
            "tolerance": None,
            "passed": bool(passed),
            "detail": detail,
        })
        if not passed:
            self.doc["ok"] = False
        return passed

    def info(self, key: str, value) -> None:
        self.doc["result"][key] = value


# ---------------------------------------------------------------------------
# bundle plumbing
# ---------------------------------------------------------------------------

def _pick(bundles: list[InstanceBundle], kind: str, required: bool = True):
    for b in bundles:
        if b.kind == kind:
            return b
    if required:
        raise UsageError(f"this command needs an --in bundle of kind {kind!r}")
    return None


def _pick_pair(bundles: list[InstanceBundle]) -> tuple[InstanceBundle, InstanceBundle]:
    for kind in ("cp_map", "gkls", "normal_form"):
        found = [b for b in bundles if b.kind == kind]
        if len(found) >= 2:
            return found[0], found[1]
    raise UsageError("gauge-compare needs two --in bundles of the same kind "
                     "(cp_map, gkls, or normal_form)")


def _algebra_for(bundles: list[InstanceBundle], primary: InstanceBundle,
                 tol: float) -> AtomicDecomposition:
    """The acting algebra: an explicit algebra bundle, else the one recorded
    in the primary bundle's meta (random instances carry it)."""
    alg = _pick(bundles, "algebra", required=False)
    if alg is not None:
        return alg.payload
    record = primary.meta.get("algebra")
    if record is not None:
        return _decode_algebra(record, tol, "meta.algebra")
    raise UsageError("no algebra given: pass an --in algebra bundle (or use a "
                     "bundle whose meta records one)")


def _heisenberg_stine(rec: CpMapRecord) -> StinespringRep:
    if rec.picture == "heisenberg":
        return rec.stine
    return kraus_to_stinespring(kraus_picture_adjoint(stinespring_to_kraus(rec.stine)))


def _schrodinger_kraus(rec: CpMapRecord):
    ks = stinespring_to_kraus(rec.stine)
    if rec.picture == "schrodinger":
        return ks
    return kraus_picture_adjoint(ks)


def _superop_rel_distance(g1: GKLSRep, g2: GKLSRep) -> float:
    return _superop_distance(g1, g2) / max(1.0, _superop_norm(g1))


def _generator_scale(g: GKLSRep) -> float:
    return max(1.0, frob(g.v) ** 2, frob(g.k))


# ---------------------------------------------------------------------------
# command bodies: each takes (bundles, flags, report) and may return an
# output bundle
# ---------------------------------------------------------------------------

def _cmd_algebra_decompose(bundles, flags, rep: _Report):
    dec: AtomicDecomposition = _pick(bundles, "algebra").payload
    basis = algebra_from_decomposition(dec)
    adj_res, prod_res = closure_residuals(basis)
    rep.check("closure_adjoint", adj_res, flags["tol_verify"] * 100)
    rep.check("closure_product", prod_res, flags["tol_verify"] * 100)
    dec2 = atomic_decompose(basis, tol=flags["tol_rank"], seed=flags["seed"])
    rep.fact(
        "factor_multiset_match",
        sorted(dec2.factors) == sorted(dec.factors) and dec2.d0 == dec.d0,
        detail=f"declared {sorted(dec.factors)} d0={dec.d0}, "
               f"recovered {sorted(dec2.factors)} d0={dec2.d0}",
    )
    rep.check("declared_basis_in_recovered_algebra",
              _worst(invariance_residuals(lambda x: x, dec, dec2)), 100 * flags["tol_verify"])
    rep.info("d", dec.d)
    rep.info("declared", {"d0": dec.d0, "factors": [list(f) for f in dec.factors]})
    rep.info("recovered", {"d0": dec2.d0, "factors": [list(f) for f in dec2.factors]})
    return InstanceBundle("algebra", dec2, {"derived_from": "algebra-decompose",
                                            "tol_rank": flags["tol_rank"],
                                            "tol_verify": flags["tol_verify"]})


def _cmd_commutant(bundles, flags, rep: _Report):
    dec: AtomicDecomposition = _pick(bundles, "algebra").payload
    basis = algebra_from_decomposition(dec)
    comm = commutant(basis, tol=flags["tol_rank"])
    expected_dim = dec.d0 ** 2 + sum(db * db for _, db in dec.factors)
    rep.fact("commutant_dimension", comm.dim == expected_dim,
             detail=f"expected {expected_dim}, got {comm.dim}")
    worst = 0.0
    for c in comm.basis:
        for a in basis.basis:
            worst = max(worst, frob(c @ a - a @ c))
    rep.check("commutation", worst, 100 * flags["tol_verify"])
    dec_c = atomic_decompose(comm, tol=flags["tol_rank"], seed=flags["seed"])
    expected_factors = sorted(
        ([(dec.d0, 1)] if dec.d0 else []) + [(db, da) for da, db in dec.factors]
    )
    rep.fact("commutant_factor_multiset", sorted(dec_c.factors) == expected_factors
             and dec_c.d0 == 0,
             detail=f"expected {expected_factors} d0=0, "
                    f"got {sorted(dec_c.factors)} d0={dec_c.d0}")
    rep.info("dimension", comm.dim)
    rep.info("factors", [list(f) for f in dec_c.factors])
    return InstanceBundle("algebra", dec_c, {"derived_from": "commutant",
                                             "tol_rank": flags["tol_rank"],
                                             "tol_verify": flags["tol_verify"]})


def _cmd_check_invariance(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls", required=False)
    if gb is not None:
        g: GKLSRep = gb.payload
        dec = _algebra_for(bundles, gb, tol)
        scale = _generator_scale(g)
        limit = max(tol, 1e-10) * scale * 10
        residuals = invariance_residuals(lambda x: gkls_apply(g, x), dec)
        rep.info("per_element_residuals", residuals)
        rep.check("generator_invariance", _worst(residuals), limit)
        return None
    mb = _pick(bundles, "cp_map", required=False)
    if mb is not None:
        recm: CpMapRecord = mb.payload
        stine = _heisenberg_stine(recm)
        dec = _algebra_for(bundles, mb, tol)
        vscale = max(1.0, frob(stine.v))
        limit = max(tol, 1e-10) * vscale * vscale * 10
        report = cp_invariance_check(stine, dec, dec, tol=limit)
        rep.info("per_element_residuals", report.residuals)
        rep.check("cp_invariance", report.max_residual, report.tol,
                  passed=report.passed)
        return None
    raise UsageError("check-invariance needs a gkls or cp_map bundle")


def _cmd_cp_factorize(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map")
    recm: CpMapRecord = mb.payload
    stine = _heisenberg_stine(recm)
    dec = _algebra_for(bundles, mb, tol)
    vscale = max(1.0, frob(stine.v))
    inv = cp_invariance_check(stine, dec, dec, tol=max(tol, 1e-10) * vscale ** 2 * 10)
    rep.info("per_element_residuals", inv.residuals)
    if not rep.check("cp_invariance", inv.max_residual, inv.tol, passed=inv.passed):
        raise NotInvariant("map does not leave the algebra invariant",
                           residual=inv.max_residual)
    bf = atomic_block_factorize(stine, dec, dec, tol=flags["tol_rank"])
    orth = orthogonality_check(bf, tol=tol)
    rep.check("block_isometry_orthogonality", orth.max_residual, orth.tol,
              passed=orth.passed)
    v_re = reassemble_factorization(bf, dec, dec)
    rep.check("reassembly", frob(v_re - stine.v), 10 * tol * vscale)
    rep.info("d_env", bf.d_env)
    rep.info("d_f", [list(r) for r in bf.d_f])
    return None


def _cmd_gkls_normal_form(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, tol)
    nf = atomic_normal_form(g, dec, tol=tol)  # raises NotInvariant → exit 1
    res = normal_form_residuals(nf)
    for name, value in res.items():
        rep.check(f"form_{name}", value, 100 * tol)
    g2 = reconstruct_from_normal_form(nf)
    rep.check("reconstruction_distance", _superop_rel_distance(g, g2),
              10 * tol * _generator_scale(g))
    rep.info("d_env", nf.d_env)
    rep.info("d_f", [list(r) for r in nf.d_f])
    meta = {"algebra": _encode_algebra(dec), "tol_rank": flags["tol_rank"],
            "tol_verify": tol}
    return InstanceBundle("normal_form", nf, meta)


def _cmd_gkls_reconstruct(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    nb = _pick(bundles, "normal_form")
    nf = nb.payload
    g = reconstruct_from_normal_form(nf)
    try:
        invariant_split(g, nf.dec, tol=tol)
        rep.fact("reconstructed_generator_invariant", True)
    except IgklsError as exc:
        rep.fact("reconstructed_generator_invariant", False, detail=str(exc))
    rep.info("d", g.d)
    rep.info("d_env", g.d_env)
    return InstanceBundle("gkls", g, {"algebra": _encode_algebra(nf.dec),
                                      "tol_rank": flags["tol_rank"],
                                      "tol_verify": tol})


def _cmd_minimalize(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map", required=False)
    if mb is not None:
        recm: CpMapRecord = mb.payload
        s = recm.stine
        s_min, w = minimal_stinespring(s, tol=flags["tol_rank"])
        scale = max(1.0, frob(choi(s)))
        rep.check("same_map_choi", frob(choi(s_min) - choi(s)), 10 * tol * scale)
        if w.size:
            rep.check("embedding_isometry", frob(dag(w) @ w - eye(w.shape[1])),
                      10 * tol)
        rep.info("d_env_before", s.d_env)
        rep.info("d_env_after", s_min.d_env)
        return InstanceBundle("cp_map", CpMapRecord(stine=s_min, picture=recm.picture),
                              dict(mb.meta))
    gb = _pick(bundles, "gkls", required=False)
    if gb is not None:
        g: GKLSRep = gb.payload
        out = gkls_minimalize(g, tol=flags["tol_rank"])
        rep.check("same_generator", _superop_rel_distance(g, out.g_min),
                  10 * tol * _generator_scale(g))
        rep.info("d_env_before", g.d_env)
        rep.info("d_env_after", out.g_min.d_env)
        return InstanceBundle("gkls", out.g_min, dict(gb.meta))
    nb = _pick(bundles, "normal_form", required=False)
    if nb is not None:
        nf = nb.payload
        nf_min = reduce_normal_form_minimal(nf, tol=flags["tol_rank"])
        g1 = reconstruct_from_normal_form(nf)
        g2 = reconstruct_from_normal_form(nf_min)
        rep.check("same_generator", _superop_rel_distance(g1, g2),
                  10 * tol * _generator_scale(g1))
        minim = normal_form_minimality(nf_min, tol=flags["tol_rank"])
        for key, value in minim.items():
            if isinstance(value, bool):
                rep.fact(f"minimality_{key}", value)
        rep.info("d_env_before", nf.d_env)
        rep.info("d_env_after", nf_min.d_env)
        return InstanceBundle("normal_form", nf_min, dict(nb.meta))
    raise UsageError("minimalize needs a cp_map, gkls, or normal_form bundle")


def _cmd_gauge_compare(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    b1, b2 = _pick_pair(bundles)
    if b1.kind == "cp_map":
        s1 = _heisenberg_stine(b1.payload)
        s2 = _heisenberg_stine(b2.payload)
        s1_min, _ = minimal_stinespring(s1, tol=flags["tol_rank"])
        w = stinespring_gauge(s1_min, s2, tol=flags["tol_rank"])
        scale = max(1.0, frob(s2.v))
        rep.check("gauge_transport", frob(_on_env(w, s1_min.v, s1.d_in) - s2.v),
                  10 * tol * scale)
        rep.check("gauge_isometry", frob(dag(w) @ w - eye(w.shape[1])), 10 * tol)
        rep.info("w", encode_cmatrix(w))
        return None
    if b1.kind == "gkls":
        g1: GKLSRep = b1.payload
        g2: GKLSRep = b2.payload
        gg = gkls_gauge(g1, g2, tol=flags["tol_rank"])
        rep.check("same_generator", _superop_rel_distance(g1, g2),
                  10 * tol * _generator_scale(g1))
        rep.check("gauge_isometry", frob(dag(gg.w) @ gg.w - eye(gg.w.shape[1])),
                  10 * tol)
        rep.info("w", encode_cmatrix(gg.w))
        rep.info("psi", encode_cmatrix(gg.psi.reshape(-1, 1)))
        rep.info("mu", float(gg.mu))
        return None
    nf1 = b1.payload
    nf2 = b2.payload
    gauge = normal_form_gauge(nf1, nf2, tol=flags["tol_rank"])
    g1 = reconstruct_from_normal_form(nf1)
    rep.check("same_generator",
              _superop_rel_distance(g1, reconstruct_from_normal_form(nf2)),
              10 * tol * _generator_scale(g1))
    rep.info("w_ii", [encode_cmatrix(w) for w in gauge.w_ii])
    rep.info("psi_i", [encode_cmatrix(p.reshape(-1, 1)) for p in gauge.psi_i])
    rep.info("mu_i", [float(m) for m in gauge.mu_i])
    return None


def _cmd_semicausal(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    split = flags.get("split")
    if split is None:
        params = gb.meta.get("params", {})
        if isinstance(params, dict) and "d_a" in params and "d_b" in params:
            split = (int(params["d_a"]), int(params["d_b"]))
    if split is None:
        raise UsageError("semicausal needs the bipartition: pass --split dA,dB "
                         "(or store d_a/d_b in the bundle's meta.params)")
    d_a, d_b = split
    if d_a * d_b != g.d:
        raise UsageError(f"bipartition {d_a}·{d_b} does not match d = {g.d}")
    report = semicausal_check(g, d_a, d_b, tol=tol)
    rep.info("algebra_route_residuals", report.algebra_residuals)
    rep.info("direct_route_residuals", report.direct_residuals)
    rep.check("semicausal", report.max_residual, report.tol, passed=report.passed)
    return None


def _cmd_dfs(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, tol)
    cert = dfs_verify_normal_form(g, dec, tol=tol)  # raises on failure → exit 1
    for name, value in cert.residuals.items():
        rep.check(f"dfs_{name}", value, None)
    rep.fact("decoherence_free", True)
    rep.info("beta", [[encode_cmatrix(b) for b in row] for row in cert.beta])
    rep.info("kappa_a", [encode_cmatrix(m) for m in cert.kappa_a])
    rep.info("kappa_b", [encode_cmatrix(m) for m in cert.kappa_b])
    rep.info("h_tilde", encode_cmatrix(cert.h_tilde))
    rep.info("psi", [encode_cmatrix(p.reshape(-1, 1)) for p in cert.psi])
    return None


def _cmd_abelian(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map")
    recm: CpMapRecord = mb.payload
    kraus = stinespring_to_kraus(_heisenberg_stine(recm))
    dec = _algebra_for(bundles, mb, tol)
    obs = mb.meta.get("observable")
    if obs is not None:
        c = _decode_cmatrix(obs, "meta.observable")
    else:
        c = dec.u_alg @ np.diag(np.arange(dec.d, dtype=np.complex128)) @ dag(dec.u_alg)
        rep.info("observable", "default: Σ i·|p_i⟩⟨p_i| over the minimal projections")
    coeffs = maximal_abelian_coefficients(kraus, dec, c, tol=tol)
    for name, value in coeffs.residuals.items():
        rep.check(f"abelian_{name}", value, None)
    rep.fact("commutator_closed", True)
    rep.info("c_mn", [[encode_cmatrix(m) for m in row] for row in coeffs.c_mn])
    return None


def _cmd_koashi_imoto(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map")
    kraus = _schrodinger_kraus(mb.payload)
    result = koashi_imoto_decompose(kraus, tol=tol, seed=flags["seed"])
    for name, value in result.report.items():
        if isinstance(value, (int, float)) and name.endswith("residual"):
            rep.check(f"ki_{name}", float(value), None)
        else:
            rep.info(name, value)
    rep.fact("decomposed", True)
    rep.info("factors", [list(f) for f in result.dec.factors])
    return InstanceBundle("koashi_imoto", result,
                          {"tol_rank": flags["tol_rank"], "tol_verify": tol,
                           "seed": flags["seed"]})


def _cmd_probe(bundles, flags, rep: _Report):
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, flags["tol_verify"])
    tol = flags["tol_probe"]
    report = semigroup_invariance_probe(g, dec, times=PROBE_TIMES, tol=tol)
    for t, r in zip(report.times, report.max_residuals):
        rep.check(f"probe_t={t:g}", r, report.tol)
    rep.info("probe_residual", "max over the orthonormal pattern basis X of "
             "dist(e^{tL}(X), algebra) / ||e^{tL}||_F")
    return None


def _cmd_random(bundles, flags, rep: _Report):
    kind = flags.get("kind") or "gkls"
    if kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = flags.get("params")
    if params:
        try:
            params = json.loads(params)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--params is not valid JSON: {exc.msg}") from exc
        if not isinstance(params, dict):
            raise UsageError("--params must be a JSON object")
    try:
        bundle = random_instance(kind, params=params or None, seed=flags["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    # prove the advertised generation invariants before handing the bundle out
    tol = flags["tol_verify"]
    if kind == "gkls":
        g = bundle.payload
        dec = _decode_algebra(bundle.meta["algebra"], tol, "meta.algebra")
        worst = _worst(invariance_residuals(lambda x: gkls_apply(g, x), dec))
        rep.check("generated_invariance", worst,
                  max(tol, 1e-10) * _generator_scale(g) * 10)
    elif kind == "cp_map":
        recm = bundle.payload
        dec = _decode_algebra(bundle.meta["algebra"], tol, "meta.algebra")
        vscale = max(1.0, frob(recm.stine.v))
        inv = cp_invariance_check(recm.stine, dec, dec,
                                  tol=max(tol, 1e-10) * vscale ** 2 * 10)
        rep.check("generated_invariance", inv.max_residual, inv.tol,
                  passed=inv.passed)
    elif kind == "normal_form":
        for name, value in normal_form_residuals(bundle.payload).items():
            rep.check(f"form_{name}", value, 100 * tol)
    elif kind == "algebra":
        dec = bundle.payload
        rep.check("u_alg_unitary", frob(dag(dec.u_alg) @ dec.u_alg - eye(dec.d)),
                  100 * tol)
    else:  # koashi_imoto: the pipeline already verified itself; surface it
        for name, value in bundle.payload.report.items():
            if isinstance(value, (int, float)) and name.endswith("residual"):
                rep.check(f"ki_{name}", float(value), None)
    rep.info("kind", kind)
    rep.info("seed", flags["seed"])
    return bundle


_BODIES = {
    "algebra-decompose": _cmd_algebra_decompose,
    "commutant": _cmd_commutant,
    "cp-factorize": _cmd_cp_factorize,
    "gkls-normal-form": _cmd_gkls_normal_form,
    "gkls-reconstruct": _cmd_gkls_reconstruct,
    "check-invariance": _cmd_check_invariance,
    "minimalize": _cmd_minimalize,
    "gauge-compare": _cmd_gauge_compare,
    "semicausal": _cmd_semicausal,
    "dfs": _cmd_dfs,
    "abelian": _cmd_abelian,
    "koashi-imoto": _cmd_koashi_imoto,
    "probe": _cmd_probe,
    "random": _cmd_random,
}


# ---------------------------------------------------------------------------
# report driver
# ---------------------------------------------------------------------------

def run_report(command: str, bundles: list[InstanceBundle], flags: dict) -> tuple[int, dict]:
    """Run one command over decoded bundles; returns (exit_code, report)."""
    if command not in _BODIES:
        raise UsageError(f"unknown command {command!r}")
    tolerances = {"tol_rank": flags["tol_rank"], "tol_verify": flags["tol_verify"]}
    if command == "probe":
        tolerances["tol_probe"] = flags["tol_probe"]
    rep = _Report(command, tolerances)
    rep.doc["inputs"] = [
        {"kind": b.kind, "seed": b.meta.get("seed")} for b in bundles
    ]
    start = time.perf_counter()
    out_bundle = None
    try:
        out_bundle = _BODIES[command](bundles, flags, rep)
        code = 0 if rep.doc["ok"] else 1
    except (IgklsError, MemoryError) as exc:
        # a dense stack beyond the machine's memory is a structured failure
        # of this input, not a crash
        rep.doc["ok"] = False
        rep.doc["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "residual": getattr(exc, "residual", None),
        }
        code = 1
    rep.doc["timing_seconds"] = time.perf_counter() - start
    rep.doc["exit_code"] = code
    if out_bundle is not None and code == 0:
        rep.doc["produced"] = out_bundle.kind
        rep.doc["_bundle"] = out_bundle  # consumed by the CLI layer, not emitted
    return code, rep.doc


def _render_text(doc: dict) -> str:
    lines = [f"igkls {doc['command']}"]
    tols = ", ".join(f"{k}={v:g}" for k, v in doc["tolerances"].items())
    lines.append(f"  tolerances: {tols}")
    for chk in doc["checks"]:
        mark = "PASS" if chk["passed"] else "FAIL"
        if chk["residual"] is None:
            lines.append(f"  [{mark}] {chk['name']}"
                         + (f" — {chk['detail']}" if chk.get("detail") else ""))
        elif chk["tolerance"] is None:
            lines.append(f"  [{mark}] {chk['name']}: residual {chk['residual']:.3e}")
        else:
            lines.append(f"  [{mark}] {chk['name']}: residual {chk['residual']:.3e}"
                         f" vs tol {chk['tolerance']:.3e}")
    if "error" in doc:
        err = doc["error"]
        res = f" (residual {err['residual']:.3e})" if err.get("residual") is not None else ""
        lines.append(f"  ERROR {err['type']}: {err['message']}{res}")
    for key, value in doc.get("result", {}).items():
        if isinstance(value, (str, int, float, bool)):
            lines.append(f"  {key}: {value}")
    lines.append(f"  time: {doc['timing_seconds']:.3f}s")
    lines.append(f"VERDICT: {'PASS' if doc['ok'] else 'FAIL'} (exit {doc['exit_code']})")
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _positive_tolerance(text: str) -> float:
    """argparse type for tolerance flags: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igkls",
        description="Structural normal forms of CP maps and GKLS generators "
                    "with an invariant matrix *-algebra: verification reports.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--in", dest="inputs", action="append", default=[],
                       metavar="FILE", help="input bundle (repeatable)")
        p.add_argument("--out", dest="out", metavar="FILE",
                       help="where to write the produced bundle (or the report "
                            "for verify-only commands)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-rank", type=_positive_tolerance, default=None,
                       dest="tol_rank")
        p.add_argument("--tol-verify", type=_positive_tolerance, default=None,
                       dest="tol_verify")
        p.add_argument("--text", action="store_true",
                       help="human-readable report instead of JSON")
        if name == "random":
            p.add_argument("--kind", default="gkls", choices=list(KINDS))
            p.add_argument("--params", default=None,
                           help="JSON object with generation parameters")
        if name == "semicausal":
            p.add_argument("--split", default=None, metavar="dA,dB",
                           help="tensor bipartition of the system")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2

    flags = {
        "seed": args.seed,
        "tol_rank": args.tol_rank if args.tol_rank is not None else 1e-9,
        "tol_verify": args.tol_verify if args.tol_verify is not None else 1e-9,
        # the probe compares matrix exponentials, whose conditioning differs
        # from the algebraic checks; its default is looser unless pinned
        "tol_probe": args.tol_verify if args.tol_verify is not None else 1e-6,
    }
    for key in ("kind", "params"):
        if hasattr(args, key):
            flags[key] = getattr(args, key)
    if getattr(args, "split", None):
        try:
            d_a, d_b = (int(x) for x in args.split.split(","))
            flags["split"] = (d_a, d_b)
        except ValueError:
            print("error: --split expects two integers as dA,dB", file=sys.stderr)
            return 2

    bundles = []
    try:
        for path in args.inputs:
            bundles.append(decode(path))
    except (ParseError, SchemaError, InvariantError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2

    try:
        code, doc = run_report(args.command, bundles, flags)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bundle = doc.pop("_bundle", None)
    if bundle is not None and not args.out and not args.text:
        doc["bundle"] = bundle_to_dict(bundle)
    text = _render_text(doc) if args.text else json.dumps(
        doc, indent=2, sort_keys=True, default=_json_default) + "\n"
    sys.stdout.write(text)
    if args.out:
        try:
            if bundle is not None:
                write_bundle(bundle, args.out)
            else:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
