"""The one check primitive and the reports built from it.

``errors.verify`` raises unless residual <= limit and records the check while
a recording is open; ``cli.run_report`` opens one per command, so a report
lists every check the library made, and the CLI computes none of them again.
The call-count tests pin that: each counts a function in every ``igkls``
namespace that bound it, over one ``run_report``.  Negative controls
make the gauge, minimalize, generation, decomposition, probe and semicausal
checks fail by name, and a guard keeps ``verify`` the only way into a report.
"""

from __future__ import annotations

import ast
import io
import json
import math
import re
import sys
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest

import igkls.algebra as algebra_mod
import igkls.cpmaps as cpmaps_mod
import igkls.gkls as gkls_mod
import igkls.cli as cli_mod
from igkls import (AtomicDecomposition, DecompositionFailed, GKLSRep, InvariantError, KrausSet,
                   NotInvariant, NotSameGenerator, NotSameMap, StinespringRep,
                   atomic_block_factorize, cp_invariance_check, kraus_to_stinespring,
                   orthogonality_check, reconstruct_from_normal_form, semicausal_check,
                   semigroup_invariance_probe)
from igkls.cli import run_report
from igkls.errors import _SINK, _recording, verify
from igkls.io import CpMapRecord, InstanceBundle, random_instance, write_bundle, write_meta
from igkls.linalg import eye, frob
from igkls.rng import CounterRng

from conftest import meta_algebra
from test_io_cli import BASE_FLAGS

# cli_chain shape 0 of the benchmark
SHAPE = {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2, "d_f": [[2, 0], [1, 0]]}


def _count(monkeypatch, module, name) -> list:
    """Calls of ``module.name`` from every igkls namespace that bound it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "igkls" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _ok(command, bundles) -> dict:
    code, doc = run_report(command, bundles, dict(BASE_FLAGS))
    assert code == 0, doc.get("error")
    assert doc["ok"] and all(c["passed"] for c in doc["checks"])
    return doc


# ---------------------------------------------------------------------------
# verify and its recording
# ---------------------------------------------------------------------------

def test_verify_fails_on_nan_and_records_only_while_a_recording_is_open():
    seen = []
    verify("outside", 0.5, 1.0, NotInvariant, "unrecorded")
    with _recording(lambda *check: seen.append(check)):
        verify("small", 1e-3, 1e-2, NotInvariant, "passes")
        with pytest.raises(NotInvariant, match="NaN fails") as info:
            verify("nan", float("nan"), 1.0, NotInvariant, "NaN fails")
        with pytest.raises(NotInvariant):
            verify("large", 2.0, 1.0, NotInvariant, "too large")
    verify("after", 0.0, 1.0, NotInvariant, "unrecorded")
    assert math.isnan(info.value.residual)
    assert [name for name, _, _ in seen] == ["small", "nan", "large"]
    assert seen[0] == ("small", 1e-3, 1e-2) and seen[2] == ("large", 2.0, 1.0)


def test_a_failed_command_leaks_no_recording_into_the_next():
    bundle = random_instance("cp_map", params=SHAPE, seed=1)
    bad = InstanceBundle("cp_map", CpMapRecord(StinespringRep(
        8, 8, 2, bundle.payload.stine.v + 1e-3 * np.ones((16, 8)))), bundle.meta)
    code, failed = run_report("cp-factorize", [bad], dict(BASE_FLAGS))
    assert code == 1 and failed["error"]["type"] == "NotInvariant"
    assert [c["name"] for c in failed["checks"]] == ["cp_invariance"]
    assert _SINK.get() is None
    verify("stray", 0.0, 1.0, NotInvariant, "unrecorded")
    doc = _ok("cp-factorize", [bundle])
    assert "stray" not in [c["name"] for c in failed["checks"] + doc["checks"]]
    assert [c["name"] for c in doc["checks"]].count("cp_invariance") == 1


def test_a_retried_commutant_draw_leaves_the_report_ok(monkeypatch):
    bundle = random_instance("algebra", params={"factors": [[2, 2], [1, 3]], "d0": 1}, seed=13)
    real = algebra_mod._generic_elements
    draws = []

    def identity_first(mats, rng, count):
        draws.append(count)
        if len(draws) == 1:  # a central draw: its null space is all of L(C^d)
            return [eye(mats.shape[1])] * count
        return real(mats, rng, count)

    monkeypatch.setattr(algebra_mod, "_generic_elements", identity_first)
    doc = _ok("commutant", [bundle])
    assert len(draws) == 3  # the failed draw, its retry, the one split of 𝒜′
    names = [c["name"] for c in doc["checks"]]
    assert names == ["commutation", "closure_adjoint", "closure_product"]


def test_every_library_check_lands_in_the_report_with_its_limit():
    doc = _ok("algebra-decompose", [random_instance("algebra", seed=13)])
    assert [c["name"] for c in doc["checks"]][:2] == ["closure_adjoint", "closure_product"]
    assert all(c["tolerance"] is not None for c in doc["checks"] if c["residual"] is not None)

    doc = _ok("random", [])  # a gkls instance: the one generator check only
    assert [c["name"] for c in doc["checks"]] == ["generator_invariance"]

    flags = dict(BASE_FLAGS, kind="koashi_imoto", params=None, seed=1)
    code, doc = run_report("random", [], flags)
    names = [c["name"] for c in doc["checks"]]
    assert code == 0 and names == ["ki_tp", "ki_support", "ki_dual_fixed", "closure_adjoint",
                                   "closure_product", "ki_pattern", "ki_isometry",
                                   "ki_fixed_family"]

    # a residual that no check compares is a result, not a check
    ops = [np.sqrt(0.75) * eye(2), np.sqrt(0.25) * np.diag([1.0, -1.0])]
    rec = CpMapRecord(kraus_to_stinespring(KrausSet(2, 2, ops)), "schrodinger")
    doc = _ok("koashi-imoto", [InstanceBundle("cp_map", rec, {})])
    assert "compressed_tp_residual" in doc["result"]
    assert all(c["tolerance"] is not None for c in doc["checks"] if c["residual"] is not None)


# ---------------------------------------------------------------------------
# no CLI command recomputes what its library call verified
# ---------------------------------------------------------------------------

def test_cp_factorize_checks_invariance_orthogonality_and_reassembly_once(monkeypatch):
    bundle = random_instance("cp_map", params=SHAPE, seed=1)
    calls = [_count(monkeypatch, cpmaps_mod, name) for name in
             ("cp_invariance_check", "orthogonality_check", "reassemble_factorization")]
    doc = _ok("cp-factorize", [bundle])
    assert [len(c) for c in calls] == [1, 1, 1]
    names = [c["name"] for c in doc["checks"]]
    for name in ("cp_invariance", "block_isometry_orthogonality", "reassembly"):
        assert names.count(name) == 1


def test_gkls_normal_form_reconstructs_once_and_builds_one_pattern_basis(monkeypatch):
    bundle = random_instance("gkls", params=SHAPE, seed=1)
    recon = _count(monkeypatch, gkls_mod, "reconstruct_from_normal_form")
    basis = _count(monkeypatch, algebra_mod, "algebra_pattern_basis")
    split = _count(monkeypatch, gkls_mod, "invariant_split")
    doc = _ok("gkls-normal-form", [bundle])
    assert len(recon) == 1
    assert len(basis) == len(split) == 1
    names = [c["name"] for c in doc["checks"]]
    assert names.count("generator_invariance") == 1
    assert names.count("normal_form_reconstruction") == 1


def _normal_form_pair():
    nf = gkls_mod.reduce_normal_form_minimal(random_instance("normal_form", params=SHAPE,
                                                             seed=1).payload)
    return nf, InstanceBundle("normal_form", nf, {})


def test_gauge_compare_reconstructs_only_inside_the_library(monkeypatch):
    nf, nb = _normal_form_pair()
    recon = _count(monkeypatch, gkls_mod, "reconstruct_from_normal_form")
    _ok("gauge-compare", [nb, nb])
    cli_calls = len(recon)
    recon.clear()
    gkls_mod.normal_form_gauge(nf, nf)
    assert cli_calls == len(recon) == 2

    g = random_instance("gkls", params=SHAPE, seed=1).payload
    g_min = gkls_mod.gkls_minimalize(g).g_min
    dist = _count(monkeypatch, gkls_mod, "_superop_distance")
    doc = _ok("gauge-compare", [InstanceBundle("gkls", g_min, {}),
                                InstanceBundle("gkls", g, {})])
    assert len(dist) == 1
    assert [c["name"] for c in doc["checks"]].count("same_generator") == 1


def test_minimalize_reconstructs_only_inside_the_library(monkeypatch):
    nf, nb = _normal_form_pair()
    recon = _count(monkeypatch, gkls_mod, "reconstruct_from_normal_form")
    minimality = _count(monkeypatch, gkls_mod, "normal_form_minimality")
    _ok("minimalize", [nb])
    assert len(recon) == 2 and len(minimality) == 1

    dist = _count(monkeypatch, gkls_mod, "_superop_distance")
    _ok("minimalize", [random_instance("gkls", params=SHAPE, seed=1)])
    assert len(dist) == 1


# ---------------------------------------------------------------------------
# every check a command's report lists can fail: negative controls
# ---------------------------------------------------------------------------

def _fails(command, bundles, name, error, flags=None) -> dict:
    """Run ``command``; it must exit 1 with ``error`` and list ``name`` as the
    last check, failed with a residual above its limit."""
    code, doc = run_report(command, bundles, dict(BASE_FLAGS, **(flags or {})))
    assert code == 1 and not doc["ok"]
    assert doc["error"]["type"] == error.__name__, doc["error"]
    last = doc["checks"][-1]
    assert last["name"] == name and not last["passed"]
    assert last["residual"] > last["tolerance"]
    return doc


def _scaled_lstsq(monkeypatch, module):
    real = module._isometry_lstsq
    monkeypatch.setattr(module, "_isometry_lstsq", lambda m1, m2, lim: 2 * real(m1, m2, lim))


def test_gauge_isometry_fails_for_a_non_isometric_cp_gauge(monkeypatch):
    bundle = random_instance("cp_map", params=SHAPE, seed=1)
    s_min, _ = cpmaps_mod.minimal_stinespring(bundle.payload.stine)
    pair = [InstanceBundle("cp_map", CpMapRecord(s_min), {}), bundle]
    _ok("gauge-compare", pair)
    _scaled_lstsq(monkeypatch, cpmaps_mod)
    _fails("gauge-compare", pair, "gauge_isometry", NotSameMap)
    _fails("minimalize", [bundle], "gauge_isometry", NotSameMap)


def test_gauge_isometry_fails_for_a_non_isometric_gkls_gauge(monkeypatch):
    bundle = random_instance("gkls", params=SHAPE, seed=1)
    pair = [InstanceBundle("gkls", gkls_mod.gkls_minimalize(bundle.payload).g_min, {}), bundle]
    _ok("gauge-compare", pair)
    _scaled_lstsq(monkeypatch, gkls_mod)
    _fails("gauge-compare", pair, "gauge_isometry", NotSameGenerator)


def test_same_map_fails_when_minimalize_drops_an_environment_slot(monkeypatch):
    bundle = random_instance("cp_map", params=SHAPE, seed=1)
    real = cpmaps_mod.minimal_stinespring

    def dropped(s, tol):
        s_min, w = real(s, tol)
        v = s_min.v.reshape(s.d_out, s_min.d_env, s.d_in)[:, 1:].reshape(-1, s.d_in)
        return StinespringRep(s.d_in, s.d_out, s_min.d_env - 1, v), w[:, 1:]

    monkeypatch.setattr(cpmaps_mod, "minimal_stinespring", dropped)
    _fails("minimalize", [bundle], "same_map", NotSameMap)


def test_u_alg_unitary_fails_on_a_non_unitary_draw(monkeypatch):
    real = CounterRng.unitary
    monkeypatch.setattr(CounterRng, "unitary", lambda self, n: 1.5 * real(self, n))
    _fails("random", [], "u_alg_unitary", InvariantError, {"kind": "algebra", "params": None})


@pytest.mark.parametrize("broken", ["h_selfadjoint", "u_isometry", "u_orthogonality"])
def test_form_checks_fail_on_a_broken_normal_form(monkeypatch, broken):
    real = gkls_mod.normal_form_residuals
    monkeypatch.setattr(gkls_mod, "normal_form_residuals",
                        lambda nf: dict(real(nf), **{broken: 1.0}))
    _fails("random", [], f"form_{broken}", InvariantError,
           {"kind": "normal_form", "params": None})


def _fake_decompose(monkeypatch, change):
    """Make the CLI's ``atomic_decompose`` return ``change(dec)`` of its result."""
    real = cli_mod.atomic_decompose
    monkeypatch.setattr(cli_mod, "atomic_decompose",
                        lambda alg, tol, seed: change(real(alg, tol=tol, seed=seed)))


def _all_null(dec: AtomicDecomposition) -> AtomicDecomposition:
    return AtomicDecomposition(dec.d, dec.u_alg, dec.d, [])


@pytest.mark.parametrize("command", ["algebra-decompose", "commutant"])
def test_a_recovered_structure_that_differs_raises_decomposition_failed(monkeypatch, command):
    bundle = random_instance("algebra", params={"factors": [[2, 2], [1, 3]], "d0": 1}, seed=13)
    _ok(command, [bundle])
    _fake_decompose(monkeypatch, _all_null)
    code, doc = run_report(command, [bundle], dict(BASE_FLAGS))
    assert code == 1 and doc["error"]["type"] == "DecompositionFailed"
    assert "got d0=8" in doc["error"]["message"]
    assert all(c["passed"] for c in doc["checks"])


def test_declared_basis_fails_in_another_frame(monkeypatch):
    bundle = random_instance("algebra", params={"factors": [[2, 2], [1, 3]], "d0": 1}, seed=13)
    rotated = CounterRng(5).unitary(bundle.payload.d)
    _fake_decompose(monkeypatch, lambda dec: AtomicDecomposition(
        dec.d, rotated @ dec.u_alg, dec.d0, dec.factors))
    _fails("algebra-decompose", [bundle], "declared_basis_in_recovered_algebra",
           DecompositionFailed)


def test_a_failing_probe_lists_a_prefix_of_its_times_and_every_residual():
    bundle = random_instance("gkls", params=SHAPE, seed=1)
    g = bundle.payload
    leaky = InstanceBundle("gkls", _scaled(g, 1.0, v=_perturbed(g.v, 1e-2)), bundle.meta)
    doc = _fails("probe", [leaky], "probe_t=0.1", NotInvariant)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["probe_t=0.1", "probe_t=1", "probe_t=10"][:len(names)]
    assert len(doc["result"]["probe_residuals"]) == 3
    assert all(r > doc["checks"][0]["tolerance"] for r in doc["result"]["probe_residuals"])


def test_gkls_reconstruct_reports_the_split_error_of_a_leaky_generator(monkeypatch):
    bundle = random_instance("normal_form", params=SHAPE, seed=1)
    real = gkls_mod.reconstruct_from_normal_form

    def leaky(nf):
        g = real(nf)
        return _scaled(g, 1.0, v=_perturbed(g.v, 1e-3))

    monkeypatch.setattr(gkls_mod, "reconstruct_from_normal_form", leaky)
    _fails("gkls-reconstruct", [bundle], "generator_invariance", NotInvariant)


def test_semicausal_fails_on_a_generic_generator():
    bundle = random_instance("gkls", params={"factors": [[4, 1]], "d0": 0, "d_env": 2}, seed=1)
    _fails("semicausal", [bundle], "semicausal", NotInvariant, {"split": (2, 2)})


# ---------------------------------------------------------------------------
# one invariance limit, relative to the size of the map
# ---------------------------------------------------------------------------

def _perturbed(m: np.ndarray, rel: float) -> np.ndarray:
    e = np.random.default_rng(5).standard_normal(m.shape)
    return m + rel * frob(m) * e / frob(e)


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_scaled_invariant_cp_map_factorizes_and_a_perturbed_one_does_not(scale):
    bundle = random_instance("cp_map", seed=3)
    s = bundle.payload.stine

    def run(v):
        rec = CpMapRecord(StinespringRep(s.d_in, s.d_out, s.d_env, v), "heisenberg")
        return run_report("cp-factorize", [InstanceBundle("cp_map", rec, bundle.meta)],
                          dict(BASE_FLAGS))

    code, doc = run(scale * s.v)
    assert code == 0, doc.get("error")
    code, doc = run(_perturbed(scale * s.v, 1e-6))
    assert code == 1 and doc["error"]["type"] == "NotInvariant"


def _check(doc, name) -> dict:
    (check,) = [c for c in doc["checks"] if c["name"] == name]
    return check


def _scaled(g: GKLSRep, scale: float, v=None, k=None) -> GKLSRep:
    """(V, K) ↦ (scale·V, scale²·K), which scales L by scale²; ``v``/``k``
    replace the scaled parts."""
    v = scale * g.v if v is None else v
    k = scale**2 * g.k if k is None else k
    return GKLSRep(g.d, StinespringRep(g.d, g.d, g.d_env, v), k)


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_scaled_invariant_generator_has_a_normal_form_and_a_perturbed_one_not(scale):
    bundle = random_instance("gkls", seed=3)
    g = bundle.payload

    def run(command, v):
        return run_report(command, [InstanceBundle("gkls", _scaled(g, scale, v=v), bundle.meta)],
                          dict(BASE_FLAGS))

    code, checked = run("check-invariance", scale * g.v)
    assert code == 0
    assert max(checked["result"]["per_element_residuals"]) == \
        _check(checked, "generator_invariance")["residual"]
    code, formed = run("gkls-normal-form", scale * g.v)
    assert code == 0
    # one limit for one residual, whichever command checks it
    assert _check(checked, "generator_invariance") == _check(formed, "generator_invariance")
    for command in ("check-invariance", "gkls-normal-form"):
        code, doc = run(command, _perturbed(scale * g.v, 1e-6))
        assert code == 1 and doc["error"]["type"] == "NotInvariant"
        failed = _check(doc, "generator_invariance")
        assert not failed["passed"] and failed["residual"] > failed["tolerance"]


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_gauge_compare_rejects_a_generator_with_k_perturbed(scale):
    g = _scaled(random_instance("gkls", seed=3).payload, scale)
    g_min = InstanceBundle("gkls", gkls_mod.gkls_minimalize(g).g_min, {})
    assert run_report("gauge-compare", [g_min, InstanceBundle("gkls", g, {})],
                      dict(BASE_FLAGS))[0] == 0
    bent = InstanceBundle("gkls", _scaled(g, 1.0, k=_perturbed(g.k, 1e-6)), {})
    code, doc = run_report("gauge-compare", [g_min, bent], dict(BASE_FLAGS))
    assert code == 1 and doc["error"]["type"] == "NotSameGenerator"
    assert not _check(doc, "same_generator")["passed"]


K_ONLY = {"factors": [[2, 2]], "d0": 0, "d_env": 2, "k_only": True}


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_dfs_certifies_a_scaled_k_only_generator_and_rejects_k_perturbed(scale):
    bundle = random_instance("gkls", params=K_ONLY, seed=4)
    g = _scaled(bundle.payload, scale)
    code, doc = run_report("dfs", [InstanceBundle("gkls", g, bundle.meta)], dict(BASE_FLAGS))
    assert code == 0, doc.get("error")
    bent = _scaled(g, 1.0, k=_perturbed(g.k, 1e-6))
    code, doc = run_report("dfs", [InstanceBundle("gkls", bent, bundle.meta)], dict(BASE_FLAGS))
    assert code == 1 and doc["error"]["type"] == "NotInvariant"


def test_dfs_lists_the_generator_invariance_check_once():
    # the invariant split's checks, then the two that certify A = 0 and the
    # two that re-verify the couplings read off B, K_𝒜 and H_𝒜′
    code, doc = run_report("dfs", [random_instance("gkls", params=K_ONLY, seed=4)],
                           dict(BASE_FLAGS))
    assert code == 0 and [c["name"] for c in doc["checks"]] == [
        "split_v_reassembly", "split_k_reassembly", "generator_invariance",
        "split_a_invariance", "split_b_intertwining", "k_alg_membership",
        "dfs_dissipation", "dfs_cp_part", "dfs_kraus_pattern", "dfs_im_k_pattern"]


@pytest.mark.parametrize("seed", range(4))
def test_dfs_cp_part_fails_for_a_nearly_decoherence_free_generator(seed):
    # A scaled by 1e-6: the dissipation form, quadratic in A, stays within
    # its limit, while ‖A‖_F, linear in A, does not
    nf = random_instance("normal_form", {"factors": [[2, 2]], "d0": 0, "d_env": 2,
                                         "d_f": [[1]]}, seed=seed).payload
    nf.a[0][0] = 1e-6 * nf.a[0][0]
    g = reconstruct_from_normal_form(nf)
    code, doc = run_report("dfs", [InstanceBundle("gkls", g, write_meta(algebra=nf.dec))],
                           dict(BASE_FLAGS))
    assert code == 1 and doc["error"]["type"] == "NotDecoherenceFree"
    assert _check(doc, "dfs_dissipation")["passed"]
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["dfs_cp_part"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_of_a_generator_scaled_by_ten_reports_under_warnings_as_errors(
        tmp_path, capsys, seed):
    # L scaled by 100 makes e^{t(L_r − μ)} overflow at t = 10: the overflow
    # must reach the report as a failed time, not raise a RuntimeWarning
    bundle = random_instance("gkls", seed=seed)
    path = tmp_path / "g10.json"
    write_bundle(InstanceBundle("gkls", _scaled(bundle.payload, 10.0), bundle.meta), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_mod.main(["probe", "--in", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and doc["ok"] is (code == 0)
    assert [c["name"] for c in doc["checks"]] == ["probe_t=0.1", "probe_t=1", "probe_t=10"]
    assert doc["checks"][0]["passed"] and doc["checks"][1]["passed"]


# ---------------------------------------------------------------------------
# report dicts: every dataclass field, under its own name
# ---------------------------------------------------------------------------

def test_each_report_dict_holds_every_field():
    cp = random_instance("cp_map", {"factors": [[2, 2]], "d0": 0, "d_env": 2, "d_f": [[2]]},
                         seed=4)
    dec = meta_algebra(cp)
    inv = cp_invariance_check(cp.payload.stine, dec, dec)
    assert inv.to_dict() == {"passed": inv.passed, "max_residual": inv.max_residual,
                             "tol": inv.tol, "residuals": inv.residuals,
                             "worst_index": inv.worst_index}
    bf = atomic_block_factorize(cp.payload.stine, dec, dec)
    bf.u[0][0] = 2 * bf.u[0][0]  # (0, 0, 0), the row's only triple, is no isometry
    ortho = orthogonality_check(bf)
    assert ortho.to_dict() == {"passed": False, "max_residual": ortho.max_residual,
                               "tol": ortho.tol, "worst_triple": [0, 0, 0]}

    g = random_instance("gkls", params={"factors": [[4, 1]], "d0": 0, "d_env": 2}, seed=1)
    semi = semicausal_check(g.payload, 2, 2)
    assert semi.to_dict() == {"passed": semi.passed, "max_residual": semi.max_residual,
                              "tol": semi.tol, "algebra_residuals": semi.algebra_residuals,
                              "direct_residuals": semi.direct_residuals}
    probe = semigroup_invariance_probe(
        g.payload, meta_algebra(g), [0.1, 1.0])
    assert probe.to_dict() == {"times": [0.1, 1.0], "max_residuals": probe.max_residuals,
                               "tol": probe.tol, "passed": probe.passed}


# ---------------------------------------------------------------------------
# one tolerance policy: no bare tolerance literal outside a named constant
# ---------------------------------------------------------------------------

_LITERAL = re.compile(r"\d+(\.\d+)?e-\d+")


def _bare_tolerance_literals(path: Path) -> list[str]:
    """``1e-N``-style number tokens of the module that are not the value of a
    module-level ``NAME = <number>`` assignment."""
    src = path.read_text(encoding="utf-8")
    named = {node.value.lineno for node in ast.parse(src).body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and isinstance(node.value, ast.Constant)}
    return [f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type == tokenize.NUMBER and _LITERAL.fullmatch(tok.string)
            and tok.start[0] not in named]


def test_no_bare_tolerance_literal_in_the_package():
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "igkls").glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in _bare_tolerance_literals(path)] == []


# ---------------------------------------------------------------------------
# one rank rule: linalg._rank decides every rank, no module counts its own
# ---------------------------------------------------------------------------

_RANK_RULE = ("count_nonzero(", "max(tol, RANK_FLOOR)")


def _rank_rule_lines(path: Path) -> list[str]:
    """Lines of the module outside its docstrings that count singular values
    or floor a tolerance at RANK_FLOOR themselves."""
    src = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    return [f"{path.name}:{n}: {line.strip()}" for n, line in enumerate(src.splitlines(), 1)
            if n not in docs and any(p in line for p in _RANK_RULE)]


def test_the_rank_rule_exists_once_in_linalg():
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "igkls").glob("*.py"))
    assert len(modules) >= 10
    hits = {path.name: _rank_rule_lines(path) for path in modules}
    assert hits.pop("linalg.py")  # the matcher sees the rule where it lives
    assert [hit for lines in hits.values() for hit in lines] == []


# ---------------------------------------------------------------------------
# one verdict path: errors.verify is the only way a check enters a report
# ---------------------------------------------------------------------------

def test_the_cli_computes_no_check_of_its_own():
    package = Path(__file__).resolve().parents[1] / "src" / "igkls"
    cli_src = (package / "cli.py").read_text(encoding="utf-8")
    assert re.findall(r"rep\.check\(|\.fact\(", cli_src) == []
    assert "frob(" not in cli_src and "_linear_scale" not in cli_src
    # the reports' only sink is the one that the recording hands verify's checks to
    assert cli_src.count('self.doc["checks"].append') == 1
    assert "_recording(rep.record)" in cli_src
    assert [path.name for path in package.glob("*.py")
            if re.search(r"\b_commutant\b", path.read_text(encoding="utf-8"))] == []


# ---------------------------------------------------------------------------
# one statement of the format: io alone reads and writes bundles
# ---------------------------------------------------------------------------

def test_io_alone_knows_the_bundle_format():
    package = Path(__file__).resolve().parents[1] / "src" / "igkls"
    cli_src = (package / "cli.py").read_text(encoding="utf-8")
    from_io = [alias.name for node in ast.walk(ast.parse(cli_src))
               if isinstance(node, ast.ImportFrom) and node.module == "io"
               for alias in node.names]
    assert "read_meta" in from_io and [n for n in from_io if n.startswith("_")] == []
    # the Kraus picture is converted by CpMapRecord, next to its picture field
    assert "kraus_picture_adjoint" not in cli_src and "kraus_to_stinespring" not in cli_src
    # a meta record's schema is named in its bundle.schema.json entry alone
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert [name for name, src in sources.items() if ".schema.json" in src] == ["io.py"]
    assert re.findall(r"(?:algebra|cp_map)\.schema\.json|\{\"\$ref\"", sources["io.py"]) == []
