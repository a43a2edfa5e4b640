"""The one check primitive and the reports built from it.

``errors.verify`` raises unless residual <= limit and records the check while
a recording is open; ``cli.run_report`` opens one per command, so a report
lists every check the library made, and the CLI computes none of them again.
The call-count tests pin that: each counts a function in every ``igkls``
namespace that bound it, over one ``run_report``.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import igkls.algebra as algebra_mod
import igkls.cpmaps as cpmaps_mod
import igkls.gkls as gkls_mod
from igkls import GKLSRep, KrausSet, NotInvariant, StinespringRep, kraus_to_stinespring
from igkls.cli import run_report
from igkls.errors import _SINK, _recording, verify
from igkls.io import CpMapRecord, InstanceBundle, random_instance
from igkls.linalg import eye, frob

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
    assert names == ["commutant_dimension", "commutation", "closure_adjoint",
                     "closure_product", "commutant_factor_multiset"]


def test_every_library_check_lands_in_the_report_with_its_limit():
    doc = _ok("algebra-decompose", [random_instance("algebra", seed=13)])
    assert [c["name"] for c in doc["checks"]][:2] == ["closure_adjoint", "closure_product"]
    assert all(c["tolerance"] is not None for c in doc["checks"] if c["residual"] is not None)

    doc = _ok("random", [])  # a gkls instance: the command's own check only
    assert [c["name"] for c in doc["checks"]] == ["generated_invariance"]

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


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_scaled_invariant_generator_has_a_normal_form_and_a_perturbed_one_not(scale):
    bundle = random_instance("gkls", seed=3)
    g = bundle.payload

    def run(command, v):
        scaled = GKLSRep(g.d, StinespringRep(g.d, g.d, g.d_env, v), scale**2 * g.k)
        return run_report(command, [InstanceBundle("gkls", scaled, bundle.meta)],
                          dict(BASE_FLAGS))[0]

    assert run("check-invariance", scale * g.v) == 0
    assert run("gkls-normal-form", scale * g.v) == 0
    assert run("gkls-normal-form", _perturbed(scale * g.v, 1e-6)) == 1
