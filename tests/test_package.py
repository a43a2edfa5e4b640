"""The package contract: the public names of ``igkls`` and what loads them.

``igkls.__all__`` is pinned name by name to its defining module, so a name
cannot disappear or be rebound to another object.  The loading tests run in
a fresh interpreter: ``import igkls`` imports no submodule, the first access
to a public name imports them all, and each CLI command imports only the
layers it runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igkls
from igkls.io import random_instance, write_bundle

# every public name, by the module that defines it
PUBLIC = {
    "errors": [
        "AlgebraClosureFailed", "DecompositionFailed", "FactorizationResidual",
        "IgklsError", "InvariantError", "NoFixedState", "NotClosed",
        "NotDecoherenceFree", "NotDiagonal", "NotEquivalent", "NotIntertwiner",
        "NotInvariant", "NotMaximalAbelian", "NotMinimal", "NotSameGenerator",
        "NotSameMap", "NotTracePreserving", "ParseError", "SchemaError",
    ],
    "linalg": [
        "TOL_RANK", "TOL_VERIFY", "SubspaceBasis", "dag", "embed_support", "eye",
        "frob", "herm", "im_part", "kron", "nearest_isometry", "orthonormalize_span",
        "partial_trace", "subspace_residual", "svd_rank", "unvec", "vec",
    ],
    "rng": ["CounterRng"],
    "algebra": [
        "AlgebraBasis", "AtomicDecomposition", "algebra_from_decomposition",
        "algebra_pattern_basis", "algebra_project", "atomic_decompose",
        "close_star_algebra", "closure_residuals", "commutant", "commutant_project",
        "intertwiner_decompose", "membership_residual", "pattern_residual",
        "twirl_intertwiner", "twirl_to_commutant",
    ],
    "cpmaps": [
        "BlockFactorization", "KrausSet", "StinespringRep", "atomic_block_factorize",
        "choi", "cp_apply", "cp_invariance_check", "kraus_to_stinespring",
        "minimal_stinespring", "orthogonality_check", "reassemble_factorization",
        "stinespring_gauge", "stinespring_minimal_rank", "stinespring_to_kraus",
    ],
    "gkls": [
        "AtomicNormalForm", "GaugeData", "GKLSRep", "GklsGauge", "InvariantSplit",
        "KOnlySplit", "atomic_normal_form", "generator_superoperator", "gkls_apply",
        "gkls_gauge", "gkls_minimal_rank", "gkls_minimalize", "invariant_split",
        "k_only_split", "normal_form_gauge", "normal_form_minimality",
        "normal_form_residuals", "reconstruct_from_normal_form",
        "reduce_normal_form_minimal",
    ],
    "applications": [
        "AbelianCoefficients", "DfsCertificate", "KoashiImotoResult", "ProbeReport",
        "SemicausalReport", "dfs_verify_normal_form", "fixed_point_state",
        "koashi_imoto_decompose", "maximal_abelian_coefficients", "semicausal_build",
        "semicausal_check", "semigroup_invariance_probe",
    ],
    "io": [
        "KINDS", "CpMapRecord", "InstanceBundle", "decode", "decode_text",
        "encode_bundle", "encode_cmatrix", "kraus_picture_adjoint", "random_instance",
        "write_bundle",
    ],
}
LAYERS = ("cpmaps", "gkls", "applications")  # the modules a command may skip
SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_is_the_pinned_names_and_the_submodules():
    names = [n for names in PUBLIC.values() for n in names]
    assert len(names) == len(set(names)) == 107
    assert igkls.__all__ == sorted([*PUBLIC, *names])
    assert len(igkls.__all__) == 115


def test_each_public_name_is_the_object_of_its_defining_module():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"igkls.{module_name}")
        assert getattr(igkls, module_name) is module
        for name in names:
            assert getattr(igkls, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from igkls import *", namespace)
    assert set(igkls.__all__) <= set(namespace)
    assert all(namespace[n] is getattr(igkls, n) for n in igkls.__all__)
    assert set(igkls.__all__) <= set(dir(igkls))


# ---------------------------------------------------------------------------
# what loads what, each in a fresh interpreter
# ---------------------------------------------------------------------------

def _fresh(code: str, cwd, *args) -> list:
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded() -> str:
    return "sorted(m.split('.')[1] for m in sys.modules if m.startswith('igkls.'))"


def test_import_igkls_loads_no_submodule_until_a_name_is_used(tmp_path):
    code = f"""
import json, sys
import igkls
assert not hasattr(igkls, "no_such_name")  # an unknown name loads nothing
bare = {_loaded()}
import igkls.cli
cli = {_loaded()}
from igkls import *
print(json.dumps([bare, cli, {_loaded()}, [n for n in igkls.__all__ if n not in globals()]]))
"""
    bare, cli, star, unbound = _fresh(code, tmp_path)
    assert bare == []
    assert cli == ["algebra", "cli", "errors", "io", "linalg", "rng"]
    assert set(star) >= set(PUBLIC)
    assert unbound == []


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    shape = {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2}
    root = tmp_path_factory.mktemp("footprint")
    for name, kind, params in (("a", "algebra", {"factors": [[2, 2], [1, 3]], "d0": 1}),
                               ("g", "gkls", shape), ("m", "cp_map", shape)):
        write_bundle(random_instance(kind, params=params, seed=1), root / f"{name}.json")
    return root


@pytest.mark.parametrize("argv, skipped", [
    (["random", "--kind", "algebra"], LAYERS),
    (["algebra-decompose", "--in", "a.json"], LAYERS),
    (["commutant", "--in", "a.json"], LAYERS),
    (["cp-factorize", "--in", "m.json"], ("gkls", "applications")),
    (["minimalize", "--in", "m.json"], ("gkls", "applications")),
    (["gkls-normal-form", "--in", "g.json"], ("applications",)),
    (["check-invariance", "--in", "g.json"], ("applications",)),
    (["minimalize", "--in", "g.json"], ("applications",)),
    (["probe", "--in", "g.json"], ()),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_command_loads_only_the_layers_it_runs(bundles, argv, skipped):
    code = f"""
import json, sys
from igkls.cli import main
exit_code = main(sys.argv[1:])
print(json.dumps([exit_code, {_loaded()}]))
"""
    exit_code, loaded = _fresh(code, bundles, *argv)
    assert exit_code == 0
    assert not set(skipped) & set(loaded), loaded
    assert set(LAYERS) - set(skipped) <= set(loaded), loaded
