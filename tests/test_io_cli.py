"""Round-trip, validation, and CLI behavior tests for the JSON wire format.

Codec tests check byte-exact re-encoding, precise error classes for malformed
input, and deterministic generation.  CLI tests drive ``igkls.cli.main`` with
argv lists and assert on exit codes, report structure, and produced bundles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from igkls import (
    AtomicDecomposition,
    GKLSRep,
    InvariantError,
    KrausSet,
    ParseError,
    SchemaError,
    StinespringRep,
    kraus_to_stinespring,
    semicausal_build,
)
from igkls.cli import main, run_report
from igkls.io import (
    KINDS,
    CpMapRecord,
    InstanceBundle,
    _encode_algebra,
    bundle_to_dict,
    decode,
    decode_text,
    encode_bundle,
    kraus_picture_adjoint,
    random_instance,
    write_bundle,
)
from igkls.linalg import dag, eye, frob, kron

from conftest import PAULI, crandn, random_hermitian, rng_for

BASE_FLAGS = {
    "seed": 0,
    "tol_rank": 1e-9,
    "tol_verify": 1e-9,
    "tol_probe": 1e-6,
}


# ---------------------------------------------------------------------------
# codec round trips and validation
# ---------------------------------------------------------------------------

def test_encode_decode_round_trip_is_byte_exact_for_all_kinds():
    for kind in KINDS:
        bundle = random_instance(kind, seed=17)
        text = encode_bundle(bundle)
        again = encode_bundle(decode_text(text))
        assert text == again, kind


def test_same_seed_is_byte_identical_and_seeds_differ():
    a = encode_bundle(random_instance("gkls", seed=5))
    b = encode_bundle(random_instance("gkls", seed=5))
    c = encode_bundle(random_instance("gkls", seed=6))
    assert a == b
    assert a != c


def test_write_bundle_and_decode_path(tmp_path):
    bundle = random_instance("normal_form", seed=8)
    path = tmp_path / "nf.json"
    write_bundle(bundle, path)
    assert encode_bundle(decode(path)) == encode_bundle(bundle)


def test_decode_truncated_json_reports_position():
    text = encode_bundle(random_instance("algebra", seed=1))
    with pytest.raises(ParseError) as info:
        decode_text(text[: len(text) // 2])
    assert "line" in str(info.value)
    assert "column" in str(info.value)


def test_decode_rejects_non_finite_numbers():
    doc = bundle_to_dict(random_instance("algebra", seed=2))
    doc["payload"]["u_alg"]["data"][0][0] = float("nan")
    with pytest.raises(ParseError) as info:
        decode_text(json.dumps(doc))
    assert "non-finite" in str(info.value)


def test_decode_flags_corrupted_unitary_as_invariant_error():
    doc = bundle_to_dict(random_instance("algebra", seed=3))
    doc["payload"]["u_alg"]["data"][0][0] += 1e-3
    with pytest.raises(InvariantError) as info:
        decode_text(json.dumps(doc))
    assert "u_alg" in str(info.value)


def test_decode_schema_errors_name_the_field():
    doc = bundle_to_dict(random_instance("algebra", seed=4))
    missing = json.loads(json.dumps(doc))
    del missing["payload"]["d"]
    with pytest.raises(SchemaError) as info:
        decode_text(json.dumps(missing))
    assert "payload.d" in str(info.value)

    short = json.loads(json.dumps(doc))
    short["payload"]["u_alg"]["data"] = short["payload"]["u_alg"]["data"][:-1]
    with pytest.raises(SchemaError) as info:
        decode_text(json.dumps(short))
    assert "u_alg" in str(info.value)

    with pytest.raises(SchemaError):
        decode_text(json.dumps({"kind": "nonsense", "payload": {}}))
    with pytest.raises(SchemaError):
        decode_text("[]")


def test_minimal_valid_documents_decode():
    algebra = {
        "kind": "algebra",
        "payload": {
            "d": 1,
            "d0": 0,
            "factors": [[1, 1]],
            "u_alg": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        },
    }
    dec = decode_text(json.dumps(algebra)).payload
    assert isinstance(dec, AtomicDecomposition)
    assert dec.d == 1 and dec.factors == [(1, 1)]

    cp = {
        "kind": "cp_map",
        "payload": {
            "d_in": 1,
            "d_out": 1,
            "d_env": 1,
            "picture": "heisenberg",
            "v": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        },
    }
    rec = decode_text(json.dumps(cp)).payload
    assert rec.stine.v.shape == (1, 1)


def test_infeasible_multiplicity_table_is_rejected():
    params = {"factors": [[1, 2], [1, 2]], "d_f": [[2, 2], [1, 1]], "d_env": 1}
    with pytest.raises(ValueError) as info:
        random_instance("gkls", params=params, seed=0)
    assert "exceeds" in str(info.value)
    assert "cannot exist" in str(info.value)


def test_kraus_picture_adjoint_is_an_involution():
    rng = rng_for(30)
    ops = [crandn(rng, 2, 3) for _ in range(2)]
    k = KrausSet(d_in=2, d_out=3, ops=ops)
    twice = kraus_picture_adjoint(kraus_picture_adjoint(k))
    assert twice.d_in == 2 and twice.d_out == 3
    for a, b in zip(twice.ops, ops):
        assert frob(a - b) == 0.0


# ---------------------------------------------------------------------------
# CLI: exit codes and report structure
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_random_then_check_invariance(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, ["random", "--kind", "gkls", "--seed", "3",
                                    "--out", str(path)])
    assert code == 0
    assert path.exists()
    doc = json.loads(out)
    assert doc["ok"] is True
    assert "bundle" not in doc  # written to --out instead of embedded

    code, out, _ = run_cli(capsys, ["check-invariance", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert any(c["name"] == "generator_invariance" for c in doc["checks"])


def test_cli_embeds_bundle_without_out_flag(capsys):
    code, out, _ = run_cli(capsys, ["random", "--kind", "algebra", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["produced"] == "algebra"
    assert doc["bundle"]["kind"] == "algebra"


def test_cli_cp_factorize_rejects_swap(tmp_path, capsys):
    d = 2
    swap = np.zeros((4, 4), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    rec = CpMapRecord(stine=StinespringRep(4, 4, 1, swap), picture="heisenberg")
    dec = AtomicDecomposition(d=4, u_alg=eye(4), d0=0, factors=[(2, 2)])
    mp = tmp_path / "swap.json"
    ap = tmp_path / "alg.json"
    write_bundle(InstanceBundle("cp_map", rec, {}), mp)
    write_bundle(InstanceBundle("algebra", dec, {}), ap)
    code, out, _ = run_cli(capsys, ["cp-factorize", "--in", str(mp), "--in", str(ap)])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "NotInvariant"


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(capsys, ["random", "--bogus"])[0] == 2
    assert run_cli(capsys, ["frobnicate"])[0] == 2
    assert run_cli(capsys, [])[0] == 2

    code, _, err = run_cli(capsys, ["check-invariance", "--in",
                                    str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read input" in err

    bad = tmp_path / "bad.json"
    bad.write_text("this is not json {{{", encoding="utf-8")
    code, _, err = run_cli(capsys, ["check-invariance", "--in", str(bad)])
    assert code == 2
    assert "ParseError" in err

    code, _, err = run_cli(capsys, [
        "random", "--kind", "gkls", "--params",
        '{"factors": [[1, 2], [1, 2]], "d_f": [[2, 2], [1, 1]], "d_env": 1}',
    ])
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-verify"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_cli_rejects_non_positive_or_non_finite_tolerances(tmp_path, capsys,
                                                          flag, value):
    path = tmp_path / "g.json"
    assert run_cli(capsys, ["random", "--kind", "gkls", "--seed", "1",
                            "--out", str(path)])[0] == 0
    code, out, err = run_cli(capsys, ["gkls-normal-form", "--in", str(path),
                                      f"{flag}={value}"])
    assert code == 2
    assert out == ""
    assert "usage:" in err and "error:" in err and flag in err
    assert "Traceback" not in err


def test_cli_text_rendering(capsys):
    code, out, _ = run_cli(capsys, ["random", "--kind", "algebra", "--seed", "1",
                                    "--text"])
    assert code == 0
    assert out.startswith("igkls random")
    assert "VERDICT: PASS" in out
    assert "[PASS]" in out


def test_cli_run_report_is_reproducible():
    flags = dict(BASE_FLAGS, seed=9, kind="gkls", params=None)
    code1, doc1 = run_report("random", [], flags)
    code2, doc2 = run_report("random", [], flags)
    assert code1 == code2 == 0
    b1 = doc1.pop("_bundle")
    b2 = doc2.pop("_bundle")
    assert encode_bundle(b1) == encode_bundle(b2)
    doc1.pop("timing_seconds")
    doc2.pop("timing_seconds")
    assert doc1 == doc2


def test_cli_normal_form_chain_roundtrip(tmp_path, capsys):
    g_path = tmp_path / "g.json"
    gmin_path = tmp_path / "gmin.json"
    nf_path = tmp_path / "nf.json"
    g2_path = tmp_path / "g2.json"
    assert run_cli(capsys, ["random", "--kind", "gkls", "--seed", "11",
                            "--out", str(g_path)])[0] == 0
    assert run_cli(capsys, ["minimalize", "--in", str(g_path),
                            "--out", str(gmin_path)])[0] == 0
    assert run_cli(capsys, ["gkls-normal-form", "--in", str(g_path),
                            "--out", str(nf_path)])[0] == 0
    assert run_cli(capsys, ["gkls-reconstruct", "--in", str(nf_path),
                            "--out", str(g2_path)])[0] == 0
    code, out, _ = run_cli(capsys, ["gauge-compare", "--in", str(gmin_path),
                                    "--in", str(g2_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert any(c["name"] == "same_generator" for c in doc["checks"])


def test_cli_semicausal_split_sources(tmp_path, capsys):
    rng = rng_for(33)
    g = semicausal_build(
        a=crandn(rng, 2, 2),
        u=np.linalg.qr(crandn(rng, 4, 4))[0][:, :2],
        b=crandn(rng, 4, 2),
        k_a=crandn(rng, 2, 2),
        h_b=random_hermitian(rng, 2),
    )
    with_meta = tmp_path / "sc.json"
    write_bundle(InstanceBundle("gkls", g, {"params": {"d_a": 2, "d_b": 2}}),
                 with_meta)
    bare = tmp_path / "sc_bare.json"
    write_bundle(InstanceBundle("gkls", g, {}), bare)

    assert run_cli(capsys, ["semicausal", "--in", str(with_meta)])[0] == 0
    assert run_cli(capsys, ["semicausal", "--in", str(bare),
                            "--split", "2,2"])[0] == 0
    assert run_cli(capsys, ["semicausal", "--in", str(bare)])[0] == 2
    assert run_cli(capsys, ["semicausal", "--in", str(bare),
                            "--split", "4,4"])[0] == 2
    assert run_cli(capsys, ["semicausal", "--in", str(bare),
                            "--split", "a,b"])[0] == 2


def test_cli_dfs_verdicts(tmp_path, capsys):
    rng = rng_for(34)
    da, db, e = 2, 2, 2
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    b = crandn(rng, db * e, db)
    v = kron(eye(da), b)
    g = GKLSRep(d=d, stine=StinespringRep(d, d, e, v), k=0.5 * dag(v) @ v)
    good = tmp_path / "dfs.json"
    write_bundle(InstanceBundle("gkls", g, {"algebra": _encode_algebra(dec)}), good)
    code, out, _ = run_cli(capsys, ["dfs", "--in", str(good)])
    assert code == 0
    assert json.loads(out)["ok"] is True

    dec2 = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    v2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    g2 = GKLSRep(d=2, stine=StinespringRep(2, 2, 1, v2), k=0.5 * dag(v2) @ v2)
    bad = tmp_path / "jump.json"
    write_bundle(InstanceBundle("gkls", g2, {"algebra": _encode_algebra(dec2)}), bad)
    code, out, _ = run_cli(capsys, ["dfs", "--in", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotDecoherenceFree"


def test_cli_abelian_with_default_observable(tmp_path, capsys):
    rng = rng_for(35)
    d = 3
    ops = []
    for _ in range(2):
        perm = rng.permutation(d)
        p_mat = np.zeros((d, d), dtype=np.complex128)
        for j in range(d):
            p_mat[perm[j], j] = 1.0
        ops.append(p_mat @ np.diag(crandn(rng, d, 1)[:, 0]))
    rec = CpMapRecord(stine=kraus_to_stinespring(KrausSet(d, d, ops)),
                      picture="heisenberg")
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(1, 1)] * d)
    mp = tmp_path / "mono.json"
    ap = tmp_path / "diag.json"
    write_bundle(InstanceBundle("cp_map", rec, {}), mp)
    write_bundle(InstanceBundle("algebra", dec, {}), ap)
    code, out, _ = run_cli(capsys, ["abelian", "--in", str(mp), "--in", str(ap)])
    assert code == 0
    doc = json.loads(out)
    assert any(c["name"] == "abelian_commutator" for c in doc["checks"])
    assert doc["result"]["observable"].startswith("default")


def test_cli_koashi_imoto_command(tmp_path, capsys):
    p = 0.75
    ops = [np.sqrt(p) * eye(2), np.sqrt(1 - p) * PAULI["Z"]]
    rec = CpMapRecord(stine=kraus_to_stinespring(KrausSet(2, 2, ops)),
                      picture="schrodinger")
    mp = tmp_path / "deph.json"
    out_path = tmp_path / "ki.json"
    write_bundle(InstanceBundle("cp_map", rec, {}), mp)
    code, out, _ = run_cli(capsys, ["koashi-imoto", "--in", str(mp),
                                    "--out", str(out_path)])
    assert code == 0
    result = decode(out_path)
    assert result.kind == "koashi_imoto"
    assert sorted(result.payload.report["factor_dims"]) == [[1, 1], [1, 1]]


def test_cli_probe_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert run_cli(capsys, ["random", "--kind", "gkls", "--seed", "12",
                            "--out", str(path)])[0] == 0
    code, out, _ = run_cli(capsys, ["probe", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["probe_t=0.1", "probe_t=1", "probe_t=10"]


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy_until_the_probe_runs(tmp_path):
    script = textwrap.dedent("""
        import sys
        import igkls, igkls.cli
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        from igkls.io import _decode_algebra, random_instance
        bundle = random_instance("gkls", seed=540)
        dec = _decode_algebra(bundle.meta["algebra"], 1e-9, "meta.algebra")
        rep = igkls.semigroup_invariance_probe(bundle.payload, dec, [0.1, 1.0])
        assert rep.passed, rep.max_residuals
        assert "scipy.linalg" in sys.modules
        print("ok")
    """)
    proc = _run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_probe_subprocess_on_a_d8_bundle(tmp_path):
    params = '{"factors":[[2,2],[1,3]],"d0":1,"d_env":2}'
    proc = _run_python(["-m", "igkls.cli", "random", "--kind", "gkls", "--seed",
                        "1", "--params", params, "--out", "g.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert decode(tmp_path / "g.json").payload.d == 8
    proc = _run_python(["-m", "igkls.cli", "probe", "--in", "g.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert [c["name"] for c in checks] == ["probe_t=0.1", "probe_t=1", "probe_t=10"]
    assert all(c["passed"] for c in checks)


def test_cli_algebra_commands(tmp_path, capsys):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13",
                            "--out", str(path)])[0] == 0
    dec = decode(path).payload
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["recovered"]["d0"] == dec.d0
    code, out, _ = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    expected_dim = dec.d0 ** 2 + sum(db * db for _, db in dec.factors)
    assert doc["result"]["dimension"] == expected_dim


def test_cli_memory_error_is_a_structured_failure(tmp_path, capsys, monkeypatch):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13",
                            "--out", str(path)])[0] == 0

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB for the commutator stack")

    monkeypatch.setattr("igkls.cli.commutant", out_of_memory)
    code, out, err = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["ok"] is False and doc["exit_code"] == 1
    assert doc["error"]["type"] == "MemoryError"
    assert "16.0 GiB" in doc["error"]["message"]


def _random_algebra(capsys, tmp_path, params):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--params",
                            json.dumps(params), "--out", str(path)])[0] == 0
    return path


def test_cli_algebra_decompose_at_the_dimension_cap(tmp_path, capsys):
    factors = [[4, 4], [3, 3], [2, 2]]
    path = _random_algebra(capsys, tmp_path, {"factors": factors, "d0": 3})
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    assert code == 0
    recovered = json.loads(out)["result"]["recovered"]
    assert recovered["d0"] == 3
    assert sorted(recovered["factors"]) == sorted(factors)


def test_cli_commutant_at_d24(tmp_path, capsys):
    factors = [[3, 3], [2, 4], [2, 3]]
    path = _random_algebra(capsys, tmp_path, {"factors": factors, "d0": 1})
    code, out, _ = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dimension"] == 1 + sum(db * db for _, db in factors)
