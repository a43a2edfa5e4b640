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
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from igkls import (
    AlgebraBasis,
    AtomicDecomposition,
    AtomicNormalForm,
    GKLSRep,
    InvariantError,
    KrausSet,
    ParseError,
    SchemaError,
    StinespringRep,
    kraus_to_stinespring,
    semicausal_build,
    stinespring_to_kraus,
)
import igkls.cli as cli_mod
from igkls.cli import main, run_report
from igkls.io import (
    KINDS,
    CpMapRecord,
    InstanceBundle,
    bundle_to_dict,
    decode,
    decode_text,
    encode_bundle,
    encode_cmatrix,
    kraus_picture_adjoint,
    random_instance,
    write_bundle,
)
from igkls.linalg import dag, eye, frob, kron

from conftest import (NOT_CLOSED_SPANS, PAULI, count_exact_closure, crandn,
                      heisenberg_apply_oracle, kron_oracle, random_hermitian, rng_for,
                      schrodinger_apply_oracle)

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


def test_decode_reports_nesting_past_the_parser_limit_as_a_parse_error():
    with pytest.raises(ParseError) as info:
        decode_text("[" * 100_000 + "]" * 100_000)
    assert "recursion" in str(info.value)


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


def _broken_u(nf):
    """The u table of nf with u[0][0] scaled by 1.01: no longer an isometry."""
    return [[1.01 * m if (i, j) == (0, 0) else m for j, m in enumerate(row)]
            for i, row in enumerate(nf.u)]


def _overlapping_u(nf):
    """The u table of nf with u[0][1] replaced by u[0][0]: one range twice."""
    return [[row[0] if (i, j) == (0, 1) else m for j, m in enumerate(row)]
            for i, row in enumerate(nf.u)]


@pytest.mark.parametrize("corrupt, params", [
    (_broken_u, {"factors": [[1, 2], [1, 2]], "d_env": 2, "d_f": [[1, 1], [0, 0]]}),
    (_overlapping_u, {"factors": [[1, 2], [1, 2]], "d_env": 2, "d_f": [[1, 1], [0, 0]]}),
    (None, None),
], ids=["not_isometric", "ranges_overlap", "no_environment"])
def test_decode_rejects_a_normal_form_whose_isometries_are_not_orthonormal(corrupt, params):
    if corrupt is None:
        # d_F = 1 with no environment: u[0][0] has no rows, so no isometry
        # C^{d_B} → C^0 exists, and the block a[0][0] would vanish unseen
        dec = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(2, 1)])
        nf = AtomicNormalForm(
            dec=dec, v0=np.zeros((0, 2)), k0=np.zeros((0, 2)), k_a=[eye(2)],
            h_b=[np.zeros((1, 1))], b=[np.zeros((0, 1))], d_f=[[1]], a=[[np.ones((2, 2))]],
            u=[[np.zeros((0, 1))]], d_env=0)
    else:
        nf = random_instance("normal_form", params=params, seed=1).payload
        assert decode_text(encode_bundle(InstanceBundle("normal_form", nf, {}))).payload
        nf.u = corrupt(nf)
    with pytest.raises(InvariantError, match=r"payload\.u\[0\]\[\d\]/u\[0\]\[\d\]"):
        decode_text(encode_bundle(InstanceBundle("normal_form", nf, {})))


def test_cli_rejects_an_overflowing_unitary_at_load_time(tmp_path, capsys):
    # finite entries whose products overflow: ‖U†U − 1‖ is NaN, which a
    # check written `res > limit` would pass
    huge = 1e200
    doc = {"kind": "algebra", "payload": {
        "d": 2, "d0": 0, "factors": [[1, 1], [1, 1]],
        "u_alg": {"rows": 2, "cols": 2,
                  "data": [[huge, 0.0], [huge, 0.0], [huge, 0.0], [-huge, 0.0]]}}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert "InvariantError" in err and "u_alg" in err

    # the overflow is the failed check, not a RuntimeWarning: with warnings
    # raised as errors (python -W error) it still exits 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 2 and "InvariantError" in err


def _oversized_entry(doc):
    doc["payload"]["u_alg"]["data"][0] = [10**400, 0]
    return json.dumps(doc)


def _oversized_tol(doc):
    doc["meta"]["tol_verify"] = 10**400
    return json.dumps(doc)


def _past_the_digit_limit(doc):  # json refuses to read (or write) an int of 5000 digits
    doc["meta"]["seed"] = "seed"
    return json.dumps(doc).replace('"seed": "seed"', '"seed": ' + "9" * 5000)


@pytest.mark.parametrize("mutated, error", [
    (_oversized_entry, "SchemaError"),
    (_oversized_tol, "SchemaError"),
    (_past_the_digit_limit, "ParseError"),
], ids=["cmatrix_entry", "tol_verify", "past_digit_limit"])
def test_cli_rejects_an_oversized_integer_without_a_traceback(tmp_path, mutated, error):
    # no double holds 10**400: an entry or tolerance beyond the doubles is a
    # schema breach, not an OverflowError from float()
    path = tmp_path / "big.json"
    path.write_text(mutated(bundle_to_dict(random_instance("algebra", seed=4))),
                    encoding="utf-8")
    proc = _run_python(["-m", "igkls.cli", "algebra-decompose", "--in", str(path)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {error}")
    assert "Traceback" not in proc.stderr


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


def _cm(rows, cols, *entries):
    """A CMatrix document with the given real entries."""
    return {"rows": rows, "cols": cols, "data": [[x, 0.0] for x in entries]}


def _algebra_payload(dec: AtomicDecomposition) -> dict:
    return bundle_to_dict(InstanceBundle("algebra", dec))["payload"]


ONE = {"d": 1, "d0": 0, "factors": [[1, 1]], "u_alg": _cm(1, 1, 1.0)}

# a small valid payload of each kind (d = 1)
MINIMAL = {
    "algebra": ONE,
    "cp_map": {"d_in": 1, "d_out": 1, "d_env": 1, "picture": "heisenberg", "v": _cm(1, 1, 1.0)},
    "gkls": {"d": 1, "d_env": 1, "v": _cm(1, 1, 1.0), "k": _cm(1, 1, 0.5)},
    "normal_form": {"dec": ONE, "d_env": 1, "v0": _cm(0, 1), "k0": _cm(0, 1),
                    "k_a": [_cm(1, 1, 0.5)], "h_b": [_cm(1, 1, 0.25)], "b": [_cm(1, 1, 1.0)],
                    "d_f": [[0]], "a": [[_cm(0, 1)]], "u": [[_cm(1, 0)]]},
    "koashi_imoto": {"q": _cm(1, 1, 1.0), "dec": ONE, "v": [_cm(1, 1, 1.0)],
                     "sigma": [_cm(1, 1, 1.0)], "report": {"d": 1}},
}


def test_minimal_valid_documents_decode():
    for kind in KINDS:  # each encodes back to the document it was read from
        doc = {"kind": kind, "payload": MINIMAL[kind], "meta": {"seed": 0}}
        assert bundle_to_dict(decode_text(json.dumps(doc))) == doc, kind
    dec = decode_text(json.dumps({"kind": "algebra", "payload": ONE})).payload
    assert isinstance(dec, AtomicDecomposition)
    assert dec.d == 1 and dec.factors == [(1, 1)]



def _scaled(cm: dict, c: float) -> dict:
    return {**cm, "data": [[c * re, c * im] for re, im in cm["data"]]}


# (kind, keys of the node, change, command, how the load fails): a bundle
# from random_instance(kind, seed=1) with one node changed; every load-time
# check of a meta record or a payload, and every shape a constructor rejects
CORRUPTED = {
    "meta_algebra_d0": ("gkls", ("meta", "algebra", "d0"), lambda _: "x", "gkls-normal-form",
                        "SchemaError: $.meta.algebra.d0: expected integer, got 'x'"),
    "meta_algebra_not_unitary": ("gkls", ("meta", "algebra", "u_alg"), lambda m: _scaled(m, 2),
                                 "check-invariance",
                                 "InvariantError: $.meta.algebra.u_alg: not unitary"),
    "meta_observable_short": ("cp_map", ("meta", "observable"), lambda _: _cm(2, 2, 1.0),
                              "abelian", "SchemaError: $.meta.observable.data: expected "
                              "rows·cols = 4 entries, got 1"),
    "meta_channel_d_env": ("koashi_imoto", ("meta", "channel", "d_env"), lambda e: e + 1,
                           "koashi-imoto", "SchemaError: $.meta.channel: v has shape"),
    "algebra_dims": ("algebra", ("payload", "d0"), lambda n: n + 1, "algebra-decompose",
                     "SchemaError: $.payload: block dims sum to"),
    "algebra_u_alg_shape": ("algebra", ("payload", "u_alg"), lambda _: _cm(1, 1, 1.0),
                            "algebra-decompose",
                            "SchemaError: $.payload: block dims sum to 6 and u_alg is (1, 1)"),
    "cp_map_d_env": ("cp_map", ("payload", "d_env"), lambda e: e + 1, "cp-factorize",
                     "SchemaError: $.payload: v has shape"),
    "gkls_d_env": ("gkls", ("payload", "d_env"), lambda e: e + 1, "check-invariance",
                   "SchemaError: $.payload: v has shape"),
    "gkls_k_shape": ("gkls", ("payload", "k"), lambda _: _cm(1, 1, 1.0), "check-invariance",
                     "SchemaError: $.payload: k has shape"),
    "normal_form_d_env": ("normal_form", ("payload", "d_env"), lambda e: e + 1,
                          "gkls-reconstruct", "SchemaError: $.payload: b[0] shape mismatch"),
    "normal_form_dec_dims": ("normal_form", ("payload", "dec", "d0"), lambda n: n + 1,
                             "gkls-reconstruct", "SchemaError: $.payload.dec: block dims sum to"),
    "h_b_not_self_adjoint": ("normal_form", ("payload", "h_b", 0, "data", 0, 1),
                             lambda im: im + 1.0, "gkls-reconstruct",
                             "InvariantError: $.payload.h_b[0]: not self-adjoint"),
    "ki_q_shape": ("koashi_imoto", ("payload", "q"), lambda _: _cm(1, 1, 1.0), "algebra-decompose",
                   "SchemaError: $.payload.q: expected shape (6, ≥6), got (1, 1)"),
    "ki_v_sigma_count": ("koashi_imoto", ("payload", "sigma"), lambda _: [], "algebra-decompose",
                         "SchemaError: $.payload: v and sigma need 1 entries, one per factor, "
                         "got 1 and 0"),
    "ki_q_not_coisometry": ("koashi_imoto", ("payload", "q"), lambda m: _scaled(m, 2),
                            "algebra-decompose", "InvariantError: $.payload.q: not a coisometry"),
    "ki_v_shape": ("koashi_imoto", ("payload", "v", 0), lambda _: _cm(1, 1, 1.0),
                   "algebra-decompose", "SchemaError: $.payload.v[0]: expected shape (dB·dE, dB) "
                   "= (0, 2), got (1, 1)"),
    "ki_v_not_isometry": ("koashi_imoto", ("payload", "v", 0), lambda m: _scaled(m, 2),
                          "algebra-decompose", "InvariantError: $.payload.v[0]: not an isometry"),
    "ki_sigma_shape": ("koashi_imoto", ("payload", "sigma", 0), lambda _: _cm(1, 1, 1.0),
                       "algebra-decompose", "SchemaError: $.payload.sigma[0]: expected shape "
                       "(2, 2), got (1, 1)"),
    "ki_sigma_not_density": ("koashi_imoto", ("payload", "sigma", 0), lambda m: _scaled(m, 2),
                             "algebra-decompose",
                             "InvariantError: $.payload.sigma[0]: not a density matrix"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_a_corrupted_bundle_exits_2_naming_its_path(case, tmp_path, capsys):
    kind, keys, change, command, error = CORRUPTED[case]
    bundle = random_instance(kind, seed=1)
    if kind == "cp_map":  # an observable for abelian to read
        bundle.meta["observable"] = encode_cmatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    doc = bundle_to_dict(bundle)
    decode_text(json.dumps(doc))  # loads before the change
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = change(node[keys[-1]])
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, [command, "--in", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}") and err.count("\n") == 1, err

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


def test_cp_map_record_gives_its_map_in_either_picture():
    # X ↦ Σ K†XK of a Heisenberg record with Kraus operators K is X ↦ Σ SXS† of
    # its Schrödinger twin, S = K†.  cp_map seed 2 has Kraus operators that are
    # not self-adjoint, so a conversion that drops the adjoint changes the map
    heis = random_instance("cp_map", seed=2).payload
    d, e = heis.d_in, heis.d_env
    ks = [heis.v.reshape(d, e, d)[:, n, :] for n in range(e)]
    assert min(frob(k - dag(k)) for k in ks) > 0.1
    schr = CpMapRecord(kraus_to_stinespring(KrausSet(d, d, [dag(k) for k in ks])), "schrodinger")
    x = crandn(rng_for(31), d, d)
    want = heisenberg_apply_oracle(ks, x)
    for rec in (heis, schr):
        v = rec.heisenberg_stine().v
        assert frob(dag(v) @ kron_oracle(x, eye(e)) @ v - want) <= 1e-12 * frob(want)
        ops = rec.schrodinger_kraus().ops
        assert frob(schrodinger_apply_oracle(ops, x) - want) <= 1e-12 * frob(want)
    assert heis.heisenberg_stine() is heis.stine


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



@pytest.mark.parametrize("command", ["check-invariance", "cp-factorize"])
def test_cli_reads_a_schrodinger_cp_map_as_its_heisenberg_dual(command, tmp_path, capsys):
    heis = random_instance("cp_map", seed=2)
    kraus = kraus_picture_adjoint(stinespring_to_kraus(heis.payload.stine))
    schr = CpMapRecord(stine=kraus_to_stinespring(kraus), picture="schrodinger")
    assert frob(schr.v - heis.payload.v) > 1.0  # not self-adjoint Kraus operators
    reports = []
    for name, rec in (("heis", heis.payload), ("schr", schr)):
        path = tmp_path / f"{name}.json"
        write_bundle(InstanceBundle("cp_map", rec, heis.meta), path)
        code, out, _ = run_cli(capsys, [command, "--in", str(path)])
        doc = json.loads(out)
        reports.append((code, doc["checks"], doc["result"]))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1]

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


@pytest.mark.parametrize("kind, params", [
    ("gkls", {"d_env": 1.5}),
    ("gkls", {"factors": [[2.9, 2]]}),
    ("algebra", {"factors": [[True, 2]]}),
    ("algebra", {"factors": [[2, 2, 2]]}),
    ("algebra", {"factors": None}),
    ("algebra", {"d0": "1"}),
    ("gkls", {"k_only": "no"}),
    ("normal_form", {"d_f_max": 2.0}),
    ("cp_map", {"factors": [[2, 2]], "d_env": 2, "d_f": [[1.0]]}),
    ("koashi_imoto", {"d_env": True}),
])
def test_cli_random_rejects_params_it_would_have_to_coerce(capsys, kind, params):
    # integers must be JSON integers and k_only a JSON boolean, or meta.params
    # would record a value the payload was not built from
    code, out, err = run_cli(capsys, ["random", "--kind", kind, "--params",
                                      json.dumps(params)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert [*params][-1] in err  # the offending key comes last


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


def test_cli_error_line_prints_the_residual_once(tmp_path, capsys):
    params = '{"factors": [[2, 2]], "d0": 0, "d_env": 2}'
    paths = [tmp_path / f"g{seed}.json" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert run_cli(capsys, ["random", "--kind", "gkls", "--seed", str(seed),
                                "--params", params, "--out", str(path)])[0] == 0
    argv = ["gauge-compare", "--in", str(paths[0]), "--in", str(paths[1])]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "NotSameGenerator"
    assert isinstance(err["residual"], float) and err["residual"] > 0
    assert err["message"].endswith(f"(residual={err['residual']:.3e})")
    code, out, _ = run_cli(capsys, argv + ["--text"])
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if "ERROR" in ln]
    assert line.count("residual") == 1


@pytest.mark.parametrize("seed", [13, 173])
def test_cli_minimalize_drops_a_rounding_noise_environment(tmp_path, capsys, seed):
    # the commutator family of these generators is rounding noise (σ ~ 1e-16):
    # the minimal environment is empty, and g_min is gauge-equivalent to g
    g, gm = tmp_path / "g.json", tmp_path / "gm.json"
    assert run_cli(capsys, ["random", "--kind", "gkls", "--seed", str(seed),
                            "--out", str(g)])[0] == 0
    code, out, _ = run_cli(capsys, ["minimalize", "--in", str(g), "--out", str(gm)])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["d_env_before"] > 0 and result["d_env_after"] == 0
    code, out, _ = run_cli(capsys, ["gauge-compare", "--in", str(gm), "--in", str(g)])
    assert code == 0, out
    assert json.loads(out)["ok"] is True


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
    assert run_cli(capsys, ["semicausal", "--in", str(bare),
                            "--split=-2,-2"])[0] == 2
    for d_a in (2.0, "2", True):
        coerced = tmp_path / "sc_coerced.json"
        write_bundle(InstanceBundle("gkls", g, {"params": {"d_a": d_a, "d_b": 2}}),
                     coerced)
        code, _, err = run_cli(capsys, ["semicausal", "--in", str(coerced)])
        assert code == 2 and "positive integers" in err


def test_cli_dfs_verdicts(tmp_path, capsys):
    rng = rng_for(34)
    da, db, e = 2, 2, 2
    d = da * db
    dec = AtomicDecomposition(d=d, u_alg=eye(d), d0=0, factors=[(da, db)])
    b = crandn(rng, db * e, db)
    v = kron(eye(da), b)
    g = GKLSRep(d=d, stine=StinespringRep(d, d, e, v), k=0.5 * dag(v) @ v)
    good = tmp_path / "dfs.json"
    write_bundle(InstanceBundle("gkls", g, {"algebra": _algebra_payload(dec)}), good)
    code, out, _ = run_cli(capsys, ["dfs", "--in", str(good)])
    assert code == 0
    assert json.loads(out)["ok"] is True

    dec2 = AtomicDecomposition(d=2, u_alg=eye(2), d0=0, factors=[(1, 1), (1, 1)])
    v2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    g2 = GKLSRep(d=2, stine=StinespringRep(2, 2, 1, v2), k=0.5 * dag(v2) @ v2)
    bad = tmp_path / "jump.json"
    write_bundle(InstanceBundle("gkls", g2, {"algebra": _algebra_payload(dec2)}), bad)
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


@pytest.mark.parametrize("command", ["check-invariance", "gkls-normal-form", "cp-factorize",
                                     "dfs", "abelian", "probe"])
def test_cli_rejects_an_algebra_of_another_dimension(tmp_path, capsys, command):
    kind = "cp_map" if command in ("cp-factorize", "abelian") else "gkls"
    inst, alg = tmp_path / "m4.json", tmp_path / "a3.json"
    assert run_cli(capsys, ["random", "--kind", kind, "--seed", "1", "--params",
                            '{"factors": [[2, 2]], "d0": 0, "d_env": 2}',
                            "--out", str(inst)])[0] == 0
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "1", "--params",
                            '{"factors": [[1, 3]], "d0": 0}', "--out", str(alg)])[0] == 0
    code, out, err = run_cli(capsys, [command, "--in", str(inst), "--in", str(alg)])
    assert code == 2 and out == ""
    assert "match" in err
    # the library's own guard, not a numpy error from deep inside the command
    assert not any(word in err for word in ("broadcast", "shape", "Traceback")), err


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_and_probe_load_no_scipy(tmp_path):
    script = textwrap.dedent("""
        import sys
        import igkls, igkls.cli
        from igkls.io import random_instance, read_meta
        bundle = random_instance("gkls", seed=540)
        dec = read_meta(bundle.meta, "algebra", 1e-9)
        rep = igkls.semigroup_invariance_probe(bundle.payload, dec, [0.1, 1.0])
        assert rep.passed, rep.max_residuals
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        print("ok")
    """)
    proc = _run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_random_and_probe_run_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every `import scipy...` raise
    blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
               "sys.argv = ['igkls'] + sys.argv[1:]; "
               "runpy.run_module('igkls.cli', run_name='__main__')")
    params = '{"factors":[[2,2],[1,3]],"d0":1,"d_env":2}'
    proc = _run_python(["-c", blocked, "random", "--kind", "gkls", "--seed", "1",
                        "--params", params, "--out", "g.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = _run_python(["-c", blocked, "probe", "--in", "g.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert [c["name"] for c in checks] == ["probe_t=0.1", "probe_t=1", "probe_t=10"]
    assert all(c["passed"] for c in checks)


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


def test_cli_commutation_check_fails_on_one_nan(tmp_path, capsys, monkeypatch):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13",
                            "--out", str(path)])[0] == 0
    import igkls.algebra as algebra_mod

    # a NaN commutation residual rejects every draw: no commutant is accepted
    monkeypatch.setattr(algebra_mod, "_commutation_residual", lambda left, right: float("nan"))
    code, out, _ = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["error"]["type"] == "DecompositionFailed"
    assert "commutant draw" in doc["error"]["message"]
    # a retry is not a verdict: no rejected draw is recorded
    assert "commutation" not in [c["name"] for c in doc["checks"]]


def test_cli_commutant_checks_commutation_once(tmp_path, capsys, monkeypatch):
    import igkls.algebra as algebra_mod

    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13", "--params",
                            '{"factors": [[2, 2], [1, 3]], "d0": 1}',
                            "--out", str(path)])[0] == 0
    calls = []
    real = algebra_mod._commutation_residual

    def counted(left, right):
        calls.append((len(left), len(right)))
        return real(left, right)

    monkeypatch.setattr(algebra_mod, "_commutation_residual", counted)
    # counted too if the CLI held its own reference to the helper
    monkeypatch.setattr(cli_mod, "_commutation_residual", counted, raising=False)
    code, out, _ = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 0
    # the commutant (1 + 4 + 9 elements) against the algebra (4 + 1)
    assert calls.count((14, 5)) == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["commutation"]["passed"] is True
    assert checks["commutation"]["tolerance"] == pytest.approx(1e-7)


def test_cli_algebra_decompose_certifies_closure_without_the_exact_check(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13",
                            "--out", str(path)])[0] == 0
    calls = count_exact_closure(monkeypatch)
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    assert code == 0
    assert calls == []
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[:2] == ["closure_adjoint", "closure_product"]


def test_cli_algebra_decompose_falls_back_to_one_exact_closure_check(
        tmp_path, capsys, monkeypatch):
    import igkls.algebra as algebra_mod

    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--seed", "13",
                            "--out", str(path)])[0] == 0
    calls = count_exact_closure(monkeypatch)

    def fails(mats, d, tol, seed):
        raise algebra_mod.DecompositionFailed("no generic split found")

    monkeypatch.setattr(algebra_mod, "_decompose", fails)
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    doc = json.loads(out)
    assert code == 1 and doc["error"]["type"] == "DecompositionFailed"
    assert len(calls) == 1
    assert [c["name"] for c in doc["checks"]] == ["closure_adjoint", "closure_product"]
    assert all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("name", list(NOT_CLOSED_SPANS))
def test_cli_algebra_decompose_of_a_span_that_is_not_closed_exits_1(name, monkeypatch):
    basis = NOT_CLOSED_SPANS[name]
    # the CLI decomposes the basis of its algebra bundle: hand it the span
    monkeypatch.setattr(cli_mod, "algebra_from_decomposition",
                        lambda dec: AlgebraBasis(basis[0].shape[0], basis))
    code, doc = run_report("algebra-decompose", [random_instance("algebra", seed=13)],
                           dict(BASE_FLAGS))
    assert code == 1 and doc["error"]["type"] == "NotClosed"
    assert [c["name"] for c in doc["checks"]][0] == "closure_adjoint"


def _random_algebra(capsys, tmp_path, params):
    path = tmp_path / "alg.json"
    assert run_cli(capsys, ["random", "--kind", "algebra", "--params",
                            json.dumps(params), "--out", str(path)])[0] == 0
    return path


def test_cli_algebra_decompose_of_m32_within_a_wall_bound(tmp_path, capsys):
    # m = 1024: the exact closure check alone would take minutes
    path = _random_algebra(capsys, tmp_path, {"factors": [[32, 1]], "d0": 0})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0 and doc["ok"]
    assert doc["result"]["recovered"] == {"d0": 0, "factors": [[32, 1]]}
    assert elapsed <= 1.5


def test_cli_algebra_decompose_at_the_dimension_cap(tmp_path, capsys):
    factors = [[4, 4], [3, 3], [2, 2]]
    path = _random_algebra(capsys, tmp_path, {"factors": factors, "d0": 3})
    code, out, _ = run_cli(capsys, ["algebra-decompose", "--in", str(path)])
    assert code == 0
    recovered = json.loads(out)["result"]["recovered"]
    assert recovered["d0"] == 3
    assert sorted(recovered["factors"]) == sorted(factors)


# The d = 32 corner of the envelope: each command on its d = 32 shape, in
# process.  On a 2-CPU x86-64 host with one BLAS thread the times were 0.11 s
# (check-invariance), 0.24 (gkls-normal-form), 0.23 (gkls-reconstruct), 0.01
# (minimalize and gauge-compare of the generator and of the map, abelian,
# semicausal, dfs on 8 × (2, 2)), 1.10 (probe), 0.11 (cp-factorize) and 0.31
# (dfs on (32, 1), which took 45 s when it built all m² dissipation forms);
# each bound is at least 3× that.
CORNER_STEPS = [  # (command, inputs, output, extra flags, exit code, bound in s)
    ("check-invariance", ["g"], None, {}, 0, 1.0),
    ("gkls-normal-form", ["g"], "nf", {}, 0, 1.5),
    ("gkls-reconstruct", ["nf"], None, {}, 0, 1.5),
    ("minimalize", ["g"], "gm", {}, 0, 0.5),
    ("gauge-compare", ["gm", "g"], None, {}, 0, 0.5),
    ("probe", ["g"], None, {}, 0, 5.0),
    ("cp-factorize", ["m"], None, {}, 0, 1.0),
    ("minimalize", ["m"], "mm", {}, 0, 0.5),
    ("gauge-compare", ["mm", "m"], None, {}, 0, 0.5),
    ("abelian", ["ab"], None, {}, 0, 0.5),
    ("semicausal", ["g"], None, {"split": (4, 8)}, 1, 0.5),
    ("dfs", ["g8"], None, {}, 0, 0.5),
    ("dfs", ["g"], None, {}, 0, 2.0),
]


def test_every_command_at_the_d32_corner_within_its_wall_bound():
    bundles = {
        "g": random_instance("gkls", {"factors": [[32, 1]], "d0": 0, "d_env": 2,
                                      "k_only": True}, seed=0),
        "g8": random_instance("gkls", {"factors": [[2, 2]] * 8, "d0": 0, "d_env": 2,
                                       "k_only": True}, seed=0),
        "m": random_instance("cp_map", {"factors": [[32, 1]], "d0": 0, "d_env": 2}, seed=0),
        "ab": random_instance("cp_map", {"factors": [[1, 1]] * 32, "d0": 0, "d_env": 2},
                              seed=0),
    }
    slow = {}
    for command, inputs, output, extra, want, bound in CORNER_STEPS:
        start = time.perf_counter()
        code, doc = run_report(command, [bundles[n] for n in inputs], dict(BASE_FLAGS, **extra))
        elapsed = time.perf_counter() - start
        assert code == want, (command, inputs, doc.get("error"))
        if output:
            bundles[output] = doc["_bundle"]
        if elapsed > bound:
            slow[" ".join([command, *inputs])] = elapsed
    assert not slow, slow


# Each of these commands applies L or Φ to the whole pattern basis of the
# corner's algebra (m = 1024 elements of 16 KiB) and checks the images.  Held
# as one stack with its frame copy, they took the traced heap to 96 MiB; made
# as one list and checked in slices, to 16.5–32 MiB, most of it the list; with
# each slice of units made from columns of u_alg as it is needed, to under 1 MiB.
CORNER_HEAP_MIB = 4


def test_pattern_basis_checks_at_the_d32_corner_hold_one_slice_of_images():
    params = {"factors": [[32, 1]], "d0": 0, "d_env": 2}
    g = random_instance("gkls", params, seed=0)
    m = random_instance("cp_map", params, seed=0)
    k = random_instance("gkls", dict(params, k_only=True), seed=0)
    nf = run_report("gkls-normal-form", [g], dict(BASE_FLAGS))[1]["_bundle"]
    peaks = {}
    for command, bundle, extra in [("check-invariance", g, {}), ("gkls-normal-form", g, {}),
                                   ("gkls-reconstruct", nf, {}), ("cp-factorize", m, {}),
                                   ("dfs", k, {}), ("semicausal", g, {"split": (32, 1)})]:
        tracemalloc.start()
        try:
            code, doc = run_report(command, [bundle], dict(BASE_FLAGS, **extra))
            peaks[command] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert code == 0, (command, doc.get("error"))
    assert max(peaks.values()) <= CORNER_HEAP_MIB, peaks


def test_cli_commutant_at_d24(tmp_path, capsys):
    factors = [[3, 3], [2, 4], [2, 3]]
    path = _random_algebra(capsys, tmp_path, {"factors": factors, "d0": 1})
    code, out, _ = run_cli(capsys, ["commutant", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dimension"] == 1 + sum(db * db for _, db in factors)
