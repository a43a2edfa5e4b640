"""The CLI pipeline sweep: ``random`` and then every command that applies to
its bundle, for each kind over seeds 0–9, in process and with warnings as
errors.

Each run must end in exit 0, 1 or 2 without raising, and each report must be
made of ``errors.verify`` records only: a float residual and limit per check,
``passed == (residual <= tolerance)``, and ``ok`` exactly when no check
failed and no error was raised.  The exit codes of each command over the
seeds are pinned, and every report the chains make through ``run_report``
must encode with a bare ``json.dumps``, as the CLI writes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter

import pytest

from igkls.cli import UsageError, main, run_report
from igkls.errors import TOL_PROBE, TOL_RANK, TOL_VERIFY
from igkls.io import bundle_to_dict

SEEDS = range(10)
WALL_BOUND_S = 30.0  # per kind; the slowest (gkls) takes about 1 s on one BLAS thread

# (command, inputs, output) per kind, in the order run; "b" is the random
# bundle and the other names are bundles that earlier commands wrote
CHAINS = {
    "gkls": [
        ("check-invariance", ["b"], None),
        ("gkls-normal-form", ["b"], "nf"),
        ("gkls-reconstruct", ["nf"], None),
        ("minimalize", ["b"], "gm"),
        ("minimalize", ["nf"], "nfm"),
        ("gauge-compare", ["gm", "b"], None),
        ("gauge-compare", ["nfm", "nfm"], None),
        ("probe", ["b"], None),
        ("dfs", ["b"], None),
    ],
    "cp_map": [
        ("check-invariance", ["b"], None),
        ("cp-factorize", ["b"], None),
        ("minimalize", ["b"], "mm"),
        ("gauge-compare", ["mm", "b"], None),
        ("abelian", ["b"], None),
        ("koashi-imoto", ["b"], None),
    ],
    "algebra": [
        ("algebra-decompose", ["b"], None),
        ("commutant", ["b"], None),
    ],
    "normal_form": [
        ("gkls-reconstruct", ["b"], None),
        ("minimalize", ["b"], "nfm"),
        ("gauge-compare", ["nfm", "nfm"], None),
    ],
    "koashi_imoto": [],
}

# exit codes over the ten seeds; a command not listed exits 0 on every seed.
# A random cp_map is neither maximal abelian nor trace preserving, and dfs
# needs a unital algebra (exit 2 otherwise) on which L acts by automorphisms
EXIT_CODES = {
    ("cp_map", "abelian"): {1: 10},
    ("cp_map", "koashi-imoto"): {1: 10},
    ("gkls", "dfs"): {0: 2, 1: 2, 2: 6},
}


def _run(argv: list[str]) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (json.loads(out.getvalue()) if code in (0, 1) else None), err.getvalue()


def _check_report(doc: dict, code: int) -> None:
    for chk in doc["checks"]:
        assert type(chk["residual"]) is float and type(chk["tolerance"]) is float, chk
        assert chk["passed"] == (chk["residual"] <= chk["tolerance"]), chk
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert doc["ok"] == (not failed and "error" not in doc)
    assert doc["exit_code"] == code == (0 if doc["ok"] else 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_every_pipeline_over_ten_seeds_ends_in_a_verified_report(kind, tmp_path):
    codes: dict[str, Counter] = {}
    start = time.perf_counter()
    for seed in SEEDS:
        paths = {"b": str(tmp_path / f"{kind}-{seed}.json")}
        code, doc, err = _run(["random", "--kind", kind, "--seed", str(seed),
                               "--out", paths["b"]])
        assert code == 0 and "Traceback" not in err, err
        _check_report(doc, code)
        for command, inputs, output in CHAINS[kind]:
            argv = [command]
            for name in inputs:
                argv += ["--in", paths[name]]
            if output:
                paths[output] = str(tmp_path / f"{output}-{seed}.json")
                argv += ["--out", paths[output]]
            code, doc, err = _run(argv)
            assert "Traceback" not in err, err
            if doc is not None:
                _check_report(doc, code)
            codes.setdefault(" ".join([command] + inputs), Counter())[code] += 1
    want = {" ".join([command] + inputs): EXIT_CODES.get((kind, command), {0: len(SEEDS)})
            for command, inputs, _ in CHAINS[kind]}
    assert {key: dict(c) for key, c in codes.items()} == want
    assert time.perf_counter() - start < WALL_BOUND_S


def _dumped(doc: dict):
    """json.dumps a report as the CLI writes it, without a ``default``; the
    bundle it produced, if any."""
    bundle = doc.pop("_bundle", None)
    if bundle is not None:
        doc["bundle"] = bundle_to_dict(bundle)
    json.dumps(doc, indent=2, sort_keys=True)
    return bundle


def test_every_report_of_the_chains_is_plain_json():
    # the CLI writes a report with a bare json.dumps, so a numpy scalar
    # anywhere in it would end the command in a traceback
    flags = {"tol_rank": TOL_RANK, "tol_verify": TOL_VERIFY, "tol_probe": TOL_PROBE, "seed": 0}
    for kind, chain in CHAINS.items():
        for seed in SEEDS:
            doc = run_report("random", [], dict(flags, kind=kind, params=None, seed=seed))[1]
            bundles = {"b": _dumped(doc)}
            for command, inputs, output in chain:
                try:
                    doc = run_report(command, [bundles[n] for n in inputs], flags)[1]
                except (UsageError, ValueError):  # exit 2: the CLI writes no report
                    continue
                bundle = _dumped(doc)
                if output:
                    bundles[output] = bundle
