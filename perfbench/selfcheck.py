"""Negative controls for the benchmark's oracles.

``python3 perfbench/selfcheck.py`` from the root of a checkout runs one op of
every kind at the smallest shapes, checks that the oracle accepts each
product, then corrupts the product (an output file, the report, the exit
code or a returned array) and checks that the oracle rejects it.  Exits 1 if
a correct product is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from run import bench_env

sys.path.insert(0, str(Path.cwd() / "src"))

import igkls as ik  # noqa: E402
from workloads import (ALGEBRA_ROUND, GKLS_SHAPES, AlgebraEngine, CliChain, CliResult,  # noqa: E402
                       Mismatch)

RESULTS: list[tuple[str, bool]] = []


def _outcome(op, product) -> str | None:
    try:
        op.check(product)
    except Mismatch as exc:
        return str(exc)
    return None


def accepts(label: str, op, product) -> None:
    err = _outcome(op, product)
    RESULTS.append((label if err is None else f"{label} (rejected: {err})", err is None))


def rejects(label: str, op, product) -> None:
    err = _outcome(op, product)
    RESULTS.append((f"{label} (rejected: {err})" if err else f"{label} (accepted)",
                    err is not None))


def perturbed(g, amount: float = 1e-3):
    return dataclasses.replace(g, k=g.k + amount * ik.eye(g.d))


def cli_controls(workdir: Path) -> None:
    wl = CliChain(seed=11, workdir=workdir, env=bench_env(Path.cwd()))
    wl.setup()
    d8 = [op for op in wl.round(0) if op.name.endswith("d=8")]
    shape = GKLS_SHAPES[0]
    for op in d8:
        res = op.run()
        accepts(f"cli {op.name}: real product", op, res)
        bad = [("exit code 1", CliResult(1, res.stdout, res.stderr)),
               ("traceback", CliResult(0, res.stdout, "Traceback (most recent call last)")),
               ("ok false", CliResult(0, res.stdout.replace('"ok": true', '"ok": false'),
                                      res.stderr))]
        for what, corrupt in bad:
            rejects(f"cli {op.name}: {what}", op, corrupt)

        target, write = None, None
        if op.name == "gkls-normal-form d=8":
            target = workdir / "nf0.json"
            write = ik.encode_bundle(ik.random_instance(
                "normal_form", dict(shape, d_f=[[1, 0], [1, 0]]), seed=3))
        elif op.name == "gkls-reconstruct d=8":
            target = workdir / "g20.json"
            b = ik.decode(target)
            write = ik.encode_bundle(ik.InstanceBundle("gkls", perturbed(b.payload), b.meta))
        elif op.name == "minimalize d=8":
            target = workdir / "gm0.json"
            b = ik.decode(target)
            g = b.payload
            v = ik.kron(ik.eye(g.d), ik.eye(g.d_env + 1)[:, :g.d_env]) @ g.v
            stine = ik.StinespringRep(d_in=g.d, d_out=g.d, d_env=g.d_env + 1, v=v)
            write = ik.encode_bundle(ik.InstanceBundle("gkls", ik.GKLSRep(g.d, stine, g.k),
                                                       b.meta))
        elif op.name == "minimalize nf d=8":
            # a valid normal form of another generator of the same shape
            target = workdir / "nfm0.json"
            write = ik.encode_bundle(ik.random_instance("normal_form", shape, seed=3))
        elif op.name == "minimalize cp_map d=8":
            target = workdir / "mm.json"
            b = ik.decode(target)
            s = b.payload.stine
            bad = dataclasses.replace(s, v=s.v * (1 + 1e-6))
            write = ik.encode_bundle(ik.InstanceBundle(
                "cp_map", dataclasses.replace(b.payload, stine=bad), b.meta))
        elif op.name == "cp-factorize d=8":
            doc = json.loads(res.stdout)
            doc["result"]["d_f"][0][0] += 1
            rejects(f"cli {op.name}: wrong d_f", op, CliResult(0, json.dumps(doc), res.stderr))
        elif op.name == "commutant d=8":
            doc = json.loads(res.stdout)
            doc["result"]["dimension"] += 1
            rejects(f"cli {op.name}: wrong dimension", op,
                    CliResult(0, json.dumps(doc), res.stderr))
        if target is not None:
            original = target.read_text()
            target.write_text(write)
            rejects(f"cli {op.name}: corrupted {target.name}", op, res)
            target.write_text(original)


def algebra_controls() -> None:
    wl = AlgebraEngine(seed=11, workdir=None, env=None)
    wl.POOL = 1
    wl.setup()
    ops = [op for op in wl.round(0)]
    # a shape with a null block, so that algebra and commutant differ
    full = next(op for op, (kind, shape) in zip(ops, ALGEBRA_ROUND)
                if kind == "full" and shape["d0"])
    p = full.run()
    accepts(f"algebra_engine {full.name}: real product", full, p)
    rejects(f"algebra_engine {full.name}: commutant in place of the algebra", full,
            dict(p, alg=p["comm"]))
    rejects(f"algebra_engine {full.name}: algebra decomposition in place of the "
            "commutant's", full, dict(p, dec_c=p["dec"]))
    rejects(f"algebra_engine {full.name}: non-idempotent twirl", full,
            dict(p, y2=p["y2"] + 1e-6))
    ki = next(op for op in ops if op.name.startswith("ki"))
    q = ki.run()
    accepts(f"algebra_engine {ki.name}: real product", ki, q)
    wrong = dataclasses.replace(q["ki"], dec=p["dec"])
    rejects(f"algebra_engine {ki.name}: wrong decomposition", ki, {"ki": wrong})


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        cli_controls(Path(tmp))
    algebra_controls()
    bad = [label for label, ok in RESULTS if not ok]
    for label, ok in RESULTS:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} controls behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
