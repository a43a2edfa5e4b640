"""Verification-report command line: ``igkls <command> [--in FILE]...``.

Every command reads zero or more JSON bundles, runs a pipeline from the
library with tolerances taken from the flags, and prints a report listing
each check made as its residual next to the limit it was compared against,
in the order made.  Every check is an ``errors.verify`` record: the library
verifies its own claims, and a command passes a residual of its own through
``verify`` or raises a typed error; the CLI makes no other verdict.
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
from typing import TYPE_CHECKING

import numpy as np

from .algebra import (
    AtomicDecomposition,
    _image_residuals,
    _worst,
    algebra_from_decomposition,
    atomic_decompose,
    commutant,
)
from .errors import (
    TOL_PROBE,
    TOL_RANK,
    TOL_VERIFY,
    DecompositionFailed,
    IgklsError,
    InvariantError,
    NotInvariant,
    ParseError,
    SchemaError,
    _recording,
    limit,
    verify,
)
from .io import (
    KINDS,
    CpMapRecord,
    InstanceBundle,
    bundle_to_dict,
    decode,
    encode_cmatrix,
    random_instance,
    read_meta,
    write_bundle,
    write_meta,
)
from .linalg import dag

# cpmaps, gkls and applications are imported by the command bodies that run
# them: an algebra command loads neither, a GKLS command no applications
if TYPE_CHECKING:
    from .gkls import GKLSRep

__all__ = ["main", "run_report", "COMMANDS"]

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

    def record(self, name: str, residual: float, tolerance: float) -> None:
        """The sink of ``errors.verify``: one check, failed unless
        residual <= tolerance (so a NaN fails)."""
        passed = bool(residual <= tolerance)
        self.doc["checks"].append({
            "name": name,
            "residual": residual,
            "tolerance": tolerance,
            "passed": passed,
        })
        if not passed:
            self.doc["ok"] = False

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
    """The acting algebra: an explicit algebra bundle, else the primary
    bundle's ``meta.algebra``, built again at ``tol`` (a failure exits 1)."""
    alg = _pick(bundles, "algebra", required=False)
    if alg is not None:
        return alg.payload
    dec = read_meta(primary.meta, "algebra", tol)
    if dec is None:
        raise UsageError("no algebra given: pass an --in algebra bundle (or use a "
                         "bundle whose meta records one)")
    return dec


# ---------------------------------------------------------------------------
# command bodies: each takes (bundles, flags, report) and may return an
# output bundle
# ---------------------------------------------------------------------------

def _expect_structure(got: AtomicDecomposition, d0: int, factors, what: str) -> None:
    """Raise :class:`DecompositionFailed` unless ``got`` has the null block
    ``d0`` and the factor multiset ``factors``."""
    if got.d0 != d0 or sorted(got.factors) != sorted(factors):
        raise DecompositionFailed(f"{what}: expected d0={d0} and factors {sorted(factors)}, "
                                  f"got d0={got.d0} and {sorted(got.factors)}")


def _cmd_algebra_decompose(bundles, flags, rep: _Report):
    dec: AtomicDecomposition = _pick(bundles, "algebra").payload
    dec2 = atomic_decompose(algebra_from_decomposition(dec), tol=flags["tol_rank"],
                            seed=flags["seed"])
    _expect_structure(dec2, dec.d0, dec.factors, "recovered algebra")
    verify("declared_basis_in_recovered_algebra",
           _worst(_image_residuals(lambda xs: xs, dec, dec2)),
           limit(flags["tol_verify"], factor=100), DecompositionFailed,
           "the declared algebra is not inside the recovered one")
    rep.info("d", dec.d)
    rep.info("declared", {"d0": dec.d0, "factors": [list(f) for f in dec.factors]})
    rep.info("recovered", {"d0": dec2.d0, "factors": [list(f) for f in dec2.factors]})
    return InstanceBundle("algebra", dec2, {"derived_from": "algebra-decompose",
                                            "tol_rank": flags["tol_rank"],
                                            "tol_verify": flags["tol_verify"]})


def _cmd_commutant(bundles, flags, rep: _Report):
    dec: AtomicDecomposition = _pick(bundles, "algebra").payload
    comm = commutant(algebra_from_decomposition(dec), flags["tol_rank"])
    dec_c = atomic_decompose(comm, tol=flags["tol_rank"], seed=flags["seed"])
    # 𝒜′ = M_{d0} ⊕ ⊕ 1_A⊗M_B; atomic_decompose checks m = Σ d_A², so the
    # multiset also fixes the dimension
    _expect_structure(dec_c, 0, ([(dec.d0, 1)] if dec.d0 else [])
                      + [(db, da) for da, db in dec.factors], "commutant")
    rep.info("dimension", comm.dim)
    rep.info("factors", [list(f) for f in dec_c.factors])
    return InstanceBundle("algebra", dec_c, {"derived_from": "commutant",
                                             "tol_rank": flags["tol_rank"],
                                             "tol_verify": flags["tol_verify"]})


def _cmd_check_invariance(bundles, flags, rep: _Report):
    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls", required=False)
    if gb is not None:
        from .gkls import _generator_invariance

        residuals = _generator_invariance(gb.payload, _algebra_for(bundles, gb, tol), tol)
        rep.info("per_element_residuals", residuals.tolist())
        return None
    mb = _pick(bundles, "cp_map", required=False)
    if mb is not None:
        from .cpmaps import _cp_invariance

        dec = _algebra_for(bundles, mb, tol)
        report = _cp_invariance(mb.payload.heisenberg_stine(), dec, dec, tol)
        rep.info("per_element_residuals", report.residuals)
        return None
    raise UsageError("check-invariance needs a gkls or cp_map bundle")


def _cmd_cp_factorize(bundles, flags, rep: _Report):
    from .cpmaps import atomic_block_factorize

    mb = _pick(bundles, "cp_map")
    dec = _algebra_for(bundles, mb, flags["tol_verify"])
    bf = atomic_block_factorize(mb.payload.heisenberg_stine(), dec, dec, tol=flags["tol_rank"])
    rep.info("d_env", bf.d_env)
    rep.info("d_f", [list(r) for r in bf.d_f])
    return None


def _cmd_gkls_normal_form(bundles, flags, rep: _Report):
    from .gkls import atomic_normal_form

    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, tol)
    nf = atomic_normal_form(g, dec, tol=tol)  # raises NotInvariant → exit 1
    rep.info("d_env", nf.d_env)
    rep.info("d_f", [list(r) for r in nf.d_f])
    meta = {**write_meta(algebra=dec), "tol_rank": flags["tol_rank"], "tol_verify": tol}
    return InstanceBundle("normal_form", nf, meta)


def _cmd_gkls_reconstruct(bundles, flags, rep: _Report):
    from .gkls import invariant_split, reconstruct_from_normal_form

    tol = flags["tol_verify"]
    nb = _pick(bundles, "normal_form")
    nf = nb.payload
    g = reconstruct_from_normal_form(nf)
    invariant_split(g, nf.dec, tol=tol)
    rep.info("d", g.d)
    rep.info("d_env", g.d_env)
    return InstanceBundle("gkls", g, {**write_meta(algebra=nf.dec),
                                      "tol_rank": flags["tol_rank"], "tol_verify": tol})


def _cmd_minimalize(bundles, flags, rep: _Report):
    mb = _pick(bundles, "cp_map", required=False)
    if mb is not None:
        from .cpmaps import minimal_stinespring, stinespring_gauge

        recm: CpMapRecord = mb.payload
        s = recm.stine
        s_min, _ = minimal_stinespring(s, tol=flags["tol_rank"])
        # verifies the same map and an isometric embedding of the environment
        stinespring_gauge(s_min, s, tol=flags["tol_rank"])
        rep.info("d_env_before", s.d_env)
        rep.info("d_env_after", s_min.d_env)
        return InstanceBundle("cp_map", CpMapRecord(stine=s_min, picture=recm.picture),
                              dict(mb.meta))
    gb = _pick(bundles, "gkls", required=False)
    if gb is not None:
        from .gkls import gkls_minimalize

        g: GKLSRep = gb.payload
        out = gkls_minimalize(g, tol=flags["tol_rank"])
        rep.info("d_env_before", g.d_env)
        rep.info("d_env_after", out.g_min.d_env)
        return InstanceBundle("gkls", out.g_min, dict(gb.meta))
    nb = _pick(bundles, "normal_form", required=False)
    if nb is not None:
        from .gkls import reduce_normal_form_minimal

        nf = nb.payload
        nf_min = reduce_normal_form_minimal(nf, tol=flags["tol_rank"])
        rep.info("d_env_before", nf.d_env)
        rep.info("d_env_after", nf_min.d_env)
        return InstanceBundle("normal_form", nf_min, dict(nb.meta))
    raise UsageError("minimalize needs a cp_map, gkls, or normal_form bundle")


def _cmd_gauge_compare(bundles, flags, rep: _Report):
    b1, b2 = _pick_pair(bundles)
    if b1.kind == "cp_map":
        from .cpmaps import minimal_stinespring, stinespring_gauge

        s1 = b1.payload.heisenberg_stine()
        s2 = b2.payload.heisenberg_stine()
        s1_min, _ = minimal_stinespring(s1, tol=flags["tol_rank"])
        w = stinespring_gauge(s1_min, s2, tol=flags["tol_rank"])
        rep.info("w", encode_cmatrix(w))
        return None
    from .gkls import gkls_gauge, normal_form_gauge

    if b1.kind == "gkls":
        g1: GKLSRep = b1.payload
        g2: GKLSRep = b2.payload
        gg = gkls_gauge(g1, g2, tol=flags["tol_rank"])
        rep.info("w", encode_cmatrix(gg.w))
        rep.info("psi", encode_cmatrix(gg.psi.reshape(-1, 1)))
        rep.info("mu", float(gg.mu))
        return None
    gauge = normal_form_gauge(b1.payload, b2.payload, tol=flags["tol_rank"])
    rep.info("w_ii", [encode_cmatrix(w) for w in gauge.w_ii])
    rep.info("psi_i", [encode_cmatrix(p.reshape(-1, 1)) for p in gauge.psi_i])
    rep.info("mu_i", [float(m) for m in gauge.mu_i])
    return None


def _cmd_semicausal(bundles, flags, rep: _Report):
    from .applications import semicausal_check

    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    split = flags.get("split")
    if split is None:
        params = gb.meta.get("params", {})
        if isinstance(params, dict) and "d_a" in params and "d_b" in params:
            split = (params["d_a"], params["d_b"])
    if split is None:
        raise UsageError("semicausal needs the bipartition: pass --split dA,dB "
                         "(or store d_a/d_b in the bundle's meta.params)")
    if not all(type(x) is int and x >= 1 for x in split):  # JSON integers: not true, not 2.0
        raise UsageError(f"the bipartition must be two positive integers, got {split!r}")
    d_a, d_b = split
    if d_a * d_b != g.d:
        raise UsageError(f"bipartition {d_a}·{d_b} does not match d = {g.d}")
    report = semicausal_check(g, d_a, d_b, tol=tol)
    rep.info("algebra_route_residuals", report.algebra_residuals)
    rep.info("direct_route_residuals", report.direct_residuals)
    verify("semicausal", report.max_residual, report.tol, NotInvariant,
           f"L does not leave M_{d_a}⊗1_{d_b} invariant")
    return None


def _cmd_dfs(bundles, flags, rep: _Report):
    from .applications import dfs_verify_normal_form

    tol = flags["tol_verify"]
    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, tol)
    cert = dfs_verify_normal_form(g, dec, tol=tol)  # raises on failure → exit 1
    rep.info("beta", [[encode_cmatrix(b) for b in row] for row in cert.beta])
    rep.info("kappa_a", [encode_cmatrix(m) for m in cert.kappa_a])
    rep.info("kappa_b", [encode_cmatrix(m) for m in cert.kappa_b])
    rep.info("h_tilde", encode_cmatrix(cert.h_tilde))
    rep.info("psi", [encode_cmatrix(p.reshape(-1, 1)) for p in cert.psi])
    return None


def _cmd_abelian(bundles, flags, rep: _Report):
    from .applications import maximal_abelian_coefficients
    from .cpmaps import stinespring_to_kraus

    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map")
    recm: CpMapRecord = mb.payload
    kraus = stinespring_to_kraus(recm.heisenberg_stine())
    dec = _algebra_for(bundles, mb, tol)
    c = read_meta(mb.meta, "observable")
    if c is None:
        c = dec.u_alg @ np.diag(np.arange(dec.d, dtype=np.complex128)) @ dag(dec.u_alg)
        rep.info("observable", "default: Σ i·|p_i⟩⟨p_i| over the minimal projections")
    coeffs = maximal_abelian_coefficients(kraus, dec, c, tol=tol)
    rep.info("c_mn", [[encode_cmatrix(m) for m in row] for row in coeffs.c_mn])
    return None


def _cmd_koashi_imoto(bundles, flags, rep: _Report):
    from .applications import koashi_imoto_decompose

    tol = flags["tol_verify"]
    mb = _pick(bundles, "cp_map")
    kraus = mb.payload.schrodinger_kraus()
    result = koashi_imoto_decompose(kraus, tol=tol, seed=flags["seed"])
    for name, value in result.report.items():
        rep.info(name, value)
    rep.info("factors", [list(f) for f in result.dec.factors])
    return InstanceBundle("koashi_imoto", result,
                          {"tol_rank": flags["tol_rank"], "tol_verify": tol,
                           "seed": flags["seed"]})


def _cmd_probe(bundles, flags, rep: _Report):
    from .applications import semigroup_invariance_probe

    gb = _pick(bundles, "gkls")
    g: GKLSRep = gb.payload
    dec = _algebra_for(bundles, gb, flags["tol_verify"])
    tol = flags["tol_probe"]
    report = semigroup_invariance_probe(g, dec, times=PROBE_TIMES, tol=tol)
    # every residual, also those after the first failed check
    rep.info("probe_residuals", report.max_residuals)
    rep.info("probe_residual", "max over the orthonormal pattern basis X of "
             "dist(e^{tL}(X), algebra) / ||e^{tL}||_F")
    for t, r in zip(report.times, report.max_residuals):
        verify(f"probe_t={t:g}", r, report.tol, NotInvariant,
               f"e^{{tL}} moves the algebra out of itself at t = {t:g}")
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
        # random_instance verifies what it generates, at the tolerance it records
        bundle = random_instance(kind, params=params or None, seed=flags["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
COMMANDS = tuple(_BODIES)


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
        # every check the library makes lands in the report, in order
        with _recording(rep.record):
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
        lines.append(f"  [{mark}] {chk['name']}: residual {chk['residual']:.3e}"
                     f" vs tol {chk['tolerance']:.3e}")
    if "error" in doc:
        err = doc["error"]  # an IgklsError's message already ends in its residual
        lines.append(f"  ERROR {err['type']}: {err['message']}")
    for key, value in doc.get("result", {}).items():
        if isinstance(value, (str, int, float, bool)):
            lines.append(f"  {key}: {value}")
    lines.append(f"  time: {doc['timing_seconds']:.3f}s")
    lines.append(f"VERDICT: {'PASS' if doc['ok'] else 'FAIL'} (exit {doc['exit_code']})")
    return "\n".join(lines) + "\n"


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
        "tol_rank": args.tol_rank if args.tol_rank is not None else TOL_RANK,
        "tol_verify": args.tol_verify if args.tol_verify is not None else TOL_VERIFY,
        # the probe compares matrix exponentials, whose conditioning differs
        # from the algebraic checks; its default is looser unless pinned
        "tol_probe": args.tol_verify if args.tol_verify is not None else TOL_PROBE,
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
    text = _render_text(doc) if args.text else json.dumps(doc, indent=2, sort_keys=True) + "\n"
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
