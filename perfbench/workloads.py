"""The workloads: inputs drawn from the run seed, the ops, and an oracle per
op that checks the product against ground truth built from the same seed
through the public igkls API.

A workload hands out its ops one round at a time; a round is a fixed sequence
of op kinds and shapes (its slots).  ``round(r)`` depends on ``r`` only
through ``r % POOL``: the instances of a slot come from a pool of ``POOL``
seeds, so every instance is repeated over the rounds of a run and can be
taken at its best latency.
Library calls inside an op go through ``igkls.<name>`` attribute lookups so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import igkls as ik
from igkls.linalg import dag, frob

TOL = 1e-9  # the CLI's default --tol-rank and --tol-verify

# invariant GKLS instances, d = 8, 16, 24, 32; the multiplicity tables d_f
# are pinned so that every seed costs the same
GKLS_SHAPES = (
    {"factors": [[2, 2], [1, 3]], "d0": 1, "d_env": 2,
     "d_f": [[2, 0], [1, 0]]},
    {"factors": [[2, 3], [3, 2], [2, 2]], "d0": 0, "d_env": 2,
     "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 0]]},
    {"factors": [[3, 3], [2, 4], [2, 3]], "d0": 1, "d_env": 2,
     "d_f": [[1, 0, 1], [1, 1, 0], [0, 0, 2]]},
    {"factors": [[4, 4], [3, 3], [2, 3]], "d0": 1, "d_env": 2,
     "d_f": [[1, 1, 0], [0, 1, 1], [1, 0, 0]]},
)
CLI_ALGEBRA_SHAPE = {"factors": [[2, 2], [1, 3]], "d0": 1}  # d = 8

# The probe's t = 10 matrix exponential at d = 32 takes 2.4 s on most
# instances and about 30 s on some (2 of 10 seeds): e^{tL} underflows and the
# squarings run on subnormal numbers.  A run cannot be steady across seeds
# with it, so the timed chain probes up to d = 24.
PROBE_MAX_D = 24


class Mismatch(Exception):
    """The oracle rejected an op's product."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def derive_seed(seed: int, *labels) -> int:
    digest = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def dim_of(shape: dict) -> int:
    return shape["d0"] + sum(a * b for a, b in shape["factors"])


def structure(shape: dict) -> tuple[int, list[tuple[int, int]]]:
    return shape["d0"], sorted((a, b) for a, b in shape["factors"])


def commutant_structure(shape: dict) -> tuple[int, int, list[tuple[int, int]]]:
    """(dimension, d0, factor multiset) of the commutant of a planted algebra."""
    d0, factors = structure(shape)
    dim = d0 ** 2 + sum(b * b for _, b in factors)
    return dim, 0, sorted(([(d0, 1)] if d0 else []) + [(b, a) for a, b in factors])


def expect_structure(dec, want: tuple[int, list], what: str) -> None:
    got = (dec.d0, sorted(dec.factors))
    expect(got == want, f"{what}: recovered {got}, generated {want}")


def expect_same_generator(g_ref, g, what: str, l_ref=None) -> None:
    """Superoperators agree within the CLI's own reconstruction tolerance."""
    if l_ref is None:
        l_ref = ik.generator_superoperator(g_ref)
    rel = frob(l_ref - ik.generator_superoperator(g)) / max(1.0, frob(l_ref))
    limit = 10 * TOL * max(1.0, frob(g_ref.v) ** 2, frob(g_ref.k))
    expect(rel <= limit, f"{what}: superoperator distance {rel:.3e} > {limit:.3e}")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch


# ---------------------------------------------------------------------------
# cli_chain: the README loop as CLI subprocesses
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliChain:
    """``random → check-invariance → gkls-normal-form → gkls-reconstruct →
    minimalize (of the generator and of its normal form) → probe`` per GKLS
    shape (no probe above PROBE_MAX_D), then ``random --kind cp_map →
    cp-factorize → minimalize`` and ``random --kind algebra →
    algebra-decompose → commutant`` at d = 8.  One op is one command.  A
    round takes about 17 s, so every round of a run repeats the same
    instances."""

    POOL = 1

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.rec = None
        self.launcher = str(Path(__file__).with_name("launcher.py"))
        self._ref: tuple = (None, None)  # (seed, slot) and its reference generator

    def setup(self) -> None:
        # warm the interpreter, the imports and the file cache with one small
        # command; no timed op runs here
        res = self._cli(["random", "--kind", "algebra", "--seed", "1",
                         "--params", json.dumps({"factors": [[1, 2]], "d0": 0})])
        self._expect_ok(res)

    def trace(self, rec) -> None:
        self.rec = rec

    def _cli(self, args: list[str]) -> CliResult:
        if self.rec is None:
            cmd = [sys.executable, "-m", "igkls.cli", *args]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=120)
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, self.launcher, str(spans_path), *args]
        idx = self.rec.open("cli.process")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=120)
        finally:
            process_s = time.perf_counter() - t0
            self.rec.close(idx)
        self.rec.add("cli.process_s", process_s)
        if spans_path.exists():
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            self.rec.graft(child["spans"], idx)
            for key, value in child["counters"].items():
                if key.endswith("_max"):
                    self.rec.peak(key, value)
                else:
                    self.rec.add(key, value)
            self.rec.add("cli.import_s", sum(e - s for n, s, e, *_ in child["spans"]
                                             if n == "cli.import"))
        try:
            report_s = float(json.loads(proc.stdout)["timing_seconds"])
        except (ValueError, KeyError, TypeError):
            report_s = 0.0
        self.rec.add("cli.report_s", report_s)
        self.rec.add("cli.overhead_s", process_s - report_s)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def _expect_ok(res: CliResult) -> dict:
        expect("Traceback" not in res.stderr, "traceback on stderr")
        expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()[-200:]}")
        doc = json.loads(res.stdout)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        expect(doc["ok"] is True and not failed, f"report not ok: {failed}")
        return doc

    def _op(self, name: str, args: list[str], check: Callable[[dict], None]) -> Op:
        def run():
            return self._cli(args)

        def verify(res: CliResult):
            check(self._expect_ok(res))

        return Op(name, run, verify)

    def round(self, r: int) -> list[Op]:
        j = r % self.POOL
        ops = []
        for k, shape in enumerate(GKLS_SHAPES):
            ops += self._gkls_ops(derive_seed(self.seed, "cli", j, k), k, shape)
        return (ops + self._cp_ops(derive_seed(self.seed, "cli-cp", j))
                + self._algebra_ops(derive_seed(self.seed, "cli-algebra", j)))

    def _gkls_ops(self, s: int, k: int, shape: dict) -> list[Op]:
        d = dim_of(shape)
        g, nf, g2, gm, nfm = (str(self.workdir / f"{p}{k}.json")
                              for p in ("g", "nf", "g2", "gm", "nfm"))

        def ref():
            if self._ref[0] != (s, k):
                self._ref = ((s, k), ik.random_instance("gkls", params=shape, seed=s).payload)
            return self._ref[1]

        def check_random(doc):
            got = ik.decode(g).payload
            expect(np.array_equal(got.v, ref().v) and np.array_equal(got.k, ref().k),
                   "random bundle differs from random_instance of the same seed")

        def check_invariance(doc):
            names = {c["name"] for c in doc["checks"]}
            expect("generator_invariance" in names, "no generator_invariance check")

        def check_normal_form(doc):
            got = ik.decode(nf).payload
            expect_structure(got.dec, structure(shape), "gkls-normal-form")
            expect(got.d_f == shape["d_f"],
                   f"gkls-normal-form: d_f {got.d_f}, generated {shape['d_f']}")

        def check_reconstruct(doc):
            expect_same_generator(ref(), ik.decode(g2).payload, "gkls-reconstruct")

        def check_minimalize(doc):
            got = ik.decode(gm).payload
            expect(got.d_env <= ref().d_env,
                   f"minimalize grew d_env {ref().d_env} -> {got.d_env}")
            expect_same_generator(ref(), got, "minimalize")

        def check_minimal_form(doc):
            got, before = ik.decode(nfm).payload, ik.decode(nf).payload.d_env
            expect(got.d_env <= before,
                   f"minimalize of the normal form grew d_env {before} -> {got.d_env}")
            expect_same_generator(ref(), ik.reconstruct_from_normal_form(got),
                                  "minimalize of the normal form")

        def check_probe(doc):
            names = [c["name"] for c in doc["checks"]]
            expect(names == ["probe_t=0.1", "probe_t=1", "probe_t=10"],
                   f"probe checks {names}")

        return [
            self._op(f"random d={d}", ["random", "--kind", "gkls", "--seed", str(s),
                     "--params", json.dumps(shape), "--out", g], check_random),
            self._op(f"check-invariance d={d}", ["check-invariance", "--in", g],
                     check_invariance),
            self._op(f"gkls-normal-form d={d}", ["gkls-normal-form", "--in", g,
                     "--out", nf], check_normal_form),
            self._op(f"gkls-reconstruct d={d}", ["gkls-reconstruct", "--in", nf,
                     "--out", g2], check_reconstruct),
            self._op(f"minimalize d={d}", ["minimalize", "--in", g, "--out", gm],
                     check_minimalize),
            self._op(f"minimalize nf d={d}", ["minimalize", "--in", nf, "--out", nfm],
                     check_minimal_form),
        ] + ([self._op(f"probe d={d}", ["probe", "--in", g], check_probe)]
             if d <= PROBE_MAX_D else [])

    def _cp_ops(self, s: int) -> list[Op]:
        shape = GKLS_SHAPES[0]
        m, mm = (str(self.workdir / f"{p}.json") for p in ("m", "mm"))

        def ref():
            return ik.random_instance("cp_map", params=shape, seed=s).payload.stine

        def check_random(doc):
            expect(np.array_equal(ik.decode(m).payload.stine.v, ref().v),
                   "cp_map bundle differs from random_instance of the same seed")

        def check_factorize(doc):
            got = (doc["result"]["d_env"], doc["result"]["d_f"])
            expect(got == (shape["d_env"], shape["d_f"]),
                   f"cp-factorize: (d_env, d_f) {got}, generated "
                   f"{(shape['d_env'], shape['d_f'])}")

        def check_minimalize(doc):
            want, got = ref(), ik.decode(mm).payload.stine
            expect(got.d_env <= want.d_env,
                   f"minimalize grew d_env {want.d_env} -> {got.d_env}")
            c_ref = ik.choi(want)
            dist = frob(ik.choi(got) - c_ref)
            limit = 10 * TOL * max(1.0, frob(c_ref))
            expect(dist <= limit, f"minimalize: Choi distance {dist:.3e} > {limit:.3e}")

        return [
            self._op("random cp_map d=8", ["random", "--kind", "cp_map", "--seed", str(s),
                     "--params", json.dumps(shape), "--out", m], check_random),
            self._op("cp-factorize d=8", ["cp-factorize", "--in", m], check_factorize),
            self._op("minimalize cp_map d=8", ["minimalize", "--in", m, "--out", mm],
                     check_minimalize),
        ]

    def _algebra_ops(self, s: int) -> list[Op]:
        shape = CLI_ALGEBRA_SHAPE
        a, a2, c = (str(self.workdir / f"{p}.json") for p in ("a", "a2", "c"))
        dim, _, comm_factors = commutant_structure(shape)

        def check_algebra(doc):
            ref = ik.random_instance("algebra", params=shape, seed=s).payload
            expect(np.array_equal(ik.decode(a).payload.u_alg, ref.u_alg),
                   "algebra bundle differs from random_instance of the same seed")

        def check_decompose(doc):
            expect_structure(ik.decode(a2).payload, structure(shape), "algebra-decompose")

        def check_commutant(doc):
            expect(doc["result"]["dimension"] == dim,
                   f"commutant dimension {doc['result']['dimension']}, expected {dim}")
            expect_structure(ik.decode(c).payload, (0, comm_factors), "commutant")

        return [
            self._op("random algebra d=8", ["random", "--kind", "algebra", "--seed", str(s),
                     "--params", json.dumps(shape), "--out", a], check_algebra),
            self._op("algebra-decompose d=8", ["algebra-decompose", "--in", a,
                     "--out", a2], check_decompose),
            self._op("commutant d=8", ["commutant", "--in", a, "--out", c],
                     check_commutant),
        ]


# ---------------------------------------------------------------------------
# algebra_engine: closure, decomposition, commutant, twirls, Koashi–Imoto
# ---------------------------------------------------------------------------

# (op kind, planted shape) in the order one round runs them; every slot draws
# its own seeds.  Of the 18 instances a run times (POOL of each slot) the
# median is a d = 12 full op and the tail (the slowest) a lone
# decomposition.  A full op at
# d = 16 (about 12 s, mostly the commutant's full-U SVD) would dominate the
# round, so d = 16 is decomposed alone, like d = 24.
_D12 = {"factors": [[2, 2], [2, 2], [2, 2]], "d0": 0}
ALGEBRA_ROUND = (
    ("full", {"factors": [[2, 2], [1, 2], [2, 1]], "d0": 0}),          # d = 8
    ("full", {"factors": [[2, 2], [1, 3]], "d0": 1}),                  # d = 8
    ("ki", {"factors": [[2, 2], [1, 2]], "d0": 0}),                    # d = 6
    ("ki", {"factors": [[3, 2], [2, 3]], "d0": 0}),                    # d = 12
    ("full", _D12),
    ("full", _D12),
    ("full", _D12),
    ("decompose", {"factors": [[2, 2], [2, 2], [2, 2], [2, 2]], "d0": 0}),  # d = 16
    ("decompose", {"factors": [[2, 4], [2, 4], [1, 8]], "d0": 0}),     # d = 24
)
KI_ENV = 2


def _crandn(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _planted_element(dec, rng) -> np.ndarray:
    z = np.zeros((dec.d, dec.d), dtype=np.complex128)
    for off, (da, db) in zip(dec.offsets(), dec.factors):
        z[off:off + da * db, off:off + da * db] = np.kron(_crandn(rng, da, da), np.eye(db))
    return dec.u_alg @ z @ dag(dec.u_alg)


def _planted_channel(dec, rng):
    """Schrödinger Kraus set u(⊕ 1_A ⊗ N_i)u† with a random channel N_i per B."""
    isos = [np.linalg.qr(_crandn(rng, db * KI_ENV, db))[0] for _, db in dec.factors]
    ops = []
    for n in range(KI_ENV):
        z = np.zeros((dec.d, dec.d), dtype=np.complex128)
        for off, (da, db), w in zip(dec.offsets(), dec.factors, isos):
            kraus = w.reshape(db, KI_ENV, db)[:, n, :]
            z[off:off + da * db, off:off + da * db] = np.kron(np.eye(da), kraus)
        ops.append(dec.u_alg @ z @ dag(dec.u_alg))
    return ik.KrausSet(d_in=dec.d, d_out=dec.d, ops=ops)


@dataclass
class AlgEntry:
    kind: str
    shape: dict
    seed: int
    inputs: dict


class AlgebraEngine:
    """Full ops (closure from two generic elements, decomposition, commutant,
    decomposition of the commutant, twirl checks) at d = 8 and 12; lone
    atomic decompositions at d = 16 and 24; Koashi–Imoto on planted channels
    at d = 6 and 12."""

    POOL = 2  # seeds per slot; rounds alternate between them

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.pool: list[list[AlgEntry]] = []

    def setup(self) -> None:
        for slot, (kind, shape) in enumerate(ALGEBRA_ROUND):
            entries = []
            for j in range(self.POOL):
                s = derive_seed(self.seed, "algebra", slot, j)
                dec = ik.random_instance("algebra", params=shape, seed=s).payload
                rng = np.random.default_rng(s)
                if kind == "full":
                    inputs = {"gens": [_planted_element(dec, rng) for _ in range(2)],
                              "x": _crandn(rng, dec.d, dec.d)}
                elif kind == "decompose":
                    inputs = {"basis": ik.algebra_from_decomposition(dec)}
                else:
                    inputs = {"channel": _planted_channel(dec, rng)}
                entries.append(AlgEntry(kind, shape, s, inputs))
            self.pool.append(entries)

    def trace(self, rec) -> None:
        pass

    @staticmethod
    def _run(e: AlgEntry):
        if e.kind == "decompose":
            return {"dec": ik.atomic_decompose(e.inputs["basis"], tol=TOL, seed=e.seed)}
        if e.kind == "ki":
            return {"ki": ik.koashi_imoto_decompose(e.inputs["channel"], tol=TOL,
                                                    seed=e.seed)}
        alg = ik.close_star_algebra(e.inputs["gens"], unital=False, tol=TOL)
        dec = ik.atomic_decompose(alg, tol=TOL, seed=e.seed)
        comm = ik.commutant(alg, tol=TOL)
        dec_c = ik.atomic_decompose(comm, tol=TOL, seed=e.seed)
        y = ik.twirl_to_commutant(e.inputs["x"], dec)
        y2 = ik.twirl_to_commutant(y, dec)
        return {"alg": alg, "dec": dec, "comm": comm, "dec_c": dec_c, "y": y, "y2": y2}

    @staticmethod
    def _check(e: AlgEntry, p: dict) -> None:
        want = structure(e.shape)
        if e.kind == "ki":
            res = p["ki"]
            expect_structure(res.dec, want, "koashi_imoto_decompose")
            expect(res.report["dim_fixed"] == res.report["dim_dual_fixed"],
                   "fixed-space dimensions disagree")
            expect(res.report["pattern_residual"] <= 1e-8,
                   f"KI pattern residual {res.report['pattern_residual']:.3e}")
            return
        expect_structure(p["dec"], want, "atomic_decompose")
        if e.kind == "decompose":
            return
        n_alg = sum(a * a for a, _ in e.shape["factors"])
        expect(p["alg"].dim == n_alg,
               f"closure has dimension {p['alg'].dim}, generated {n_alg}")
        dim, d0, comm_factors = commutant_structure(e.shape)
        expect(p["comm"].dim == dim, f"commutant dimension {p['comm'].dim}, expected {dim}")
        expect_structure(p["dec_c"], (d0, comm_factors), "commutant decomposition")
        x, y = e.inputs["x"], p["y"]
        expect(frob(p["y2"] - y) <= 1e-9 * frob(x), "twirl is not idempotent")
        worst = max(frob(y @ g - g @ y) / (frob(g) * frob(x)) for g in e.inputs["gens"])
        expect(worst <= 1e-9, f"twirl leaves the commutant by {worst:.3e}")

    def round(self, r: int) -> list[Op]:
        return [Op(f"{e.kind} d={dim_of(e.shape)}", lambda e=e: self._run(e),
                   lambda p, e=e: self._check(e, p))
                for e in (entries[r % self.POOL] for entries in self.pool)]


WORKLOADS = {"cli_chain": CliChain, "algebra_engine": AlgebraEngine}
