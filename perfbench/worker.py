"""One workload in its own process: ``worker.py WORKLOAD SEED SECONDS TRACE OUTDIR``.

run.py starts it with the BLAS thread variables pinned to 1 and an
address-space limit.  The worker builds the workload's inputs, prints
``READY``, and waits for one line on stdin: ``quit`` ends it (run.py uses
such workers to repeat set-up), ``go`` starts the timed phase.  Between ops,
every PAUSE_EVERY_S seconds, the worker prints ``PAUSE`` and waits for the
next ``go`` (run.py measures another set-up meanwhile, so that the set-ups
of a run are spread over it); at the end it prints the result as one JSON
line.  With TRACE=1
an untraced phase and a traced phase each get half the time, and the spans
are written to OUTDIR.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from run import THREAD_VARS, throughput
from tracer import Recorder, install, summarize
from workloads import WORKLOADS, Mismatch

PAUSE_EVERY_S = 2.5


def pause() -> float:
    """Hand control to run.py for a set-up; returns when it is done."""
    print("PAUSE", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit(1)
    return time.perf_counter()


def run_phase(wl, budget_s: float, first_round: int, min_rounds: int,
              rec: Recorder | None = None) -> dict:
    """Whole rounds, closed loop, until another round would pass the budget
    (but at least ``min_rounds``).

    Each timed op is recorded as [instance key, latency, passed]; the key
    names the slot and the pool seed, so repeats of an instance share it.
    Oracle checks and pauses run between ops, outside the latencies.
    """
    ops_out, failures = [], []
    start = last_pause = time.perf_counter()
    r = first_round
    while True:
        for slot, op in enumerate(wl.round(r)):
            if rec is not None:
                rec.op = len(ops_out)
            t0 = time.perf_counter()
            try:
                product, err = op.run(), None
            except Exception as exc:  # MemoryError from the guard included
                product, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if rec is not None:
                rec.op = None
            if err is None:
                try:
                    op.check(product)
                except Mismatch as exc:
                    err = f"oracle: {exc}"
                except Exception as exc:
                    err = f"unreadable product: {type(exc).__name__}: {exc}"
            del product
            ops_out.append([f"{r % wl.POOL}.{slot}", latency, err is None])
            if err is not None:
                failures.append(f"{op.name}: {err}")
            if time.perf_counter() - last_pause >= PAUSE_EVERY_S:
                last_pause = pause()
        r += 1
        elapsed = time.perf_counter() - start
        if r - first_round >= min_rounds and elapsed + elapsed / (r - first_round) > budget_s:
            break
    return {"ops": ops_out, "failures": failures, "rounds": r - first_round,
            "next_round": r, "op_time_s": sum(x for _, x, _ in ops_out)}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
        "seed": seed,
    }


def main() -> int:
    name, seed, seconds, trace, outdir = sys.argv[1:6]
    seed, seconds, trace, outdir = int(seed), float(seconds), trace == "1", Path(outdir)
    with tempfile.TemporaryDirectory(dir=outdir, prefix="work-") as workdir:
        wl = WORKLOADS[name](seed, Path(workdir), dict(os.environ))
        wl.setup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure(wl, name, seed, seconds, trace, outdir)
    print(json.dumps(result, default=float))
    return 0


def measure(wl, name: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    result = {"env": environment(seed)}
    if trace:
        base = run_phase(wl, seconds / 2, 0, 1)
        rec = Recorder()
        install(rec)
        wl.trace(rec)
        phase = run_phase(wl, seconds / 2, base["next_round"], 1, rec)
        layers = summarize(rec, len(phase["ops"]), phase["op_time_s"])
        layers["trace.overhead_share"] = 1 - throughput(phase["ops"]) / throughput(base["ops"])
        result["layers"] = layers
        result["untraced_ops_per_s"] = throughput(base["ops"])
        spans_path = outdir / f"spans-{name}-s{seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "raised"],
            "spans": rec.spans}), encoding="utf-8")
        result["spans_file"] = str(spans_path)
        phases = [base, phase]
    else:
        # every instance of the pool at least twice, so that each has a best of two
        phase = run_phase(wl, seconds, 0, 2 * wl.POOL)
        phases = [phase]
    who = resource.RUSAGE_CHILDREN if name == "cli_chain" else resource.RUSAGE_SELF
    result.update(phase)
    result["attempted"] = sum(len(p["ops"]) for p in phases)
    result["failures"] = [f for p in phases for f in p["failures"]]
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    sys.exit(main())
