"""igkls benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see workloads.py): ``cli_chain`` and ``algebra_engine``, each a
closed loop with one client.  Every workload runs in a fresh worker process
with OPENBLAS/OMP/MKL threads pinned to 1 and an address-space limit (the
memory guard), importing igkls from ``src/`` of the checkout.  The worker
runs whole rounds of the workload's ops while another round still fits in S
seconds (at least two per instance); each instance is repeated over the
rounds.  Set-up (worker start, imports, inputs from the seed) is measured
once before the timed phase and again every few seconds of it, between ops,
in a fresh worker each time, so that the set-ups are spread over the run.

End-to-end metrics (``--trace 0``).  Each instance is taken at its best
latency over its repeats (see ``best_per_instance``); oracle checks are not
timed.

* ``setup_s``: median of the run's set-ups;
* ``ops_per_s``: passed instances per second over one pass through all
  instances at those latencies;
* ``op_p50_s``: median over the instances;
* ``op_tail_s``: over the instances, the latency at the highest percentile
  with at least ten instances beyond it, if that percentile is p90 or above,
  and the slowest instance otherwise; a failed instance counts as slower
  than any limit;
* ``peak_rss_mb``: peak RSS of the process doing the work (the largest CLI
  child for cli_chain, the worker itself otherwise).

Prints the metrics by name with units, the failure share, the tail
percentile and the recorded environment, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with per-op latencies and failure reasons, goes to
``.bench_out/``.  Exits 0 when the run completed, even if ops failed
(``correct`` is then false); exits 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_chain", "algebra_engine")
MEMORY_LIMIT_BYTES = 3 << 30   # address space of each benchmark process
DEADLINE_S = 170               # the whole run, set-ups included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10               # samples that must lie beyond the tail percentile
FAILED_LATENCY_S = 1e9         # a failed instance's latency in op_p50_s and op_tail_s

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run (exit code 2, no result line)."""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def bench_env(root: Path) -> dict:
    """Environment of every benchmark process: threads pinned, igkls from src/."""
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Worker:
    """One worker process; ``setup_s`` is the time from start to READY."""

    def __init__(self, args, outdir: Path, env: dict, deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), str(outdir)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=_limit_memory)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish("quit")
            raise BenchError(f"worker set-up failed (exit {self.proc.returncode})")

    def ask(self, command: str) -> str:
        """Send one line and return the worker's next line of output."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()
        self.timer.cancel()

    def finish(self, command: str = "") -> None:
        try:
            self.proc.communicate(command + "\n" if command else None)
        finally:
            self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")


def best_per_instance(ops: list[list]) -> list[tuple[float, bool]]:
    """(best latency, passed) of each instance over its repeats.

    Other tenants switch a shared machine between a fast state and one about
    1.4x slower, for seconds to minutes at a time; the best of an
    instance's repeats is the figure they disturb least.  An instance that
    failed in any repeat counts as failed.
    """
    best: dict[str, tuple[float, bool]] = {}
    for key, latency, passed in ops:
        old, ok = best.get(key, (float("inf"), True))
        best[key] = (min(old, latency), ok and passed)
    return list(best.values())


def throughput(ops: list[list]) -> float:
    """Passed instances per second over one pass at their best latencies."""
    best = best_per_instance(ops)
    return sum(ok for _, ok in best) / sum(x for x, _ in best)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it, if that is p90 or above; the
    maximum otherwise."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 10 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run(args) -> tuple[dict, dict]:
    root = Path.cwd()
    src = root / "src"
    if not (src / "igkls" / "cli.py").is_file():
        raise BenchError(f"no igkls sources under {src}; run from a checkout root")
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    env = bench_env(root)
    deadline = time.monotonic() + DEADLINE_S

    worker = Worker(args, outdir, env, deadline)
    setups = [worker.setup_s]
    try:
        line = worker.ask("go")
        while line.strip() == "PAUSE":
            extra = Worker(args, outdir, env, deadline)
            setups.append(extra.setup_s)
            extra.finish("quit")
            line = worker.ask("go")
    except BaseException:
        worker.kill()
        raise
    worker.finish()
    if not line.strip():
        raise BenchError("worker printed no result")
    res = json.loads(line)

    best = best_per_instance(res["ops"])
    latencies = [x if ok else FAILED_LATENCY_S for x, ok in best]
    tail_s, pct, beyond = tail(latencies)
    failed = len(res["failures"])
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": throughput(res["ops"]),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(root),
        "memory_limit_bytes": MEMORY_LIMIT_BYTES,
        "setup_runs_s": setups, "end_to_end": end_to_end,
        "fail_share": failed / res["attempted"],
        "op_tail_percentile": pct, "op_tail_beyond": beyond,
        "instances": len(best), "rounds": res["rounds"],
        **{k: res[k] for k in ("attempted", "failures", "env", "ops")},
    }
    if args.trace:
        record["layers"] = res["layers"]
        record["untraced_ops_per_s"] = res["untraced_ops_per_s"]
        record["spans_file"] = res["spans_file"]
    out = outdir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record, end_to_end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, end_to_end = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        print(f"{name:>14} {value:12.6g} {units[name]}")
    print(f"{'fail_share':>14} {record['fail_share']:12.6g} share "
          f"({len(record['failures'])} of {record['attempted']} ops)")
    print(f"{'':>14} {record['rounds']} rounds over {record['instances']} instances; "
          f"op_tail_s is p{record['op_tail_percentile']:.1f} of the instances at their "
          f"best, {record['op_tail_beyond']} beyond it; {len(record['setup_runs_s'])} set-ups")
    for reason in record["failures"][:5]:
        print(f"  FAILED {reason}")
    if args.trace:
        from tracer import per_layer_names
        layer_units = dict(per_layer_names())
        metrics = {k: {"value": v, "unit": layer_units[k]}
                   for k, v in record["layers"].items()}
        busiest = sorted((k for k in record["layers"] if k.endswith(".self_s")),
                         key=lambda k: -record["layers"][k])[:8]
        print("  largest self time per op: " + ", ".join(
            f"{k[:-7]} {record['layers'][k]:.4g}s" for k in busiest))
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    print("  env " + json.dumps({"commit": record["commit"], **record["env"]}))
    print(json.dumps({"correct": not record["failures"],
                      "attempted": record["attempted"],
                      "failed": len(record["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
