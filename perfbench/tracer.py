"""In-memory span recorder fed by wrappers installed around igkls from outside.

The library is not edited: each traced function is replaced by a wrapper in
its defining module and in every ``igkls`` namespace that imported it by
name, so calls between modules are seen too.  ``numpy.linalg.svd`` and
``scipy.linalg.expm`` are wrapped as the kernel layer.  Spans are recorded
only while an op is open (``Recorder.op`` is set), so the benchmark's own
oracle calls never count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, can raise a typed error or ValueError)
LAYERS = (
    ("io", "random_instance", True),
    ("io", "encode_bundle", False),
    ("io", "decode_text", True),
    ("algebra", "close_star_algebra", True),
    ("algebra", "atomic_decompose", True),
    ("algebra", "commutant", False),
    ("algebra", "algebra_pattern_basis", False),
    ("algebra", "pattern_residual", False),
    ("algebra", "twirl_to_commutant", True),
    ("algebra", "twirl_intertwiner", True),
    ("algebra", "intertwiner_decompose", True),
    ("cpmaps", "cp_invariance_check", True),
    ("cpmaps", "atomic_block_factorize", True),
    ("cpmaps", "orthogonality_check", False),
    ("cpmaps", "reassemble_factorization", False),
    ("cpmaps", "minimal_stinespring", False),
    ("gkls", "invariant_split", True),
    ("gkls", "atomic_normal_form", True),
    ("gkls", "reconstruct_from_normal_form", False),
    ("gkls", "reduce_normal_form_minimal", True),
    ("gkls", "normal_form_residuals", False),
    ("gkls", "gkls_apply", True),
    ("gkls", "generator_superoperator", False),
    ("gkls", "gkls_minimalize", True),
    ("applications", "semigroup_invariance_probe", False),
    ("applications", "koashi_imoto_decompose", True),
    ("linalg", "kron", False),
)

KERNELS = ("svd", "expm")

# spans the benchmark itself opens around a CLI subprocess and inside the
# traced launcher; they carry no per-function metrics of their own
CLI_SPANS = ("cli.process", "cli.import", "cli.main")


def _is_identity(m) -> bool:
    shape = getattr(m, "shape", None)
    if shape is None or len(shape) != 2 or shape[0] != shape[1]:
        return False
    import numpy as np  # not at module level: the launcher times its import
    return bool(np.count_nonzero(m) == shape[0] and (m.diagonal() == 1).all())


def _svd_u_bytes(args, kwargs) -> int:
    a = args[0]
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        return 0
    m, n = a.shape[-2], a.shape[-1]
    itemsize = 16 if a.dtype.kind == "c" else 8
    return m * (m if full else min(m, n)) * itemsize


class Recorder:
    """Spans as [name, start, end, parent index, op id, raised] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op = None
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, raised=True)
                raise
            self.close(idx)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def graft(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in a subprocess under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, par, _, raised in child_spans:
            self.spans.append([name, start, end,
                               parent if par is None else base + par, op, raised])


def _observe_kron(rec, args, kwargs, out):
    if _is_identity(args[0]) or _is_identity(args[1]):
        rec.add("linalg.kron.identity_calls", 1)


_OBSERVERS = {
    "linalg.kron": _observe_kron,
    "io.encode_bundle": lambda rec, a, k, out: rec.add("io.encode_bundle.bytes", len(out)),
    "io.decode_text": lambda rec, a, k, out: rec.add("io.decode_text.bytes", len(a[0])),
    "kernel.svd": lambda rec, a, k, out: rec.peak("kernel.svd.u_bytes_max",
                                                  _svd_u_bytes(a, k)),
    "kernel.expm": lambda rec, a, k, out: rec.add("kernel.expm.bytes",
                                                  16 * a[0].shape[0] * a[0].shape[1]),
}


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS and the kernels, in every namespace."""
    import numpy.linalg
    import scipy.linalg

    importlib.import_module("igkls")  # loads every igkls module
    for mod_name, fn_name, _ in LAYERS:
        name = f"{mod_name}.{fn_name}"
        orig = getattr(importlib.import_module(f"igkls.{mod_name}"), fn_name)
        wrapped = rec.wrap(name, orig, _OBSERVERS.get(name))
        for mod_key, mod in list(sys.modules.items()):
            if (mod_key == "igkls" or mod_key.startswith("igkls.")) \
                    and getattr(mod, fn_name, None) is orig:
                setattr(mod, fn_name, wrapped)
    numpy.linalg.svd = rec.wrap("kernel.svd", numpy.linalg.svd,
                                _OBSERVERS["kernel.svd"])
    scipy.linalg.expm = rec.wrap("kernel.expm", scipy.linalg.expm,
                                 _OBSERVERS["kernel.expm"])


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [("cli.process_s", "s"), ("cli.report_s", "s"), ("cli.overhead_s", "s"),
           ("cli.import_s", "s")]
    for mod_name, fn_name, can_raise in LAYERS:
        base = f"{mod_name}.{fn_name}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        if can_raise:
            out.append((f"{base}.errors", "count"))
    out += [("io.encode_bundle.bytes", "B"), ("io.decode_text.bytes", "B"),
            ("linalg.kron.identity_calls", "count")]
    for k in KERNELS:
        out += [(f"kernel.{k}.calls", "count"), (f"kernel.{k}.self_s", "s")]
    out += [("kernel.svd.u_bytes_max", "B"), ("kernel.expm.bytes", "B"),
            ("trace.overhead_share", "share"), ("trace.top_span_share", "share")]
    return out


def summarize(rec: Recorder, n_ops: int, op_time_s: float) -> dict[str, float]:
    """Per-op layer metrics from the recorded spans and counters.

    calls, errors, self_s and bytes are per op of the traced phase;
    u_bytes_max is the largest single SVD's U; top_span_share is the time
    of the spans directly under each op (or under each CLI process) over
    the summed op latency.
    """
    child_time = [0.0] * len(rec.spans)
    for name, start, end, parent, _, _ in rec.spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    top = 0.0
    for i, (name, start, end, parent, _, raised) in enumerate(rec.spans):
        dur = end - start
        parent_name = rec.spans[parent][0] if parent is not None else None
        if name != "cli.process" and parent_name in (None, "cli.process"):
            top += dur
        if name in CLI_SPANS:
            continue
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        if raised:
            totals[f"{name}.errors"] = totals.get(f"{name}.errors", 0) + 1
    for key, value in rec.counters.items():
        totals[key] = value if key.endswith("_max") else totals.get(key, 0) + value
    out = {}
    for key, _ in per_layer_names():
        value = totals.get(key, 0)
        out[key] = value if key.endswith("_max") else value / max(n_ops, 1)
    out["trace.top_span_share"] = top / op_time_s if op_time_s > 0 else 0.0
    return out
