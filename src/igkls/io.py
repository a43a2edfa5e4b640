"""JSON codecs, load-time validation, and deterministic instance generation.

Wire format
-----------
A complex matrix ("CMatrix") is ``{"rows": r, "cols": c, "data": [[re, im],
...]}`` with ``r·c`` entries in row-major order.  A bundle is
``{"kind": ..., "payload": ..., "meta": ...}`` where ``kind`` selects the
payload record:

* ``algebra`` — ``{d, d0, factors: [[dA, dB], ...], u_alg: CMatrix}``;
* ``cp_map`` — ``{d_in, d_out, d_env, picture, v: CMatrix}`` with
  ``picture ∈ {"heisenberg", "schrodinger"}`` fixing how the environment
  slices of ``v`` are to be read as Kraus operators;
* ``gkls`` — ``{d, d_env, v: CMatrix, k: CMatrix}``;
* ``normal_form`` — the full block data over an ``algebra`` record;
* ``koashi_imoto`` — coisometry, decomposition, per-factor isometries and
  fixed states, plus the verification report.

``meta`` carries the generation seed, the tolerances used for load-time
invariant checking (``tol_rank``/``tol_verify``), and creation parameters
(for generated bundles this includes the backing algebra or channel).

Failures split into :class:`ParseError` (malformed JSON, position-annotated),
:class:`SchemaError` (wrong layout/shape, field-annotated) and
:class:`InvariantError` (well-formed data violating a mathematical invariant,
e.g. a ``u_alg`` that is not unitary).

Determinism
-----------
:func:`random_instance` draws everything from :class:`~igkls.rng.CounterRng`
in a fixed order, so equal seeds give byte-identical encodings.  Generated
generators/maps are assembled from normal-form data (read back-to-front), so
they satisfy algebra invariance by construction; generated block isometries
are disjoint column blocks of one Haar unitary per row, which makes the
cross-orthogonality exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import AtomicDecomposition, _embed_a, _lift
from .applications import KoashiImotoResult, koashi_imoto_decompose
from .cpmaps import KrausSet, StinespringRep, kraus_to_stinespring, reassemble_factorization, BlockFactorization
from .errors import InvariantError, ParseError, SchemaError
from .gkls import AtomicNormalForm, GKLSRep, reconstruct_from_normal_form
from .linalg import dag, eye, frob
from .rng import CounterRng

__all__ = [
    "KINDS",
    "CpMapRecord",
    "InstanceBundle",
    "encode_cmatrix",
    "encode_bundle",
    "bundle_to_dict",
    "write_bundle",
    "decode",
    "decode_text",
    "kraus_picture_adjoint",
    "random_instance",
]

KINDS = ("algebra", "cp_map", "gkls", "normal_form", "koashi_imoto")

_DIM_CAP = 32  # desk-scale cap on the total system dimension
_PICTURES = ("heisenberg", "schrodinger")


@dataclass
class CpMapRecord:
    """A Stinespring matrix plus the picture its Kraus slices live in."""

    stine: StinespringRep
    picture: str = "heisenberg"


@dataclass
class InstanceBundle:
    kind: str
    payload: object
    meta: dict = field(default_factory=dict)


def kraus_picture_adjoint(k: KrausSet) -> KrausSet:
    """Swap Heisenberg ↔ Schrödinger by adjointing every operator."""
    return KrausSet(d_in=k.d_out, d_out=k.d_in, ops=[dag(op) for op in k.ops])


# ---------------------------------------------------------------------------
# low-level field access (schema layer)
# ---------------------------------------------------------------------------

def _need(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key]


def _int_field(obj, key: str, path: str, minimum: int = 0) -> int:
    v = _need(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}: expected an integer")
    if v < minimum:
        raise SchemaError(f"{path}.{key}: must be ≥ {minimum}, got {v}")
    return v


def _list_field(obj, key: str, path: str, length: int | None = None) -> list:
    v = _need(obj, key, path)
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}: expected a list")
    if length is not None and len(v) != length:
        raise SchemaError(f"{path}.{key}: expected {length} entries, got {len(v)}")
    return v


def encode_cmatrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("CMatrix encoding needs a 2-d array")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _decode_cmatrix(obj, path: str) -> np.ndarray:
    rows = _int_field(obj, "rows", path)
    cols = _int_field(obj, "cols", path)
    data = _list_field(obj, "data", path, length=rows * cols)
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
        ):
            raise SchemaError(f"{path}.data[{idx}]: expected a [re, im] pair")
        out[idx] = complex(entry[0], entry[1])
    return out.reshape(rows, cols)


# ---------------------------------------------------------------------------
# record codecs
# ---------------------------------------------------------------------------

def _encode_algebra(dec: AtomicDecomposition) -> dict:
    return {
        "d": int(dec.d),
        "d0": int(dec.d0),
        "factors": [[int(a), int(b)] for a, b in dec.factors],
        "u_alg": encode_cmatrix(dec.u_alg),
    }


def _decode_algebra(obj, tol: float, path: str) -> AtomicDecomposition:
    d = _int_field(obj, "d", path, minimum=1)
    d0 = _int_field(obj, "d0", path)
    factors = _list_field(obj, "factors", path)
    parsed = []
    for idx, f in enumerate(factors):
        if (
            not isinstance(f, list)
            or len(f) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in f)
        ):
            raise SchemaError(f"{path}.factors[{idx}]: expected a [dA, dB] pair of "
                              f"positive integers")
        parsed.append((f[0], f[1]))
    u_alg = _decode_cmatrix(_need(obj, "u_alg", path), f"{path}.u_alg")
    if u_alg.shape != (d, d):
        raise SchemaError(f"{path}.u_alg: expected shape {(d, d)}, got {u_alg.shape}")
    try:
        dec = AtomicDecomposition(d=d, u_alg=u_alg, d0=d0, factors=parsed)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    res = frob(dag(u_alg) @ u_alg - eye(d))
    if res > 100 * tol * max(1.0, math.sqrt(d)):
        raise InvariantError(f"{path}.u_alg: not unitary (‖U†U−1‖ = {res:.3e})")
    return dec


def _encode_cp_map(rec: CpMapRecord) -> dict:
    return {
        "d_in": int(rec.stine.d_in),
        "d_out": int(rec.stine.d_out),
        "d_env": int(rec.stine.d_env),
        "picture": rec.picture,
        "v": encode_cmatrix(rec.stine.v),
    }


def _decode_cp_map(obj, tol: float, path: str) -> CpMapRecord:
    d_in = _int_field(obj, "d_in", path, minimum=1)
    d_out = _int_field(obj, "d_out", path, minimum=1)
    d_env = _int_field(obj, "d_env", path)
    picture = _need(obj, "picture", path)
    if picture not in _PICTURES:
        raise SchemaError(f"{path}.picture: expected one of {_PICTURES}")
    v = _decode_cmatrix(_need(obj, "v", path), f"{path}.v")
    try:
        stine = StinespringRep(d_in=d_in, d_out=d_out, d_env=d_env, v=v)
    except ValueError as exc:
        raise SchemaError(f"{path}.v: {exc}") from exc
    return CpMapRecord(stine=stine, picture=picture)


def _encode_gkls(g: GKLSRep) -> dict:
    return {
        "d": int(g.d),
        "d_env": int(g.d_env),
        "v": encode_cmatrix(g.v),
        "k": encode_cmatrix(g.k),
    }


def _decode_gkls(obj, tol: float, path: str) -> GKLSRep:
    d = _int_field(obj, "d", path, minimum=1)
    d_env = _int_field(obj, "d_env", path)
    v = _decode_cmatrix(_need(obj, "v", path), f"{path}.v")
    k = _decode_cmatrix(_need(obj, "k", path), f"{path}.k")
    try:
        return GKLSRep(d=d, stine=StinespringRep(d, d, d_env, v), k=k)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _encode_normal_form(nf: AtomicNormalForm) -> dict:
    return {
        "dec": _encode_algebra(nf.dec),
        "d_env": int(nf.d_env),
        "v0": encode_cmatrix(nf.v0),
        "k0": encode_cmatrix(nf.k0),
        "k_a": [encode_cmatrix(m) for m in nf.k_a],
        "h_b": [encode_cmatrix(m) for m in nf.h_b],
        "b": [encode_cmatrix(m) for m in nf.b],
        "d_f": [[int(x) for x in row] for row in nf.d_f],
        "a": [[encode_cmatrix(m) for m in row] for row in nf.a],
        "u": [[encode_cmatrix(m) for m in row] for row in nf.u],
    }


def _decode_matrix_list(obj, key: str, path: str, n: int) -> list[np.ndarray]:
    raw = _list_field(obj, key, path, length=n)
    return [_decode_cmatrix(m, f"{path}.{key}[{i}]") for i, m in enumerate(raw)]


def _decode_matrix_table(obj, key: str, path: str, n: int) -> list[list[np.ndarray]]:
    raw = _list_field(obj, key, path, length=n)
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}.{key}[{i}]: expected a row of {n} entries")
        out.append([_decode_cmatrix(m, f"{path}.{key}[{i}][{j}]") for j, m in enumerate(row)])
    return out


def _decode_normal_form(obj, tol: float, path: str) -> AtomicNormalForm:
    dec = _decode_algebra(_need(obj, "dec", path), tol, f"{path}.dec")
    d_env = _int_field(obj, "d_env", path)
    n = len(dec.factors)
    v0 = _decode_cmatrix(_need(obj, "v0", path), f"{path}.v0")
    k0 = _decode_cmatrix(_need(obj, "k0", path), f"{path}.k0")
    k_a = _decode_matrix_list(obj, "k_a", path, n)
    h_b = _decode_matrix_list(obj, "h_b", path, n)
    b = _decode_matrix_list(obj, "b", path, n)
    d_f_raw = _list_field(obj, "d_f", path, length=n)
    d_f = []
    for i, row in enumerate(d_f_raw):
        if (
            not isinstance(row, list)
            or len(row) != n
            or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in row)
        ):
            raise SchemaError(f"{path}.d_f[{i}]: expected {n} non-negative integers")
        d_f.append(list(row))
    a = _decode_matrix_table(obj, "a", path, n)
    u = _decode_matrix_table(obj, "u", path, n)
    try:
        nf = AtomicNormalForm(
            dec=dec, v0=v0, k0=k0, k_a=k_a, h_b=h_b, b=b,
            d_f=d_f, a=a, u=u, d_env=d_env,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc

    # load-time invariants (self-adjointness, isometry, cross-orthogonality)
    for i, h in enumerate(nf.h_b):
        res = frob(h - dag(h))
        if res > 100 * tol * max(1.0, frob(h)):
            raise InvariantError(f"{path}.h_b[{i}]: not self-adjoint "
                                 f"(residual {res:.3e})")
    for i in range(n):
        for j in range(n):
            u_ij = nf.u[i][j]
            if not u_ij.size:
                continue
            res = frob(dag(u_ij) @ u_ij - eye(u_ij.shape[1]))
            if res > 100 * tol * max(1.0, math.sqrt(u_ij.shape[0])):
                raise InvariantError(f"{path}.u[{i}][{j}]: not an isometry "
                                     f"(residual {res:.3e})")
        for k in range(n):
            for l in range(k + 1, n):
                prod = dag(nf.u[i][k]) @ nf.u[i][l]
                if prod.size and frob(prod) > 100 * tol * max(1.0, math.sqrt(prod.shape[0])):
                    raise InvariantError(
                        f"{path}.u[{i}][{k}]/u[{i}][{l}]: ranges overlap "
                        f"(residual {frob(prod):.3e})"
                    )
    return nf


def _encode_ki(res: KoashiImotoResult) -> dict:
    return {
        "q": encode_cmatrix(res.q),
        "dec": _encode_algebra(res.dec),
        "v": [encode_cmatrix(m) for m in res.v],
        "sigma": [encode_cmatrix(m) for m in res.sigma],
        "report": res.report,
    }


def _decode_ki(obj, tol: float, path: str) -> KoashiImotoResult:
    dec = _decode_algebra(_need(obj, "dec", path), tol, f"{path}.dec")
    q = _decode_cmatrix(_need(obj, "q", path), f"{path}.q")
    if q.shape[0] != dec.d or q.shape[1] < q.shape[0]:
        raise SchemaError(f"{path}.q: expected shape ({dec.d}, ≥{dec.d}), "
                          f"got {q.shape}")
    n = len(dec.factors)
    v_raw = _list_field(obj, "v", path, length=n)
    s_raw = _list_field(obj, "sigma", path, length=n)
    v = [_decode_cmatrix(m, f"{path}.v[{i}]") for i, m in enumerate(v_raw)]
    sigma = [_decode_cmatrix(m, f"{path}.sigma[{i}]") for i, m in enumerate(s_raw)]
    report = obj.get("report", {})
    if not isinstance(report, dict):
        raise SchemaError(f"{path}.report: expected an object")

    res_q = frob(q @ dag(q) - eye(q.shape[0]))
    if res_q > 100 * tol * max(1.0, math.sqrt(q.shape[1])):
        raise InvariantError(f"{path}.q: not a coisometry (residual {res_q:.3e})")
    d_env = None
    for i, ((da, db), vi, si) in enumerate(zip(dec.factors, v, sigma)):
        if vi.shape[1] != db or vi.shape[0] % db:
            raise SchemaError(f"{path}.v[{i}]: expected shape (dB·dE, dB) with "
                              f"dB={db}, got {vi.shape}")
        e_i = vi.shape[0] // db
        if d_env is None:
            d_env = e_i
        elif e_i != d_env:
            raise SchemaError(f"{path}.v[{i}]: environment dimension {e_i} "
                              f"conflicts with {d_env}")
        res_v = frob(dag(vi) @ vi - eye(db))
        if res_v > 100 * tol * max(1.0, math.sqrt(vi.shape[0])):
            raise InvariantError(f"{path}.v[{i}]: not an isometry "
                                 f"(residual {res_v:.3e})")
        if si.shape != (db, db):
            raise SchemaError(f"{path}.sigma[{i}]: expected shape {(db, db)}, "
                              f"got {si.shape}")
        herm_res = frob(si - dag(si))
        tr = complex(np.trace(si))
        eig_min = float(np.linalg.eigvalsh(0.5 * (si + dag(si))).min()) if db else 0.0
        if herm_res > 100 * tol or abs(tr - 1.0) > 100 * tol or eig_min < -100 * tol:
            raise InvariantError(f"{path}.sigma[{i}]: not a density matrix "
                                 f"(herm {herm_res:.1e}, trace offset "
                                 f"{abs(tr - 1.0):.1e}, min eig {eig_min:.1e})")
    return KoashiImotoResult(q=q, dec=dec, v=v, sigma=sigma, report=dict(report))


_ENCODERS = {
    "algebra": _encode_algebra,
    "cp_map": _encode_cp_map,
    "gkls": _encode_gkls,
    "normal_form": _encode_normal_form,
    "koashi_imoto": _encode_ki,
}

_DECODERS = {
    "algebra": _decode_algebra,
    "cp_map": _decode_cp_map,
    "gkls": _decode_gkls,
    "normal_form": _decode_normal_form,
    "koashi_imoto": _decode_ki,
}


# ---------------------------------------------------------------------------
# bundle level
# ---------------------------------------------------------------------------

def bundle_to_dict(bundle: InstanceBundle) -> dict:
    if bundle.kind not in KINDS:
        raise ValueError(f"unknown bundle kind {bundle.kind!r}")
    return {
        "kind": bundle.kind,
        "payload": _ENCODERS[bundle.kind](bundle.payload),
        "meta": bundle.meta,
    }


def encode_bundle(bundle: InstanceBundle) -> str:
    """Canonical JSON text (sorted keys, fixed separators, trailing newline)."""
    return json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_bundle(bundle: InstanceBundle, path) -> None:
    Path(path).write_text(encode_bundle(bundle), encoding="utf-8")


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def decode_text(text: str) -> InstanceBundle:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected an object")
    kind = _need(obj, "kind", "top level")
    if kind not in KINDS:
        raise SchemaError(f"top level.kind: expected one of {KINDS}, got {kind!r}")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("top level.meta: expected an object")
    tol = meta.get("tol_verify", 1e-9)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or tol <= 0:
        raise SchemaError("top level.meta.tol_verify: expected a positive number")
    payload = _DECODERS[kind](_need(obj, "payload", "top level"), float(tol), "payload")
    return InstanceBundle(kind=kind, payload=payload, meta=dict(meta))


def decode(source) -> InstanceBundle:
    """Load a bundle from a path or a readable text stream."""
    if hasattr(source, "read"):
        return decode_text(source.read())
    return decode_text(Path(source).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# deterministic instance generation
# ---------------------------------------------------------------------------

def _check_cap(d: int):
    if d > _DIM_CAP:
        raise ValueError(f"total dimension {d} exceeds the desk-scale cap {_DIM_CAP}")
    if d < 1:
        raise ValueError("total dimension must be positive")


def _sample_decomposition(params: dict, rng: CounterRng, force_unital: bool = False) -> AtomicDecomposition:
    factors = params.get("factors")
    if factors is None:
        n = rng.integers(1, 4)
        factors = [(rng.integers(1, 4), rng.integers(1, 4)) for _ in range(n)]
    else:
        factors = [(int(a), int(b)) for a, b in factors]
        if any(a < 1 or b < 1 for a, b in factors):
            raise ValueError("factor dimensions must be positive")
    if force_unital:
        d0 = 0
    else:
        d0 = params.get("d0")
        d0 = rng.integers(0, 2) if d0 is None else int(d0)
    if d0 < 0:
        raise ValueError("d0 must be non-negative")
    d = d0 + sum(a * b for a, b in factors)
    _check_cap(d)
    return AtomicDecomposition(d=d, u_alg=rng.unitary(d), d0=d0, factors=factors)


def _feasible_row(i: int, d_f_row: list[int], factors: list[tuple[int, int]], e: int) -> None:
    db_i = factors[i][1]
    cols = sum(df * factors[j][1] for j, df in enumerate(d_f_row))
    if cols > db_i * e:
        raise ValueError(
            f"row {i}: Σ_j d_F[{i}][j]·d_B[j] = {cols} exceeds d_B[{i}]·d_env = "
            f"{db_i * e}; the row's joint isometry cannot exist"
        )


def _sample_d_f(dec: AtomicDecomposition, e: int, d_f_max: int, rng: CounterRng) -> list[list[int]]:
    rows = []
    for i, (_, db_i) in enumerate(dec.factors):
        cap = db_i * e
        row = []
        for j, (_, db_j) in enumerate(dec.factors):
            hi = min(d_f_max, cap // db_j)
            df = rng.integers(0, hi + 1) if hi > 0 else 0
            row.append(df)
            cap -= df * db_j
        rows.append(row)
    return rows


def _sample_normal_form(
    dec: AtomicDecomposition,
    e: int,
    d_f_max: int,
    rng: CounterRng,
    d_f: list[list[int]] | None = None,
    zero_dissipation: bool = False,
) -> AtomicNormalForm:
    n = len(dec.factors)
    if zero_dissipation:
        d_f = [[0] * n for _ in range(n)]
    elif d_f is None:
        d_f = _sample_d_f(dec, e, d_f_max, rng)
    else:
        d_f = [[int(x) for x in row] for row in d_f]
        if len(d_f) != n or any(len(row) != n for row in d_f):
            raise ValueError(f"d_f must be an {n}×{n} table")
    for i in range(n):
        _feasible_row(i, d_f[i], dec.factors, e)

    a: list[list[np.ndarray]] = []
    u: list[list[np.ndarray]] = []
    for i, (da_i, db_i) in enumerate(dec.factors):
        a.append([])
        u.append([])
        haar = rng.unitary(db_i * e)
        col = 0
        for j, (da_j, db_j) in enumerate(dec.factors):
            df = d_f[i][j]
            width = df * db_j
            u[i].append(haar[:, col : col + width])
            col += width
            block = rng.complex_matrix(da_i * df, da_j)
            a[i].append(block / math.sqrt(max(1, da_i * df)))
    b = []
    k_a = []
    h_b = []
    for i, (da_i, db_i) in enumerate(dec.factors):
        if zero_dissipation:
            b.append(np.zeros((db_i * e, db_i), dtype=np.complex128))
        else:
            b.append(rng.complex_matrix(db_i * e, db_i) / math.sqrt(max(1, db_i * e)))
        k_a.append(rng.complex_matrix(da_i, da_i) / math.sqrt(da_i))
        h_b.append(rng.hermitian(db_i) / math.sqrt(db_i))
    d0 = dec.d0
    if zero_dissipation:
        v0 = np.zeros((d0 * e, dec.d), dtype=np.complex128)
    else:
        v0 = rng.complex_matrix(d0 * e, dec.d) / math.sqrt(max(1, d0 * e))
    k0 = rng.complex_matrix(d0, dec.d) / math.sqrt(max(1, d0))
    nf = AtomicNormalForm(
        dec=dec, v0=v0, k0=k0, k_a=k_a, h_b=h_b, b=b,
        d_f=d_f, a=a, u=u, d_env=e,
    )
    # damp: K ↦ K + c·1 keeps the block structure (c goes into k_a and k0)
    # and puts the numerical range of L in the left half-plane, so the
    # finite-time maps e^{tL} contract instead of blowing up
    g0 = reconstruct_from_normal_form(nf)
    c = 0.5 * frob(g0.v) ** 2 + frob(g0.k)
    k_a = [m + c * eye(m.shape[0]) for m in nf.k_a]
    k0 = nf.k0 + c * dec.p_null()
    return AtomicNormalForm(
        dec=dec, v0=v0, k0=k0, k_a=k_a, h_b=h_b, b=b,
        d_f=d_f, a=a, u=u, d_env=e,
    )


def _meta(seed: int, params: dict, extra: dict | None = None) -> dict:
    meta = {
        "seed": int(seed),
        "tol_rank": 1e-9,
        "tol_verify": 1e-9,
        "params": params,
    }
    if extra:
        meta.update(extra)
    return meta


def random_instance(kind: str, params: dict | None = None, seed: int = 0) -> InstanceBundle:
    """Deterministically sample a bundle of the given kind.

    ``params`` may pin ``factors`` (list of (dA, dB)), ``d0``, ``d_env``,
    ``d_f_max`` or a full ``d_f`` table, and ``k_only`` for generators with a
    vanishing CP part.  Anything not pinned is drawn from the seed.  Explicit
    tables are validated for feasibility — a row whose multiplicity demand
    exceeds dB·d_env admits no joint isometry and is rejected.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = dict(params or {})
    rng = CounterRng(seed)
    used = dict(params)

    if kind == "algebra":
        dec = _sample_decomposition(params, rng.derive(1))
        return InstanceBundle("algebra", dec, _meta(seed, used))

    if kind == "normal_form" or kind == "gkls":
        dec = _sample_decomposition(params, rng.derive(1))
        e = int(params.get("d_env", rng.derive(2).integers(1, 4)))
        if e < 0 or e > 8:
            raise ValueError("d_env must lie in [0, 8]")
        d_f_max = int(params.get("d_f_max", 2))
        if d_f_max < 0 or d_f_max > 4:
            raise ValueError("d_f_max must lie in [0, 4]")
        nf = _sample_normal_form(
            dec, e, d_f_max, rng.derive(3),
            d_f=params.get("d_f"),
            zero_dissipation=bool(params.get("k_only", False)),
        )
        used.setdefault("d_env", e)
        used.setdefault("d_f_max", d_f_max)
        if kind == "normal_form":
            return InstanceBundle("normal_form", nf, _meta(seed, used))
        g = reconstruct_from_normal_form(nf)
        return InstanceBundle(
            "gkls", g, _meta(seed, used, {"algebra": _encode_algebra(dec)})
        )

    if kind == "cp_map":
        dec = _sample_decomposition(params, rng.derive(1))
        e = int(params.get("d_env", rng.derive(2).integers(1, 4)))
        if e < 0 or e > 8:
            raise ValueError("d_env must lie in [0, 8]")
        d_f_max = int(params.get("d_f_max", 2))
        nf = _sample_normal_form(dec, e, d_f_max, rng.derive(3),
                                 d_f=params.get("d_f"))
        bf = BlockFactorization(v0=nf.v0, d_f=nf.d_f, a=nf.a, u=nf.u, d_env=e)
        v = reassemble_factorization(bf, dec, dec)
        rec = CpMapRecord(
            stine=StinespringRep(d_in=dec.d, d_out=dec.d, d_env=e, v=v),
            picture="heisenberg",
        )
        used.setdefault("d_env", e)
        used.setdefault("d_f_max", d_f_max)
        return InstanceBundle(
            "cp_map", rec, _meta(seed, used, {"algebra": _encode_algebra(dec)})
        )

    # koashi_imoto: a trace-preserving channel with a planted block structure,
    # run through the decomposition pipeline so the payload is self-verified.
    dec = _sample_decomposition(params, rng.derive(1), force_unital=True)
    e = int(params.get("d_env", rng.derive(2).integers(1, 3)))
    if e < 1 or e > 8:
        raise ValueError("d_env must lie in [1, 8] for channels")
    draw = rng.derive(3)
    blocks = [draw.isometry(db * e, db) for (_, db) in dec.factors]
    d = dec.d
    slices = _lift(dec, blocks, _embed_a, e).reshape(d, e, d)
    ops = [slices[:, idx, :] for idx in range(e)]
    channel = KrausSet(d_in=d, d_out=d, ops=ops)
    result = koashi_imoto_decompose(channel, tol=1e-9, seed=seed)
    used.setdefault("d_env", e)
    chan_rec = CpMapRecord(stine=kraus_to_stinespring(channel), picture="schrodinger")
    return InstanceBundle(
        "koashi_imoto",
        result,
        _meta(seed, used, {"channel": _encode_cp_map(chan_rec)}),
    )
