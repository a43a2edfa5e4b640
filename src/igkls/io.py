"""JSON codecs, load-time validation, and deterministic instance generation.

Wire format
-----------
The JSON schemas in ``igkls/schema/`` are the one statement of the format:
``bundle.schema.json`` for ``{"kind", "payload", "meta"}``, one schema per
payload kind (``KINDS``) and ``cmatrix.schema.json`` for a complex matrix,
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` in row-major order.
Encoding and decoding walk the same schemas.  :func:`bundle_to_dict` writes
a payload from its kind's schema: each property from the payload's attribute
of that name, each CMatrix reference by :func:`encode_cmatrix`, so a field is
stated once, in its schema and its dataclass.  :func:`decode_text` reads a
bundle in one walk of ``bundle.schema.json``, whose ``kind`` selects the
one payload schema the payload is read against (:func:`_read`):

1. the walk checks each value against its schema and converts it, each
   CMatrix with one numpy call that checks its entries (``rows·cols`` pairs
   of finite doubles) in bulk; :class:`SchemaError` names the path of the
   first breach;
2. each record's decoder then checks what a schema cannot state: shapes
   across fields (:class:`SchemaError`) and the numeric load-time
   invariants at ``meta.tol_verify``, such as a unitary ``u_alg``
   (:class:`InvariantError`).

The meta records are stated once, in ``_META_RECORDS``: ``meta.algebra`` holds
an algebra record, ``meta.channel`` a cp_map record and ``meta.observable`` a
CMatrix, each under its entry in ``bundle.schema.json``.  The load check
reads all three in its one walk and builds the first two.  The decoded
bundle keeps ``meta`` as JSON: :func:`read_meta` builds a record from it at
a given tolerance, and :func:`write_meta` writes records into it.  A
:class:`CpMapRecord` gives its map in the Heisenberg and the Schrödinger
picture.

Malformed JSON raises :class:`ParseError` with its position.  The invariant
checks are written ``not residual <= limit``, so finite entries whose
products overflow to a NaN residual are rejected too, with warnings off
(``np.errstate``): the overflow is the failed check, not a ``RuntimeWarning``
(an error under ``-W error``).

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

import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AtomicDecomposition, _embed_a, _lift
from .errors import (TOL_RANK, TOL_VERIFY, InvariantError, ParseError, SchemaError,
                     _isometry_limit, limit, verify)
from .linalg import _isometry_defect, _linear_scale, dag, eye, frob
from .rng import CounterRng

# cpmaps, gkls and applications are imported by the codecs and samplers of
# the kinds that use them, so that a command loads only the layers it runs
if TYPE_CHECKING:
    from .applications import KoashiImotoResult
    from .cpmaps import KrausSet, StinespringRep
    from .gkls import AtomicNormalForm, GKLSRep

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
    "read_meta",
    "write_meta",
    "random_instance",
]

KINDS = ("algebra", "cp_map", "gkls", "normal_form", "koashi_imoto")

_DIM_CAP = 32  # desk-scale cap on the total system dimension


@dataclass
class CpMapRecord:
    """A Stinespring matrix plus the picture its Kraus slices live in.  Its
    ``d_in``, ``d_out``, ``d_env`` and ``v`` are the matrix's, as in the cp_map
    schema; :meth:`heisenberg_stine` and :meth:`schrodinger_kraus` give the
    map in either picture, adjointing the Kraus operators where it differs."""

    stine: StinespringRep
    picture: str = "heisenberg"

    d_in = property(lambda self: self.stine.d_in)
    d_out = property(lambda self: self.stine.d_out)
    d_env = property(lambda self: self.stine.d_env)
    v = property(lambda self: self.stine.v)

    def heisenberg_stine(self) -> StinespringRep:
        """The map's Stinespring matrix in the Heisenberg picture."""
        from .cpmaps import kraus_to_stinespring, stinespring_to_kraus

        if self.picture == "heisenberg":
            return self.stine
        return kraus_to_stinespring(kraus_picture_adjoint(stinespring_to_kraus(self.stine)))

    def schrodinger_kraus(self) -> KrausSet:
        """The map's Kraus operators in the Schrödinger picture."""
        from .cpmaps import stinespring_to_kraus

        ks = stinespring_to_kraus(self.stine)
        return ks if self.picture == "schrodinger" else kraus_picture_adjoint(ks)


@dataclass
class InstanceBundle:
    kind: str
    payload: object
    meta: dict = field(default_factory=dict)


def kraus_picture_adjoint(k: KrausSet) -> KrausSet:
    """Swap Heisenberg ↔ Schrödinger by adjointing every operator."""
    from .cpmaps import KrausSet

    return KrausSet(d_in=k.d_out, d_out=k.d_in, ops=[dag(op) for op in k.ops])


# ---------------------------------------------------------------------------
# the format: the JSON schemas in schema/, read by _read
# ---------------------------------------------------------------------------

_SCHEMA_DIR = Path(__file__).with_name("schema")
_MAX = sys.float_info.max

# a JSON value of each schema type; a "number" is a finite double, which
# rules out 10**400 as well as true
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and -_MAX <= v <= _MAX,
}


def _brief(v) -> str:
    r = repr(v)
    return r if len(r) <= 40 else r[:36] + " ..."


@functools.cache
def _schema(name: str) -> dict:
    return json.loads((_SCHEMA_DIR / name).read_text(encoding="utf-8"))


def _read(doc, schema: dict, path: str):
    """``doc`` checked against ``schema`` and converted, in one walk: each
    ``$ref`` to ``cmatrix.schema.json`` becomes an array by
    :func:`_decode_cmatrix`, an object is read key by key and an array item
    by item; anything else is returned as is.  The first breach raises
    :class:`SchemaError` as ``"path: what"``.

    Stdlib only, for the keywords the bundle schemas use: ``$ref``, ``type``,
    ``enum``, ``const``, ``minimum``, ``exclusiveMinimum``, ``required``,
    ``properties``, ``additionalProperties: false``, ``items``,
    ``prefixItems``, ``minItems``, ``maxItems`` and ``allOf`` with
    ``if``/``then``.  An array whose schema names no items is not walked,
    nor are the [re, im] entries of a CMatrix: :func:`_decode_cmatrix`
    checks them in one numpy conversion.
    """
    if "$ref" in schema:
        value = _read(doc, _schema(schema["$ref"]), path)
        return _decode_cmatrix(value, path) if schema["$ref"] == "cmatrix.schema.json" else value
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](doc):
        raise SchemaError(f"{path}: expected {kind}, got {_brief(doc)}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(f"{path}: expected one of {schema['enum']}, got {_brief(doc)}")
    if "const" in schema and doc != schema["const"]:
        raise SchemaError(f"{path}: expected {schema['const']!r}")
    if type(doc) in (int, float):
        if "minimum" in schema and doc < schema["minimum"]:
            raise SchemaError(f"{path}: must be ≥ {schema['minimum']}, got {_brief(doc)}")
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            raise SchemaError(f"{path}: must be > {schema['exclusiveMinimum']}, "
                              f"got {_brief(doc)}")
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(f"{path}.{key}: missing required key")
        if schema.get("additionalProperties") is False:
            for key in doc:
                if key not in props:
                    raise SchemaError(f"{path}.{key[:40]}: unknown key")
        if props:
            doc = {**doc, **{key: _read(doc[key], sub, f"{path}.{key}")
                             for key, sub in props.items() if key in doc}}
    elif isinstance(doc, list):
        if not schema.get("minItems", 0) <= len(doc) <= schema.get("maxItems", len(doc)):
            raise SchemaError(f"{path}: {len(doc)} items")
        prefix = schema.get("prefixItems", ())
        rest = schema.get("items")
        if rest is _schema("cmatrix.schema.json")["properties"]["data"]["items"]:
            rest = None  # converted by _decode_cmatrix
        if prefix or rest:
            doc = [_read(item, prefix[i] if i < len(prefix) else rest or {}, f"{path}[{i}]")
                   for i, item in enumerate(doc)]
    for clause in schema.get("allOf", ()):
        try:
            _read(doc, clause["if"], path)
        except SchemaError:
            continue
        doc = _read(doc, clause["then"], path)
    return doc


def encode_cmatrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("CMatrix encoding needs a 2-d array")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.view(np.float64).reshape(-1, 2).tolist(),
    }


def _dump(value, schema: dict):
    """``value`` written as the JSON that ``schema`` describes: a CMatrix
    reference by :func:`encode_cmatrix`, an object with ``properties`` from
    the attributes of those names, an array item by item, an integer as an
    int; anything else (a free-form ``report``, the ``picture`` tag) as is."""
    if "$ref" in schema:
        if schema["$ref"] == "cmatrix.schema.json":
            return encode_cmatrix(value)
        return _dump(value, _schema(schema["$ref"]))
    kind = schema.get("type")
    if kind == "object" and "properties" in schema:
        return {key: _dump(getattr(value, key), sub) for key, sub in schema["properties"].items()}
    if kind == "array":
        prefix = schema.get("prefixItems", ())
        return [_dump(item, prefix[i] if i < len(prefix) else schema.get("items", {}))
                for i, item in enumerate(value)]
    if kind == "integer":
        return int(value)
    return value


def _decode_cmatrix(obj: dict, path: str) -> np.ndarray:
    """A schema-checked CMatrix as an array, from one numpy conversion of
    its entries: rows·cols [re, im] pairs of finite doubles."""
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if len(data) != rows * cols:
        raise SchemaError(f"{path}.data: expected rows·cols = {rows * cols} entries, "
                          f"got {len(data)}")
    try:
        # the type test first: np.array turns true into 1.0 and "1.5" into 1.5
        if set(map(type, chain.from_iterable(data))) <= {int, float}:
            m = np.array(data, dtype=float).reshape(rows, 2 * cols)
            if np.isfinite(m).all():
                return m.view(np.complex128)
    except (TypeError, ValueError, OverflowError):  # not pairs, or an int past the doubles
        pass
    raise SchemaError(f"{path}.data: expected [re, im] pairs of finite numbers")


# ---------------------------------------------------------------------------
# record decoders: each builds its record from the fields _read converted and
# checks what a schema cannot state, shapes across fields and the load-time
# invariants at tol
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def _decode_algebra(obj: dict, tol: float, path: str) -> AtomicDecomposition:
    dec = AtomicDecomposition(d=obj["d"], u_alg=obj["u_alg"], d0=obj["d0"], factors=obj["factors"])
    res = _isometry_defect(dec.u_alg)
    if not res <= _isometry_limit(tol, dec.d):
        raise InvariantError(f"{path}.u_alg: not unitary (‖U†U−1‖ = {res:.3e})")
    return dec


def _decode_cp_map(obj: dict, tol: float, path: str) -> CpMapRecord:
    from .cpmaps import StinespringRep

    return CpMapRecord(stine=StinespringRep(d_in=obj["d_in"], d_out=obj["d_out"],
                                            d_env=obj["d_env"], v=obj["v"]),
                       picture=obj["picture"])


def _decode_gkls(obj: dict, tol: float, path: str) -> GKLSRep:
    from .cpmaps import StinespringRep
    from .gkls import GKLSRep

    d = obj["d"]
    return GKLSRep(d=d, stine=StinespringRep(d, d, obj["d_env"], obj["v"]), k=obj["k"])


@np.errstate(all="ignore")
def _decode_normal_form(obj: dict, tol: float, path: str) -> AtomicNormalForm:
    from .cpmaps import BlockFactorization, orthogonality_check
    from .gkls import AtomicNormalForm

    dec = _build("algebra", obj["dec"], tol, f"{path}.dec")
    d_env = obj["d_env"]
    # checks each list and table against the factor count, and every shape
    nf = AtomicNormalForm(**{**obj, "dec": dec})

    # load-time invariants: self-adjoint H_{B_i}, and u_ik†u_il = δ_kl·1 along each row
    for i, h in enumerate(nf.h_b):
        res = frob(h - dag(h))
        if not res <= limit(tol, _linear_scale(h), 100):
            raise InvariantError(f"{path}.h_b[{i}]: not self-adjoint "
                                 f"(residual {res:.3e})")
    rows = max((db * d_env for _, db in dec.factors), default=0)
    ortho = orthogonality_check(BlockFactorization(nf.v0, nf.d_f, nf.a, nf.u, d_env),
                                _isometry_limit(tol, rows))
    if not ortho.passed:
        i, k, l = ortho.worst_triple
        raise InvariantError(f"{path}.u[{i}][{k}]/u[{i}][{l}]: not orthonormal isometries "
                             f"(residual {ortho.max_residual:.3e})")
    return nf


@np.errstate(all="ignore")
def _decode_ki(obj: dict, tol: float, path: str) -> KoashiImotoResult:
    from .applications import KoashiImotoResult

    dec = _build("algebra", obj["dec"], tol, f"{path}.dec")
    q, v, sigma = obj["q"], obj["v"], obj["sigma"]
    if q.shape[0] != dec.d or q.shape[1] < q.shape[0]:
        raise SchemaError(f"{path}.q: expected shape ({dec.d}, ≥{dec.d}), "
                          f"got {q.shape}")
    if not len(v) == len(sigma) == len(dec.factors):
        raise SchemaError(f"{path}: v and sigma need {len(dec.factors)} entries, one per "
                          f"factor, got {len(v)} and {len(sigma)}")
    bound = limit(tol, factor=100)

    res_q = frob(q @ dag(q) - eye(q.shape[0]))
    if not res_q <= _isometry_limit(tol, q.shape[1]):
        raise InvariantError(f"{path}.q: not a coisometry (residual {res_q:.3e})")
    d_env = v[0].shape[0] // dec.factors[0][1] if v else 0  # one dE for every factor
    for i, ((da, db), vi, si) in enumerate(zip(dec.factors, v, sigma)):
        if vi.shape != (db * d_env, db):
            raise SchemaError(f"{path}.v[{i}]: expected shape (dB·dE, dB) = "
                              f"{(db * d_env, db)}, got {vi.shape}")
        res_v = _isometry_defect(vi)
        if not res_v <= _isometry_limit(tol, vi.shape[0]):
            raise InvariantError(f"{path}.v[{i}]: not an isometry "
                                 f"(residual {res_v:.3e})")
        if si.shape != (db, db):
            raise SchemaError(f"{path}.sigma[{i}]: expected shape {(db, db)}, "
                              f"got {si.shape}")
        herm_res = frob(si - dag(si))
        tr = complex(np.trace(si))
        eig_min = float(np.linalg.eigvalsh(0.5 * (si + dag(si))).min()) if db else 0.0
        if not (herm_res <= bound and abs(tr - 1.0) <= bound and eig_min >= -bound):
            raise InvariantError(f"{path}.sigma[{i}]: not a density matrix "
                                 f"(herm {herm_res:.1e}, trace offset "
                                 f"{abs(tr - 1.0):.1e}, min eig {eig_min:.1e})")
    return KoashiImotoResult(q=q, dec=dec, v=v, sigma=sigma, report=dict(obj.get("report", {})))


_DECODERS = {
    "algebra": _decode_algebra,
    "cp_map": _decode_cp_map,
    "gkls": _decode_gkls,
    "normal_form": _decode_normal_form,
    "koashi_imoto": _decode_ki,
}


def _build(kind: str, obj: dict, tol: float, path: str):
    """The record of ``kind`` at ``path`` from the fields :func:`_read`
    returned, by its decoder.  A constructor's ``ValueError`` (a shape across
    fields) becomes :class:`SchemaError` here."""
    try:
        return _DECODERS[kind](obj, tol, path)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# bundle level
# ---------------------------------------------------------------------------

# the meta records by key, each under its entry in bundle.schema.json: the
# kind whose decoder builds it, or None for a CMatrix, which is kept as read
_META_RECORDS = {"algebra": "algebra", "channel": "cp_map", "observable": None}


def _meta_entry(key: str) -> dict:
    return _schema("bundle.schema.json")["properties"]["meta"]["properties"][key]


def read_meta(meta: dict, key: str, tol: float = TOL_VERIFY):
    """The record ``meta[key]`` holds, read against its schema entry and
    built at ``tol``, or None if there is none.  A breach raises
    :class:`SchemaError` or :class:`InvariantError` naming ``meta.key``."""
    if meta.get(key) is None:
        return None
    value = _read(meta[key], _meta_entry(key), f"meta.{key}")
    kind = _META_RECORDS[key]
    return value if kind is None else _build(kind, value, tol, f"meta.{key}")


def write_meta(**records) -> dict:
    """The meta JSON of records by key, e.g. ``write_meta(algebra=dec)``."""
    return {key: _dump(record, _meta_entry(key)) for key, record in records.items()}


def bundle_to_dict(bundle: InstanceBundle) -> dict:
    if bundle.kind not in KINDS:
        raise ValueError(f"unknown bundle kind {bundle.kind!r}")
    return {
        "kind": bundle.kind,
        "payload": _dump(bundle.payload, _schema(f"{bundle.kind}.schema.json")),
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
    except (ValueError, RecursionError) as exc:  # past the int digit or nesting limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    doc = _read(obj, _schema("bundle.schema.json"), "$")
    meta = doc.get("meta", {})
    tol = float(meta.get("tol_verify", TOL_VERIFY))
    payload = _build(doc["kind"], doc["payload"], tol, "$.payload")
    for key, kind in _META_RECORDS.items():
        if kind and key in meta:  # checked, and then kept as JSON
            _build(kind, meta[key], tol, f"$.meta.{key}")
    return InstanceBundle(kind=doc["kind"], payload=payload, meta=dict(obj.get("meta", {})))


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


def _int_param(params: dict, key: str, default: int, lo: int, hi: float = math.inf) -> int:
    """``params[key]`` if pinned, else ``default``.  A pinned value must be a
    JSON integer in [lo, hi]: 1.5, "1" and true are rejected, not coerced."""
    if key not in params:
        return default
    v = params[key]
    if not _TYPES["integer"](v):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    if not lo <= v <= hi:
        raise ValueError(f"{key} must lie in [{lo}, {hi}], got {v}")
    return v


def _int_table(rows, what: str, lo: int) -> list[list[int]]:
    """A list of lists of JSON integers ≥ lo, else ValueError."""
    if not isinstance(rows, (list, tuple)) or any(
            not isinstance(row, (list, tuple)) or any(not _TYPES["integer"](x) or x < lo for x in row)
            for row in rows):
        raise ValueError(f"{what} must be a list of rows of integers ≥ {lo}, got {rows!r}")
    return [list(row) for row in rows]


def _sample_decomposition(params: dict, rng: CounterRng, force_unital: bool = False) -> AtomicDecomposition:
    if "factors" in params:
        factors = [tuple(f) for f in _int_table(params["factors"], "factors", 1)]
        if any(len(f) != 2 for f in factors):
            raise ValueError("factors must be [dA, dB] pairs")
    else:
        n = rng.integers(1, 4)
        factors = [(rng.integers(1, 4), rng.integers(1, 4)) for _ in range(n)]
    if force_unital:
        d0 = 0
    else:  # drawn only when unpinned, or the unitary's draws would shift
        d0 = _int_param(params, "d0", 0, 0) if "d0" in params else rng.integers(0, 2)
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
    from .gkls import AtomicNormalForm, reconstruct_from_normal_form

    n = len(dec.factors)
    if zero_dissipation:
        d_f = [[0] * n for _ in range(n)]
    elif d_f is None:
        d_f = _sample_d_f(dec, e, d_f_max, rng)
    else:
        d_f = _int_table(d_f, "d_f", 0)
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
    return replace(nf, k_a=[m + c * eye(m.shape[0]) for m in nf.k_a], k0=nf.k0 + c * dec.p_null())


def _meta(seed: int, params: dict, **records) -> dict:
    return {"seed": int(seed), "tol_rank": TOL_RANK, "tol_verify": TOL_VERIFY,
            "params": params, **write_meta(**records)}


def random_instance(kind: str, params: dict | None = None, seed: int = 0) -> InstanceBundle:
    """Deterministically sample a bundle of the given kind.

    ``params`` may pin ``factors`` (list of (dA, dB)), ``d0``, ``d_env``,
    ``d_f_max`` or a full ``d_f`` table, and ``k_only`` for generators with a
    vanishing CP part.  Anything not pinned is drawn from the seed.  Pinned
    dimensions must be integers and ``k_only`` a boolean, as in JSON: a float,
    string or bool raises ``ValueError`` instead of being coerced, so
    ``meta.params`` records what the payload was built from.  Explicit
    tables are validated for feasibility — a row whose multiplicity demand
    exceeds dB·d_env admits no joint isometry and is rejected.

    The bundle's advertised invariants are verified at ``TOL_VERIFY``, the
    ``meta.tol_verify`` it records: ``u_alg_unitary`` for an algebra, the
    ``form_*`` residuals of :func:`~igkls.gkls.normal_form_residuals` for a
    normal form (both raising :class:`InvariantError`), the invariance of
    the algebra under a generator or map, and the Koashi–Imoto pipeline's
    own checks.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = dict(params or {})
    rng = CounterRng(seed)
    used = dict(params)

    if kind == "algebra":
        dec = _sample_decomposition(params, rng.derive(1))
        verify("u_alg_unitary", _isometry_defect(dec.u_alg), limit(TOL_VERIFY, factor=100),
               InvariantError, "sampled u_alg is not unitary")
        return InstanceBundle("algebra", dec, _meta(seed, used))

    if kind == "normal_form" or kind == "gkls":
        dec = _sample_decomposition(params, rng.derive(1))
        e = _int_param(params, "d_env", rng.derive(2).integers(1, 4), 0, 8)
        d_f_max = _int_param(params, "d_f_max", 2, 0, 4)
        k_only = params.get("k_only", False)
        if not isinstance(k_only, bool):
            raise ValueError(f"k_only must be true or false, got {k_only!r}")
        nf = _sample_normal_form(
            dec, e, d_f_max, rng.derive(3),
            d_f=params.get("d_f"),
            zero_dissipation=k_only,
        )
        used.setdefault("d_env", e)
        used.setdefault("d_f_max", d_f_max)
        if kind == "normal_form":
            from .gkls import normal_form_residuals

            for name, value in normal_form_residuals(nf).items():
                verify(f"form_{name}", value, limit(TOL_VERIFY, factor=100), InvariantError,
                       f"sampled normal form breaks {name}")
            return InstanceBundle("normal_form", nf, _meta(seed, used))
        from .gkls import _generator_invariance, reconstruct_from_normal_form

        g = reconstruct_from_normal_form(nf)
        _generator_invariance(g, dec, TOL_VERIFY)
        return InstanceBundle("gkls", g, _meta(seed, used, algebra=dec))

    if kind == "cp_map":
        from .cpmaps import (BlockFactorization, StinespringRep, _cp_invariance,
                             reassemble_factorization)

        dec = _sample_decomposition(params, rng.derive(1))
        e = _int_param(params, "d_env", rng.derive(2).integers(1, 4), 0, 8)
        d_f_max = _int_param(params, "d_f_max", 2, 0, 4)
        nf = _sample_normal_form(dec, e, d_f_max, rng.derive(3),
                                 d_f=params.get("d_f"))
        bf = BlockFactorization(v0=nf.v0, d_f=nf.d_f, a=nf.a, u=nf.u, d_env=e)
        v = reassemble_factorization(bf, dec, dec)
        rec = CpMapRecord(
            stine=StinespringRep(d_in=dec.d, d_out=dec.d, d_env=e, v=v),
            picture="heisenberg",
        )
        _cp_invariance(rec.stine, dec, dec, TOL_VERIFY)
        used.setdefault("d_env", e)
        used.setdefault("d_f_max", d_f_max)
        return InstanceBundle("cp_map", rec, _meta(seed, used, algebra=dec))

    # koashi_imoto: a trace-preserving channel with a planted block structure,
    # run through the decomposition pipeline so the payload is self-verified.
    from .applications import koashi_imoto_decompose
    from .cpmaps import KrausSet, kraus_to_stinespring

    dec = _sample_decomposition(params, rng.derive(1), force_unital=True)
    e = _int_param(params, "d_env", rng.derive(2).integers(1, 3), 1, 8)
    draw = rng.derive(3)
    blocks = [draw.isometry(db * e, db) for (_, db) in dec.factors]
    d = dec.d
    slices = _lift(dec, blocks, _embed_a, e).reshape(d, e, d)
    ops = [slices[:, idx, :] for idx in range(e)]
    channel = KrausSet(d_in=d, d_out=d, ops=ops)
    result = koashi_imoto_decompose(channel, tol=TOL_VERIFY, seed=seed)
    used.setdefault("d_env", e)
    chan_rec = CpMapRecord(stine=kraus_to_stinespring(channel), picture="schrodinger")
    return InstanceBundle("koashi_imoto", result, _meta(seed, used, channel=chan_rec))
