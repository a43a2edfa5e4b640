"""The JSON schemas in ``igkls/schema`` are the one statement of the bundle
format, and ``igkls.io`` checks every decoded bundle against them.

The bundles ``encode_bundle`` writes meet the schemas.  Documents that break
them (a missing or unknown key, a wrong type, a bool, numeric string or
oversized integer in a CMatrix, short ``data``) raise ``SchemaError``, and the
CLI exits 2 on them with an ``error:`` line.  A hypothesis fuzz mutates
encoded bundles of every kind at the places the schemas describe and expects
only the three load errors, and exit 2 from ``cli.main`` under ``-W error``.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from igkls import InvariantError, ParseError, SchemaError, encode_bundle, random_instance
from igkls.cli import main
from igkls.io import KINDS, _read, _schema, decode_text

LOAD_ERRORS = (ParseError, SchemaError, InvariantError)


def _bundle_doc(kind: str) -> dict:
    return json.loads(encode_bundle(random_instance(kind, seed=1)))


def _sites(doc, schema: dict, path: tuple = ()):
    """(path, schema) of doc and of every node below it that schema describes."""
    if "$ref" in schema:
        schema = _schema(schema["$ref"])
    yield path, schema
    if isinstance(doc, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                yield from _sites(doc[key], sub, path + (key,))
    elif isinstance(doc, list):
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(doc):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                yield from _sites(item, sub, path + (i,))


def _payload_sites(doc: dict) -> list[tuple[tuple, dict]]:
    return list(_sites(doc["payload"], _schema(f"{doc['kind']}.schema.json"), ("payload",)))


def _node(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _first_cmatrix(doc: dict) -> dict:
    """The first CMatrix of the payload that has entries."""
    cmatrix = _schema("cmatrix.schema.json")
    return next(_node(doc, path) for path, schema in _payload_sites(doc)
                if schema is cmatrix and _node(doc, path)["data"])


def _exit_code(tmp_dir, doc_text: str) -> tuple[int, str]:
    """cli.main on the document, with warnings raised as errors: (code, stderr)."""
    path = tmp_dir / "doc.json"
    path.write_text(doc_text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["algebra-decompose", "--in", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("kind", KINDS)
def test_every_encoded_bundle_meets_its_schema(kind):
    doc = _bundle_doc(kind)
    assert doc["kind"] == kind
    _read(doc, _schema("bundle.schema.json"), "$")  # raises SchemaError on a breach
    decode_text(json.dumps(doc))


@pytest.mark.parametrize("kind", KINDS)
def test_the_schema_check_rejects_a_missing_and_an_extra_key(kind):
    bundle = _schema("bundle.schema.json")
    payload = _schema(f"{kind}.schema.json")
    doc = _bundle_doc(kind)
    del doc["payload"][payload["required"][0]]
    with pytest.raises(SchemaError):
        _read(doc, bundle, "$")
    doc = _bundle_doc(kind)
    doc["payload"]["unexpected"] = 1
    with pytest.raises(SchemaError):
        _read(doc, bundle, "$")
    doc = _bundle_doc(kind)
    doc["kind"] = "gkls" if kind != "gkls" else "algebra"  # the payload of another kind
    with pytest.raises(SchemaError):
        _read(doc, bundle, "$")


def _missing_key(doc):
    del doc["payload"][_schema(f"{doc['kind']}.schema.json")["required"][0]]


def _wrong_type(doc):
    doc["payload"][_schema(f"{doc['kind']}.schema.json")["required"][0]] = "1"


def _entry(value):
    def mutate(doc):
        _first_cmatrix(doc)["data"][0][0] = value
    return mutate


def _short_data(doc):
    _first_cmatrix(doc)["data"].pop()


INVALID = {
    "missing_key": _missing_key,
    "extra_top_level_key": lambda doc: doc.update(extra=1),
    "extra_payload_key": lambda doc: doc["payload"].update(extra=1),
    "extra_cmatrix_key": lambda doc: _first_cmatrix(doc).update(extra=1),
    "non_integer_seed": lambda doc: doc["meta"].update(seed=1.5),
    "wrong_type": _wrong_type,
    "bool_entry": _entry(True),
    "numeric_string_entry": _entry("1.5"),
    "oversized_entry": _entry(10**400),
    "oversized_tol_verify": lambda doc: doc["meta"].update(tol_verify=10**400),
    "short_data": _short_data,
}


@pytest.mark.parametrize("mutation", INVALID)
@pytest.mark.parametrize("kind", KINDS)
def test_a_document_that_breaks_the_schema_exits_2(kind, mutation, tmp_path):
    doc = _bundle_doc(kind)
    INVALID[mutation](doc)
    text = json.dumps(doc)
    with pytest.raises(SchemaError):
        decode_text(text)
    code, err = _exit_code(tmp_path, text)
    assert code == 2
    assert err.startswith("error: SchemaError") and "Traceback" not in err


DOCS = {kind: _bundle_doc(kind) for kind in KINDS}
SWAPS = (True, "1.5", 10**400, None, [[[]]])  # none is valid where a value was


def _mutations(doc: dict) -> dict[str, list[tuple[tuple, object]]]:
    """Every (path, argument) of each operation that makes doc break its schemas."""
    sites = [((), _schema("bundle.schema.json")), (("kind",), {}), (("meta",), {}),
             (("meta", "tol_verify"), {})] + _payload_sites(doc)
    cmatrix = _schema("cmatrix.schema.json")
    out = {"drop": [], "add": [], "cut": [], "swap": []}
    for path, schema in sites:
        node = _node(doc, path)
        if isinstance(node, dict):
            out["drop"] += [(path, key) for key in schema.get("required", ())]
            if schema.get("additionalProperties") is False:
                out["add"].append((path, "unknown"))
        if schema is cmatrix and node["data"]:
            out["cut"].append((path, None))
        if path:
            out["swap"] += [(path, value) for value in SWAPS]
    return out


MUTATIONS = {kind: _mutations(doc) for kind, doc in DOCS.items()}


def _mutated(kind: str, op: str, index: int) -> str:
    doc = json.loads(json.dumps(DOCS[kind]))
    path, arg = MUTATIONS[kind][op][index % len(MUTATIONS[kind][op])]
    if op == "swap":
        _node(doc, path[:-1])[path[-1]] = arg
    else:
        node = _node(doc, path)
        if op == "drop":
            del node[arg]
        elif op == "add":
            node[arg] = 1
        else:
            node["data"].pop()
    return json.dumps(doc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), op=st.sampled_from(("drop", "add", "cut", "swap")),
       index=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_bundles_raise_load_errors_and_exit_2(tmp_path_factory, kind, op, index):
    text = _mutated(kind, op, index)
    with pytest.raises(LOAD_ERRORS):
        decode_text(text)
    code, err = _exit_code(tmp_path_factory.getbasetemp(), text)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err, err
