"""The bundles ``encode_bundle`` writes meet the JSON schemas in
``docs/schema``: every ``required`` key is present, no key outside
``properties`` appears where ``additionalProperties`` is false, and every
value has its declared ``type``, ``enum``/``const`` and item count.  The
validator below is stdlib only and covers just the keywords those schemas
use (``$ref``, ``properties``, ``items``, ``prefixItems``, ``oneOf`` and
``allOf`` with ``if``/``then``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from igkls import encode_bundle, random_instance
from igkls.io import KINDS

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schema"

_TYPES = {"object": dict, "array": list, "integer": int, "number": (int, float), "string": str}


def _schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def _violations(doc, schema: dict, path: str = "$") -> list[str]:
    """Every breach of the schema's keywords in doc, as readable strings."""
    if "$ref" in schema:
        return _violations(doc, _schema(schema["$ref"]), path)
    kind = schema.get("type")
    if kind and (not isinstance(doc, _TYPES[kind]) or isinstance(doc, bool)):
        return [f"{path}: expected {kind}"]
    out = []
    if "enum" in schema and doc not in schema["enum"]:
        out.append(f"{path}: {doc!r} not in {schema['enum']}")
    if "const" in schema and doc != schema["const"]:
        out.append(f"{path}: {doc!r} is not {schema['const']!r}")
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        out += [f"{path}: missing {key!r}" for key in schema.get("required", []) if key not in doc]
        if schema.get("additionalProperties") is False:
            out += [f"{path}: unexpected {key!r}" for key in doc if key not in props]
        for key, sub in props.items():
            if key in doc:
                out += _violations(doc[key], sub, f"{path}.{key}")
    if isinstance(doc, list):
        if not schema.get("minItems", 0) <= len(doc) <= schema.get("maxItems", len(doc)):
            out.append(f"{path}: {len(doc)} items")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(doc):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                out += _violations(item, sub, f"{path}[{i}]")
    if "oneOf" in schema:
        matches = sum(not _violations(doc, sub, path) for sub in schema["oneOf"])
        if matches != 1:
            out.append(f"{path}: matches {matches} of oneOf")
    for clause in schema.get("allOf", []):
        if not _violations(doc, clause["if"], path):
            out += _violations(doc, clause["then"], path)
    return out


def _bundle_doc(kind: str) -> dict:
    return json.loads(encode_bundle(random_instance(kind, seed=1)))


@pytest.mark.parametrize("kind", KINDS)
def test_every_encoded_bundle_meets_its_schema(kind):
    doc = _bundle_doc(kind)
    assert doc["kind"] == kind
    assert _violations(doc, _schema("bundle.schema.json")) == []


@pytest.mark.parametrize("kind", KINDS)
def test_the_schema_check_rejects_a_missing_and_an_extra_key(kind):
    bundle = _schema("bundle.schema.json")
    payload = _schema(f"{kind}.schema.json")
    doc = _bundle_doc(kind)
    del doc["payload"][payload["required"][0]]
    assert _violations(doc, bundle) != []
    doc = _bundle_doc(kind)
    doc["payload"]["unexpected"] = 1
    assert _violations(doc, bundle) != []
    doc = _bundle_doc(kind)
    doc["kind"] = "gkls" if kind != "gkls" else "algebra"  # the payload of another kind
    assert _violations(doc, bundle) != []
