"""The JSON schemas of docs/schemas, loaded together.

A command schema reaches the types it shares with other outputs by a
relative $ref into another file (family.json, deg2-data.json,
verify.json), so a validator needs every file: `load` registers each
schema under its $id, and `validator` returns a Draft 2020-12 validator
that resolves those $refs through that registry."""

import functools
import json
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@functools.cache
def load():
    """({file stem: schema}, registry) for the files of SCHEMA_DIR, the
    registry holding each schema under its $id."""
    schemas = {p.stem: json.loads(p.read_text()) for p in sorted(SCHEMA_DIR.glob("*.json"))}
    registry = Registry().with_resources(
        (s["$id"], Resource.from_contents(s)) for s in schemas.values())
    return schemas, registry


@functools.cache
def validator(name):
    "The validator for docs/schemas/<name>.json, its $refs resolved across the files."
    schemas, registry = load()
    return Draft202012Validator(schemas[name], registry=registry)
