"""The catalog's in-package schema checker against jsonschema.

jsonschema is the reference here only: the package checks the shipped
``catalog.schema.json`` itself.  The shipped catalog is mutated from the
schema, one attempted violation per case, and on every case the checker and
jsonschema must agree on accept or reject and, on reject, on the path of
the violation.
"""

import json
import re

import jsonschema
import pytest

from multischeme import catalog
from multischeme.catalog import CatalogError, _data_text, _validate, load_catalog

SCHEMA = json.loads(_data_text("catalog.schema.json"))
SHIPPED = json.loads(_data_text("catalog.json"))
VALUES = [None, True, 1, 1.0, 2.5, "s", [], {}]


def locations(value, schema):
    """The schema locations that ``value`` fills, array items as ``*``."""
    out = {()}
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                out |= {(key,) + p for p in locations(value[key], sub)}
    elif isinstance(value, list) and "items" in schema:
        for item in value:
            out |= {("*",) + p for p in locations(item, schema["items"])}
    return out


def edits(value, schema, path=()):
    """(path, replacement) pairs: each required key deleted, an extra key
    where ``additionalProperties`` is false, each typed value replaced by
    every one of ``VALUES``, values below each ``minimum``.  In an array,
    the items mutated are those that fill a schema location no earlier item
    fills, so every location is mutated at its first instance."""
    if "type" in schema:
        yield from ((path, v) for v in VALUES)
    if "minimum" in schema:
        yield from ((path, v) for v in (schema["minimum"] - 1, -1))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield path, {k: v for k, v in value.items() if k != key}
        if schema.get("additionalProperties") is False:
            yield path, {**value, "unexpected": 0}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from edits(value[key], sub, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        seen = set()
        for i, item in enumerate(value):
            filled = locations(item, schema["items"])
            if not filled <= seen:
                seen |= filled
                yield from edits(item, schema["items"], path + (i,))


def replaced(root, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    copy = dict(root) if isinstance(root, dict) else list(root)
    copy[head] = replaced(root[head], rest, new)
    return copy


def checker_verdict(raw):
    try:
        _validate(raw, SCHEMA)
    except CatalogError as exc:
        return re.match(r"catalog schema violation at (.*?): ", str(exc)).group(1)
    return None


def reference_verdict(raw, validator):
    # jsonschema.validate(raw, SCHEMA), with the schema checked once, not per case
    error = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    return None if error is None else "/".join(str(p) for p in error.absolute_path)


def test_the_checker_agrees_with_jsonschema_on_every_mutation():
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    validator = cls(SCHEMA)
    assert checker_verdict(SHIPPED) is None and reference_verdict(SHIPPED, validator) is None
    disagreements, verdicts, mutated = [], set(), set()
    for path, new in edits(SHIPPED, SCHEMA):
        raw = replaced(SHIPPED, path, new)
        ours, reference = checker_verdict(raw), reference_verdict(raw, validator)
        if ours != reference:
            disagreements.append((path, new, ours, reference))
        verdicts.add(reference is None)
        mutated.add(tuple("*" if isinstance(p, int) else p for p in path))
    assert disagreements == []
    assert verdicts == {True, False}
    assert mutated == locations(SHIPPED, SCHEMA)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: s["properties"]["version"].update(pattern="^1$"),
        lambda s: s["properties"]["tables"]["items"]["properties"]["support"]["items"].update(
            maxLength=3
        ),
        lambda s: s["properties"]["tables"]["items"].update(additionalProperties={"type": "string"}),
        lambda s: s["properties"]["version"].update(type="number"),
        lambda s: s["properties"]["version"].update(type=["integer", "null"]),
    ],
    ids=["pattern", "maxLength", "additionalProperties-schema", "type-number", "type-list"],
)
def test_a_schema_keyword_the_checker_does_not_implement_is_refused(monkeypatch, edit):
    schema = json.loads(_data_text("catalog.schema.json"))
    edit(schema)
    text = json.dumps(schema)
    monkeypatch.setattr(
        catalog, "_data_text", lambda name: text if name == "catalog.schema.json" else _data_text(name)
    )
    with pytest.raises(CatalogError, match="catalog schema uses unsupported"):
        load_catalog()
