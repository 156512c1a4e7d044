"""Machine-readable catalog of the classification tables.

Each entry records an explicit ideal (undetermined polynomials already
instantiated at canonical smallest choices, recorded in ``instantiation``),
the expected multiplicity and verdicts, characteristic and dimension
constraints, and the source text it transcribes.

Every load checks the catalog against the shipped ``catalog.schema.json``
with a small checker of the draft-2020-12 keywords that schema uses; a
schema keyword the checker does not implement is refused rather than
skipped.  It then checks that entry ids are unique and that characteristic
two pairs name each other.  Only the standard library is imported, so a
load takes milliseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .ideals import Ideal
from .parse import parse_ideal, parse_ring
from .ring import PolyRing
from .structures import Embedding, MultiStructure


class CatalogError(ValueError):
    pass


@dataclass
class CatalogEntry:
    id: str
    table: str
    ring_decl: str
    support: tuple
    gens_text: str
    multiplicity: int
    locally_cm: bool
    type_i: bool
    chars: tuple          # characteristics the entry is asserted in
    dim_only: int = None  # entry only valid at this support dimension
    char2_pair: str = None
    instantiation: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    provenance: str = ""

    def ring(self, char=None):
        base = parse_ring(self.ring_decl)
        char = self.chars[0] if char is None else char
        if char not in self.chars:
            raise CatalogError(
                "entry %s is not asserted in characteristic %d" % (self.id, char)
            )
        return PolyRing(base.names, char=char, order=base.order)

    def structure(self, char=None, check=True, guard=None):
        ring = self.ring(char=char)
        emb = Embedding(ring, self.support, guard)
        return MultiStructure(emb, Ideal.parse(ring, self.gens_text, guard), check=check)


def _data_text(name):
    return resources.files("multischeme.data").joinpath(name).read_text()


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int}
_KEYWORDS = {"$schema", "title", "type", "required", "properties", "additionalProperties",
             "items", "minimum"}


def _is_type(value, name):
    if name == "integer":  # draft 2020-12: True is no integer, and 2.0 is one
        return type(value) is int or type(value) is float and value.is_integer()
    return isinstance(value, _TYPES[name])


def _check_schema(schema):
    """Refuse a schema that uses what ``_validate`` does not implement."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties other than false")
    if schema.get("type") not in (None, *_TYPES):
        unknown.append("type %r" % (schema["type"],))
    if unknown:
        raise CatalogError("catalog schema uses unsupported %s" % ", ".join(unknown))
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


def _validate(value, schema, path=()):
    """Raise a CatalogError at the first place where ``value`` violates
    ``schema``, a schema that ``_check_schema`` accepts."""
    def fail(message):
        where = "/".join(str(p) for p in path)
        raise CatalogError("catalog schema violation at %s: %s" % (where, message))

    if "type" in schema and not _is_type(value, schema["type"]):
        fail("%r is not of type %r" % (value, schema["type"]))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail("%r is a required property" % key)
        for key, item in value.items():
            if key in props:
                _validate(item, props[key], path + (key,))
            elif "additionalProperties" in schema:
                fail("additional property %r is not allowed" % key)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], path + (i,))
    elif "minimum" in schema and type(value) in (int, float) and value < schema["minimum"]:
        fail("%r is less than the minimum of %r" % (value, schema["minimum"]))


def _check_references(raw):
    """Entry ids are unique, and a ``char2_pair`` names another entry that
    names it back."""
    entries = {}
    for table in raw["tables"]:
        for e in table["entries"]:
            if e["id"] in entries:
                raise CatalogError("duplicate catalog entry id %r" % e["id"])
            entries[e["id"]] = e
    for eid, e in entries.items():
        pair = e.get("char2_pair")
        if pair is not None and (pair == eid or entries.get(pair, {}).get("char2_pair") != eid):
            raise CatalogError("entry %s: char2_pair %r does not name it back" % (eid, pair))


def _load_raw(path=None):
    if path is None:
        raw = json.loads(_data_text("catalog.json"))
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise CatalogError("cannot read catalog %s: %s" % (path, exc.strerror or exc))
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise CatalogError("catalog %s is not valid JSON: %s" % (path, exc))
    schema = json.loads(_data_text("catalog.schema.json"))
    _check_schema(schema)
    _validate(raw, schema)
    _check_references(raw)
    return raw


def load_catalog(which="all", path=None):
    """Entries of one table (or all), with characteristic rows resolved.

    An unrestricted entry is asserted in characteristic 0; a member of a
    characteristic-two pair in characteristics 0 and 2 (the two members
    generate the same ideal away from characteristic 2); an entry carrying
    ``char`` only in that characteristic.
    """
    raw = _load_raw(path)
    entries = []
    for table in raw["tables"]:
        if which not in ("all", table["id"]):
            continue
        for e in table["entries"]:  # integers stored as ints: the schema admits 2.0
            if "char" in e:
                chars = (int(e["char"]),)
            elif "char2_pair" in e:
                chars = (0, 2)
            else:
                chars = (0,)
            entry = CatalogEntry(
                id=e["id"],
                table=table["id"],
                ring_decl=table["ring"],
                support=tuple(table["support"]),
                gens_text=e["gens"],
                multiplicity=int(e["multiplicity"]),
                locally_cm=e["locally_cm"],
                type_i=e["type_i"],
                chars=chars,
                dim_only=int(e["dim_only"]) if "dim_only" in e else None,
                char2_pair=e.get("char2_pair"),
                instantiation=e.get("instantiation", {}),
                metadata=e.get("metadata", {}),
                provenance=e["provenance"],
            )
            # invariant: generator texts parse in the declared ring
            try:
                parse_ideal(entry.ring(), entry.gens_text)
            except Exception as exc:
                raise CatalogError(
                    "entry %s: unparseable generators: %s" % (entry.id, exc)
                )
            entries.append(entry)
    if not entries:
        raise CatalogError("unknown catalog table %r" % which)
    return entries


def table_ids(path=None):
    return [t["id"] for t in _load_raw(path)["tables"]]
