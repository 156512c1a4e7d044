"""Machine-readable catalog of the classification tables.

Each entry records an explicit ideal (undetermined polynomials already
instantiated at canonical smallest choices, recorded in ``instantiation``),
the expected multiplicity and verdicts, characteristic and dimension
constraints, and the source text it transcribes.

The schema validator (jsonschema) is imported on the first catalog load,
not with the package: its import takes about 0.11 s, more than a whole
``syzygy`` benchmark pass, and most runs never load the catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .ideals import Ideal
from .parse import parse_ring
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

    def ideal(self, char=None):
        ring = self.ring(char=char)
        return Ideal.parse(ring, self.gens_text)

    def structure(self, char=None, check=True, guard=None):
        ring = self.ring(char=char)
        emb = Embedding(ring, self.support, guard)
        return MultiStructure(emb, Ideal.parse(ring, self.gens_text, guard), check=check)


def _data_text(name):
    return resources.files("multischeme.data").joinpath(name).read_text()


def _load_raw(path=None):
    if path is None:
        raw = json.loads(_data_text("catalog.json"))
    else:
        with open(path) as fh:
            raw = json.load(fh)
    schema = json.loads(_data_text("catalog.schema.json"))
    import jsonschema  # here, not at the top: only catalog loads pay its ~0.11 s import

    try:
        jsonschema.validate(raw, schema)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path)
        raise CatalogError("catalog schema violation at %s: %s" % (where, exc.message))
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
        for e in table["entries"]:
            if "char" in e:
                chars = (e["char"],)
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
                multiplicity=e["multiplicity"],
                locally_cm=e["locally_cm"],
                type_i=e["type_i"],
                chars=chars,
                dim_only=e.get("dim_only"),
                char2_pair=e.get("char2_pair"),
                instantiation=e.get("instantiation", {}),
                metadata=e.get("metadata", {}),
                provenance=e["provenance"],
            )
            # invariant: generator texts parse in the declared ring
            try:
                entry.ideal()
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
