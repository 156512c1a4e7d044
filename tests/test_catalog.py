import json
import re

import pytest

from multischeme.catalog import CatalogError, _data_text, load_catalog, table_ids
from multischeme.ideals import Ideal, quotient_resolution


def test_table_ids_and_counts():
    assert table_ids() == ["thm-3.6", "thm-3.8", "thm-3.14"]
    assert len(load_catalog("thm-3.6")) == 5
    assert len(load_catalog("thm-3.8")) == 8
    assert len(load_catalog("thm-3.14")) == 17
    assert len(load_catalog()) == 30


def test_characteristic_rows():
    entries = load_catalog()
    rows = sum(len(e.chars) for e in entries)
    assert rows == 34
    pairs = [e for e in entries if e.char2_pair is not None]
    assert pairs and all(e.chars == (0, 2) for e in pairs)
    assert sorted((e.id, e.char2_pair) for e in pairs) == [
        ("thm-3.8/2", "thm-3.8/3"),
        ("thm-3.8/3", "thm-3.8/2"),
        ("thm-3.8/7", "thm-3.8/8"),
        ("thm-3.8/8", "thm-3.8/7"),
    ]
    only2 = [e for e in entries if e.chars == (2,)]
    assert only2  # characteristic-two-only entries exist


def test_resolutions_of_row_ideals_and_filtration_terms_verify():
    checked = 0
    for entry in load_catalog():
        for char in entry.chars:
            st = entry.structure(char=char)
            for ideal in [st.ideal] + list(st.filtration().ideals):
                assert quotient_resolution(ideal).verify(), (entry.id, char, ideal)
                checked += 1
    assert checked == 156


def test_minimal_gens_of_row_ideals_and_filtration_terms_are_minimal():
    for entry in load_catalog():
        for char in entry.chars:
            st = entry.structure(char=char)
            for ideal in [st.ideal] + list(st.filtration().ideals):
                gens = ideal.minimal_gens()
                where = (entry.id, char, ideal)
                # the unit prune keeps the generators of the minimal resolution's
                # first map, element for element, sorted by degree
                first = quotient_resolution(ideal).maps[0]
                assert gens == sorted(first, key=lambda g: g.degree()), where
                assert Ideal(ideal.ring, gens).equals(ideal), where


def test_unknown_table_rejected():
    with pytest.raises(CatalogError):
        load_catalog("thm-9.9")


def test_entry_accessors():
    entry = next(e for e in load_catalog("thm-3.6"))
    st = entry.structure()
    assert st.multiplicity() == entry.multiplicity
    assert st.embedding.support_vars == entry.support
    with pytest.raises(CatalogError):
        entry.ring(char=13)


def test_schema_violation_reported(tmp_path):
    bad = {"tables": [{"id": "t", "ring": "ring x,y / char 0 / grevlex"}]}
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(CatalogError):
        load_catalog(path=str(p))


def test_unparseable_generators_reported(tmp_path):
    raw = {
        "version": 1,
        "tables": [
            {
                "id": "t",
                "title": "synthetic",
                "ring": "ring z0,x,y / char 0 / grevlex",
                "support": ["x", "y"],
                "entries": [
                    {
                        "id": "t/1",
                        "gens": "(x^2, q)",
                        "multiplicity": 2,
                        "locally_cm": True,
                        "type_i": True,
                        "provenance": "synthetic",
                    }
                ],
            }
        ]
    }
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="unparseable"):
        load_catalog(path=str(p))


def _written(tmp_path, raw):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(raw))
    return str(p)


def _shipped():
    return json.loads(_data_text("catalog.json"))


@pytest.mark.parametrize("read", [load_catalog, table_ids])
def test_a_missing_catalog_file_is_a_catalog_error(tmp_path, read):
    p = str(tmp_path / "absent.json")
    with pytest.raises(CatalogError, match="cannot read catalog %s" % re.escape(p)):
        read(path=p)


@pytest.mark.parametrize("read", [load_catalog, table_ids])
def test_malformed_catalog_json_is_a_catalog_error(tmp_path, read):
    p = tmp_path / "cat.json"
    p.write_text('{"version": 1, "tables": [')
    with pytest.raises(CatalogError, match="catalog %s is not valid JSON" % re.escape(str(p))):
        read(path=str(p))


def test_duplicate_entry_ids_are_refused(tmp_path):
    raw = _shipped()
    entries = raw["tables"][0]["entries"]
    entries[1]["id"] = entries[0]["id"]
    with pytest.raises(CatalogError, match="duplicate catalog entry id 'thm-3.6/1'"):
        load_catalog(path=_written(tmp_path, raw))


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e["thm-3.8/2"].update(char2_pair="thm-3.8/9"),
        lambda e: e["thm-3.8/3"].pop("char2_pair"),
        lambda e: e["thm-3.8/7"].update(char2_pair="thm-3.8/2"),
        lambda e: [e[k].update(char2_pair=k) for k in ("thm-3.8/2", "thm-3.8/3")],
    ],
    ids=["no-such-entry", "one-sided", "names-another-pair", "names-itself"],
)
def test_a_char2_pair_must_name_an_entry_that_names_it_back(tmp_path, edit):
    raw = _shipped()
    edit({e["id"]: e for t in raw["tables"] for e in t["entries"]})
    with pytest.raises(CatalogError, match="char2_pair .* does not name it back"):
        load_catalog(path=_written(tmp_path, raw))


def test_integral_floats_are_stored_as_ints(tmp_path):
    # draft 2020-12 counts 2.0 an integer, so the schema check admits it
    raw = _shipped()
    entries = {e["id"]: e for t in raw["tables"] for e in t["entries"]}
    entries["thm-3.14/15"].update(char=2.0, multiplicity=5.0)
    entries["thm-3.14/7"]["dim_only"] = 2.0
    loaded = {e.id: e for e in load_catalog(path=_written(tmp_path, raw))}
    row, dim = loaded["thm-3.14/15"], loaded["thm-3.14/7"]
    assert (row.chars, row.multiplicity, dim.dim_only) == ((2,), 5, 2)
    assert {type(v) for v in (*row.chars, row.multiplicity, dim.dim_only)} == {int}
    assert row.structure().multiplicity() == 5
