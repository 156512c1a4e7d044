"""Workload items of the multischeme benchmark.

An item is one user-level verdict request: it builds its structure fresh
from text or family parameters, asks the public API for verdicts and
compares them with the known answer (the catalog row, the family manifest
or the Prop 3.3 verdicts).  ``setup(workload, seed)`` builds the item list
from the seed; ``run_pass`` runs it once, one item after another.

In a check pass every item also appends canonical output text (reduced
bases of the filtration terms, Betti tables of the quotient resolutions,
quotient verdicts with their certificates) to a list that the benchmark
hashes into a digest.
"""

import json
import random
import re
import time
from dataclasses import dataclass, replace

from multischeme.catalog import load_catalog
from multischeme.families import build_family
from multischeme.ideals import quotient_resolution
from multischeme.parse import format_ideal
from multischeme.quotients import line_bundle_quotients
from multischeme.scenarios import _nonexistence_module

DEFAULT_SEED = 0

# nontypeI exponents (a, b); (1, 1) and the split-family double are left
# out: each alone takes longer than these two together (14-15 s against
# 9 s on a 2-core machine), which would set the run length on its own
NONTYPE1_PARAMS = ((1, 2), (2, 2))
QUOTIENT_TWISTS = (-10, 0)
QUOTIENT_SAMPLES = 100
# Prop 3.3: no line-bundle quotient of J/IJ in the twist window
QUOTIENT_VERDICTS = {d: "EXACT-NONE" for d in range(-10, -2)}
QUOTIENT_VERDICTS.update({-2: "CERTIFIED-NONE", -1: "SAMPLED-NONE", 0: "SAMPLED-NONE"})


@dataclass
class Item:
    id: str
    run: object     # run(expect, canon) -> list of mismatch texts
    expect: dict


def _mismatches(expect, computed):
    return [
        "%s: expected %r, computed %r" % (k, expect[k], computed[k])
        for k in expect
        if expect[k] != computed[k]
    ]


def _betti_text(ideal):
    table = quotient_resolution(ideal).betti()
    return " ".join("%d,%d:%d" % (i, d, n) for (i, d), n in sorted(table.items()))


def _structure_outputs(tag, st):
    """Canonical text of a structure's filtration, resolutions and verdicts."""
    filt = st.filtration()
    out = [tag, format_ideal(st.ideal.groebner()), _betti_text(st.ideal)]
    for j, term in enumerate(filt.ideals):
        out.append("term-%d %s | %s" % (j, format_ideal(term.groebner()), _betti_text(term)))
    out.append("layers %s" % " ; ".join(str(p) for p in filt.layer_polynomials))
    out.append(
        "mult=%s cm=%s type1=%s hilb=%s"
        % (st.multiplicity(), st.locally_cm()[0], st.is_type_I(), st.hilbert_polynomial())
    )
    return out


# ---------------------------------------------------------------------------
# catalog: every (entry, characteristic) row of thm-3.6, thm-3.8, thm-3.14


def _xy_signs(seed):
    """Seeded invertible diagonal change x -> a*x, y -> d*y with a, d in
    {1, -1}, a unit in every characteristic; seed 0 is the identity.  The
    change keeps the support (x, y), so the verdicts are the catalog's.
    Signs leave the size of every coefficient alone: scaling by 2 or 3 grew
    the rational coefficients and moved pass time by up to 11% between seeds
    (2-core machine, CPython 3.11).
    """
    if seed == DEFAULT_SEED:
        return 1, 1
    rng = random.Random(seed)
    return rng.choice((1, -1)), rng.choice((1, -1))


def _signed_text(text, a, d):
    if (a, d) == (1, 1):
        return text
    sub = {"x": "(%d*x)" % a, "y": "(%d*y)" % d}
    return re.sub(r"\b[xy]\b", lambda m: sub[m.group(0)], text)


def _catalog_item(entry, char, gens_text):
    def run(expect, canon):
        row = replace(entry, gens_text=gens_text)
        st = row.structure(char=char, check=True)
        filt = st.filtration()
        total = st.embedding.support_ideal().hilbert_polynomial()
        for hp in filt.layer_polynomials:
            total = total + hp
        computed = {
            "multiplicity": st.multiplicity(),
            "locally_cm": st.locally_cm()[0],
            "type_i": st.is_type_I()[0],
            "hilbert_additivity": total == st.hilbert_polynomial(),
        }
        if canon is not None:
            canon.extend(_structure_outputs("%s@p%d" % (entry.id, char), st))
        return _mismatches(expect, computed)

    expect = {
        "multiplicity": entry.multiplicity,
        "locally_cm": entry.locally_cm,
        "type_i": entry.type_i,
        "hilbert_additivity": True,
    }
    return Item("%s@p%d" % (entry.id, char), run, expect)


def _setup_catalog(seed):
    a, d = _xy_signs(seed)
    return [
        _catalog_item(entry, char, _signed_text(entry.gens_text, a, d))
        for entry in load_catalog()
        for char in entry.chars
    ]


# ---------------------------------------------------------------------------
# syzygy: the nontypeI family, dominated by module Buchberger and resolutions


def _nontype1_item(a, b):
    def run(expect, canon):
        fam = build_family("nontypeI", a=a, b=b)
        st = fam.structures[0]
        type1, flags = st.is_type_I()
        computed = {
            "multiplicity": st.multiplicity(),
            "manifest_multiplicity": fam.manifest[0]["multiplicity"],
            "locally_cm": st.locally_cm()[0],
            "type_i": type1,
            "non_cm_terms": sum(1 for f in flags if not f),
        }
        if canon is not None:
            canon.extend(_structure_outputs("nontypeI a=%d b=%d" % (a, b), st))
        return _mismatches(expect, computed)

    expect = {
        "multiplicity": a * b + 2,
        "manifest_multiplicity": a * b + 2,
        "locally_cm": True,
        "type_i": False,
        "non_cm_terms": 1,
    }
    return Item("nontypeI(%d,%d)" % (a, b), run, expect)


def _setup_syzygy(seed):
    # the inputs are fixed; the seed is only recorded
    return [_nontype1_item(a, b) for a, b in NONTYPE1_PARAMS]


# ---------------------------------------------------------------------------
# quotients: line-bundle scans of the Prop 3.3 module J/IJ


def _quotient_item(module, sample_seed):
    def run(expect, canon):
        verdicts = line_bundle_quotients(
            module, QUOTIENT_TWISTS, samples=QUOTIENT_SAMPLES, seed=sample_seed
        )
        computed = {"verdicts": {v.twist: v.verdict for v in verdicts}}
        computed["short_samples"] = [
            v.twist
            for v in verdicts
            if v.verdict == "SAMPLED-NONE" and v.samples_tested < QUOTIENT_SAMPLES
        ]
        if canon is not None:
            canon.append("scan seed=%d" % sample_seed)
            canon.extend(json.dumps(v.to_json(), sort_keys=True) for v in verdicts)
        return _mismatches(expect, computed)

    expect = {"verdicts": dict(QUOTIENT_VERDICTS), "short_samples": []}
    return Item("scan(seed=%d)" % sample_seed, run, expect)


def _setup_quotients(seed):
    # one scan per pass: two scans would share their basis-row checks
    _, module, _, _ = _nonexistence_module()
    return [_quotient_item(module, seed)]


_SETUP = {
    "catalog": _setup_catalog,
    "syzygy": _setup_syzygy,
    "quotients": _setup_quotients,
}


def setup(workload, seed):
    """The item list of one workload, generated from the seed."""
    return _SETUP[workload](seed)


def run_pass(items, canon=None, on_item=None):
    """Run every item once; a raising item counts as failed and the pass
    goes on.  Returns one (id, start, end, mismatches) per item, with
    ``time.perf_counter`` times."""
    results = []
    for k, item in enumerate(items):
        if on_item is not None:
            on_item(k)
        t0 = time.perf_counter()
        try:
            bad = item.run(item.expect, canon)
        except Exception as exc:  # a guard trip or crash fails this item only
            bad = ["%s: %s" % (type(exc).__name__, exc)]
        results.append((item.id, t0, time.perf_counter(), bad))
    return results
