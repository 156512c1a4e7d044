"""The benchmark harness self-test, so that renaming or inlining a function
the tracer wraps fails here rather than only in traced benchmark runs."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# S-pairs formed by one seed-0 check pass: a work-count gate, so kernels
# computed in full and then cut, sums that pair known basis elements again,
# or a layer presentation built where no caller reads it, bring wasted
# S-pairs back and fail here.  A term's CM verdict resolves the module its
# hull built, coker K on the reduced kernel K, not the term presented anew
_SPAIRS = {"catalog": 571, "syzygy": 209, "quotients": 709}
# Buchberger runs of the same pass, and a ceiling on its interreductions:
# a second Buchberger path, or a reduced basis made where the unreduced run
# answers (leads, membership), fails here; I_X is written down, so building
# an embedding runs none.  Each hull whose cut of π_*O_Y keeps a relation
# interreduces its two kernels, M* and the torsion's preimage
_RUNS = {"catalog": 421, "syzygy": 54, "quotients": 226}
_INTERREDUCE_AT_MOST = {"catalog": 416, "syzygy": 50, "quotients": 0}
# Ext annihilators computed, free resolutions made and radical tests run by
# the same pass: the filtration hulls of the sums I_Y + I_X^(j+1), I_Y's
# included, read no Ext window, the support check reads the nilpotency
# index, and the CM verdicts read the Ext of R/I over the support ring
# only, so an Ext window of R/I over R (``ext_annihilator``), or a radical
# test beside the index, fails here.  The check pass resolves R/I over R
# for the digest's Betti tables (122 / 8 / 0 resolutions); the rest are
# the verdicts' resolutions over the support ring, one per filtration term
# (``_TIMED_RESOLUTIONS``)
_HULL_WORK = {
    "catalog": {"_ext_annihilator": 3, "ext_annihilator": 0, "free_resolution": 244,
                "radical_contains": 0},
    "syzygy": {"_ext_annihilator": 4, "ext_annihilator": 0, "free_resolution": 16,
               "radical_contains": 0},
    "quotients": {"_ext_annihilator": 0, "ext_annihilator": 0, "free_resolution": 0,
                  "radical_contains": 0},
}


def _counting(calls, name):
    def wrap(original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    return wrap


@pytest.mark.parametrize("workload", ["catalog", "syzygy", "quotients"])
def test_check_pass_reproduces_golden_digest(workload, monkeypatch, rebind):
    # the benchmark's check pass, hashed as its child process hashes it: every
    # reduced basis, Betti table, verdict and certificate must stay identical
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals
    import multischeme.modules as modules
    import multischeme.structures as structures
    from multischeme.ring import Vec

    # terms stay packed end to end: a (component, exps) view of a polynomial
    # or a vector decoded anywhere in the pass, from setup on, is a layer
    # crossing term representations
    decoded = []
    data = Vec.data
    spy = property(lambda v: decoded.append(v) or data.fget(v))
    monkeypatch.setattr(Vec, "data", spy)

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        golden = json.load(fh)
    owners = {"_spair": groebner, "buchberger": groebner, "interreduce": groebner,
              "_ext_annihilator": ideals, "ext_annihilator": ideals, "free_resolution": modules,
              "radical_contains": ideals, "layer_module": structures}
    calls = dict.fromkeys(owners, 0)
    canon = []
    items = workloads.setup(workload, workloads.DEFAULT_SEED)
    for name, module in owners.items():
        rebind(module, name, _counting(calls, name))
    results = workloads.run_pass(items, canon=canon)
    assert [bad for _, _, _, bad in results if bad] == []
    assert hashlib.sha256("\n".join(canon).encode()).hexdigest() == golden[workload]
    assert calls["_spair"] == _SPAIRS[workload]
    assert calls["buchberger"] == _RUNS[workload]
    assert calls["interreduce"] <= _INTERREDUCE_AT_MOST[workload]
    assert {name: calls[name] for name in _HULL_WORK[workload]} == _HULL_WORK[workload]
    # the pass reads the layer polynomials only, so it presents no layer
    assert calls["layer_module"] == 0
    assert decoded == []


# free resolutions made by a timed seed-0 pass: one k[z] resolution per
# filtration term, of the module its hull built; 119 of catalog's and 4 of
# syzygy's modules keep no relation after the unit prune, so only 3 and 4
# form an S-pair
_TIMED_RESOLUTIONS = {"catalog": 122, "syzygy": 8}
# Buchberger runs of the same pass over the whole ring: I_Y's, one per item;
# the terms nest, and give their layer polynomials, over k[z]
_TIMED_RING_RUNS = {"catalog": 34, "syzygy": 2}


@pytest.mark.parametrize("workload", sorted(_TIMED_RESOLUTIONS))
def test_timed_pass_resolves_no_quotient_over_the_whole_ring(workload, monkeypatch, rebind):
    # a timed pass (no canonical text) asks for verdicts only: each CM
    # verdict reads R/I over the support ring, as its hull presented it,
    # and no verdict resolves R/I over R or reads its Ext window; π_*O_Y
    # goes over k[z] once per filtration, each hull cuts its R/J from it,
    # and no term is presented a second time; the terms nest, and give
    # their layer polynomials, over k[z], so no ideal inclusion is tested
    # and only I_Y runs Buchberger over the whole ring
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals
    import multischeme.modules as modules
    import multischeme.structures as structures

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    owners = {"quotient_resolution": ideals, "ext_annihilator": ideals,
              "free_resolution": modules, "s1_filtration": structures,
              "is_locally_CM": structures}
    calls = dict.fromkeys(list(owners) + ["pushforward", "contains_ideal", "ring_runs"], 0)
    items = workloads.setup(workload, workloads.DEFAULT_SEED)
    for name, module in owners.items():
        rebind(module, name, _counting(calls, name))
    monkeypatch.setattr(structures.Embedding, "pushforward",
                        _counting(calls, "pushforward")(structures.Embedding.pushforward))
    monkeypatch.setattr(ideals.Ideal, "contains_ideal",
                        _counting(calls, "contains_ideal")(ideals.Ideal.contains_ideal))

    def ring_runs(original):
        # every workload ring is k[z0, z1, z2, x, y] on the support (x, y),
        # so a run over k[z] names no x
        def wrapped(vecs, *args, **kwargs):
            calls["ring_runs"] += any("x" in v.ring.names for v in vecs[:1])
            return original(vecs, *args, **kwargs)

        return wrapped

    rebind(groebner, "buchberger", ring_runs)
    results = workloads.run_pass(items, canon=None)
    assert [bad for _, _, _, bad in results if bad] == []
    assert calls.pop("pushforward") == calls.pop("s1_filtration") > 0
    assert calls == {"quotient_resolution": 0, "ext_annihilator": 0, "is_locally_CM": 0,
                     "free_resolution": _TIMED_RESOLUTIONS[workload], "contains_ideal": 0,
                     "ring_runs": _TIMED_RING_RUNS[workload]}


def test_timed_catalog_pass_takes_every_hull_with_no_colon(monkeypatch, rebind):
    # each hull lifts the k[z]-torsion of its cut of π_*O_Y, so no colon or
    # saturation runs; each term's CM verdict reads the module its hull
    # built, with no presentation of its own; I_X^(j+1) is written down,
    # never multiplied out
    import multischeme.ideals as ideals
    import multischeme.structures as structures

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    owners = {"colon": ideals, "saturate": ideals, "is_locally_CM": structures}
    calls = dict.fromkeys(list(owners) + ["times"], 0)
    items = workloads.setup("catalog", workloads.DEFAULT_SEED)
    for name, module in owners.items():
        rebind(module, name, _counting(calls, name))
    monkeypatch.setattr(ideals.Ideal, "times", _counting(calls, "times")(ideals.Ideal.times))
    results = workloads.run_pass(items, canon=None)
    assert [bad for _, _, _, bad in results if bad] == []
    assert calls["is_locally_CM"] == 0, calls
    assert calls["colon"] == calls["saturate"] == calls["times"] == 0, calls
