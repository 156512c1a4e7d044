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
# S-pairs back and fail here
_SPAIRS = {"catalog": 1119, "syzygy": 452, "quotients": 709}
# Buchberger runs of the same pass, and a ceiling on its interreductions:
# a second Buchberger path, or a reduced basis made where the unreduced run
# answers (leads, membership), fails here
_RUNS = {"catalog": 536, "syzygy": 61, "quotients": 226}
_INTERREDUCE_AT_MOST = {"catalog": 443, "syzygy": 46, "quotients": 0}
# Ext annihilators computed, free resolutions made and radical tests run by
# the same pass: the filtration hulls of the sums I_Y + I_X^(j+1), I_Y's
# included, read no Ext window and the support check reads the nilpotency
# index, so an Ext window computed and discarded, or a radical test beside
# the index, fails here
_HULL_WORK = {
    "catalog": {"_ext_annihilator": 5, "free_resolution": 122, "radical_contains": 0},
    "syzygy": {"_ext_annihilator": 6, "free_resolution": 8, "radical_contains": 0},
    "quotients": {"_ext_annihilator": 0, "free_resolution": 0, "radical_contains": 0},
}


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
              "_ext_annihilator": ideals, "free_resolution": modules,
              "radical_contains": ideals, "layer_module": structures}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        def wrap(original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        return wrap

    canon = []
    items = workloads.setup(workload, workloads.DEFAULT_SEED)
    for name, module in owners.items():
        rebind(module, name, counting(name))
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
