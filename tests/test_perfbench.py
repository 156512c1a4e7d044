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
# computed in full and then cut, or sums that pair known basis elements
# again, bring wasted S-pairs back and fail here
_SPAIRS = {"catalog": 2132, "syzygy": 802, "quotients": 709}
# Buchberger runs of the same pass, and a ceiling on its interreductions:
# a second Buchberger path, or a reduced basis made where the unreduced run
# answers (leads, membership), fails here
_RUNS = {"catalog": 860, "syzygy": 101, "quotients": 226}
_INTERREDUCE_AT_MOST = {"catalog": 790, "syzygy": 97, "quotients": 0}


@pytest.mark.parametrize("workload", ["catalog", "syzygy", "quotients"])
def test_check_pass_reproduces_golden_digest(workload, monkeypatch, rebind):
    # the benchmark's check pass, hashed as its child process hashes it: every
    # reduced basis, Betti table, verdict and certificate must stay identical
    import multischeme.groebner as groebner
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
    calls = {"_spair": 0, "buchberger": 0, "interreduce": 0}

    def counting(name):
        def wrap(original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        return wrap

    canon = []
    items = workloads.setup(workload, workloads.DEFAULT_SEED)
    for name in calls:
        rebind(groebner, name, counting(name))
    results = workloads.run_pass(items, canon=canon)
    assert [bad for _, _, _, bad in results if bad] == []
    assert hashlib.sha256("\n".join(canon).encode()).hexdigest() == golden[workload]
    assert calls["_spair"] == _SPAIRS[workload]
    assert calls["buchberger"] == _RUNS[workload]
    assert calls["interreduce"] <= _INTERREDUCE_AT_MOST[workload]
    assert decoded == []
