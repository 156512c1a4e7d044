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


@pytest.mark.parametrize("workload", ["catalog", "syzygy", "quotients"])
def test_check_pass_reproduces_golden_digest(workload, monkeypatch):
    # the benchmark's check pass, hashed as its child process hashes it: every
    # reduced basis, Betti table, verdict and certificate must stay identical
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        golden = json.load(fh)
    canon = []
    results = workloads.run_pass(workloads.setup(workload, workloads.DEFAULT_SEED), canon=canon)
    assert [bad for _, _, _, bad in results if bad] == []
    assert hashlib.sha256("\n".join(canon).encode()).hexdigest() == golden[workload]
