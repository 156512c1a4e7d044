"""The scripts under scripts/ run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_explore_family_prints_the_hilbert_polynomial():
    out = _run("explore_family.py", "nontypeI", "--param", "a=1", "--param", "b=2")
    assert out.returncode == 0, out.stderr
    assert "   hilbert      4*P_2 - 2*P_1 - 2*P_0" in out.stdout.splitlines()


def test_scan_quotients_finds_the_twist_minus_one_surjection():
    out = _run("scan_quotients.py", "thm-3.6/4")
    assert out.returncode == 0, out.stderr
    assert "twist  -1  dim  2  SURJECTION" in out.stdout.splitlines()


def test_scan_quotients_rejects_an_unknown_entry():
    out = _run("scan_quotients.py", "thm-9.9/1")
    assert out.returncode == 3
    assert "unknown catalog entry" in out.stderr
