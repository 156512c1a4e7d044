"""Fixtures shared across test modules."""

import pytest

from multischeme.scenarios import run_scenario


@pytest.fixture(scope="session")
def scenario_result():
    """``run_scenario(sid)`` with default options, run at most once per
    session: the acceptance gate, the scenario tests and the pinned report
    all read the same results."""
    results = {}

    def get(sid):
        if sid not in results:
            results[sid] = run_scenario(sid)
        return results[sid]

    return get
