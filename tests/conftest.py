"""Fixtures shared across test modules."""

import pytest

from multischeme.scenarios import _ideal_text, _Recorder, _text, run_scenario


@pytest.fixture(scope="session")
def scenario_texts():
    """sid -> the canonical text of every value the scenario's checks
    computed, in recorder order; filled by ``scenario_result``."""
    return {}


@pytest.fixture(scope="session")
def scenario_result(scenario_texts):
    """``run_scenario(sid)`` with default options, run at most once per
    session: the acceptance gate, the scenario tests and the pinned report
    all read the same results.  The recorder's checks are wrapped so that
    each computed value is also kept as text (ideals as their reduced basis
    in the ring's own variable names) for the scenario digests."""
    results = {}

    def get(sid):
        if sid not in results:
            texts = scenario_texts[sid] = []
            check, check_ideal = _Recorder.check, _Recorder.check_ideal

            def recording_check(self, name, expected, computed):
                ok = check(self, name, expected, computed)
                texts.append(_text(computed))
                return ok

            def recording_check_ideal(self, name, expected, computed, guard=None):
                check_ideal(self, name, expected, computed, guard)
                texts.append(_ideal_text(computed, guard))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_Recorder, "check", recording_check)
                mp.setattr(_Recorder, "check_ideal", recording_check_ideal)
                results[sid] = run_scenario(sid)
        return results[sid]

    return get
