"""Fixtures shared across test modules."""

import importlib
import pkgutil
import sys

import pytest

from multischeme import modules
from multischeme.scenarios import ScenarioResult, _ideal_text, run_scenario


@pytest.fixture(scope="session")
def scenario_texts():
    """sid -> the canonical text of every value the scenario's checks
    computed, in check order; filled by ``scenario_result``."""
    return {}


@pytest.fixture(scope="session")
def scenario_result(scenario_texts):
    """``run_scenario(sid)`` with default options, run at most once per
    session: the acceptance gate, the scenario tests and the pinned report
    all read the same results.  The result's checks are wrapped so that
    each computed value is also kept as text (ideals as their reduced basis
    in the ring's own variable names) for the scenario digests."""
    results = {}

    def get(sid):
        if sid not in results:
            texts = scenario_texts[sid] = []
            check, check_ideal = ScenarioResult.check, ScenarioResult.check_ideal

            def recording_check(self, name, expected, computed):
                check(self, name, expected, computed)
                texts.append(str(computed))

            def recording_check_ideal(self, name, expected, computed):
                check_ideal(self, name, expected, computed)
                texts.append(_ideal_text(computed))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ScenarioResult, "check", recording_check)
                mp.setattr(ScenarioResult, "check_ideal", recording_check_ideal)
                results[sid] = run_scenario(sid)
        return results[sid]

    return get


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(module, name, wrap)`` replaces the function ``module.name`` by
    ``wrap(original)`` at every binding in every module of the package, as
    the benchmark's span tracer does, and returns the wrapper."""
    package = importlib.import_module("multischeme")
    for info in pkgutil.iter_modules(package.__path__, "multischeme."):
        importlib.import_module(info.name)

    def install(module, name, wrap):
        original = getattr(module, name)
        wrapper = wrap(original)
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "multischeme" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
        return wrapper

    return install


@pytest.fixture
def conversions(rebind):
    """``conversions()`` starts counting the calls of the matrix <-> column
    Vec conversions, through every module of the package that binds them,
    and returns the live counts."""

    def start():
        calls = dict.fromkeys(("columns_to_vecs", "vecs_to_columns"), 0)
        for name in calls:

            def wrap(original, _name=name):
                def wrapped(*args):
                    calls[_name] += 1
                    return original(*args)

                return wrapped

            rebind(modules, name, wrap)
        return calls

    return start
