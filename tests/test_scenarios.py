import hashlib
import json
import os
from importlib import resources

import jsonschema
import pytest

from multischeme import scenarios
from multischeme.groebner import Guard
from multischeme.ideals import Ideal
from multischeme.scenarios import (
    ScenarioOptions,
    ScenarioResult,
    emit_report,
    exit_code,
    run_scenario,
    scenario_ids,
)


def test_scenario_id_listing():
    ids = scenario_ids()
    assert "example-2.9" in ids and "thm-3.6" in ids
    assert len(ids) == 13


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario")


def test_example_scenario_passes(scenario_result):
    result = scenario_result("example-2.9")
    assert result.status == "PASS"
    assert result.diffs == []


def test_hilbert_scenarios_pass_quickly(scenario_result):
    for sid in ("hm-hilbert", "degree3-catalog", "ci-lattice-4.24"):
        result = scenario_result(sid)
        assert result.status == "PASS", (sid, result.diffs)


def test_split_and_koszul_scenarios_pass(scenario_result):
    # the remaining scenarios not covered by the acceptance gate
    for sid in ("koszul-3.11", "split-4.16"):
        result = scenario_result(sid)
        assert result.status == "PASS", (sid, result.diffs)


def test_hull_and_s1_checks_read_the_filtration_not_the_ext_window_of_r_mod_i(rebind):
    # the s1-hull and term-s1 checks read the filtration the verdicts read:
    # no Ext-window hull, Ext annihilator, saturation or resolution over R
    import multischeme.ideals as ideals
    import multischeme.structures as structures

    owners = {"unmixed_part": ideals, "is_S1": structures, "ext_annihilator": ideals,
              "is_unmixed": ideals, "saturate": ideals, "quotient_resolution": ideals}
    calls = dict.fromkeys(owners, 0)
    for name, module in owners.items():

        def wrap(original, _name=name):
            def wrapped(*args, **kwargs):
                calls[_name] += 1
                return original(*args, **kwargs)

            return wrapped

        rebind(module, name, wrap)
    for sid in ("thm-5.1", "ci-lattice-4.24", "koszul-3.11"):
        assert run_scenario(sid).status == "PASS", sid
    assert calls == dict.fromkeys(owners, 0)


def test_guard_overrun_is_inconclusive_not_pass():
    opts = ScenarioOptions(guard=Guard(max_degree=1))
    result = run_scenario("example-2.9", opts)
    assert result.status == "INCONCLUSIVE"
    assert "resource_guard" in result.certificates


def test_crashing_scenario_is_error_and_the_next_still_runs(monkeypatch):
    def crash(rec, opts):
        raise KeyError("boom")

    monkeypatch.setitem(scenarios._SCENARIOS, "thm-3.6", crash)
    results = [run_scenario("thm-3.6"), run_scenario("example-2.9")]
    assert [r.status for r in results] == ["ERROR", "PASS"]
    assert results[0].certificates["error"] == "KeyError: 'boom'"
    text, code = emit_report(results, fmt="json")
    assert code == 1 and exit_code(results[:1]) == 1
    schema = json.loads(
        resources.files("multischeme.data").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(text), schema)
    text, code = emit_report(results, fmt="text")
    assert "    error    KeyError: 'boom'" in text.splitlines() and code == 1


def test_char_filter_is_recorded():
    result = run_scenario("thm-3.6", ScenarioOptions(char=0))
    assert result.status == "PASS"
    assert result.char == 0


def test_exit_code_logic():
    ok = ScenarioResult("a", "PASS", 0.0)
    bad = ScenarioResult("b", "FAIL", 0.0)
    meh = ScenarioResult("c", "INCONCLUSIVE", 0.0)
    assert exit_code([ok]) == 0
    assert exit_code([ok, meh]) == 2
    assert exit_code([ok, meh, bad]) == 1
    assert exit_code([]) == 0


def test_report_json_validates_against_schema(scenario_result):
    results = [
        scenario_result("hm-hilbert"),
        ScenarioResult(
            "b", "FAIL", 0.1, diffs=[{"check": "c", "expected": "1", "computed": "2"}]
        ),
    ]
    text, code = emit_report(results, fmt="json")
    assert code == 1
    payload = json.loads(text)
    schema = json.loads(
        resources.files("multischeme.data").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    assert payload["summary"] == {"passed": 1, "total": 2, "exit_code": 1}


def test_report_text_format():
    results = [
        ScenarioResult("a", "PASS", 0.5),
        ScenarioResult(
            "b", "FAIL", 0.1, diffs=[{"check": "c", "expected": "1", "computed": "2"}]
        ),
    ]
    text, code = emit_report(results, fmt="text")
    assert code == 1
    lines = text.splitlines()
    assert lines[0].startswith("PASS") and "a" in lines[0]
    assert any("expected 1" in l for l in lines)
    assert lines[-1] == "1/2 scenarios passed"


def test_verify_all_report_matches_pinned(scenario_result):
    # the `ms verify all --format json` report with `elapsed` stripped: the
    # status, diffs and certificates of all 13 scenarios are pinned
    text, code = emit_report([scenario_result(s) for s in scenario_ids()], fmt="json")
    report = json.loads(text)
    for scenario in report["scenarios"]:
        del scenario["elapsed"]
    with open(os.path.join(os.path.dirname(__file__), "data", "verify_all.json")) as fh:
        assert report == json.load(fh)
    assert code == 0


def test_scenario_digests_match_pinned(scenario_result, scenario_texts):
    # one SHA-256 per scenario over the text of every value its checks
    # computed, so a change in what a scenario builds shows even where its
    # verdicts still agree
    digests = {}
    for sid in scenario_ids():
        assert scenario_result(sid).status == "PASS", sid
        text = "\n".join(scenario_texts[sid])
        digests[sid] = hashlib.sha256(text.encode()).hexdigest()
    with open(os.path.join(os.path.dirname(__file__), "data", "scenario_digests.json")) as fh:
        assert digests == json.load(fh)


_IDS = (
    "example-2.9", "thm-3.6", "thm-3.8", "thm-3.14", "char-dichotomy", "nonexistence-3.3",
    "thm-5.1", "hm-hilbert", "degree3-catalog", "split-4.16", "ci-lattice-4.24",
    "koszul-3.11", "thicken-roundtrip",
)
# max_degree -> the degree of the S-pair that trips, per scenario (None: PASS)
_TRIPS = {
    3: (None, None, 4, 5, 4, 4, 4, None, None, None, None, 4, 4),
    4: (None, None, None, 5, 5, 5, 5, None, None, None, None, None, 5),
    6: (None, None, None, None, None, None, 7, None, None, None, None, None, None),
}


@pytest.mark.parametrize("budget", sorted(_TRIPS))
def test_degree_budget_table(budget):
    # every computation a scenario makes answers to the budget it was given:
    # one that fell back to the default guard would pass where this table
    # says the budget trips
    opts = ScenarioOptions(guard=Guard(max_degree=budget))
    got = {}
    for sid in scenario_ids():
        result = run_scenario(sid, opts)
        got[sid] = (result.status, result.certificates.get("resource_guard"))
    expected = {
        sid: ("PASS", None) if d is None
        else ("INCONCLUSIVE", "S-pair degree %d exceeds budget %d" % (d, budget))
        for sid, d in zip(_IDS, _TRIPS[budget])
    }
    assert got == expected


def test_every_ideal_a_scenario_builds_carries_its_guard(monkeypatch):
    # an ideal that only lends its generators to a sum trips no budget, so
    # the table above cannot see one built with the default guard
    built, init = [], Ideal.__init__

    def spy(self, ring, gens, guard=None):
        init(self, ring, gens, guard)
        built.append(self.guard)

    monkeypatch.setattr(Ideal, "__init__", spy)
    for sid in scenario_ids():
        guard = Guard(max_degree=40)
        before = len(built)
        assert run_scenario(sid, ScenarioOptions(guard=guard)).status == "PASS", sid
        assert [g for g in built[before:] if g is not guard] == [], sid
    assert built
