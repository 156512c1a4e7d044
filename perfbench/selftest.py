"""Self-test of the benchmark harness; run ``python3 perfbench/selftest.py``.

Checks that a wrong expected value and a raising item lower ``ok_ratio``
without stopping the pass, that the tracer's binding audit catches a
leftover original, that spans nest as the calls do on a tiny input, and
that ``predictions.json`` names only metrics and workloads that exist.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit("FAIL %s" % what)
    print("ok   %s" % what)


def ok_ratio(results):
    rows = [[item_id, t1 - t0, t1 - t0, bad] for item_id, t0, t1, bad in results]
    attempted, failed = run.item_stats([{"results": rows}])
    timed = [{"results": rows, "peak_rss_mb": 1.0}]
    return run.end_to_end([1.0], timed, attempted, len(failed))["ok_ratio"][0]


def test_wrong_expectation():
    item = workloads.setup("catalog", workloads.DEFAULT_SEED)[0]
    check(ok_ratio(workloads.run_pass([item, item])) == 1.0, "catalog row %s verifies" % item.id)
    wrong = workloads.Item(item.id, item.run, dict(item.expect, multiplicity=item.expect["multiplicity"] + 1))
    check(ok_ratio(workloads.run_pass([item, wrong])) == 0.5, "a wrong expected multiplicity lowers ok_ratio")


def test_raising_item():
    def boom(expect, canon):
        raise ValueError("deliberate")

    item = workloads.setup("catalog", workloads.DEFAULT_SEED)[0]
    results = workloads.run_pass([workloads.Item("boom", boom, {}), item])
    check(len(results) == 2 and results[0][3] and not results[1][3], "a raising item fails alone")
    check(ok_ratio(results) == 0.5, "a raising item lowers ok_ratio")


def test_tracer():
    tracer = spans.Tracer()
    tracer.install()
    import multischeme.modules as modules
    from multischeme.modules import GradedModule, free_resolution
    from multischeme.ring import PolyRing

    ring = PolyRing(("x", "y", "z"))
    x, y = ring.var("x"), ring.var("y")
    tracer.item = 0
    free_resolution(GradedModule(ring, (0,), [[x * x, x * y, y * y]]))
    recs = tracer.spans
    name = lambda i: recs[i][spans.NAME]  # noqa: E731
    parent = lambda i: recs[i][spans.PARENT]  # noqa: E731
    chains = {
        (name(parent(parent(i))), name(parent(i)), name(i))
        for i in range(len(recs))
        if parent(i) >= 0 and parent(parent(i)) >= 0
    }
    check(
        ("modules.free_resolution", "groebner.syzygies", "groebner.buchberger") in chains,
        "buchberger nests under syzygies under free_resolution",
    )
    check(all(r[spans.ITEM] == 0 and r[spans.START] <= r[spans.END] for r in recs), "spans carry item and times")
    wrapper = modules.buchberger
    modules.buchberger = wrapper.__wrapped__
    try:
        tracer.audit(spans.package_modules())
        caught = False
    except spans.BindingError:
        caught = True
    finally:
        modules.buchberger = wrapper
    check(caught, "the audit finds an unwrapped binding")


def test_predictions():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)["predictions"]
    layer = set(spans.combine([spans.summarize([])])) | {"trace.overhead_ratio"}
    rows = [["x", 1.0, 1.0, []]]
    e2e = set(run.end_to_end([1.0], [{"results": rows, "peak_rss_mb": 1.0}], 1, 0))
    unknown = [
        name
        for p in predictions
        for name in p["layer"] + p["end_to_end"] + [p["workload"]]
        if name not in layer | e2e | set(run.WORKLOADS) | {"all"}
    ]
    check(not unknown, "predictions name only known metrics and workloads %s" % unknown)


if __name__ == "__main__":
    test_wrong_expectation()
    test_raising_item()
    test_tracer()
    test_predictions()
    print("selftest passed")
