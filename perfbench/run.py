"""Benchmark of the multischeme verdict engine.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 22 --trace 0

Workloads (see ``workloads.py``): ``catalog``, ``syzygy``, ``quotients``.
Each is a closed loop with one client and one thread: a pass runs every
item once, one after another, in a fresh interpreter, and passes follow one
another until ``--seconds`` of passes have run.  Before the passes, a few
interpreters only set up (for the ``setup_s`` median) and one untimed check
pass runs the default seed's items and hashes their canonical outputs; the
digest must equal the one stored in ``golden.json``.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate; the traced ones wrap the public
functions of every layer (``spans.py``) and the per-layer metrics are
per-pass means over them.  A run record with the machine, the item and
sample counts and every metric is written to ``perfbench/out/``; the last
line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("catalog", "syzygy", "quotients")
SETUP_ONLY = 2      # extra set-up-only interpreters per run
RUN_BUDGET_S = 170  # a run must end within 180 s


class ChildError(RuntimeError):
    pass


def spawn(mode, workload, seed, deadline, spans_file=None):
    """Run one pass in a fresh interpreter and return its JSON result."""
    started = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed), repr(started)]
    if spans_file:
        cmd.append(spans_file)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError("%s pass of %s did not end within the run budget" % (mode, workload))
    if proc.returncode != 0:
        raise ChildError("%s pass of %s failed:\n%s" % (mode, workload, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def item_stats(passes):
    """Counts of the items in a list of pass results."""
    results = [r for p in passes for r in p["results"]]
    failed = [r for r in results if r[3]]
    return len(results), failed


def items_per_s(passes, col=1):
    """Items over the summed item time (calibrated, or wall with col=2)."""
    return sum(len(p["results"]) for p in passes) / sum(r[col] for p in passes for r in p["results"])


def item_times(passes):
    """Each item's mean time over the passes, in item order."""
    return [statistics.fmean(rows) for rows in zip(*([r[1] for r in p["results"]] for p in passes))]


def percentile(values, k):
    """The k-th decile (inclusive method) of the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(setups, timed, attempted, failed):
    times = item_times(timed)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items_per_s(timed), "1/s"),
        "item_s.p50": (percentile(times, 5), "s"),
        "item_s.p90": (percentile(times, 9), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timed), "MB"),
    }


def layer_shares(traced):
    """Share of traced pass time spent inside Buchberger, by input kind."""
    wall = sum(p["pass_wall_s"] for p in traced)
    return {
        side: sum(p["trace"]["buchberger"][side]["total_s"] for p in traced) / wall
        for side in ("ideal", "module")
    }


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [spawn("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_ONLY)]
    check = spawn("check", workload, seed, deadline)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[workload]
    timed, traced = [], []
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    t0 = time.monotonic()
    while not timed or (trace and not traced) or time.monotonic() - t0 < seconds:
        if trace and len(traced) < len(timed):
            spans_file = os.path.join(OUT, "spans-%s-pass%d.jsonl" % (tag, len(traced)))
            traced.append(spawn("traced", workload, seed, deadline, spans_file))
        else:
            timed.append(spawn("timed", workload, seed, deadline))
    setups += [p["setup_s"] for p in [check] + timed]
    attempted, failed = item_stats([check] + timed + traced)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "items_per_pass": check["items"],
        "passes": {"timed": len(timed), "traced": len(traced)},
        "samples": {
            "setup_s": len(setups),
            "item_s": {"items": check["items"], "passes_per_item": len(timed)},
        },
        "digest": {"check": check["digest"], "golden": golden},
        "failures": [[r[0], r[3]] for r in failed],
        "item_s": [[r[1] for r in p["results"]] for p in timed],
        "item_wall_s": [[r[2] for r in p["results"]] for p in timed],
        "wall": {
            "setup_s": statistics.median(p["setup_wall_s"] for p in [check] + timed),
            "items_per_s": items_per_s(timed, col=2),
        },
    }
    if trace:
        metrics = spans.combine([p["trace"] for p in traced])
        metrics["trace.overhead_ratio"] = (items_per_s(traced) / items_per_s(timed), "ratio")
        record["buchberger_share"] = layer_shares(traced)
    else:
        metrics = end_to_end(setups, timed, attempted, len(failed))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    correct = not failed and check["digest"] == golden
    return record, {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def report(record):
    m = record["machine"]
    lines = [
        "workload %s seed %d: %d items per pass, %d timed and %d traced passes"
        % (record["workload"], record["seed"], record["items_per_pass"],
           record["passes"]["timed"], record["passes"]["traced"]),
        "machine: %s, %d cpus, %s %s" % (m["cpu_model"], m["nproc"], m["implementation"], m["python"]),
        "samples: setup_s %d; item_s percentiles over %d items, each the mean of %d passes"
        % (record["samples"]["setup_s"], record["samples"]["item_s"]["items"],
           record["samples"]["item_s"]["passes_per_item"]),
        "digest %s (golden %s)" % (record["digest"]["check"], record["digest"]["golden"]),
    ]
    lines += ["FAILED %s: %s" % (item_id, "; ".join(bad)) for item_id, bad in record["failures"]]
    if "buchberger_share" in record:
        lines.append("buchberger share of traced time: ideal %.3f, module %.3f"
                     % (record["buchberger_share"]["ideal"], record["buchberger_share"]["module"]))
    lines += ["%-52s %.6g %s" % (k, v["value"], v["unit"]) for k, v in record["metrics"].items()]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "multischeme", "__init__.py")):
        print("no multischeme sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, args.trace)
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(report(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
