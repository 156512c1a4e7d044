"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED SPAWNED_AT [SPANS_FILE]

MODE is ``setup`` (set up, then exit), ``timed``, ``traced`` (timed with
spans around every layer) or ``check`` (the default seed's items, with
canonical outputs hashed into a digest).  SPAWNED_AT is the parent's
``time.perf_counter()`` just before the spawn, so that set-up time includes
the interpreter start; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes.  Times are calibrated by ``speed.SpeedProbe``.  The result
is one JSON line on standard output; an item row is
``[id, calibrated seconds, wall seconds, mismatches]``.
"""

import hashlib
import json
import os
import resource
import sys
import time

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    mode, workload, seed, spawned_at = argv[1], argv[2], int(argv[3]), float(argv[4])
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import multischeme
    import workloads

    if not os.path.abspath(multischeme.__file__).startswith(SRC + os.sep):
        raise SystemExit("multischeme was imported from %s, not %s" % (multischeme.__file__, SRC))
    if tracer is not None:
        tracer.audit([workloads])
    items = workloads.setup(workload, workloads.DEFAULT_SEED if mode == "check" else seed)
    ready = time.perf_counter()
    out = {"items": len(items)}
    if mode != "setup":
        canon = [] if mode == "check" else None

        def on_item(k):
            if tracer is not None:
                tracer.item = k

        results = workloads.run_pass(items, canon=canon, on_item=on_item)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["pass_wall_s"] = results[-1][2] - results[0][1]
        out["results"] = [
            [item_id, probe.calibrate(t0, t1), t1 - t0, bad] for item_id, t0, t1, bad in results
        ]
        if canon is not None:
            out["digest"] = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    probe.stop()
    out["setup_s"] = probe.calibrate(spawned_at, ready)
    out["setup_wall_s"] = ready - spawned_at
    if tracer is not None:
        tracer.item = -1
        out["trace"] = spans.summarize(tracer.spans)
        tracer.write(argv[5])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
