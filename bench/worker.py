"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``.  Imports gorlab from the checkout's ``src/``, builds
the workload's inputs, prints ``ready`` (the parent times set-up up to that
line), runs the timed section, checks the answers and prints one JSON
object as its last line.  With ``--trace 1`` the tracer wraps gorlab's
public functions before set-up and the result carries the per-name
aggregates.  Times are given as ``time.perf_counter()`` readings, which the
parent turns into durations net of its host speed probe (``probe.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_gorlab():
    """Import gorlab from this checkout only; exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import gorlab
    except ImportError as e:
        print("cannot import gorlab from %s: %s" % (SRC, e), file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(gorlab.__file__))
    if where != os.path.join(SRC, "gorlab"):
        print("gorlab imported from %s, not from %s" % (where, SRC),
              file=sys.stderr)
        sys.exit(2)
    return gorlab


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reverse", action="store_true",
                   help="run the seed's queries in the opposite order")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the trace spans to this file")
    args = p.parse_args(argv)
    gorlab = import_gorlab()
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(gorlab)
        tracer.query = "setup"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.reverse)
    # the parent times set-up up to the "ready" line
    print("ready", flush=True)
    if args.setup_only:
        return 0

    query_spans = {}
    errors = {}
    clock = time.perf_counter

    def timer(qid, fn, *fargs):
        if tracer is not None:
            tracer.query = qid
        t = clock()
        try:
            result = fn(*fargs)
        except Exception as e:   # a failing query is counted, not fatal
            errors[qid] = "%s: %s" % (type(e).__name__, e)
            result = None
        query_spans[qid] = [t, clock()]
        if tracer is not None:
            tracer.query = None
        return result

    t0 = clock()
    answers = wl.run(timer)
    run_span = [t0, clock()]
    failed = sorted(set(wl.check(answers)) | set(errors))
    if tracer is not None:
        tracer.uninstall()
    out = {
        "run_span": run_span,
        "query_spans": query_spans,
        "answers": answers,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.aggregate()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
