"""Check that the host speed factor follows the host, not the workload.

    python3 bench/interleave.py --rounds 6 --label check

Runs rounds of one untraced pass of every workload, one after another, so
that the passes of a round see nearly the same host state, with the probe
of ``run.py``.  For each pass it records the raw run time, the speed factor
and the scaled run time.  If the factor depended on the workload rather
than on the host, a workload's median factor would stand apart from the
others'; if it follows the host, the scaled times of a workload are
steadier over the rounds than its raw times.  Prints a summary and writes
``bench/results/INTERLEAVE_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import probe
import run


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)

    cpu = probe.pick_cpu()
    hp = probe.HostProbe(cpu)
    hp.start()
    passes = []
    try:
        for r in range(args.rounds):
            for w in run.WORKLOAD_NAMES:
                _, res = run.run_worker(run.worker_cmd(w, args.seed, False),
                                        args.seed, cpu)
                passes.append((r, w, res))
    finally:
        hp.stop()
    rows = []
    for r, w, res in passes:
        run.add_times(hp, res)
        rows.append({"round": r, "workload": w, "raw_run_s": res["raw_run_s"],
                     "factor": res["speed_factor"], "run_s": res["run_s"]})
        print("round %d %-10s raw %7.3f s  factor %.3f  scaled %7.3f s"
              % (r, w, res["raw_run_s"], res["speed_factor"], res["run_s"]),
              file=sys.stderr)
    # A round spans most of a minute, in which the host may change state,
    # so a workload's factor is compared with all passes' over the rounds.
    overall = statistics.median(x["factor"] for x in rows)
    summary = {"factor_median": overall, "workloads": {}}
    for w in run.WORKLOAD_NAMES:
        mine = [x for x in rows if x["workload"] == w]
        factor = statistics.median(x["factor"] for x in mine)
        summary["workloads"][w] = {
            "raw_spread": spread([x["raw_run_s"] for x in mine]),
            "scaled_spread": spread([x["run_s"] for x in mine]),
            "factor_median": factor,
            "factor_median_over_all": factor / overall,
        }
    print(json.dumps(summary, indent=1), file=sys.stderr)
    doc = {"label": args.label, "seed": args.seed, "probe_cpu": cpu,
           "probe_pinned": hp.pinned, "passes": rows, "summary": summary,
           "meta": run.metadata("interleave", args.seed, 0)}
    out_dir = os.path.join(run.HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "INTERLEAVE_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
