"""Run the benchmark over several seeds and summarise it in a BENCH file.

    python3 bench/sweep.py --runs 10 --label baseline
    python3 bench/sweep.py --runs 5 --workload translates --label probe

For each workload: ``--runs`` untraced runs with seeds ``--first-seed``,
``--first-seed + 1``, ... and then one traced run with the first seed.  For
every end-to-end metric it records the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  Writes ``bench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall,
            "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="may be repeated; default: every workload")
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    doc = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: v["value"] for k, v in
                 runs[-1]["result"]["metrics"].items()})), file=sys.stderr)
        entry = {"end_to_end": {}, "runs": runs,
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs)}
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = spread(vals)
            s.update(unit=m["unit"], bound=m["bound"], values=vals)
            entry["end_to_end"][m["name"]] = s
            print("%-11s %-13s median %12.4f  spread %.4f  bound %.2f"
                  % (name, m["name"], s["median"], s["spread"], m["bound"]),
                  file=sys.stderr)
        traced = run_once(name, seeds[0], seconds, 1)
        entry["traced"] = traced
        entry["trace_overhead"] = \
            traced["result"]["metrics"]["trace_overhead"]["value"]
        doc["workloads"][name] = entry
        doc["meta"] = {k: v for k, v in runs[0]["meta"].items()
                       if k in ("git_sha", "src_digest", "src_lines",
                                "python", "numpy", "nproc", "jobs")}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
