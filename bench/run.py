"""gorlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Runs passes of the workload one after another (closed loop, one query at a
time, one process), each in a fresh interpreter so that the fixture cache and
the per-algebra memos start cold, as for a user's CLI call.  Passes continue
until ``--seconds`` have elapsed and at least ``MIN_PASSES`` are done.  Every
pass of a run has the same inputs, so their answers must agree; an untraced
run alternates the seed's order of the queries and its reverse.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes, alternated with untraced passes to measure the
tracing overhead.  Each worker is pinned to one CPU, where a thread of this
process samples the host's speed (``probe.py``); reported times are net of
the probe's CPU time and scaled to the host's fast state.  The last line of
standard output is the result object; the line before it carries metadata
(source line count, versions, sample counts, error rate).  The full result
is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import probe
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("oracle", "translates", "gendo-gf4")

MIN_PASSES = 2        # untraced passes per run (and traced ones with --trace 1)
MIN_SETUPS = 3        # set-up samples per untraced run
RUN_LIMIT_S = 150.0   # start no pass after this, to end well within 180 s
PASS_TIMEOUT_S = 170.0

# Per-layer metrics as (span name, figure); the metric is "<name>.<figure>".
LAYER_FIGURES = (
    [("linalg.row_echelon", f) for f in ("calls", "self_s", "cells")]
    + [(n, f) for n in ("linalg.nullspace", "linalg.solve_raw",
                        "linalg.rank_raw") for f in ("calls", "self_s")]
    + [("linalg.matmul", f) for f in ("calls", "self_s", "macs")]
    + [("modrep.hom_basis", f) for f in ("calls", "self_s", "unknowns")]
    + [("modrep." + n, f) for n in ("tau", "tau_inv", "nu", "nu_map",
                                    "transpose_tr", "structure",
                                    "projective_cover", "syzygy")
       for f in ("calls", "self_s")]
    + [("modrep.decompose", f) for f in ("calls", "self_s", "uncertain")]
    + [("modrep.iso", f) for f in ("calls", "self_s", "hit_ratio",
                                   "uncertain")]
    + [("invariants.canon", f) for f in ("calls", "self_s", "iso_per_call")]
    + [("invariants." + n, f) for n in ("module_dims", "gp_test",
                                        "theorem_suite")
       for f in ("calls", "self_s")]
    + [("algebra." + n, f) for n in ("from_kupisch", "is_symmetric")
       for f in ("calls", "self_s")]
    + [(n, "self_s") for n in ("fixtures.build_fixture",
                               "modrep.endo_algebra", "modrep.hom_functor")]
    + [("nakayama.dims_nak", f) for f in ("calls", "self_s")]
    + [("cli.main", "self_s")]
)
EXTRA_FIGURES = {"cells", "macs", "unknowns"}
UNITS = {"calls": "count", "self_s": "s", "cells": "count", "macs": "count",
         "unknowns": "count", "uncertain": "count", "hit_ratio": "ratio",
         "iso_per_call": "ratio"}


def fail(msg: str) -> int:
    print("bench: %s" % msg, file=sys.stderr)
    return 1


def worker_cmd(workload, seed, traced, reverse=False, setup_only=False,
               spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if reverse:
        cmd.append("--reverse")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    return cmd


def run_worker(cmd, seed, cpu):
    """Start one worker pinned to ``cpu``; return its set-up window
    (start, inputs ready) and its result, or None for a set-up-only pass."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    t0 = time.perf_counter()
    # unbuffered, so that readline() takes no more than the first line and
    # communicate() gets the rest
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            bufsize=0)
    probe.pin(proc.pid, cpu)
    try:
        if not select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, PASS_TIMEOUT_S)
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out: %s" % " ".join(cmd))
    if proc.returncode != 0 or first.strip() != b"ready":
        raise RuntimeError("worker failed (exit %s): %s"
                           % (proc.returncode, " ".join(cmd)))
    lines = rest.decode().strip().splitlines()
    return (t0, t_ready), (json.loads(lines[-1]) if lines else None)


def quantile(values, q):
    """Linear-interpolated quantile q in [0, 1] of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def src_line_count() -> int:
    n = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    n += sum(1 for _ in fh)
    return n


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only inside a git work tree of its own: the benchmark's checkout may
    # not be one, and git must not find an enclosing repository instead.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(workload, seed, trace) -> dict:
    import numpy
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": git_sha(), "src_digest": src_digest(),
        "src_lines": src_line_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "jobs": 1,
    }


def net_seconds(hp, a, b) -> float:
    """Duration of [a, b] without the probe's CPU time in it, scaled to
    the host's fast state."""
    return (b - a - hp.busy(a, b)) * hp.factor(a, b)


def add_times(hp, res):
    """Add the pass's scaled ``run_s``, query latencies and speed factor."""
    a, b = res["run_span"]
    res["raw_run_s"] = b - a
    res["speed_factor"] = hp.factor(a, b)
    res["run_s"] = net_seconds(hp, a, b)
    # a query is too short for a factor of its own: it takes the pass's
    res["latencies_s"] = {
        q: (e - s - hp.busy(s, e)) * res["speed_factor"]
        for q, (s, e) in res["query_spans"].items()}


def layer_metrics(traced, untraced) -> dict:
    aggs = [p["trace"] for p in traced]
    factors = [p["speed_factor"] for p in traced]
    first = aggs[0]
    out = {}
    for name, fig in LAYER_FIGURES:
        rec = first[name]
        if fig == "self_s":
            value = statistics.median(a[name]["self_s"] * f
                                      for a, f in zip(aggs, factors))
        elif fig == "calls":
            value = rec["calls"]
        elif fig in EXTRA_FIGURES:
            value = rec["extra"]
        elif fig == "uncertain":
            value = rec["uncertain"]
        elif fig == "hit_ratio":
            value = rec["hits"] / rec["calls"] if rec["calls"] else 0.0
        else:   # iso_per_call
            value = rec["iso_calls"] / rec["calls"] if rec["calls"] else 0.0
        out["%s.%s" % (name, fig)] = {"value": value, "unit": UNITS[fig]}
    for layer in LAYERS:
        value = statistics.median(
            f * sum(v["self_s"] for k, v in a.items()
                    if k.startswith(layer + "."))
            for a, f in zip(aggs, factors))
        out[layer + ".self_s"] = {"value": value, "unit": "s"}
    overhead = (min(r["run_s"] for r in traced)
                / min(r["run_s"] for r in untraced) - 1.0)
    out["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return out


def counts_of(agg) -> dict:
    return {k: {f: v for f, v in rec.items() if f != "self_s"}
            for k, rec in agg.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gorlab", "__init__.py")):
        return fail("no gorlab sources under %s" % SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    passes = []          # (traced, set-up window, worker result)
    cpu = probe.pick_cpu()
    hp = probe.HostProbe(cpu)
    hp.start()
    start = time.perf_counter()
    try:
        while True:
            n_traced = sum(1 for t, _, _ in passes if t)
            traced = bool(args.trace) and n_traced < len(passes) - n_traced
            # What a query leaves resident depends on the queries before it,
            # so an untraced run alternates the seed's order and its
            # reverse: every pair of queries runs in both relative orders.
            # Traced passes keep the seed's order, so their counts repeat.
            reverse = not args.trace and len(passes) % 2 == 1
            spans = (os.path.join(OUT_DIR, "spans-%s.json" % tag)
                     if traced and n_traced == 0 else None)
            window, res = run_worker(
                worker_cmd(args.workload, args.seed, traced, reverse,
                           spans=spans),
                args.seed, cpu)
            res["reverse"] = reverse
            passes.append((traced, window, res))
            elapsed = time.perf_counter() - start
            n_traced += traced
            enough = (len(passes) - n_traced >= MIN_PASSES
                      and (not args.trace or n_traced >= MIN_PASSES))
            if (elapsed >= args.seconds and enough) or elapsed >= RUN_LIMIT_S:
                break
        windows = [w for t, w, _ in passes if not t]
        while not args.trace and len(windows) < MIN_SETUPS:
            windows.append(run_worker(
                worker_cmd(args.workload, args.seed, False, setup_only=True),
                args.seed, cpu)[0])
    except RuntimeError as e:
        return fail(str(e))
    finally:
        hp.stop()
    try:
        setups = [net_seconds(hp, a, b) for a, b in windows]
        for _, _, r in passes:
            add_times(hp, r)
    except RuntimeError as e:
        return fail(str(e))

    untraced = [r for t, _, r in passes if not t]
    traced = [r for t, _, r in passes if t]
    reference = untraced[0]["answers"]
    attempted = failed = 0
    mismatched = set()
    for r in untraced + traced:
        bad = set(r["failed"])
        bad |= {q for q, a in r["answers"].items() if reference.get(q) != a}
        mismatched |= bad - set(r["failed"])
        attempted += len(r["answers"])
        failed += len(bad)
    counts_repeat = all(counts_of(r["trace"]) == counts_of(traced[0]["trace"])
                        for r in traced)

    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        # Times are scaled to the host's fast state (probe.HostProbe).
        # run_s is the fastest scaled pass; a latency percentile is the
        # median over passes of the pass's percentile, which does not
        # depend on how many passes fitted in the run.
        lat_ms = [[1000.0 * x for x in r["latencies_s"].values()]
                  for r in untraced]

        def percentile(q):
            return statistics.median(quantile(xs, q) for xs in lat_ms)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": min(r["run_s"] for r in untraced),
                      "unit": "s"},
            "query_p50_ms": {"value": percentile(0.5), "unit": "ms"},
            "query_p90_ms": {"value": percentile(0.9), "unit": "ms"},
            # the largest over both orders: which queries ran before the
            # heaviest one decides how much memory is resident under it
            "peak_rss_mb": {"value": max(
                r["peak_rss_mb"] for r in untraced), "unit": "MB"},
        }
    meta = metadata(args.workload, args.seed, args.trace)
    meta.update({
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "setup_samples": len(setups),
        "query_samples": sum(len(r["latencies_s"]) for r in untraced),
        "raw_run_s": [r["raw_run_s"] for r in untraced + traced],
        "speed_factors": [r["speed_factor"] for r in untraced + traced],
        "reversed": [r["reverse"] for r in untraced + traced],
        "probe": {"cpu": cpu, "pinned": hp.pinned,
                  "samples": len(hp.samples)},
        "error_rate": {"failed": failed, "attempted": attempted,
                       "value": failed / attempted if attempted else 0.0},
        "failed_queries": sorted({q for r in untraced + traced
                                  for q in r["failed"]} | mismatched),
        "errors": {q: e for r in untraced + traced
                   for q, e in r["errors"].items()},
        "answers_agree_across_passes": not mismatched,
        "trace_counts_repeat": counts_repeat if traced else None,
    })
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
