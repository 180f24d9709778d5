"""Trace fidelity and count repeatability of the benchmark.

    python3 -m pytest bench/test_bench.py

Runs one untraced and two traced passes of every workload with the same
seed (about two minutes), then checks that

* every wrapped name is reached on at least one workload;
* traced and untraced passes return identical answers, all correct;
* the computed counts (calls, cells, macs, unknowns, ...) repeat exactly.

and that the host speed probe nets and scales a window as documented.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import probe
import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle", "translates", "gendo-gf4")
SEED = 7


def _pass(workload, traced):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(SEED), "--trace", "1" if traced else "0"]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                         text=True, timeout=300, check=True,
                         env=dict(os.environ, PYTHONHASHSEED=str(SEED)))
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def passes():
    return {w: {"plain": _pass(w, False), "traced": [_pass(w, True),
                                                     _pass(w, True)]}
            for w in WORKLOADS}


def _counts(agg):
    return {name: {k: v for k, v in rec.items() if k != "self_s"}
            for name, rec in agg.items()}


def test_every_wrapped_name_is_reached(passes):
    reached = set()
    for p in passes.values():
        reached |= {n for n, rec in p["traced"][0]["trace"].items()
                    if rec["calls"]}
    assert reached == set(spans.SPAN_NAMES)


def test_traced_and_untraced_answers_agree(passes):
    for w, p in passes.items():
        assert p["plain"]["failed"] == [], w
        for t in p["traced"]:
            assert t["failed"] == [], w
            assert t["answers"] == p["plain"]["answers"], w


def test_counts_repeat_exactly(passes):
    for w, p in passes.items():
        a, b = (_counts(t["trace"]) for t in p["traced"])
        assert a == b, w


def test_aliases_and_class_level_matmul_are_wrapped():
    gorlab = worker.import_gorlab()
    from gorlab import algebra, invariants, linalg
    tracer = spans.Tracer()
    tracer.install(gorlab)
    try:
        assert invariants.is_symmetric is algebra.is_symmetric
        assert invariants.corner_algebra is algebra.corner_algebra
        assert algebra.is_symmetric.__wrapped_span__ == "algebra.is_symmetric"
        assert "matmul" not in vars(linalg.PrimeField)
        assert "matmul" not in vars(linalg.SmallTableField)
        f = linalg.PrimeField(3)
        f.matmul(f.eye(2), f.eye(2))
        linalg.GF4().matmul(f.eye(2), f.eye(2))
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["linalg.matmul"]["calls"] == 2
    assert agg["linalg.matmul"]["extra"] == 16
    assert not hasattr(algebra.is_symmetric, "__wrapped_span__")


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    def inner():
        time.sleep(0.01)
        leaf_w()

    def outer():
        inner_w()
        inner_w()

    leaf_w = tracer._wrap("linalg.rank_raw", leaf)
    inner_w = tracer._wrap("modrep.structure", inner)
    outer_w = tracer._wrap("modrep.syzygy", outer)
    tracer.query = "q"
    outer_w()
    agg = tracer.aggregate()
    assert agg["modrep.syzygy"]["calls"] == 1
    assert agg["modrep.structure"]["calls"] == 2
    assert agg["linalg.rank_raw"]["calls"] == 2
    assert agg["modrep.syzygy"]["self_s"] < 0.005
    assert 0.02 <= agg["modrep.structure"]["self_s"] < 0.03
    assert 0.04 <= agg["linalg.rank_raw"]["self_s"] < 0.05
    outer_span, s1, s2 = tracer.spans
    assert s1[3] == s2[3] == 0 and outer_span[3] == -1
    assert all(s[4] == "q" for s in tracer.spans)
    # both leaf calls fold into one record per (nearest kept ancestor, name)
    assert set(tracer.folded) == {(1, "linalg.rank_raw"),
                                  (2, "linalg.rank_raw")}
    total = outer_span[2] - outer_span[1]
    self_sum = sum(rec["self_s"] for rec in agg.values())
    assert abs(total - self_sum) < 1e-6


def test_probe_nets_and_scales_a_window():
    hp = probe.HostProbe(None)
    # (wall start, warm kernel CPU time, CPU time of the whole sample)
    hp.samples = [(10.0, 0.004, 0.009), (10.2, 0.004, 0.009),
                  (20.0, 0.001, 0.002)]
    assert hp.busy(9.9, 10.3) == pytest.approx(0.018)
    assert hp.factor(10.0, 10.2) == pytest.approx(probe.REF_S / 0.004)
    # a window shorter than a period takes the samples near it
    assert hp.factor(10.3, 10.35) == pytest.approx(probe.REF_S / 0.004)
    with pytest.raises(RuntimeError):
        hp.factor(15.0, 16.0)


def test_probe_samples_while_started():
    hp = probe.HostProbe(probe.pick_cpu())
    hp.start()
    time.sleep(3 * probe.PERIOD_S)
    hp.stop()
    assert len(hp.samples) >= 2
    a, b = hp.samples[0][0], hp.samples[-1][0]
    assert 0 < hp.busy(a, b + 1) < b + 1 - a
    assert hp.factor(a, b) > 0
