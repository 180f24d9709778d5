"""The three benchmark workloads.

A workload is built from the benchmark seed (its set-up), then ``run(timer)``
performs the timed section, calling ``timer(query_id, fn, *args)`` once per
query, and ``check(answers)`` returns the ids of the queries whose answer is
wrong or uncertain.  The program only ever sees the generated inputs.  The
seed also fixes the order of the queries; ``reverse=True`` runs the same
queries in the opposite order.

* ``oracle``      generic engine against the Nakayama closed forms: many
                  tiny eliminations, class-table and dimension-DFS work.
* ``translates``  tau, tau^-1, Omega^2 and iso over sym-777-gendo: few,
                  large eliminations and int64 matmuls.
* ``gendo-gf4``   one ``endo`` CLI call over the table field GF(4).
"""

from __future__ import annotations

import io
import json
import os
import random

from gorlab import algebra as alg
from gorlab import cli
from gorlab import fixtures as fx
from gorlab import invariants as inv
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# Cyclic Kupisch series from the criterion-6 enumeration (n <= 3, c <= 7),
# chosen to span algebra dimensions 2..14 with a symmetric (c,c,c) member
# while keeping one pass near five seconds.
ORACLE_SERIES = [(2,), (3, 2), (2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 5, 5)]
ORACLE_FIELDS = (2, 5)

TRANSLATES_FIXTURE = "sym-777-gendo"
# Indices into the non-projective pool classes of sym-777-gendo (pool order):
# tau m ~ Omega^2 m for 2 and 6; Omega^2 m = 0 for 1; tau m and Omega^2 m of
# equal dimension but not isomorphic for 14; an 11-dimensional tau m, with
# Kronecker systems of several hundred unknowns, for 13.
TRANSLATES_CLASSES = [1, 2, 4, 6, 13, 14]

GF4_FIXTURE = "gf4-local-gendo"


def _dim(d):
    return [d.kind, d.value]


class Oracle:
    name = "oracle"

    def __init__(self, seed: int, reverse: bool = False):
        rng = random.Random(seed)
        known = set(cli._cyclic_series(3, 7))
        series = list(ORACLE_SERIES)
        missing = [s for s in series if s not in known]
        if missing:
            raise ValueError("not in the criterion-6 enumeration: %s"
                             % missing)
        rng.shuffle(series)
        self.jobs = []
        for s in series:
            a = nak.validate_kupisch(s)
            for p in ORACLE_FIELDS:
                mods = list(nak.indecomposables(a))
                rng.shuffle(mods)
                self.jobs.append((s, p, a, mods))
        if reverse:
            self.jobs = [(s, p, a, mods[::-1])
                         for s, p, a, mods in reversed(self.jobs)]

    @staticmethod
    def _qid(series, p, m):
        return "%s/F%d/%d,%d" % ("-".join(map(str, series)), p, m.i, m.k)

    @staticmethod
    def _query(ba, m):
        bm = mr.bridge_module(ba, m.i, m.k)
        return {
            "projdim": _dim(inv.module_projdim(bm)),
            "injdim": _dim(inv.module_injdim(bm)),
            "domdim": _dim(inv.module_domdim(bm)),
            "codomdim": _dim(inv.module_codomdim(bm)),
            "gp": inv.gp_test(ba, bm).status,
            "gi": inv.gi_test(ba, bm).status,
        }

    def run(self, timer) -> dict:
        answers = {}
        for s, p, a, mods in self.jobs:
            ba = alg.from_kupisch(a, la.PrimeField(p))
            for m in mods:
                qid = self._qid(s, p, m)
                answers[qid] = timer(qid, self._query, ba, m)
        return answers

    def check(self, answers) -> list:
        failed = []
        for s, p, a, mods in self.jobs:
            gp = {(x.i, x.k) for x in nak.gp_indecs(a)}
            gi = {(x.i, x.k) for x in nak.gi_indecs(a)}
            for m in mods:
                qid = self._qid(s, p, m)
                want = {k: _dim(v) for k, v in nak.dims_nak(a, m).items()}
                want["gp"] = "yes" if (m.i, m.k) in gp else "no"
                want["gi"] = "yes" if (m.i, m.k) in gi else "no"
                if answers.get(qid) != want:
                    failed.append(qid)
        return failed


def translate_classes(f) -> list:
    """Non-projective pool classes of the fixture as theorem check (b)
    takes them: the representatives of the program's class table, in pool
    order.  Building the table is part of the workload's set-up."""
    eng, ids = inv._pool_classes(f, 0)
    reps = [eng.table.reps[ci] for ci in ids]
    return [m for m in reps if not inv._is_proj_module(m, 0)]


def translate_query(m) -> dict:
    t = mr.tau(m)
    ti = mr.tau_inv(m)
    o2 = mr.syzygy(m, 2)
    r = mr.iso(t, o2)
    return {"dim": m.dim, "tau": t.dim, "tau_inv": ti.dim, "omega2": o2.dim,
            "iso": bool(r.isomorphic), "certain": bool(r.certain)}


def load_expected(name: str):
    with open(os.path.join(EXPECTED_DIR, name + ".json")) as fh:
        return json.load(fh)


class Translates:
    name = "translates"

    def __init__(self, seed: int, reverse: bool = False):
        rng = random.Random(seed)
        self.expected = load_expected("translates")["classes"]
        f = fx.build_fixture(TRANSLATES_FIXTURE)
        classes = translate_classes(f)
        if len(classes) != len(self.expected):
            raise ValueError("sym-777-gendo has %d non-projective pool "
                             "classes, expected %d"
                             % (len(classes), len(self.expected)))
        self.items = [(i, classes[i]) for i in TRANSLATES_CLASSES]
        rng.shuffle(self.items)
        if reverse:
            self.items.reverse()

    def run(self, timer) -> dict:
        return {"class%d" % i: timer("class%d" % i, translate_query, m)
                for i, m in self.items}

    def check(self, answers) -> list:
        failed = []
        for i, _ in self.items:
            qid = "class%d" % i
            got = answers.get(qid)
            want = {k: v for k, v in self.expected[i].items()
                    if k != "codomdim"}
            if got != dict(want, certain=True):
                failed.append(qid)
        return failed


def normalize_endo_report(rep: dict) -> dict:
    """The parts of an ``endo`` JSON report that must not depend on the
    seed: dimensions (kind and value), verdicts and check statuses."""

    def dim(d):
        return None if d is None else [d["kind"], d.get("value")]

    chen = rep["chen_koenig"]
    return {
        "fixture": rep["fixture"],
        "algebra_dim": rep["algebra_dim"],
        "domdim": dim(rep["domdim"]),
        "gordim_left": dim(rep["gordim_left"]),
        "gordim_right": dim(rep["gordim_right"]),
        "gorenstein": rep["gorenstein"],
        "gendo_symmetric": rep["gendo_symmetric"],
        "fdomdim_pool": dim(rep["fdomdim_pool"]),
        "fdomdim_pool_certified": rep["fdomdim_pool_certified"],
        "mueller_domdim": dim(rep["mueller_domdim"]),
        "mueller_consistent": rep["mueller_consistent"],
        "chen_koenig": None if chen is None else {
            k: (dim(v) if isinstance(v, dict) else v)
            for k, v in chen.items() if k != "note"},
        "checks": [[c["name"], c["status"]] for c in rep["checks"]],
    }


def endo_query(argv) -> dict:
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    rep = json.loads(buf.getvalue()) if code in (0, 2) else None
    return {"exit": code,
            "report": None if rep is None else normalize_endo_report(rep)}


def gf4_argv(seed: int) -> list:
    return ["--format", "json", "--seed", str(seed), "endo", "--fixture",
            GF4_FIXTURE]


class GendoGF4:
    name = "gendo-gf4"

    def __init__(self, seed: int, reverse: bool = False):
        # one query: both orders are the same
        self.argv = gf4_argv(seed)
        self.expected = load_expected("gendo-gf4")

    def run(self, timer) -> dict:
        return {"endo": timer("endo", endo_query, self.argv)}

    def check(self, answers) -> list:
        want = {"exit": 0, "report": self.expected["report"]}
        return [] if answers.get("endo") == want else ["endo"]


WORKLOADS = {w.name: w for w in (Oracle, Translates, GendoGF4)}
