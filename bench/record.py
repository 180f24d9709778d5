"""Record the reference answers that ``translates`` and ``gendo-gf4`` check.

    python3 bench/record.py

Writes ``bench/expected/translates.json`` and ``bench/expected/gendo-gf4.json``.
Run it only on a commit whose answers are trusted: the benchmark treats these
files as ground truth.  Before writing, each translates record is checked
against the statement of theorem check (b) on this gendo-symmetric fixture,
codomdim(m) >= 2  <=>  tau(m) ~ Omega^2(m), and recording stops if it fails.
"""

from __future__ import annotations

import json
import os
import sys

import worker

worker.import_gorlab()

import workloads  # noqa: E402  (needs gorlab on sys.path)
from gorlab import fixtures as fx  # noqa: E402
from gorlab import invariants as inv  # noqa: E402


def record_translates() -> dict:
    f = fx.build_fixture(workloads.TRANSLATES_FIXTURE)
    classes = workloads.translate_classes(f)
    out = []
    for i, m in enumerate(classes):
        ans = workloads.translate_query(m)
        if not ans["certain"]:
            raise SystemExit("class %d: iso verdict not certain" % i)
        del ans["certain"]
        cd = inv.module_codomdim(m)
        if cd.kind == "atleast" and cd.value < 2:
            raise SystemExit("class %d: codomdim undecided (%s)" % (i, cd))
        lhs = cd.ge(2)
        rhs = bool(ans["tau"] and ans["iso"])
        if lhs != rhs:
            raise SystemExit("class %d: codomdim>=2 is %s but tau~Omega^2 is "
                             "%s" % (i, lhs, rhs))
        ans["codomdim"] = str(cd)
        out.append(ans)
        print("class %d: %s" % (i, ans), file=sys.stderr)
    return {"fixture": workloads.TRANSLATES_FIXTURE, "classes": out}


def record_gendo_gf4() -> dict:
    ans = workloads.endo_query(workloads.gf4_argv(0))
    if ans["exit"] != 0:
        raise SystemExit("endo exited with %d" % ans["exit"])
    return {"argv_seed": 0, "report": ans["report"]}


def main():
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name, fn in (("translates", record_translates),
                     ("gendo-gf4", record_gendo_gf4)):
        doc = fn()
        path = os.path.join(workloads.EXPECTED_DIR, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
