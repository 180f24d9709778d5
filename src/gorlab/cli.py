"""Command-line front end.

Subcommands:

* ``nakayama SERIES``  closed-form report for a Nakayama algebra given by
  its Kupisch series (dims table, resolution quiver, GP/GI/GPI sets).
* ``endo --fixture NAME``  invariants of an endomorphism-algebra fixture
  (dominant/Gorenstein dimensions, consistency cross-checks, theorem suite).
* ``module SPEC``  per-module report (four dimensions plus Gorenstein
  verdicts with certificates).
* ``scan N_MAX C_MAX``  one CSV row per valid cyclic Kupisch series up to
  the bounds, with bound-violation flags.
* ``suite``  run the named-theorem checks over fixtures.

``main`` parses the command line once into the ``args`` of ``cmd_x(args,
out)``: ``--format`` resolved (each subcommand declares its ``formats``,
the first the default) and ``--field`` parsed.  Another ``--format``,
``--jobs`` > 1 outside ``scan``, or a ``--field`` for a fixture over a field
of its own (gf4-local-gendo) is an input error, raised before any output.

Exit codes: 0 success, 1 input error, 2 theorem-suite failure,
3 scan violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import linalg, algebra as alg, nakayama as nak, modrep as mr
from . import invariants as inv
from . import fixtures as fx
from . import serialize as ser

__all__ = ["main", "BudgetExceeded"]

SCAN_SCHEMA = "gorlab-scan-1"
SCAN_BUDGET = 20000   # maximum number of series a single scan may visit


class BudgetExceeded(RuntimeError):
    pass


class _CliError(ValueError):
    pass


def parse_field(name: str) -> linalg.FieldSpec:
    name = name.strip().lower()
    if name in ("gf4", "f4", "4"):
        return linalg.GF4()
    try:
        p = int(name)
    except ValueError:
        raise _CliError("unknown field %r (use a prime or 'gf4')" % name)
    return linalg.PrimeField(p)


def _parse_series(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise _CliError("cannot parse Kupisch series %r" % text)


def _dim_str(d) -> str:
    s = str(d)
    if d.kind == "infinite" and d.certificate is not None:
        s += " [%s]" % d.certificate
    elif d.kind == "infinite" and d.by_convention:
        s += " [%s]" % d.bound_reason
    elif d.kind == "atleast":
        s += " [%s]" % d.bound_reason
    return s


# ---------------------------------------------------------------------------
# nakayama


def _nakayama_report(args) -> dict:
    series = _parse_series(args.series)
    cyclic = not args.linear
    a = nak.validate_kupisch(series, cyclic=cyclic)
    core = nak.algebra_invariants_nak(a)
    indecs = list(nak.indecomposables(a))
    per_module = {}
    table = {}
    for m in indecs:
        dims = nak.dims_nak(a, m)
        per_module[str(m)] = {k: ser.dim_to_json(v) for k, v in dims.items()}
        cell = table.setdefault((m.k % a.n, m.i), [])
        cell.append(str(dims["domdim"]))
    try:
        rq = nak.resolution_quiver(a)
    except nak.NotApplicable:
        rq = None
    ng = nak.nearly_gorenstein_check_nak(a) if cyclic else None
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "seed": args.seed,
        "cutoff": args.cutoff,
        "series": list(series),
        "cyclic": cyclic,
        "domdim": ser.dim_to_json(core["domdim"]),
        "gordim_left": ser.dim_to_json(core["gordim_left"]),
        "gordim_right": ser.dim_to_json(core["gordim_right"]),
        "fdomdim": ser.dim_to_json(core["fdomdim"]),
        "is_gorenstein_dominant": bool(core["is_gorenstein_dominant"]),
        "cm_finite": bool(core["cm_finite"]),
        "nearly_gorenstein": None if ng is None else bool(ng),
        "gp": sorted([m.i, m.k] for m in nak.gp_indecs(a)),
        "gi": sorted([m.i, m.k] for m in nak.gi_indecs(a)),
        "gpi": sorted([m.i, m.k] for m in nak.gpi_indecs(a)),
        "resolution_quiver": None if rq is None else {
            "successor": {str(k): v for k, v in rq.successor.items()},
            "black": sorted(rq.black),
            "cyclically_black": sorted(rq.cyclically_black),
        },
        "domdim_table": {
            "rows": "k mod %d" % a.n,
            "columns": "vertex",
            "cells": {"%d,%d" % key: sorted(set(vals))
                      for key, vals in sorted(table.items())},
        },
        "modules": per_module,
    }


def _print_nakayama_text(rep: dict, out):
    print("Kupisch series: %s (%s)" %
          (",".join(str(c) for c in rep["series"]),
           "cyclic" if rep["cyclic"] else "linear"), file=out)
    for key in ("domdim", "gordim_left", "gordim_right", "fdomdim"):
        print("%-22s %s" % (key, _dim_str(ser.dim_from_json(rep[key]))), file=out)
    print("%-22s %s" % ("gorenstein-dominant", rep["is_gorenstein_dominant"]),
          file=out)
    print("%-22s %s" % ("cm-finite", rep["cm_finite"]), file=out)
    if rep["nearly_gorenstein"] is not None:
        print("%-22s %s" % ("nearly-gorenstein", rep["nearly_gorenstein"]),
              file=out)
    print("GP : %s" % rep["gp"], file=out)
    print("GI : %s" % rep["gi"], file=out)
    print("GPI: %s" % rep["gpi"], file=out)
    rq = rep["resolution_quiver"]
    if rq is not None:
        print("resolution quiver: %s  black=%s  cyclically-black=%s"
              % (rq["successor"], rq["black"], rq["cyclically_black"]),
              file=out)
    n = len(rep["series"])
    print("dominant-dimension table (rows: k mod %d, columns: vertex):" % n,
          file=out)
    cells = rep["domdim_table"]["cells"]
    for r in range(n):
        row = []
        for v in range(n):
            vals = cells.get("%d,%d" % (r, v), [])
            row.append("/".join(vals) if vals else "-")
        print("  k=%d | %s" % (r, "  ".join("%8s" % x for x in row)), file=out)
    print("seed=%d cutoff=%d" % (rep["seed"], rep["cutoff"]), file=out)


def cmd_nakayama(args, out) -> int:
    rep = _nakayama_report(args)
    if args.fmt == "json":
        print(ser.dump_json(rep), file=out)
    elif args.fmt == "csv":
        _print_dims_csv(rep, out)
    else:
        _print_nakayama_text(rep, out)
    return 0


def _print_dims_csv(rep: dict, out):
    w = csv.writer(out)
    w.writerow(["schema_version", "module", "projdim", "injdim",
                "domdim", "codomdim", "seed"])
    for label, dims in rep["modules"].items():
        w.writerow([SCAN_SCHEMA, label] +
                   [str(ser.dim_from_json(dims[k]))
                    for k in ("projdim", "injdim", "domdim", "codomdim")] +
                   [rep["seed"]])


# ---------------------------------------------------------------------------
# endo


def cmd_endo(args, out) -> int:
    f = _resolve_fixture(args.fixture, args.field)
    a = f.algebra
    dd = inv.algebra_domdim(a, args.cutoff)
    left, right = inv.gorenstein_dims(a, args.cutoff)
    gendo = inv.gendo_symmetric_check(a, args.cutoff)
    mueller = chen = None
    if f.endo is not None and f.base_algebra is not None:
        gen = mr.direct_sum(list(f.endo.summands))
        try:
            mueller = inv.mueller_domdim(f.base_algebra, gen, args.cutoff)
            chen = inv.chen_koenig_injdim(f.endo, args.cutoff, dd=mueller)
        except (inv.NotSymmetric, inv.NotGenerator) as e:
            mueller = None
            chen = {"note": "not applicable: %s" % e}
    fdom = None
    if f.pool:
        fdom = inv.fdomdim_pool(f.pool, args.cutoff)
    checks = inv.theorem_suite(f, args.cutoff)
    rep = {
        "schema_version": ser.SCHEMA_VERSION,
        "seed": args.seed,
        "cutoff": args.cutoff,
        "fixture": f.name,
        "algebra_dim": a.dim,
        "domdim": ser.dim_to_json(dd),
        "gordim_left": ser.dim_to_json(left),
        "gordim_right": ser.dim_to_json(right),
        "gorenstein": bool(left.kind == "finite" and right.kind == "finite"
                           and left.value == right.value),
        "gendo_symmetric": bool(gendo),
        "fdomdim_pool": None if fdom is None else ser.dim_to_json(fdom),
        "fdomdim_pool_certified": bool(f.pool_certified) if f.pool else None,
        "mueller_domdim": None if mueller is None else ser.dim_to_json(mueller),
        "mueller_consistent": (None if mueller is None
                               else mueller.consistent_with(dd)),
        "chen_koenig": None if chen is None else {
            k: (ser.dim_to_json(v) if hasattr(v, "kind") else v)
            for k, v in chen.items()},
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                   for c in checks],
    }
    if args.fmt == "json":
        print(ser.dump_json(rep), file=out)
    else:
        print("fixture: %s (dim %d)" % (f.name, a.dim), file=out)
        print("%-22s %s" % ("domdim", _dim_str(dd)), file=out)
        print("%-22s %s / %s" % ("gordim (l/r)", _dim_str(left),
                                 _dim_str(right)), file=out)
        print("%-22s %s" % ("gorenstein", rep["gorenstein"]), file=out)
        print("%-22s %s" % ("gendo-symmetric", rep["gendo_symmetric"]),
              file=out)
        if fdom is not None:
            tag = "" if f.pool_certified else " (pool not exhaustive)"
            print("%-22s %s%s" % ("fdomdim (pool)", _dim_str(fdom), tag),
                  file=out)
        if mueller is not None:
            print("%-22s %s (consistent: %s)"
                  % ("mueller domdim", _dim_str(mueller),
                     rep["mueller_consistent"]), file=out)
        if chen is not None and "lhs" in chen:
            print("%-22s lhs=%s rhs=%s z=%s"
                  % ("chen-koenig injdim", _dim_str(chen["lhs"]),
                     _dim_str(chen["rhs"]), chen["z"]), file=out)
        for c in checks:
            print("  check %-44s %-4s %s" % (c.name, c.status, c.detail),
                  file=out)
        print("seed=%d cutoff=%d" % (args.seed, args.cutoff), file=out)
    return 2 if any(c.status == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# module


def _resolve_fixture(name, field):
    if name.startswith("kupisch-s"):
        s = name[len("kupisch-s"):]
        if not (s.isascii() and s.isdigit()):
            raise _CliError("fixture %r: use kupisch-s<N> for a whole number N"
                            % name)
        return fx.parametric_kupisch(int(s), field)
    try:
        return fx.build_fixture(name, field)
    except KeyError as e:
        raise _CliError(str(e))


def _extra_module(f, key: str, algebra, what: str):
    """The entry key of the fixture's extras, which must be a module over
    the given algebra."""
    known = sorted(k for k, v in f.extras.items()
                   if isinstance(v, mr.RightModule) and v.algebra is algebra)
    if key not in known:
        raise _CliError("fixture %s has no %s %r (known: %s)"
                        % (f.name, what, key, ", ".join(known) or "none"))
    return f.extras[key]


def _resolve_module(spec: str, f, field):
    spec = spec.strip()
    if spec.startswith("@"):
        return _module_file(spec[1:], f, field)
    pair = spec.startswith("[") and spec.endswith("]")
    if not (pair or spec.startswith(("hom:", "extra:"))):
        raise _CliError("cannot parse module spec %r "
                        "(use [i,k], hom:KEY, extra:KEY or @file.json)" % spec)
    if f is None:
        raise _CliError("a --fixture name is required")
    if spec.startswith("hom:"):
        if f.endo is None:
            raise _CliError("hom-image specs need an endo fixture")
        return mr.hom_functor(f.endo, _extra_module(f, spec[4:], f.base_algebra,
                                                    "base module"))
    if spec.startswith("extra:"):
        return _extra_module(f, spec[6:], f.algebra, "extra module")
    if f.nak is None:
        raise _CliError("coordinate pairs need a Nakayama fixture")
    try:
        i, k = (int(x) for x in spec[1:-1].split(","))
    except ValueError:
        raise _CliError("cannot parse coordinate pair %r (use [i,k])" % spec)
    if not (0 <= i < f.nak.n and 1 <= k <= f.nak.c[i]):
        raise _CliError("no module %s over Kupisch series %s: need 0 <= i < %d "
                        "and 1 <= k <= c_i" % (spec, ",".join(map(str, f.nak.c)),
                                               f.nak.n))
    return mr.bridge_module(f.algebra, i, k)


def _module_file(path: str, f, field):
    """The module stored at path, over its algebra_ref (a fixture name or an
    algebra JSON file) or else over the --fixture algebra."""
    d = ser.load_json(path)
    ref = d.get("algebra_ref", "") if isinstance(d, dict) else None
    if not isinstance(ref, str):
        raise _CliError("module file %s holds no module object" % path)
    if not ref and f is None:
        raise _CliError("a --fixture name or an algebra_ref is required")
    if ref and not ref.endswith(".json"):
        f = _resolve_fixture(ref, field)
    try:
        a = (ser.algebra_from_json(ser.load_json(ref)) if ref.endswith(".json")
             else f.algebra)
        return ser.module_from_json(d, a)
    except (KeyError, TypeError, ValueError) as e:
        raise _CliError("malformed module file %s: %r" % (path, e))


def cmd_module(args, out) -> int:
    f = _resolve_fixture(args.fixture, args.field) if args.fixture else None
    m = _resolve_module(args.spec, f, args.field)
    a = m.algebra
    dims = {
        "projdim": inv.module_projdim(m, args.cutoff),
        "injdim": inv.module_injdim(m, args.cutoff),
        "domdim": inv.module_domdim(m, args.cutoff),
        "codomdim": inv.module_codomdim(m, args.cutoff),
    }
    verdicts = {
        "gp": inv.gp_test(a, m, args.cutoff),
        "gi": inv.gi_test(a, m, args.cutoff),
        "gpi": inv.gpi_test(a, m, args.cutoff),
    }
    rep = {
        "schema_version": ser.SCHEMA_VERSION,
        "seed": args.seed,
        "cutoff": args.cutoff,
        "fixture": f.name if f else None,
        "module": ser.module_to_json(m, algebra_ref=f.name if f else ""),
        "dims": {k: ser.dim_to_json(v) for k, v in dims.items()},
        "verdicts": {k: {"status": v.status, "witness_degree": v.witness_degree,
                         "condition": v.condition, "window": v.window,
                         "certificate": [str(c) for c in v.certificate],
                         "bound": v.bound}
                     for k, v in verdicts.items()},
    }
    if args.fmt == "json":
        print(ser.dump_json(rep), file=out)
    else:
        print("module: %s (dim %d) over %s"
              % (m.label or args.spec, m.dim, f.name if f else "file"),
              file=out)
        for k, v in dims.items():
            print("%-10s %s" % (k, _dim_str(v)), file=out)
        for k, v in verdicts.items():
            print("%-10s %s" % (k, v), file=out)
        print("seed=%d cutoff=%d" % (args.seed, args.cutoff), file=out)
    return 0


# ---------------------------------------------------------------------------
# scan


def _scan_row(series, field=None, cutoff=inv.DEFAULT_BOUND) -> dict:
    a = nak.validate_kupisch(series)
    core = nak.algebra_invariants_nak(a)
    n = a.n
    fd = core["fdomdim"]
    gl = core["gordim_left"]
    viol_fdom = bool(fd.kind == "finite" and fd.value > 2 * n - 2)
    # The g+1 bound on fdomdim is asserted only for CM-finite Gorenstein
    # gendo-symmetric algebras; Nakayama algebras are always CM-finite.
    gendo = False
    if core["domdim"].ge(2) and gl.kind == "finite":
        ba = alg.from_kupisch(a, field or linalg.PrimeField(2))
        gendo = inv.gendo_symmetric_check(ba, cutoff)
    viol_gplus1 = bool(gendo and gl.kind == "finite" and fd.kind == "finite"
                       and fd.value > gl.value + 1)
    viol_gd = not bool(core["is_gorenstein_dominant"])
    ng = nak.nearly_gorenstein_check_nak(a)
    return {
        "series": "-".join(str(c) for c in series),
        "domdim": str(core["domdim"]),
        "gordim": str(core["gordim_left"]),
        "fdomdim": str(fd),
        "gp_count": int(core["gp_count"]),
        "nearly_gorenstein": bool(ng),
        "gendo_symmetric": gendo,
        "viol_fdomdim_2n_minus_2": viol_fdom,
        "viol_g_plus_1": viol_gplus1,
        "viol_gorenstein_dominant": viol_gd,
    }


def _cyclic_series(n_max: int, c_max: int):
    import itertools
    for n in range(1, n_max + 1):
        for c in itertools.product(range(2, c_max + 1), repeat=n):
            if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n)):
                yield c


def _series_count(n_max: int, c_max: int, limit: int) -> int:
    """How many series _cyclic_series yields, or some number above limit.

    Series of length n are closed walks of length n on k = c_max - 1 values
    with steps c -> c' >= c - 1: trace(T_k^n), T_w[a][b] = [b >= a - 1].  A
    closed walk rises at most n - 1 above its minimum, so for k > n each
    further value adds the walks with minimum 1 on n values.
    """
    def walks(w, n):
        t = np.array([[int(b >= a - 1) for b in range(w)] for a in range(w)],
                     dtype=object)
        return int(np.trace(np.linalg.matrix_power(t, n))) if w else 0
    k, total = c_max - 1, 0
    for n in range(1, n_max + 1):   # each n adds at least k >= 1 series
        total += walks(min(k, n), n)
        if k > n:
            total += (k - n) * (walks(n, n) - walks(n - 1, n))
        if total > limit:
            break
    return total


SCAN_COLUMNS = ["schema_version", "series", "domdim", "gordim", "fdomdim",
                "gp_count", "nearly_gorenstein", "gendo_symmetric",
                "viol_fdomdim_2n_minus_2",
                "viol_g_plus_1", "viol_gorenstein_dominant", "seed"]


def cmd_scan(args, out) -> int:
    if args.n_max < 1 or args.c_max < 2:
        raise _CliError("need n_max >= 1 and c_max >= 2")
    if _series_count(args.n_max, args.c_max, SCAN_BUDGET) > SCAN_BUDGET:
        raise BudgetExceeded("more than %d series requested; the scan "
                             "budget is %d" % (SCAN_BUDGET, SCAN_BUDGET))
    series = list(_cyclic_series(args.n_max, args.c_max))
    row = functools.partial(_scan_row, field=args.field, cutoff=args.cutoff)
    if args.jobs > 1:
        # the pool starts all its workers at once: no more than there is work
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(series))) as pool:
            rows = list(pool.map(row, series, chunksize=8))
    else:
        rows = [row(s) for s in series]
    w = csv.writer(out)
    w.writerow(SCAN_COLUMNS)
    violated = False
    for r in rows:
        viol = (r["viol_fdomdim_2n_minus_2"] or r["viol_g_plus_1"]
                or r["viol_gorenstein_dominant"])
        violated = violated or viol
        w.writerow([SCAN_SCHEMA] + [r[c] for c in SCAN_COLUMNS[1:-1]]
                   + [args.seed])
    return 3 if violated else 0


# ---------------------------------------------------------------------------
# suite


def cmd_suite(args, out) -> int:
    names = args.fixtures or fx.FIXTURE_NAMES
    fixtures = [_resolve_fixture(name, args.field) for name in names]
    failed = False
    for name, f in zip(names, fixtures):
        for c in inv.theorem_suite(f, args.cutoff):
            print("%-22s %-44s %-4s %s" % (name, c.name, c.status, c.detail),
                  file=out)
            failed = failed or c.status == "fail"
    print("seed=%d cutoff=%d" % (args.seed, args.cutoff), file=out)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="gorlab",
                description="Exact homological invariants of "
                            "finite-dimensional algebras")
    p.add_argument("--field",
                   help="coefficient field: a prime or 'gf4' (default: the "
                        "fixture's own field, GF(2) for all but "
                        "gf4-local-gendo)")
    p.add_argument("--cutoff", type=int, default=inv.DEFAULT_BOUND,
                   help="Ext/resolution certification bound (default %d)"
                        % inv.DEFAULT_BOUND)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the output; does not change results")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                   help="output format (default: the subcommand's first)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for scan (default 1)")
    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("nakayama", help="Kupisch-series report")
    pn.add_argument("series", help="comma-separated Kupisch series, e.g. 4,5,5")
    g = pn.add_mutually_exclusive_group()
    g.add_argument("--cyclic", action="store_true", default=True)
    g.add_argument("--linear", action="store_true", default=False)
    pn.set_defaults(func=cmd_nakayama, formats=("text", "json", "csv"))

    pe = sub.add_parser("endo", help="endomorphism-algebra fixture report")
    pe.add_argument("--fixture", required=True)
    pe.set_defaults(func=cmd_endo, formats=("text", "json"))

    pm = sub.add_parser("module", help="per-module report")
    pm.add_argument("spec",
                    help="[i,k] | hom:KEY | extra:KEY | @module.json")
    pm.add_argument("--fixture")
    pm.set_defaults(func=cmd_module, formats=("text", "json"))

    ps = sub.add_parser("scan", help="scan cyclic Kupisch series")
    ps.add_argument("n_max", type=int)
    ps.add_argument("c_max", type=int)
    ps.set_defaults(func=cmd_scan, formats=("csv",))

    pt = sub.add_parser("suite", help="run the named-theorem checks")
    pt.add_argument("--fixture", dest="fixtures", action="append",
                    help="may be repeated; default: all fixtures")
    pt.set_defaults(func=cmd_suite, formats=("text",))
    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        args.fmt = args.fmt or args.formats[0]
        if args.fmt not in args.formats:
            raise _CliError("%s writes %s, not %s" % (
                args.command, " or ".join(args.formats), args.fmt))
        if args.jobs > 1 and args.command != "scan":
            raise _CliError("--jobs applies to scan only")
        if args.field is not None:
            args.field = parse_field(args.field)
        if args.cutoff < 1:
            raise _CliError("cutoff must be >= 1, got %d" % args.cutoff)
        if args.jobs < 1:
            raise _CliError("jobs must be >= 1, got %d" % args.jobs)
        return args.func(args, out)
    except (_CliError, BudgetExceeded, nak.KupischViolation,
            alg.ValidationError, linalg.FieldError,
            json.JSONDecodeError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
