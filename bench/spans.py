"""Spans around gorlab's public functions, recorded from outside the package.

``Tracer.install()`` replaces each function named in ``WRAPPED`` by a wrapper
that records a span: name, start, end, parent span and query id.  Aliases
bound by ``from ... import`` in other modules are replaced too, and
``FieldSpec.matmul`` is replaced at class level, so every call path reaches
a wrapper.  Spans stay in memory; ``aggregate()`` turns them into per-name
counts and self times, ``dump()`` writes them out.

``linalg`` spans are leaves of the call tree apart from ``row_echelon``
under ``nullspace``/``solve_raw``/``rank_raw``.  There are hundreds of
thousands of them per pass, so they are folded into one record per
(nearest non-linalg ancestor span, name) instead of being kept one by one.
Self time stays exact: it is computed on the live call stack.

The process is single-threaded, so no layer ever waits on another; self
time is the only time a layer has.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# The seven layers, named after gorlab's modules; span names start with one.
LAYERS = ("linalg", "algebra", "modrep", "invariants", "nakayama", "fixtures",
          "cli")

# Span name -> (module, attribute path, extra aliases as (module, attribute)).
# Several functions may share one span name: the four module_* dimension
# functions are reported together as ``invariants.module_dims``.
WRAPPED = [
    ("linalg.row_echelon", "linalg", "row_echelon", []),
    ("linalg.nullspace", "linalg", "nullspace", []),
    ("linalg.solve_raw", "linalg", "solve_raw", []),
    ("linalg.rank_raw", "linalg", "rank_raw", []),
    ("linalg.matmul", "linalg", "FieldSpec.matmul", []),
    ("algebra.from_kupisch", "algebra", "from_kupisch", []),
    ("algebra.is_symmetric", "algebra", "is_symmetric",
     [("invariants", "is_symmetric")]),
    ("algebra.corner_algebra", "algebra", "corner_algebra",
     [("invariants", "corner_algebra")]),
    ("modrep.hom_basis", "modrep", "hom_basis", []),
    ("modrep.structure", "modrep", "structure", []),
    ("modrep.projective_cover", "modrep", "projective_cover", []),
    ("modrep.syzygy", "modrep", "syzygy", []),
    ("modrep.nu", "modrep", "nu", []),
    ("modrep.nu_map", "modrep", "nu_map", []),
    ("modrep.transpose_tr", "modrep", "transpose_tr", []),
    ("modrep.tau", "modrep", "tau", []),
    ("modrep.tau_inv", "modrep", "tau_inv", []),
    ("modrep.decompose", "modrep", "decompose", []),
    ("modrep.iso", "modrep", "iso", []),
    ("modrep.endo_algebra", "modrep", "endo_algebra", []),
    ("modrep.hom_functor", "modrep", "hom_functor", []),
    ("invariants.canon", "invariants", "_ClassTable.canon", []),
    ("invariants.module_dims", "invariants", "module_projdim", []),
    ("invariants.module_dims", "invariants", "module_injdim", []),
    ("invariants.module_dims", "invariants", "module_domdim", []),
    ("invariants.module_dims", "invariants", "module_codomdim", []),
    ("invariants.gp_test", "invariants", "gp_test", []),
    ("invariants.theorem_suite", "invariants", "theorem_suite", []),
    ("nakayama.dims_nak", "nakayama", "dims_nak", []),
    ("fixtures.build_fixture", "fixtures", "build_fixture", []),
    ("cli.main", "cli", "main", []),
]

SPAN_NAMES = sorted({w[0] for w in WRAPPED})


def _cells(args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs["m"]
    shape = np.shape(m)
    return shape[0] * shape[1]


def _macs(args, kwargs, result):
    a, b = np.shape(args[1]), np.shape(args[2])
    return a[0] * a[1] * b[1]


def _unknowns(args, kwargs, result):
    return args[0].dim * args[1].dim


def _iso_outcome(args, kwargs, result):
    # bit 0: isomorphic, bit 1: uncertain
    return int(bool(result.isomorphic)) | (0 if result.certain else 2)


def _uncertain_parts(args, kwargs, result):
    return sum(1 for p in result if getattr(p, "indec_certain", True) is False)


EXTRAS = {
    "linalg.row_echelon": _cells,
    "linalg.matmul": _macs,
    "modrep.hom_basis": _unknowns,
    "modrep.iso": _iso_outcome,
    "modrep.decompose": _uncertain_parts,
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Collects spans for every wrapped call while installed."""

    def __init__(self):
        # kept spans: [name, start, end, parent, query, self, extra]
        self.spans = []
        # folded linalg spans: (ancestor, name) -> [calls, total, self, extra]
        self.folded = {}
        self._stack = []     # [child time, kept span index or None, ancestor]
        self.query = None
        self._saved = []

    def install(self, package):
        """Wrap the functions in WRAPPED; ``package`` is the gorlab module."""
        import importlib
        for name, modname, path, aliases in WRAPPED:
            mod = importlib.import_module(package.__name__ + "." + modname)
            owner, attr = _resolve(mod, path)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            for amod, aattr in aliases:
                alias_mod = importlib.import_module(
                    package.__name__ + "." + amod)
                if getattr(alias_mod, aattr) is not fn:
                    raise RuntimeError("%s.%s is not an alias of %s"
                                       % (amod, aattr, name))
                self._saved.append((alias_mod, aattr, fn))
                setattr(alias_mod, aattr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        folded = self.folded
        extra_fn = EXTRAS.get(name)
        fold = name.startswith("linalg.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                ancestor = top[1] if top[1] is not None else top[2]
            else:
                ancestor = -1
            if fold:
                idx = None
            else:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, ancestor, tracer.query, 0.0, 0])
            frame = [0.0, idx, ancestor]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self_s = dur - frame[0]
                if fold:
                    rec = folded.get((ancestor, name))
                    if rec is None:
                        rec = folded[(ancestor, name)] = [0, 0.0, 0.0, 0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += self_s
                else:
                    span = spans[idx]
                    span[1] = start
                    span[2] = end
                    span[5] = self_s
            if extra_fn is not None:
                extra = extra_fn(args, kwargs, result)
                if fold:
                    rec[3] += extra
                else:
                    span[6] = extra
            return result

        wrapper.__wrapped_span__ = name
        return wrapper

    def aggregate(self) -> dict:
        """Per-name {calls, self_s, extra} plus derived per-name figures."""
        per = {n: {"calls": 0, "self_s": 0.0, "extra": 0} for n in SPAN_NAMES}
        iso_in_canon = 0
        decompose_uncertain = 0
        iso_hits = iso_uncertain = 0
        for name, start, end, parent, query, self_s, extra in self.spans:
            rec = per[name]
            rec["calls"] += 1
            rec["self_s"] += self_s
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "modrep.iso":
                iso_hits += extra & 1
                iso_uncertain += (extra >> 1) & 1
                if parent_name == "invariants.canon":
                    iso_in_canon += 1
            elif name == "modrep.decompose":
                if parent_name != name:
                    decompose_uncertain += extra
            else:
                rec["extra"] += extra
        for (ancestor, name), (calls, total, self_s, extra) in \
                self.folded.items():
            rec = per[name]
            rec["calls"] += calls
            rec["self_s"] += self_s
            rec["extra"] += extra
        per["modrep.iso"]["hits"] = iso_hits
        per["modrep.iso"]["uncertain"] = iso_uncertain
        per["modrep.decompose"]["uncertain"] = decompose_uncertain
        per["invariants.canon"]["iso_calls"] = iso_in_canon
        return per

    def dump(self, path):
        """Write the kept spans and the folded linalg records as JSON."""
        folded = [[anc, name] + rec
                  for (anc, name), rec in sorted(self.folded.items())]
        doc = {
            "fields": ["name", "start", "end", "parent", "query", "self",
                       "extra"],
            "spans": self.spans,
            "folded_fields": ["ancestor", "name", "calls", "total", "self",
                              "extra"],
            "folded": folded,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
