"""JSON interchange for fields, algebras, modules and dimension values.

The format is deliberately dense and dumb: structure constants and action
matrices are written as nested integer arrays.  Everything re-validates on
load, so a round trip through JSON reproduces the same validated objects.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg, algebra as alg, modrep as mr
from .dims import HomologicalDim, PeriodicityCertificate

__all__ = [
    "field_to_json", "field_from_json",
    "algebra_to_json", "algebra_from_json",
    "module_to_json", "module_from_json",
    "dim_to_json", "dim_from_json",
    "load_json", "dump_json",
]

SCHEMA_VERSION = 1


def field_to_json(f: linalg.FieldSpec) -> dict:
    if isinstance(f, linalg.PrimeField):
        return {"kind": "prime", "p": f.p}
    if isinstance(f, linalg.SmallTableField):
        return {"kind": "table", "order": f.order,
                "add": f._add.tolist(), "mul": f._mul.tolist()}
    raise TypeError("unknown field spec %r" % (f,))


def field_from_json(d: dict) -> linalg.FieldSpec:
    if d["kind"] == "prime":
        return linalg.PrimeField(int(d["p"]))
    if d["kind"] == "table":
        return linalg.SmallTableField(int(d["order"]), d["add"], d["mul"])
    raise ValueError("unknown field kind %r" % (d.get("kind"),))


def algebra_to_json(a: alg.BasedAlgebra) -> dict:
    """The algebra-file schema that a module file's ``algebra_ref`` can name
    (``gorlab module @file``); ``algebra_from_json`` reads it back."""
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_json(a.field),
        "basis": list(a.basis_labels),
        "mult": a.mult.tolist(),
        "unit": a.unit.tolist(),
        "idempotents": a.idempotents.tolist(),
        "radical_generators": a.pres.radical_generators.tolist(),
    }


def algebra_from_json(d: dict) -> alg.BasedAlgebra:
    f = field_from_json(d["field"])
    pres = alg.AlgebraPresentation(
        field=f,
        basis_labels=list(d["basis"]),
        mult=np.asarray(d["mult"], dtype=np.int64),
        unit=np.asarray(d["unit"], dtype=np.int64),
        idempotents=np.asarray(d["idempotents"], dtype=np.int64),
        radical_generators=np.asarray(d["radical_generators"], dtype=np.int64),
    )
    return alg.validate(pres)


def module_to_json(m: mr.RightModule, algebra_ref: str = "") -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "algebra_ref": algebra_ref,
        "dim": m.dim,
        "action": np.asarray(m.action, dtype=np.int64).tolist(),
        "label": m.label,
    }


def module_from_json(d: dict, a: alg.BasedAlgebra) -> mr.RightModule:
    """Through ``make_module``: checked, and regraded (to an isomorphic
    module) if the stored basis is not graded."""
    dim = int(d["dim"])
    action = np.asarray(d["action"], dtype=np.int64)
    if dim == 0:
        return mr.zero_module(a)
    return mr.make_module(a, action.reshape(a.dim, dim, dim),
                          label=d.get("label", ""))


def dim_to_json(d: HomologicalDim) -> dict:
    out = {"kind": d.kind}
    if d.value is not None:
        out["value"] = int(d.value)
    if d.certificate is not None:
        c = d.certificate
        out["certificate"] = {"operator": c.operator, "preperiod": c.preperiod,
                              "period": c.period,
                              "states": [str(s) for s in c.states]}
    if d.by_convention:
        out["by_convention"] = True
    if d.bound_reason:
        out["bound_reason"] = d.bound_reason
    return out


def dim_from_json(d: dict) -> HomologicalDim:
    cert = None
    if "certificate" in d:
        c = d["certificate"]
        cert = PeriodicityCertificate(c["operator"], c["preperiod"],
                                      c["period"], tuple(c.get("states", ())))
    return HomologicalDim(d["kind"], d.get("value"), cert,
                          d.get("by_convention", False),
                          d.get("bound_reason", ""))


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
