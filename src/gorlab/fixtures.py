"""Named example algebras used by the test-suites and the CLI.

Each fixture resolves deterministically (given the field) to a
validated algebra together with the side data the theorem checks need.
Two constructions build them all: :func:`_kupisch_fixture` gives a Kupisch
algebra A with its Nakayama series and the pool of all its
indecomposables, a certified-complete list; :func:`_endo_fixture` gives
B = End_A(A ⊕ M) with A as its base algebra, a base pool of A-modules and
their Hom images Hom_A(A ⊕ M, X) as the pool of B.  A fixture declares only
what the program cannot compute: its field is ``algebra.field``, the theorem
checks decide symmetry and gendo-symmetry from the algebra itself, and
``extras`` holds only named modules.  One table maps each name to its
builder and declares the fixtures over a field of their own (gf4-local-gendo),
for which :func:`build_fixture` rejects any field it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg, algebra as alg, modrep as mr, nakayama as nak

__all__ = ["Fixture", "FIXTURE_NAMES", "build_fixture", "parametric_kupisch",
           "penny_farthing_algebra", "gf4_local_algebra", "m_ab"]


@dataclass
class Fixture:
    name: str
    algebra: alg.BasedAlgebra
    nak: nak.NakAlgebra | None = None
    base_algebra: alg.BasedAlgebra | None = None
    endo: mr.EndoData | None = None
    base_pool: list = dc_field(default_factory=list)   # modules over base_algebra
    pool: list = dc_field(default_factory=list)        # modules over algebra
    pool_certified: bool = False
    cm_finite: bool | None = None
    extras: dict = dc_field(default_factory=dict)


_CACHE: dict = {}


def build_fixture(name: str, field: linalg.FieldSpec | None = None) -> Fixture:
    """The named fixture over field (GF(2) when None; a fixture over its own
    field takes None only), cached by (name, field)."""
    key = (name, field)
    if key in _CACHE:
        return _CACHE[key]
    if name not in _FIXTURES:
        raise KeyError("unknown fixture %r (known: %s)"
                       % (name, ", ".join(FIXTURE_NAMES)))
    build, own_field = _FIXTURES[name]
    if own_field is None:
        fx = build(field or linalg.PrimeField(2))
    elif field is None:
        fx = build()
    else:
        raise linalg.FieldError("fixture %s is defined over %s only"
                                % (name, own_field))
    _CACHE[key] = fx
    return fx


def parametric_kupisch(s: int, field: linalg.FieldSpec | None = None) -> Fixture:
    """The series (3s+1, 3s+2, 3s+2)."""
    return _kupisch_fixture((3 * s + 1, 3 * s + 2, 3 * s + 2),
                            field or linalg.PrimeField(2))


def _kupisch_fixture(c, field, cyclic=True) -> Fixture:
    series = nak.validate_kupisch(c, cyclic=cyclic)
    a = alg.from_kupisch(series, field)
    pool = [mr.bridge_module(a, m.i, m.k) for m in nak.indecomposables(series)]
    return Fixture(
        name="kupisch-" + "".join(str(x) for x in c),
        algebra=a, nak=series,
        pool=pool, pool_certified=True,
        cm_finite=True,
    )


def _endo_fixture(name, base, summand_specs, base_pool,
                  cm_finite=None, extras=None) -> Fixture:
    _, reg = mr.projectives(base)
    endo = mr.endo_algebra([reg] + list(summand_specs))
    # no image is zero: Hom_A(A ⊕ M, X) contains Hom_A(A, X) ≅ X
    return Fixture(
        name=name, algebra=endo.algebra,
        base_algebra=base, endo=endo,
        base_pool=list(base_pool),
        pool=[mr.hom_functor(endo, x) for x in base_pool],
        cm_finite=cm_finite,
        extras=extras or {},
    )


def _kupisch_gendo(name, c, i, k, key, field) -> Fixture:
    """End_A(A ⊕ M) for the Kupisch algebra A of series c and M =
    e_iA/e_iJ^k, stored as extras[key], over the base pool of all
    indecomposable A-modules."""
    base = _kupisch_fixture(c, field)
    m = mr.bridge_module(base.algebra, i, k)
    return _endo_fixture(name, base.algebra, [m], base.pool, extras={key: m})


def penny_farthing_algebra(field) -> alg.BasedAlgebra:
    """k-algebra on a loop alpha at vertex 0 and arrows beta1: 0 -> 1,
    beta2: 1 -> 0, bound by alpha^2 - beta1 beta2 and beta2 beta1."""
    q = alg.QuiverPresentation(
        vertices=["1", "2"],
        arrows=[(0, 0, "a"), (0, 1, "b1"), (1, 0, "b2")],
        relations=[
            [(field.one, (0, 0)), (int(field.neg(field.one)), (1, 2))],
            [(field.one, (2, 1))],
        ],
    )
    return alg.validate(alg.from_quiver(q, field))


def _orbit(m, op, steps):
    out = [m]
    for _ in range(steps):
        m = op(m)
        if m.dim == 0:
            break
        out.append(m)
    return out


def _penny_farthing_gendo(field) -> Fixture:
    a = penny_farthing_algebra(field)
    projs, reg = mr.projectives(a)
    s = mr.simples(a)
    st2 = mr.structure(projs[1])
    e2j2 = mr.structure(st2.radical).radical   # e_2 J^2, dimension 2
    e2j2.label = "e2J2"
    raw = projs + s + [e2j2]
    raw += _orbit(s[1], mr.syzygy, 3) + _orbit(s[1], mr.cosyzygy, 3)
    raw += _orbit(e2j2, mr.syzygy, 3) + _orbit(e2j2, mr.cosyzygy, 3)
    base_pool = mr.iso_classes(raw)
    fx = _endo_fixture("penny-farthing-gendo", a, [s[1]], base_pool,
                       cm_finite=True, extras={"s2": s[1], "e2j2": e2j2})
    fx.extras["domdim4_module"] = mr.hom_functor(fx.endo, e2j2)
    return fx


def gf4_local_algebra() -> alg.BasedAlgebra:
    """k[x,y]/(x^2, y^2, xy - yx) over the field with four elements."""
    f = linalg.GF4()
    q = alg.QuiverPresentation(
        vertices=["*"],
        arrows=[(0, 0, "x"), (0, 0, "y")],
        relations=[
            [(f.one, (0, 0))],
            [(f.one, (1, 1))],
            [(f.one, (0, 1)), (int(f.neg(f.one)), (1, 0))],
        ],
    )
    return alg.validate(alg.from_quiver(q, f))


def m_ab(a: alg.BasedAlgebra, ca: int, cb: int) -> mr.RightModule:
    """M(ca, cb) = A/(ca*x + cb*y)A over the local GF(4) algebra."""
    reg = mr.regular_module(a)
    # basis order is e, x, y, xy (normal forms sorted by length then label)
    v = np.zeros(a.dim, dtype=np.int64)
    labels = list(a.basis_labels)
    v[labels.index("x")] = ca
    v[labels.index("y")] = cb
    # the rows v * b_j of L(v) span the right ideal vA
    quo, _ = mr.quotient_by_rows(reg, a.L(v), label="M(%d,%d)" % (ca, cb))
    return quo


def _gf4_gendo() -> Fixture:
    a = gf4_local_algebra()
    m11 = m_ab(a, 1, 1)
    m1w = m_ab(a, 1, 2)
    m1w2 = m_ab(a, 1, 3)
    s = mr.simples(a)[0]
    reg = mr.regular_module(a)
    raw = [reg, m11, m1w, m1w2, m_ab(a, 1, 0), m_ab(a, 0, 1), s,
           mr.structure(reg).radical]
    base_pool = mr.iso_classes(raw)
    fx = _endo_fixture("gf4-local-gendo", a, [m11], base_pool,
                       cm_finite=False,
                       extras={"m11": m11, "m1w": m1w, "m1w2": m1w2})
    fx.extras["gpi_candidate"] = mr.hom_functor(fx.endo, m1w)
    return fx


def _auslander_22(field) -> Fixture:
    # M is every indecomposable, so End(A ⊕ M) is End(M): iso_classes
    # merges the summands of A with their copies in M
    base = _kupisch_fixture((2, 2), field)
    return _endo_fixture("auslander-22", base.algebra, base.pool, base.pool,
                         cm_finite=True)


# name -> (builder, own field): a builder with no own field takes the field
# of build_fixture; one defined over its own field takes no field
_FIXTURES = {
    "kupisch-455": (lambda k: _kupisch_fixture((4, 5, 5), k), None),
    "kupisch-56": (lambda k: _kupisch_fixture((5, 6), k), None),
    # M = e_2A/e_2J^5, which is e_0J^2
    "sym-777-gendo": (lambda k: _kupisch_gendo(
        "sym-777-gendo", (7, 7, 7), 2, 5, "generator_extra", k), None),
    "penny-farthing-gendo": (_penny_farthing_gendo, None),
    "gf4-local-gendo": (_gf4_gendo, "GF(4)"),
    "a2-line": (lambda k: _kupisch_fixture((2, 1), k, cyclic=False), None),
    "auslander-22": (_auslander_22, None),
    # M = e_0A/e_0J, the simple module, 2-periodic
    "two-periodic-demo": (lambda k: _kupisch_gendo(
        "two-periodic-demo", (3,), 0, 1, "w", k), None),
}
FIXTURE_NAMES = list(_FIXTURES)
