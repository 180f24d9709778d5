"""Acceptance suite: nine end-to-end criteria with stated time budgets.

Each criterion times only its own computations; shared fixture construction
is session scaffolding and happens outside the timed window.
"""

import time
from contextlib import contextmanager

import pytest

from gorlab import algebra as alg
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import invariants as inv
from gorlab import fixtures as fx
from gorlab.cli import _cyclic_series

from conftest import assert_iso, assert_not_iso, check_right_minimal

F2 = la.PrimeField(2)
F5 = la.PrimeField(5)


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, "budget %gs exceeded: %.1fs" % (seconds,
                                                              elapsed)


# ---------------------------------------------------------------------------
# 1. Kupisch (3s+1, 3s+2, 3s+2) for s = 1, 2


@pytest.mark.parametrize("s", [1, 2])
def test_criterion_1_parametric_kupisch(s):
    with budget(1.0):
        series = (3 * s + 1, 3 * s + 2, 3 * s + 2)
        a = nak.validate_kupisch(series)
        core = nak.algebra_invariants_nak(a)
        assert core["domdim"] == 2
        assert core["gordim_left"] == 2 and core["gordim_right"] == 2
        assert core["fdomdim"] == 4

        table = {}
        for m in nak.indecomposables(a):
            table.setdefault((m.i, m.k % 3), set()).add(
                str(nak.dims_nak(a, m)["domdim"]))
        assert table[(0, 0)] == {"4"}
        assert table[(0, 1)] == {"2"}
        assert table[(1, 0)] == {"2"}

        rq = nak.resolution_quiver(a)
        assert rq.successor == {0: 1, 1: 0, 2: 1}
        assert rq.black == {0, 1}

        gp = {(m.i, m.k) for m in nak.gp_indecs(a)}
        formula = {(m.i, m.k) for m in nak.indecomposables(a)
                   if m.i in (0, 1) and (m.i + m.k) % 3 in (0, 1)}
        projs = {(m.i, m.k) for m in nak.projective_indecs(a)}
        assert gp == formula | projs

        gpi_nonproj = {(m.i, m.k) for m in nak.gpi_indecs(a)
                       if not nak.is_projective(a, m)}
        assert gpi_nonproj == {(1, k) for k in range(3, series[1], 3)
                               if k % 3 == 0}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.xfail(strict=True,
                   reason="published table claims 2 in cell (a=1, k=2 mod 3);"
                          " both engines compute 3 (finite part)")
def test_criterion_1_contested_cell_a1_k2(s):
    a = nak.validate_kupisch((3 * s + 1, 3 * s + 2, 3 * s + 2))
    vals = {str(nak.dims_nak(a, m)["domdim"])
            for m in nak.indecomposables(a) if m.i == 1 and m.k % 3 == 2}
    assert vals <= {"2", "inf"}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.xfail(strict=True,
                   reason="published table shows dashes (read as infinite) in"
                          " the remaining cells; both engines compute finite"
                          " values 0 and 1 there")
def test_criterion_1_contested_dashes(s):
    a = nak.validate_kupisch((3 * s + 1, 3 * s + 2, 3 * s + 2))
    for m in nak.indecomposables(a):
        cell = (m.i, m.k % 3)
        if cell in ((0, 2), (1, 1), (2, 0)):
            assert nak.dims_nak(a, m)["domdim"].is_infinite


# ---------------------------------------------------------------------------
# 2. Kupisch [5, 6]


def test_criterion_2_nearly_gorenstein_56():
    with budget(1.0):
        a = nak.validate_kupisch((5, 6))
        assert nak.nearly_gorenstein_check_nak(a)
        core = nak.algebra_invariants_nak(a)
        for g in (core["gordim_left"], core["gordim_right"]):
            assert g.is_infinite and g.certificate is not None


# ---------------------------------------------------------------------------
# 3. Symmetric (7,7,7), M = e_0 J^2


def test_criterion_3_sym_777():
    f = fx.build_fixture("sym-777-gendo")
    b = f.base_algebra
    with budget(10.0):
        m = f.extras["generator_extra"]        # e_0 J^2, dim 5
        assert mr.ext_dim(m, m, 1) == 0
        assert mr.ext_dim(m, m, 2) != 0

        gen = mr.direct_sum(list(f.endo.summands))
        md = inv.mueller_domdim(b, gen)
        assert md == 3
        assert inv.algebra_domdim(f.algebra) == 3

        ck = inv.chen_koenig_injdim(f.endo, dd=md)
        rhs = ck["rhs"]
        assert rhs.is_infinite
        assert rhs.certificate.operator.startswith("approximation-kernel")

        left, right = inv.gorenstein_dims(f.algebra)
        assert left.is_infinite and right.is_infinite


def test_criterion_3_recurring_kernels_displayed():
    # the relative resolution of the formula's target has kernels
    # e_0 J^4, then e_0 J^4 + e_1 J, exactly as displayed
    f = fx.build_fixture("sym-777-gendo")
    b = f.base_algebra
    gen = mr.direct_sum(list(f.endo.summands))
    z = inv.mueller_domdim(b, gen).as_int() - 2
    parts = mr.decompose(gen)
    eng = inv._engine(b)
    targets = []
    for p in parts:
        if eng.table.canon(p) in eng.proj_ids:
            continue
        sh = mr.syzygy(p, z) if z else p
        if sh.dim:
            t = mr.tau(sh)
            if t.dim:
                targets.append(t)
    da = mr.dual(mr.regular_module(mr.opp(b)))
    cur = mr.direct_sum(targets + [da])
    e0j4 = mr.bridge_module(b, 1, 3)      # e_0 J^4 is uniserial (1, 3)
    e1j = mr.bridge_module(b, 2, 6)       # e_1 J  is uniserial (2, 6)
    kernel_parts = []
    for _ in range(2):
        ap = mr.min_right_approx(parts, cur)
        assert check_right_minimal(ap)
        cur, _ = mr.kernel_submodule(ap)
        kernel_parts.append(mr.decompose(cur))
    k1, k2 = kernel_parts
    assert len(k1) == 1
    assert_iso(k1[0], e0j4)
    assert sorted(p.dim for p in k2) == sorted((e0j4.dim, e1j.dim))
    for p in k2:
        assert_iso(p, e0j4 if p.dim == e0j4.dim else e1j)


# ---------------------------------------------------------------------------
# 4. Penny-farthing endo algebra


def test_criterion_4_penny_farthing():
    f = fx.build_fixture("penny-farthing-gendo")
    with budget(30.0):
        s2 = f.extras["s2"]
        assert_iso(mr.syzygy(s2, 3), s2)

        assert inv.algebra_domdim(f.algebra) == 3
        left, right = inv.gorenstein_dims(f.algebra)
        assert left == 3 and right == 3

        img = mr.hom_functor(f.endo, f.extras["e2j2"])
        assert inv.module_domdim(img) == 4

        assert inv.fdomdim_pool(f.pool) == 4    # = g + 1, the bound is tight


# ---------------------------------------------------------------------------
# 5. GF(4) fixture


def test_criterion_5_gf4():
    f = fx.build_fixture("gf4-local-gendo")
    with budget(30.0):
        m11, m1w, m1w2 = (f.extras[k] for k in ("m11", "m1w", "m1w2"))
        assert_not_iso(m11, m1w)
        assert_not_iso(m11, m1w2)
        assert_not_iso(m1w, m1w2)
        for m in (m11, m1w, m1w2):
            assert_iso(mr.syzygy(m, 1), m)     # 1-periodic
        for x in (m11, m1w, m1w2):
            for y in (m11, m1w, m1w2):
                if x is not y:                 # distinct classes: only the
                    assert len(mr.hom_basis(x, y)) == 1   # top-to-socle map
        # Ext(M(1,1), M(1,w)) vanishes in degree 1; 1-periodicity
        # certifies vanishing in every degree
        assert mr.ext_dim(m11, m1w, 1) == 0

        assert inv.algebra_domdim(f.algebra) == 2
        left, right = inv.gorenstein_dims(f.algebra)
        assert left == 2 and right == 2

        g = f.extras["gpi_candidate"]          # Hom-image of M(1, w)
        assert inv.gpi_test(f.algebra, g).status == "yes"
        dd = inv.module_domdim(g)
        cd = inv.module_codomdim(g)
        assert dd.is_infinite and dd.certificate is not None
        assert cd.is_infinite and cd.certificate is not None


# ---------------------------------------------------------------------------
# 6 + 7. Enumerated cyclic Kupisch series


N4_SAMPLE = [(2, 2, 2, 2), (4, 5, 5, 5), (3, 4, 4, 4), (4, 4, 4, 5),
             (7, 7, 7, 7)]


def _enumeration():
    return list(_cyclic_series(3, 7)) + N4_SAMPLE


def test_criterion_6_oracle_equivalence():
    with budget(300.0):
        mismatches = []
        for series in _enumeration():
            a = nak.validate_kupisch(series)
            for field in (F2, F5):
                ba = alg.from_kupisch(a, field)
                gp_o, gi_o = set(), set()
                for m in nak.indecomposables(a):
                    want = nak.dims_nak(a, m)
                    bm = mr.bridge_module(ba, m.i, m.k)
                    got = {
                        "projdim": inv.module_projdim(bm),
                        "injdim": inv.module_injdim(bm),
                        "domdim": inv.module_domdim(bm),
                        "codomdim": inv.module_codomdim(bm),
                    }
                    for key, w in want.items():
                        g = got[key]
                        if (g.kind, g.value) != (w.kind, w.value):
                            mismatches.append((series, field.order,
                                               (m.i, m.k), key,
                                               str(w), str(g)))
                    if inv.gp_test(ba, bm).status == "yes":
                        gp_o.add((m.i, m.k))
                    if inv.gi_test(ba, bm).status == "yes":
                        gi_o.add((m.i, m.k))
                if gp_o != {(m.i, m.k) for m in nak.gp_indecs(a)}:
                    mismatches.append((series, field.order, "GP set"))
                if gi_o != {(m.i, m.k) for m in nak.gi_indecs(a)}:
                    mismatches.append((series, field.order, "GI set"))
        assert mismatches == []


def test_criterion_7_bound_scan():
    with budget(300.0):
        for series in _enumeration():
            a = nak.validate_kupisch(series)
            core = nak.algebra_invariants_nak(a)
            fd = core["fdomdim"]
            assert fd.kind == "finite" and fd.value <= 2 * a.n - 2, series
            assert core["is_gorenstein_dominant"], series


# ---------------------------------------------------------------------------
# 8. Theorem suite


GENDO_FIXTURES = ["sym-777-gendo", "penny-farthing-gendo", "gf4-local-gendo",
                  "two-periodic-demo"]


def test_criterion_8_theorem_suite():
    built = [fx.build_fixture(name) for name in GENDO_FIXTURES]
    with budget(120.0):
        for f in built:
            for c in inv.theorem_suite(f):
                assert c.status in ("pass", "skip"), (f.name, c.name,
                                                      c.detail)


def test_criterion_8_equivalence_fails_without_gendo_symmetry():
    # over the non-gendo-symmetric (4,5,5): a Gorenstein projective-injective
    # module with FINITE dominant dimension 2
    ba = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)
    m = mr.bridge_module(ba, 1, 3)
    assert inv.gpi_test(ba, m).status == "yes"
    assert inv.module_domdim(m) == 2


# ---------------------------------------------------------------------------
# 9. Property suites (full versions live in test_properties.py)


def test_criterion_9_representatives():
    f = fx.build_fixture("penny-farthing-gendo")
    b = f.base_algebra
    assert alg.is_symmetric(b)
    eng = inv._engine(b)
    nonproj = [m for m in f.base_pool
               if eng.table.canon(m) not in eng.proj_ids]
    for m in nonproj:
        assert_iso(mr.tau(m), mr.syzygy(m, 2))
        assert_iso(mr.dual(mr.dual(m)), m)
    gen = mr.direct_sum(list(f.endo.summands))
    assert str(inv.mueller_domdim(b, gen)) == str(
        inv.algebra_domdim(f.algebra))
