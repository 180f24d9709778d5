import dataclasses
import random
import types

import numpy as np
import pytest

from gorlab import algebra as alg
from gorlab import cli
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import invariants as inv
from gorlab import fixtures
from gorlab import serialize as ser
from gorlab.dims import HomologicalDim, PeriodicityCertificate

from conftest import (ORACLE_SERIES, almost_split_verify, assert_iso,
                      ext_dim_nak, graded_twist, resdim_reference)

F2 = la.PrimeField(2)


@pytest.fixture(scope="module")
def a455():
    return alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)


def test_per_algebra_data_lives_in_the_declared_cache():
    a = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)
    op = mr.opp(a)
    assert mr.opp(op) is a
    # the opposite is derived, not validated, and carries no extra attribute
    assert set(vars(op)) == set(vars(alg.validate(op.pres)))
    before = set(vars(a)), set(vars(op))
    m = mr.bridge_module(a, 2, 1)
    inv.gp_test(a, m)
    inv.gi_test(a, m)
    inv.module_domdim(m)
    mr.injectives(a)
    mr.simples(a)
    alg.is_symmetric(a)
    inv.gendo_symmetric_check(a)
    assert (set(vars(a)), set(vars(op))) == before
    documented = {"opp", "projectives", "simples", "injectives", "symmetric",
                  "dim_engine", "projinj_corner"}
    assert "projinj_corner" in a.cache
    for key in list(a.cache) + list(op.cache):
        assert key in documented
    # one dimension engine per algebra
    eng = inv._engine(a)
    assert a.cache["dim_engine"] is eng and inv._engine(a) is eng


def test_an_engine_builds_its_opposite_on_first_use():
    a = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)
    eng = inv._engine(a)
    assert "dim_engine" not in mr.opp(a).cache
    assert eng.op is inv._engine(mr.opp(a)) and eng.op.op is eng


def _linear_scan_ids(mods) -> list:
    """Class ids by iso against every earlier class of the same dimension."""
    reps, ids = [], []
    for m in mods:
        i = next((i for i, r in enumerate(reps)
                  if r.dim == m.dim and mr.iso(m, r)), None)
        if i is None:
            reps.append(m)
            i = len(reps) - 1
        ids.append(i)
    return ids


@pytest.mark.parametrize("source", ORACLE_SERIES + list(fixtures.FIXTURE_NAMES),
                         ids=str)
def test_bucketed_class_table_matches_a_linear_scan(source):
    # the projectives, the injectives and the summands of the (co)syzygies
    # repeat classes, so the table sees hits as well as new classes
    if source in fixtures.FIXTURE_NAMES:
        pool = fixtures.build_fixture(source).pool
    else:
        a = alg.from_kupisch(nak.validate_kupisch(source), F2)
        pool = [mr.bridge_module(a, x.i, x.k)
                for x in nak.indecomposables(a.nak_bridge["series"])]
    a = pool[0].algebra
    mods = [p for m in pool + mr.projectives(a)[0] + mr.injectives(a)
            for x in (m, mr.syzygy(m), mr.cosyzygy(m))
            for p in mr.decompose(x)]
    table = mr.ClassTable()
    ids = [table.canon(m) for m in mods]
    assert ids == _linear_scan_ids(mods)
    assert len(set(ids)) < len(ids)


def test_domdim_of_sum_sound_after_warm_engine():
    # warming the engine at a large bound must not change the answer at a
    # small bound: it is the one a fresh algebra gives
    def sum_domdim(a):
        s = mr.direct_sum([mr.bridge_module(a, 0, 3), mr.bridge_module(a, 0, 1)])
        return inv.module_domdim(s, bound=1)

    series = nak.validate_kupisch((4, 5, 5))
    fresh = sum_domdim(alg.from_kupisch(series, F2))
    a = alg.from_kupisch(series, F2)
    inv.module_domdim(mr.bridge_module(a, 0, 3), bound=24)
    d = sum_domdim(a)
    assert (d.kind, d.value) == (fresh.kind, fresh.value) == ("atleast", 2)


def test_dimensions_are_consistent_when_one_value_satisfies_both():
    fin = HomologicalDim.finite

    def low(n):
        return HomologicalDim.at_least(n, "bound")

    inf = HomologicalDim.infinite(PeriodicityCertificate("syzygy", 0, 1))
    conv = HomologicalDim.infinite_by_convention()
    cases = [(fin(3), fin(3), True), (fin(3), fin(2), False),
             (fin(3), low(3), True), (fin(3), low(2), True),
             (fin(2), low(3), False), (low(2), low(5), True),
             (low(4), inf, True), (inf, conv, True), (inf, inf, True),
             (fin(3), inf, False), (fin(0), conv, False)]
    for a, b, want in cases:
        assert a.consistent_with(b) is want, (a, b)
        assert b.consistent_with(a) is want, (b, a)


def test_algebra_domdim_455(a455):
    assert inv.algebra_domdim(a455) == 2


def test_gorenstein_dims_455(a455):
    left, right = inv.gorenstein_dims(a455)
    assert left == 2 and right == 2


def test_module_dims_match_closed_form(a455):
    # at every bound a decided value is the closed form, and an undecided
    # one is exactly bound + 1
    a = a455.nak_bridge["series"]
    calls = {"projdim": inv.module_projdim, "injdim": inv.module_injdim,
             "domdim": inv.module_domdim, "codomdim": inv.module_codomdim}
    for bound in (1, 2, 3, 4, inv.DEFAULT_BOUND):
        for m in nak.indecomposables(a):
            want = nak.dims_nak(a, m)
            bm = mr.bridge_module(a455, m.i, m.k)
            for key, call in calls.items():
                got = call(bm, bound)
                if got.kind == "atleast":
                    assert bound < inv.DEFAULT_BOUND
                    assert got.value == bound + 1
                    assert want[key].kind == "infinite" or \
                        want[key].value > bound
                else:
                    assert str(got) == str(want[key])


def test_gp_matches_ringel_criterion(a455):
    a = a455.nak_bridge["series"]
    want = {(m.i, m.k) for m in nak.gp_indecs(a)}
    got = set()
    for m in nak.indecomposables(a):
        v = inv.gp_test(a455, mr.bridge_module(a455, m.i, m.k))
        assert v.status in ("yes", "no")
        if v.status == "yes":
            got.add((m.i, m.k))
    assert got == want


def test_gp_verdict_no_names_witness_degree(a455):
    v = inv.gp_test(a455, mr.bridge_module(a455, 2, 1))
    assert v.status == "no" and v.witness_degree is not None


def test_gp_yes_implies_domdim_at_least_algebra_domdim(a455):
    dd = inv.algebra_domdim(a455)
    a = a455.nak_bridge["series"]
    for m in nak.indecomposables(a):
        bm = mr.bridge_module(a455, m.i, m.k)
        if inv.gp_test(a455, bm).status == "yes":
            assert inv.module_domdim(bm).ge(dd.as_int())


def test_gp_equals_dom_d_when_gordim_is_domdim(a455):
    # gordim = domdim = 2 here, so GP indecomposables = Dom_2 indecomposables
    a = a455.nak_bridge["series"]
    for m in nak.indecomposables(a):
        bm = mr.bridge_module(a455, m.i, m.k)
        gp = inv.gp_test(a455, bm).status == "yes"
        assert gp == inv.module_domdim(bm).ge(2)


def test_gendo_symmetric_check_examples(fix, a455):
    assert not inv.gendo_symmetric_check(a455)
    assert inv.gendo_symmetric_check(fix("sym-777-gendo").algebra)
    assert inv.gendo_symmetric_check(fix("penny-farthing-gendo").algebra)


def test_fixture_symmetry_is_computed_from_the_algebra(fix):
    # the theorem checks gate on these computed values; they are the ones
    # the fixtures used to declare
    algebras = {name: fix(name).algebra for name in fixtures.FIXTURE_NAMES}
    assert not any(alg.is_symmetric(a) for a in algebras.values())
    assert {name for name, a in algebras.items()
            if inv.gendo_symmetric_check(a)} == {
        "sym-777-gendo", "penny-farthing-gendo", "gf4-local-gendo",
        "two-periodic-demo"}


def test_nearly_gorenstein_nak():
    assert nak.nearly_gorenstein_check_nak(nak.validate_kupisch((5, 6)))
    assert nak.nearly_gorenstein_check_nak(nak.validate_kupisch((4, 5, 5)))


def _nak_window(a, m) -> int:
    """Steps after which the syzygy orbit of m dies or repeats."""
    seen, t = set(), 0
    while m is not nak.ZERO and m not in seen:
        seen.add(m)
        m = nak.syzygy_nak(a, m)
        t += 1
    return t


def _ext_degrees_nak(a, x, n, low):
    """ext_dim_nak(x, n, i), one degree at a time, for i in low..window."""
    return [ext_dim_nak(a, x, n, i)
            for i in range(low, _nak_window(a, x) + 1)]


def test_nak_ext_walk_matches_ext_per_degree():
    # per module, not per algebra: every series here is nearly Gorenstein,
    # so only the modules show both verdicts on each side
    seen = set()
    for s in cli._cyclic_series(3, 7):
        a = nak.validate_kupisch(s)
        projs, injs = nak.projective_indecs(a), nak.injective_indecs(a)
        left_ok = right_ok = strong = True
        for m in nak.indecomposables(a):
            perp_a = not any(any(_ext_degrees_nak(a, m, p, 1)) for p in projs)
            da_perp = not any(any(_ext_degrees_nak(a, j, m, 1)) for j in injs)
            assert nak._ext_vanishes_nak(a, m, projs) == perp_a, (s, m)
            assert all(nak._ext_vanishes_nak(a, j, [m])
                       for j in injs) == da_perp, (s, m)
            seen |= {("left", perp_a), ("right", da_perp)}
            left_ok &= perp_a == (m in nak.gp_indecs(a))
            right_ok &= da_perp == (m in nak.gi_indecs(a))
            strong &= any(any(_ext_degrees_nak(a, m, p, 0)) for p in projs)
        ng = nak.nearly_gorenstein_check_nak(a)
        assert (ng.left_ok, ng.right_ok) == (left_ok, right_ok), s
        want = ("pass" if strong else "fail") if ng else "skip"
        fixture = types.SimpleNamespace(nak=a)
        assert inv._check_j(fixture, inv.DEFAULT_BOUND).status == want, s
    assert seen == {("left", True), ("left", False),
                    ("right", True), ("right", False)}


@pytest.mark.parametrize("reverse,want", [
    (None, "pass"), ((None, None, None), "skip"), ((2, None, None), "fail")])
def test_corner_check_decides_both_ext_directions(fix, monkeypatch, reverse,
                                                  want):
    # check (g) tests Ext^i(corner gen, y e) and Ext^i(y e, corner gen);
    # the second walk here finds no window, or a nonzero Ext^2
    f = fix("gf4-local-gendo")
    corner = inv._projinj_corner(f.algebra).algebra
    real = inv._DimEngine.ext_window
    sources, reversed_calls = [], []

    def ext_window(self, classes, n, bound):
        if self.a is corner:
            sources.append(sorted(classes))
            # the target is the corner generator, the first walk's source
            if sorted(self.table.parts(n)) == sources[0]:
                reversed_calls.append(classes)
                if reverse is not None:
                    return reverse
        return real(self, classes, n, bound)

    monkeypatch.setattr(inv._DimEngine, "ext_window", ext_window)
    assert inv._check_g(f, inv.DEFAULT_BOUND).status == want
    assert reversed_calls


def test_mueller_requires_symmetric_base(a455):
    projs, reg = mr.projectives(a455)
    with pytest.raises(inv.NotSymmetric):
        inv.mueller_domdim(a455, reg)


def test_mueller_requires_generator(fix):
    f = fix("penny-farthing-gendo")
    with pytest.raises(inv.NotGenerator):
        inv.mueller_domdim(f.base_algebra, f.extras["s2"])


def _window_by_walk(eng, m, bound):
    """(window, certificate) of the syzygy orbit of m's sorted class
    multiset, walked on its own: the step at which the multiset dies or
    repeats, or (None, None) at the bound."""
    state = tuple(sorted(eng.table.parts(m)))
    seen = [state]
    for t in range(1, bound + 1):
        state = tuple(sorted(p for ci in state for p in eng.syzygy_parts(ci)))
        if not state:
            return t, PeriodicityCertificate("syzygy-terminates", t, 0)
        if state in seen:
            p = seen.index(state)
            return t, PeriodicityCertificate(
                "syzygy", p, t - p, tuple(eng.table.label(c) for c in state))
        seen.append(state)
    return None, None


def _gp_by_degree(a, m, bound):
    """gp_test by one ext_dim per degree on m and then on Tr m, each up to
    its own window (up to the bound when there is none)."""
    windows, certs = [], []
    for x, cond in ((m, "Ext^i(m, A)"),
                    (mr.transpose_tr(m), "Ext^i(Tr m, A^op)")):
        if x.dim == 0:
            break
        eng = inv._engine(x.algebra)
        w, cert = _window_by_walk(eng, x, bound)
        for i in range(1, (w or bound) + 1):
            if mr.ext_dim(x, eng.reg, i):
                return inv.GpVerdict("no", i, cond)
        if w is None:
            return inv.GpVerdict("unknown", bound=bound)
        windows.append(w)
        certs.append(cert)
    return inv.GpVerdict("yes", window=max(windows),
                         certificate=tuple(certs))


@pytest.mark.parametrize("name,p", [
    ("penny-farthing-gendo", None), ("gf4-local-gendo", None),
    ("two-periodic-demo", None), ("kupisch-455", None), ("kupisch-455", 5)])
def test_gp_matches_ext_per_degree(name, p):
    # fixtures come over their own field (F2, GF(4)) unless p is given
    f = fixtures.build_fixture(name, la.PrimeField(p) if p else None)
    eng, ids = inv._pool_classes(f)
    for bound in (1, 2, 3, inv.DEFAULT_BOUND):
        for ci in ids:
            m = eng.table.reps[ci]
            got = inv.gp_test(f.algebra, m, bound)
            want = _gp_by_degree(f.algebra, m, bound)
            assert got == want, (name, p, bound, eng.table.label(ci))


def _mueller_by_degree(b, m, bound):
    """mueller_domdim by one ext_dim per degree on the nonprojective part."""
    eng = inv._require_symmetric_generator(b, m)
    w, cert = _window_by_walk(eng, m, bound)
    nonproj = [p for p in mr.decompose(m)
               if eng.table.canon(p) not in eng.proj_ids]
    if not nonproj:
        return HomologicalDim.infinite(cert) if w is not None else \
            HomologicalDim.at_least(bound + 1,
                                    "window not certified at bound %d" % bound)
    x = mr.direct_sum(nonproj)
    for i in range(1, (w or bound) + 1):
        if mr.ext_dim(x, m, i):
            return HomologicalDim.finite(i + 1)
    if w is None:
        return HomologicalDim.at_least(
            bound + 1, "Ext window not certified at bound %d" % bound)
    return HomologicalDim.infinite(cert)


@pytest.mark.parametrize("name,bounds", [
    ("penny-farthing-gendo", (24, 3, 2, 1)), ("gf4-local-gendo", (24, 3, 2, 1)),
    ("two-periodic-demo", (24, 3, 2, 1)), ("sym-777-gendo", (24,))])
def test_mueller_matches_ext_per_degree(fix, name, bounds):
    f = fix(name)
    gen = mr.direct_sum(list(f.endo.summands))
    for bound in bounds:
        got = inv.mueller_domdim(f.base_algebra, gen, bound)
        want = _mueller_by_degree(f.base_algebra, gen, bound)
        assert ser.dim_to_json(got) == ser.dim_to_json(want), (name, bound)


# the endomorphism-algebra fixtures over a symmetric base
SYMMETRIC_BASE_ENDOS = ["sym-777-gendo", "penny-farthing-gendo",
                        "gf4-local-gendo", "two-periodic-demo"]


@pytest.mark.parametrize("name", SYMMETRIC_BASE_ENDOS)
def test_engine_resdim_matches_the_module_walk(fix, name):
    # the Chen-Koenig target against add(M), and every base-pool module
    # against add(M) and then against add(A) on the same engine, whose
    # approximation kernels differ from those against add(M); against
    # add(A) the kernels are syzygies, which grow without end over
    # gf4-local-gendo's base, so that pass stops at cutoff 2
    f = fix(name)
    b = f.base_algebra
    eng = inv._engine(b)
    gen = mr.direct_sum(f.endo.summands)
    md = inv.mueller_domdim(b, gen)
    projs, _ = mr.projectives(b)
    cutoffs = (0, 1, 2, inv.DEFAULT_BOUND)
    if md.kind == "finite":
        z = md.as_int() - 2
        x = mr.tau(mr.syzygy(gen, z))
        da = mr.dual(mr.regular_module(mr.opp(b)))
        target = mr.direct_sum([x, da]) if x.dim else da
        for cutoff in cutoffs:
            want = resdim_reference(f.endo.summands, target, cutoff)
            got = inv.chen_koenig_injdim(f.endo, cutoff, dd=md)["rhs"]
            want = inv._dim_plus(want, z + 2)
            assert ser.dim_to_json(got) == ser.dim_to_json(want), (
                name, cutoff)
    for gens, ids, cuts in ((f.endo.summands, eng.parts(gen), cutoffs),
                            (projs, sorted(eng.proj_ids), cutoffs[:3])):
        for x in f.base_pool:
            for cutoff in cuts:
                want = resdim_reference(gens, x, cutoff)
                got = eng.resdim(ids, eng.parts(x), cutoff)
                assert ser.dim_to_json(got) == ser.dim_to_json(want), (
                    name, x.label, cutoff)


@pytest.mark.parametrize("name", SYMMETRIC_BASE_ENDOS)
def test_chen_koenig_lhs_is_the_right_gorenstein_dimension(fix, monkeypatch,
                                                           name):
    # on the fixture as cached, and first thing on a fresh build
    cached = fix(name)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    for f in (cached, fixtures.build_fixture(name)):
        lhs = inv.chen_koenig_injdim(f.endo)["lhs"]
        right = inv.gorenstein_dims(f.algebra)[1]
        assert ser.dim_to_json(lhs) == ser.dim_to_json(right), name


@pytest.mark.parametrize("name", SYMMETRIC_BASE_ENDOS)
def test_endo_report_builds_no_second_endomorphism_algebra(name, monkeypatch,
                                                           capsys):
    # one endo_algebra call per endo report, the fixture's own; on warm
    # engines Chen-Koenig makes no class table of its own
    monkeypatch.setattr(fixtures, "_CACHE", {})
    real_endo, endos = mr.endo_algebra, []

    def endo_algebra(summands):
        endos.append(summands)
        return real_endo(summands)
    monkeypatch.setattr(mr, "endo_algebra", endo_algebra)
    cli.main(["--format", "json", "endo", "--fixture", name])
    assert capsys.readouterr().out
    assert len(endos) == 1, (name, len(endos))
    f = fixtures.build_fixture(name)
    inv.gorenstein_dims(f.algebra)
    inv._engine(f.base_algebra).op
    real_table, tables = mr.ClassTable, []

    class ClassTable(real_table):
        def __init__(self):
            tables.append(self)
            super().__init__()
    monkeypatch.setattr(mr, "ClassTable", ClassTable)
    inv.chen_koenig_injdim(f.endo)
    assert not tables, (name, len(tables))


@pytest.mark.parametrize("test", [inv.gp_test, inv.gi_test, inv.gpi_test,
                                  inv.mueller_domdim])
def test_a_module_over_another_algebra_never_enters_the_table(fix, test):
    b = fix("sym-777-gendo").base_algebra
    m = mr.bridge_module(fix("kupisch-56").algebra, 0, 2)
    tables = [inv._engine(b).table, inv._engine(mr.opp(b)).table]
    before = [(len(t.reps), len(t._parts)) for t in tables]
    with pytest.raises(mr.AlgebraMismatch):
        test(b, m)
    assert [(len(t.reps), len(t._parts)) for t in tables] == before


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_cover_records_match_the_reference_routes(name, monkeypatch):
    # a fresh build, so that the classes this test adds stay in its engines
    monkeypatch.setattr(fixtures, "_CACHE", {})
    fx = fixtures.build_fixture(name)
    inv.theorem_suite(fx)
    for m in fx.pool:
        inv.module_domdim(m)
        inv.module_codomdim(m)
    for a, pool in ((fx.algebra, fx.pool),
                    (mr.opp(fx.algebra), [mr.dual(m) for m in fx.pool])):
        eng = inv._engine(a)
        reps = list(eng.table.reps)
        assert len(reps) > len(mr.projectives(a)[0]), name

        def classes(m):
            # iso against the table's classes, not its memo
            return sorted(eng.table.canon(p) for p in mr.decompose(m))

        for ci, rep in enumerate(reps):
            where = (name, a is fx.algebra, eng.table.label(ci))
            assert sorted(eng.syzygy_parts(ci)) == classes(mr.syzygy(rep)), where
            assert (sorted(eng.cosyzygy_parts(ci))
                    == classes(mr.cosyzygy(rep))), where
            socle = mr.projective_cover(mr.dual(rep)).summand_idems
            assert eng.hull_projective(ci) == all(v in eng.projinj
                                                  for v in socle), where
            for n in [eng.reg] + mr.injectives(a) + mr.simples(a) + pool:
                assert eng.ext1_against(ci, n) == mr.ext_dim(rep, n, 1), where


@pytest.mark.parametrize("name", ["kupisch-455", "penny-farthing-gendo"])
def test_engine_ext_dim_matches_the_module_chain(fix, name):
    # Ext^i read off the class graph against mr.ext_dim's syzygy chain on
    # pool pairs and a decomposable sum, over the algebra and, as in check
    # (h), over its projective-injective corner
    f = fix(name)
    a = f.algebra
    pool = list(f.pool[:5])
    pool.append(mr.direct_sum(pool[:2]))
    routes = [(a, pool)]
    corner = inv._projinj_corner(a)
    if corner is not None:
        routes.append((corner.algebra,
                       [mr.corner_restrict(corner, m) for m in pool]))
    assert len(routes) == 2 or name == "kupisch-455"
    for b, mods in routes:
        eng = inv._engine(b)
        for s, m in enumerate(mods):
            for t, n in enumerate(mods):
                for i in range(4):
                    assert eng.ext_dim(m, n, i) == mr.ext_dim(m, n, i), (
                        name, b is a, s, t, i)


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_projinj_reads_socles_without_iso_tests(name, monkeypatch):
    # a fresh build, so that projinj is computed here, after the opposite
    # engine, whose own projectives may be iso-tested, is built
    monkeypatch.setattr(fixtures, "_CACHE", {})
    a = fixtures.build_fixture(name).algebra
    eng = inv._engine(a)
    eng.op
    # the class of each injective D(Ae_v), entered in a random graded
    # basis (so that its dual is not the A^op projective's action) before
    # iso is counted
    rng = np.random.default_rng(0)
    injs = [eng.table.parts(graded_twist(d, rng))[0]
            for d in mr.injectives(a)]
    real, tested = mr.iso, []

    def counted(m, n):
        tested.extend(x.action.tobytes() for x in (m, n))
        return real(m, n)
    monkeypatch.setattr(mr, "iso", counted)
    projinj = eng.projinj
    projs, op_projs = mr.projectives(a)[0], mr.projectives(eng.op.a)[0]
    # the class table of op knows each D(e_iA) without a test
    for i in projinj.values():
        eng.op.table.parts(mr.dual(projs[i]))
    # every injective class, projective or not, is read off its socle: its
    # dual is the A^op projective at its socle vertex, found with no test
    tested_before = len(tested)
    duals = [eng.dual(ci) for ci in injs]
    monkeypatch.setattr(mr, "iso", real)
    assert len(tested) == tested_before, name
    assert [eng.op.proj_ids[d] for d in duals] == list(range(a.n_idem))
    for v, i in projinj.items():
        d = mr.dual(projs[i])
        assert d.action.tobytes() not in tested, (name, i)
        # D(e_iA) = e_vA^op, the class set for it
        assert_iso(d, op_projs[v])
        assert (eng.dual(eng.table.parts(projs[i])[0])
                == eng.op.table.parts(op_projs[v])[0]), (name, i)
    # the projectives with a simple socle S_v and dim e_iA = dim Ae_v
    want = {}
    for i, p in enumerate(projs):
        soc = mr.structure(p).socle
        v = int(mr._vertices(soc)[0])
        if soc.dim == 1 and p.dim == a.cartan[:, v].sum():
            want[v] = i
    assert projinj == want


def test_scan_makes_no_iso_test(monkeypatch, capsys):
    # the dual of every injective class, projective or not, is read off its
    # socle, so the domdim searches of the gendo check need no iso test
    real, calls = mr.iso, []

    def counted(m, n):
        calls.append((m, n))
        return real(m, n)
    monkeypatch.setattr(mr, "iso", counted)
    assert cli.main(["scan", "3", "7"]) == 0
    assert capsys.readouterr().out
    assert not calls


def _gp_by_module_tr(eng, m, bound):
    """gp_test of m with Tr m built as one module and decomposed."""
    hit, w1, c1 = eng.ext_window(eng.table.parts(m), eng.reg, bound)
    if hit is not None:
        return inv.GpVerdict("no", hit, "Ext^i(m, A)")
    if w1 is None:
        return inv.GpVerdict("unknown", bound=bound)
    tr = mr.decompose(mr.transpose_tr(m))
    if not tr:
        return inv.GpVerdict("yes", window=w1, certificate=(c1,))
    classes = [eng.op.table.canon(p) for p in tr]
    hit, w2, c2 = eng.op.ext_window(classes, eng.op.reg, bound)
    if hit is not None:
        return inv.GpVerdict("no", hit, "Ext^i(Tr m, A^op)")
    if w2 is None:
        return inv.GpVerdict("unknown", bound=bound)
    return inv.GpVerdict("yes", window=max(w1, w2), certificate=(c1, c2))


@pytest.mark.parametrize("source", list(fixtures.FIXTURE_NAMES) + [
    (s, p) for s in ORACLE_SERIES for p in (2, 5)], ids=str)
def test_translate_edges_match_the_module_routes(source, monkeypatch):
    # a fresh build, so that every Tr edge checked here is made here
    monkeypatch.setattr(fixtures, "_CACHE", {})
    if source in fixtures.FIXTURE_NAMES:
        pool = fixtures.build_fixture(source).pool
    else:
        a = alg.from_kupisch(nak.validate_kupisch(source[0]),
                             la.PrimeField(source[1]))
        pool = [mr.bridge_module(a, x.i, x.k)
                for x in nak.indecomposables(a.nak_bridge["series"])]
    a = pool[0].algebra
    eng = inv._engine(a)
    ids = list(dict.fromkeys(ci for m in pool for ci in eng.table.parts(m)))

    def classes(e, m):
        # iso against the table's classes, not its memo
        return sorted(e.table.canon(p) for p in mr.decompose(m))

    for ci in ids:
        rep, where = eng.table.reps[ci], (source, eng.table.label(ci))
        assert eng.tr(ci) == classes(eng.op, mr.transpose_tr(rep)), where
        assert eng.tau_parts(ci) == classes(eng, mr.tau(rep)), where
        assert eng.tau_inv_parts(ci) == classes(eng, mr.tau_inv(rep)), where
    # every recorded edge, the reverse ones included, is a direct Tr
    for e in (eng, eng.op):
        for t, edge in list(e._tr_memo.items()):
            assert edge == classes(e.op, mr.transpose_tr(e.table.reps[t])), (
                source, e is eng, e.table.label(t))
    assert eng.op._tr_memo
    # Tr of a sum is the sum of the Tr of its summands
    for ci, cj in zip(ids, ids[1:] + ids[:1]):
        m = mr.direct_sum([eng.table.reps[ci], eng.table.reps[cj]])
        want = _gp_by_module_tr(eng, m, inv.DEFAULT_BOUND)
        assert inv.gp_test(a, m) == want, (source, ci, cj)


def test_translates_are_class_edges(monkeypatch, capsys):
    # tau and tau^-1 are read off the Tr edges of the class graph, and Tr
    # is transposed once per Tr-pair of classes: each class is the source
    # or the image of at most one transpose_tr call
    monkeypatch.setattr(fixtures, "_CACHE", {})
    real, taus, trs = mr.transpose_tr, [], []

    def transpose_tr(m):
        trs.append((m, real(m)))
        return trs[-1][1]
    monkeypatch.setattr(mr, "transpose_tr", transpose_tr)
    monkeypatch.setattr(mr, "tau", taus.append)
    monkeypatch.setattr(mr, "tau_inv", taus.append)
    assert cli.main(["--format", "json", "endo", "--fixture",
                     "gf4-local-gendo"]) == 0
    assert cli.main(["suite"]) == 0
    assert capsys.readouterr().out
    monkeypatch.undo()
    assert not taus and trs
    ends = {}
    for x in (x for call in trs for x in call):
        [ci] = inv._engine(x.algebra).table.parts(x)
        ends[x.algebra, ci] = ends.get((x.algebra, ci), 0) + 1
    assert max(ends.values()) == 1, sorted(ends.values())


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_dimension_queries_cover_each_module_once(name, monkeypatch):
    # a fresh build, so that no engine holds records from earlier tests
    monkeypatch.setattr(fixtures, "_CACHE", {})
    fx = fixtures.build_fixture(name)
    real = mr.projective_cover
    covered, counts = [], {}

    def projective_cover(m):
        covered.append(m)          # every module covered, kept alive
        key = (m.algebra, m.action.tobytes())
        counts[key] = counts.get(key, 0) + 1
        return real(m)

    monkeypatch.setattr(mr, "projective_cover", projective_cover)
    inv.algebra_domdim(fx.algebra)
    for m in fx.pool:
        for query in (inv.module_projdim, inv.module_injdim,
                      inv.module_domdim, inv.module_codomdim):
            query(m)
    twice = sum(c > 1 for c in counts.values())
    assert counts and not twice, (name, twice, len(covered), len(counts))


def test_fdomdim_pool_warns_when_uncertified(fix):
    f = fix("penny-farthing-gendo")
    assert inv.fdomdim_pool(f.pool) == 4


def test_uncertain_tau_omega2_comparison_is_undecided(fix, monkeypatch):
    # checks (a) and (b) compare tau X with Omega^2 X as class multisets; a
    # class met without a certified representative must count as
    # undecided, never as a counterexample.  Uncertify the first
    # nonprojective class of each check's engine.
    f = fix("penny-farthing-gendo")
    for eng, ids in (inv._sym_target(f), inv._pool_classes(f)):
        ci = next(c for c in ids if c not in eng.proj_ids)
        monkeypatch.setattr(eng.table.reps[ci], "indec_certain", False)
    a = inv._check_a(f, inv.DEFAULT_BOUND)
    b = inv._check_b(f, inv.DEFAULT_BOUND)
    assert (a.status, a.detail) == ("pass", "6 nonprojectives, 1 undecided")
    assert (b.status, b.detail) == ("pass", "5 classes, 1 undecided")


def test_theorem_suite_auslander(fix):
    checks = inv.theorem_suite(fix("auslander-22"))
    by_name = {c.name: c for c in checks}
    c = by_name["auslander-proj-equals-dom-d"]
    assert c.status == "pass"
    assert all(c.status in ("pass", "skip") for c in checks)


def test_check_k_skips_an_undecided_algebra_domdim(fix):
    f = fix("auslander-22")
    assert str(inv.algebra_domdim(f.algebra, 1)) == ">=2"
    c = inv._check_k(f, 1)
    assert (c.status, c.detail) == ("skip", "algebra domdim >=2 undecided")
    assert inv._check_k(f, 2).status == "pass"


def test_check_e_fails_on_the_first_nonprojective_gpi(fix):
    # gf4-local-gendo is gendo-symmetric with a nonprojective GPI class;
    # declared CM-finite, it must fail check (e) on the first such class
    f = dataclasses.replace(fix("gf4-local-gendo"), cm_finite=True)
    eng, gpis = inv._nonproj_gpis(f, inv.DEFAULT_BOUND)
    assert eng.table.label(gpis[0]) == "Hom(X,M(1,2))"
    by_name = {c.name: c for c in inv.theorem_suite(f)}
    c = by_name["cm-finite-gendo-symmetric-no-nonproj-gpi"]
    assert (c.status, c.detail) == ("fail", "nonprojective GPI Hom(X,M(1,2))")


def test_theorem_suite_never_fails_on_nakayama_fixtures(fix):
    for name in ("kupisch-455", "kupisch-56", "a2-line"):
        for c in inv.theorem_suite(fix(name)):
            assert c.status in ("pass", "skip"), (name, c)


def test_almost_split_rejects_split_sequence(a455):
    m = mr.bridge_module(a455, 0, 3)
    t = mr.tau(m)
    s = mr.direct_sum([t, m])
    eye = a455.field.eye(s.dim)
    incl, proj = mr.ModuleMap(t, s, eye[:t.dim]), mr.ModuleMap(s, m, eye[:, t.dim:])
    pool = [mr.bridge_module(a455, i, k)
            for i in range(3) for k in range(1, (4, 5, 5)[i] + 1)]
    assert not almost_split_verify(a455, (incl, proj), pool)


def _summary(r):
    """Kind, value and certificate shape of a report; class labels may
    differ between engines."""
    if isinstance(r, inv.GpVerdict):
        return r.status, r.witness_degree, r.window
    c = r.certificate
    return r.kind, r.value, c and (c.operator, c.preperiod, c.period)


def test_reports_do_not_depend_on_query_order():
    # every query on a fresh engine, then all of them in three shuffled
    # orders on one warm engine each: at every bound the reports, their
    # certificates included, must be identical
    series = nak.validate_kupisch((4, 5, 5))
    spots = [(x.i, x.k) for x in nak.indecomposables(series)]
    spots += [((0, 3), (0, 1)), ((1, 2), (2, 4))]
    calls = [inv.module_projdim, inv.module_injdim, inv.module_domdim,
             inv.module_codomdim,
             lambda m, bound: inv.gp_test(m.algebra, m, bound),
             lambda m, bound: inv.gi_test(m.algebra, m, bound)]
    queries = [(c, s) for c in range(len(calls)) for s in spots]

    def module(a, spot):
        if isinstance(spot[0], tuple):
            return mr.direct_sum([mr.bridge_module(a, *x) for x in spot])
        return mr.bridge_module(a, *spot)

    def run(order, bound, a=None):
        out = {}
        for c, s in order:
            b = a or alg.from_kupisch(series, F2)
            out[c, s] = _summary(calls[c](module(b, s), bound=bound))
        return out

    for bound in (1, 2, 3, 4, inv.DEFAULT_BOUND):
        fresh = run(queries, bound)
        if bound == inv.DEFAULT_BOUND:
            # everything over this algebra is decided at the default bound
            assert all(r[0] in ("finite", "infinite", "yes", "no")
                       for r in fresh.values())
        for seed in (1, 2, 3):
            order = random.Random(seed).sample(queries, len(queries))
            warm = run(order, bound, alg.from_kupisch(series, F2))
            assert warm == fresh, (bound, seed)


def test_almost_split_accepts_ar_sequences(a455):
    # over a Nakayama algebra the almost split sequence ending in
    # M = P/rad^k P (not projective) is
    # 0 -> rad P/rad^(k+1) P -> P/rad^(k+1) P + rad M -> M -> 0
    pool = [mr.bridge_module(a455, i, k)
            for i in range(3) for k in range(1, (4, 5, 5)[i] + 1)]
    f = a455.field
    for i, k in ((0, 1), (1, 2), (2, 3)):
        m = mr.bridge_module(a455, i, k)
        x = mr.bridge_module(a455, i, k + 1)
        onto = next(h.matrix for h in mr.hom_basis(x, m)
                    if la.rank_raw(f, h.matrix) == m.dim)
        st = mr.structure(m)
        mid, rows = (x, onto) if k == 1 else (
            mr.direct_sum([x, st.radical]),
            np.concatenate([onto, st.radical_inclusion.matrix]))
        g = mr.ModuleMap(mid, m, rows)
        _, incl = mr.kernel_submodule(g)
        assert almost_split_verify(a455, (incl, g), pool)
