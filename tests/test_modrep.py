import pytest

from gorlab import algebra as alg
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import invariants as inv

from conftest import assert_iso, assert_not_iso

F2 = la.PrimeField(2)


@pytest.fixture(scope="module")
def a455():
    return alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)


@pytest.fixture(scope="module")
def a777():
    return alg.from_kupisch(nak.validate_kupisch((7, 7, 7)), F2)


def test_projectives_and_simples_counts(a455):
    projs, reg = mr.projectives(a455)
    assert [p.dim for p in projs] == [4, 5, 5]
    assert reg.dim == a455.dim
    assert [s.dim for s in mr.simples(a455)] == [1, 1, 1]


def test_bridge_module_dims(a455):
    for i, k in [(0, 1), (0, 3), (1, 5), (2, 2)]:
        assert mr.bridge_module(a455, i, k).dim == k


def test_bridge_hom_matches_closed_form(a455):
    a = a455.nak_bridge["series"]
    mods = [(i, k) for i in range(3) for k in range(1, (4, 5, 5)[i] + 1)]
    for mi, mk in mods:
        for ni, nk in mods:
            got = len(mr.hom_basis(mr.bridge_module(a455, mi, mk),
                                   mr.bridge_module(a455, ni, nk)))
            want = inv.hom_dim_nak(a, nak.NakModule(mi, mk),
                                   nak.NakModule(ni, nk))
            assert got == want, ((mi, mk), (ni, nk))


def test_iso_reflexive_and_distinguishes(a455):
    m = mr.bridge_module(a455, 0, 3)
    n = mr.bridge_module(a455, 1, 3)
    assert_iso(m, m)
    assert_not_iso(m, n)


def test_direct_sum_decompose_round_trip(a455):
    parts = [mr.bridge_module(a455, 0, 3), mr.bridge_module(a455, 1, 2),
             mr.bridge_module(a455, 0, 3)]
    total = mr.direct_sum(parts)[0]
    got = mr.decompose(total, 0)
    assert sorted(p.dim for p in got) == [2, 3, 3]
    # multiset of iso classes is preserved
    remaining = list(parts)
    for g in got:
        hit = next(i for i, p in enumerate(remaining) if mr.iso(g, p, 0))
        remaining.pop(hit)
    assert not remaining


def test_syzygy_cosyzygy_stable_inverse_on_selfinjective(a777):
    for i, k in [(0, 2), (1, 4), (2, 6)]:
        m = mr.bridge_module(a777, i, k)
        assert_iso(mr.cosyzygy(mr.syzygy(m, 1), 1), m)
        assert_iso(mr.syzygy(mr.cosyzygy(m, 1), 1), m)


def test_projective_cover_and_injective_hull(a455):
    m = mr.bridge_module(a455, 0, 3)
    pc = mr.projective_cover(m)
    assert pc.source.dim == 4          # cover of top S_0 is e_0A
    ih = mr.injective_hull(m)
    assert ih.target.dim >= m.dim


def test_ext_degree_zero_is_hom(a455):
    m = mr.bridge_module(a455, 0, 3)
    n = mr.bridge_module(a455, 1, 2)
    assert mr.ext_dim(m, n, 0) == len(mr.hom_basis(m, n))


def test_ext_matches_closed_form(a455):
    a = a455.nak_bridge["series"]
    pairs = [((0, 3), (1, 2)), ((0, 1), (0, 1)), ((1, 3), (2, 5)),
             ((2, 2), (0, 4))]
    for (mi, mk), (ni, nk) in pairs:
        m = mr.bridge_module(a455, mi, mk)
        n = mr.bridge_module(a455, ni, nk)
        for i in range(4):
            assert mr.ext_dim(m, n, i) == inv.ext_dim_nak(
                a, nak.NakModule(mi, mk), nak.NakModule(ni, nk), i)


def test_tau_matches_closed_form(a455):
    a = a455.nak_bridge["series"]
    for m in nak.indecomposables(a):
        if nak.is_projective(a, m):
            continue
        t = nak.tau_nak(a, m)
        got = mr.tau(mr.bridge_module(a455, m.i, m.k))
        assert_iso(got, mr.bridge_module(a455, t.i, t.k))


def test_dual_swaps_projectives_and_injectives(a455):
    projs, _ = mr.projectives(a455)
    aop = mr.opp(a455)
    injs_op = mr.injectives(aop)
    for p in projs:
        d = mr.dual(p)
        assert any(mr.iso(d, j, 0) for j in injs_op)


def test_tau_and_tau_inv_stable_inverse(a455):
    m = mr.bridge_module(a455, 0, 3)
    assert_iso(mr.tau_inv(mr.tau(m)), m)


def test_nu_sends_projectives_to_injectives(a777):
    projs, _ = mr.projectives(a777)
    injs = mr.injectives(a777)
    for p in projs:
        v = mr.nu(p)
        assert any(mr.iso(v, j, 0) for j in injs)


@pytest.mark.parametrize("name", ["penny-farthing-gendo", "gf4-local-gendo",
                                  "kupisch-455"])
def test_nu_tr_tau_on_base_pools(fix, name):
    """nu, Tr and tau against hom_basis, Tr Tr = id and tau = D Tr, on the
    non-projective base-pool modules (the pool for a Nakayama fixture)."""
    f = fix(name)
    mods = [m for m in f.base_pool or f.pool
            if not mr.projective_cover(m).is_iso()]
    assert mods
    for m in mods:
        reg = mr.regular_module(m.algebra)
        assert mr.nu(m).dim == len(mr.hom_basis(m, reg))
        tr = mr.transpose_tr(m)
        assert_iso(mr.transpose_tr(tr), m)
        assert_iso(mr.tau(m), mr.dual(tr))


def test_zero_module_edge_cases(a455):
    z = mr.zero_module(a455)
    assert z.dim == 0
    assert mr.syzygy(z, 1).dim == 0
    assert mr.decompose(z, 0) == []


def test_translates_of_zero_module(a455):
    z = mr.zero_module(a455)
    for fn, over in ((mr.tau, a455), (mr.tau_inv, a455), (mr.nu, a455),
                     (mr.transpose_tr, mr.opp(a455))):
        out = fn(z)
        assert out.dim == 0 and out.algebra is over, fn.__name__


def test_right_minimality_needs_exhaustive_search():
    # the projective cover of the simple module of k[x]/(x^7) over GF(5) is
    # right minimal, but its 6-dimensional space of endomorphisms killing
    # the map has 5^6 > 2^12 points, beyond the exhaustive stage
    b = alg.from_kupisch(nak.validate_kupisch((7,)), la.PrimeField(5))
    p = mr.projectives(b)[0][0]
    cover = mr.structure(p).top_projection
    assert not mr._check_right_minimal(cover, 0)
    assert not mr.min_right_approx([p], mr.simples(b)[0], 0).minimal_certain
    # over GF(2) the same space has 2^6 points and is certified
    b2 = alg.from_kupisch(nak.validate_kupisch((7,)), F2)
    p2 = mr.projectives(b2)[0][0]
    assert mr._check_right_minimal(mr.structure(p2).top_projection, 0)


def test_resdim_infinite_needs_certified_minimality(a455, monkeypatch):
    projs, _ = mr.projectives(a455)
    m = mr.bridge_module(a455, 0, 1)
    assert mr.resdim(projs, m, cutoff=6).is_infinite
    monkeypatch.setattr(mr, "_check_right_minimal", lambda mp, seed: False)
    r = mr.resdim(projs, m, cutoff=6)
    assert r.kind == "atleast" and r.value >= 1 and r.bound_reason


def test_algebra_mismatch_guard(a455, a777):
    m = mr.bridge_module(a455, 0, 1)
    n = mr.bridge_module(a777, 0, 1)
    with pytest.raises(mr.AlgebraMismatch):
        mr.hom_basis(m, n)


def test_endo_algebra_of_regular_module_has_same_dim(a455):
    projs, _ = mr.projectives(a455)
    endo = mr.endo_algebra(projs, seed=0)
    # End(A_A) is isomorphic to A itself
    assert endo.algebra.dim == a455.dim


def test_hom_functor_on_generator_gives_projective(a455):
    projs, _ = mr.projectives(a455)
    extra = mr.bridge_module(a455, 0, 3)
    endo = mr.endo_algebra(projs + [extra], seed=0)
    img = mr.hom_functor(endo, extra)
    # Hom(X, M) for M a summand of X is projective over End(X)
    bprojs, _ = mr.projectives(endo.algebra)
    assert any(mr.iso(img, p, 0) for p in bprojs)


def test_in_add(a455):
    projs, reg = mr.projectives(a455)
    assert mr.in_add(projs, reg, 0)
    assert not mr.in_add(projs, mr.bridge_module(a455, 0, 3), 0)
