"""Property suites, runnable standalone:

* symmetric-algebra identities (tau = Omega^2, stable-Hom dimension
  identities) over the symmetric (7,7,7) and penny-farthing base algebras;
* the quotient criterion Ext^l(N, S) != 0 iff S is a quotient of the l-th
  minimal projective term, for l <= 5;
* duality is an involution;
* Mueller consistency on every constructed endomorphism pair;
* Ext-periodicity for 1- and 2-periodic modules: low degrees decide all.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gorlab import algebra as alg
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import invariants as inv
from gorlab import fixtures as fx

from conftest import assert_iso

SYMMETRIC_BASES = ["sym-777-gendo", "penny-farthing-gendo"]
ENDO_FIXTURES = ["sym-777-gendo", "penny-farthing-gendo", "gf4-local-gendo",
                 "two-periodic-demo", "auslander-22"]


def _base(name):
    f = fx.build_fixture(name)
    return f.base_algebra, f.base_pool


def _nonprojectives(a, pool):
    eng = inv._engine(a)
    return [m for m in pool if eng.table.canon(m) not in eng.proj_ids]


# ---------------------------------------------------------------------------
# tau = Omega^2 over symmetric algebras (all indecomposables in the pool)


@pytest.mark.parametrize("name", SYMMETRIC_BASES)
def test_tau_is_omega_squared_on_symmetric(name):
    a, pool = _base(name)
    assert alg.is_symmetric(a)
    for m in _nonprojectives(a, pool):
        assert_iso(mr.tau(m), mr.syzygy(m, 2))


# ---------------------------------------------------------------------------
# stable-Hom dimension identities, degrees <= 6


def _stable_hom_dim(m, n):
    """dim of Hom(m, n) modulo maps factoring through projectives, that is,
    through the projective cover pi: P(n) -> n."""
    f = m.algebra.field
    hb = mr.hom_basis(m, n)
    if not hb:
        return 0
    pi = mr.projective_cover(n)
    through = [f.matmul(u.matrix, pi.matrix).ravel()
               for u in mr.hom_basis(m, pi.source)]
    return len(hb) - la.rank_raw(
        f, np.array(through, dtype=np.int64).reshape(-1, m.dim * n.dim))


@pytest.mark.parametrize("name", SYMMETRIC_BASES)
def test_ext_is_stable_hom_of_syzygy(name):
    a, pool = _base(name)
    nonproj = _nonprojectives(a, pool)
    targets = nonproj[:3] + pool[-1:]
    for m in nonproj:
        for n in targets:
            for i in range(1, 7):
                assert mr.ext_dim(m, n, i) == _stable_hom_dim(
                    mr.syzygy(m, i), n), (m.label, n.label, i)


@pytest.mark.parametrize("name", SYMMETRIC_BASES)
def test_stable_hom_syzygy_adjunction(name):
    # over a symmetric algebra: stable Hom(m, n) = stable Hom(n, Omega(m))
    # composed twice, i.e. Omega is a stable self-equivalence:
    # dim __Hom(m, n) = dim __Hom(Omega m, Omega n)
    a, pool = _base(name)
    nonproj = _nonprojectives(a, pool)
    for m in nonproj:
        for n in nonproj[:4]:
            assert _stable_hom_dim(m, n) == _stable_hom_dim(
                mr.syzygy(m, 1), mr.syzygy(n, 1))


# ---------------------------------------------------------------------------
# quotient criterion: Ext^l(N, S) != 0 iff S is a quotient of P_l, l <= 5


@pytest.fixture(scope="module")
def a455():
    return alg.from_kupisch(nak.validate_kupisch((4, 5, 5)),
                            la.PrimeField(2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mi=st.integers(0, 2), mk=st.integers(1, 4), si=st.integers(0, 2),
       l=st.integers(1, 5))
def test_quotient_criterion(a455, mi, mk, si, l):
    n = mr.bridge_module(a455, mi, mk)
    s = mr.simples(a455)[si]
    # S is a quotient of the l-th projective term iff S lies in the top of
    # the l-th syzygy, iff Hom(Omega^l N, S) != 0
    lhs = mr.ext_dim(n, s, l) != 0
    rhs = len(mr.hom_basis(mr.syzygy(n, l), s)) != 0
    assert lhs == rhs


def test_quotient_criterion_on_a2_line():
    f = fx.build_fixture("a2-line")
    for n in f.pool:
        for s in mr.simples(f.algebra):
            for l in range(1, 6):
                assert (mr.ext_dim(n, s, l) != 0) == (
                    len(mr.hom_basis(mr.syzygy(n, l), s)) != 0)


# ---------------------------------------------------------------------------
# duality involution


@pytest.mark.parametrize("name", SYMMETRIC_BASES + ["gf4-local-gendo"])
def test_duality_is_involutive(name):
    a, pool = _base(name)
    for m in pool:
        assert mr.dual(m).algebra is not m.algebra
        assert_iso(mr.dual(mr.dual(m)), m)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mi=st.integers(0, 2), mk=st.integers(1, 4))
def test_duality_involutive_on_455(a455, mi, mk):
    m = mr.bridge_module(a455, mi, mk)
    assert_iso(mr.dual(mr.dual(m)), m)


# ---------------------------------------------------------------------------
# Mueller consistency on every constructed endomorphism pair


@pytest.mark.parametrize("name", ENDO_FIXTURES)
def test_mueller_consistency(name):
    f = fx.build_fixture(name)
    gen = mr.direct_sum(list(f.endo.summands))
    dd = inv.algebra_domdim(f.algebra)
    try:
        md = inv.mueller_domdim(f.base_algebra, gen)
    except inv.NotSymmetric:
        pytest.skip("base algebra of %s is not symmetric" % name)
    assert str(md) == str(dd), (name, str(md), str(dd))


# ---------------------------------------------------------------------------
# periodicity: degrees up to the period decide Ext-vanishing


def test_one_periodic_ext_decided_by_degree_one():
    f = fx.build_fixture("gf4-local-gendo")
    m11, m1w = f.extras["m11"], f.extras["m1w"]
    assert_iso(mr.syzygy(m11, 1), m11)     # 1-periodic
    assert mr.ext_dim(m11, m1w, 1) == 0
    for i in range(2, 7):                   # hence zero in all degrees
        assert mr.ext_dim(m11, m1w, i) == 0


def test_two_periodic_ext_is_two_periodic():
    f = fx.build_fixture("two-periodic-demo")
    w = f.extras["w"]
    assert_iso(mr.syzygy(w, 2), w)
    for x in f.base_pool:
        for i in (1, 2):
            assert mr.ext_dim(w, x, i) == mr.ext_dim(w, x, i + 2)


# ---------------------------------------------------------------------------
# dimension-arithmetic sanity used throughout reporting


_DRAWN_DIM = st.one_of(st.tuples(st.just("finite"), st.integers(0, 6)),
                      st.tuples(st.just("atleast"), st.integers(0, 6)),
                      st.just(("infinite", None)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(v=st.integers(0, 100), w=st.integers(0, 100),
       drawn=st.lists(_DRAWN_DIM, min_size=1, max_size=4))
def test_homological_dim_order(v, w, drawn):
    import itertools
    from gorlab.dims import HomologicalDim, dim_max, dim_min
    a, b = HomologicalDim.finite(v), HomologicalDim.finite(w)
    assert dim_max([a, b]) == max(v, w)
    assert dim_min([a, b]) == min(v, w)
    inf = HomologicalDim.infinite_by_convention()
    assert dim_max([a, inf]).is_infinite
    assert dim_min([a, inf]) == v
    assert a.ge(v) and not a.ge(v + 1)
    # AtLeast(n) stands for any of n, n+1, ..., inf: a Finite answer must be
    # the value of every completion, Infinite that of all, and AtLeast(n)
    # the least value over all completions.
    vals = [HomologicalDim.finite(n) if kind == "finite"
            else HomologicalDim.at_least(n, "drawn") if kind == "atleast"
            else inf for kind, n in drawn]
    top = float("inf")
    choices = [[n] if kind == "finite" else list(range(n, 8)) + [top]
               if kind == "atleast" else [top] for kind, n in drawn]
    for agg, got in ((min, dim_min(vals)), (max, dim_max(vals))):
        outcomes = {agg(c) for c in itertools.product(*choices)}
        if got.kind == "finite":
            assert outcomes == {got.value}, (drawn, agg, got)
        elif got.kind == "infinite":
            assert outcomes == {top}, (drawn, agg, got)
        else:
            assert min(outcomes) == got.value, (drawn, agg, got)


def test_dim_min_max_with_lower_bounds():
    from gorlab.dims import HomologicalDim, dim_max, dim_min
    fin = HomologicalDim.finite

    def low(n):
        return HomologicalDim.at_least(n, "budget")

    assert str(dim_min([fin(5), low(2)])) == ">=2"
    assert str(dim_min([low(2), low(1)])) == ">=1"
    assert str(dim_max([fin(5), low(1)])) == ">=5"
    assert str(dim_min([low(7), fin(5)])) == "5"
