import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gorlab import algebra as alg
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import invariants as inv
from gorlab import fixtures

from conftest import (assert_iso, assert_not_iso, check_right_minimal,
                      dense_action_violation, ext_dim_nak, graded_twist)

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


def test_make_module_rejects_an_action_off_the_structure_constants(a455):
    # e_0 and the arrow a: 0 -> 1 both act by 1 on a line: the unit acts
    # as 1, but rho(a) rho(e_0) = 1 while a e_0 = 0
    action = np.zeros((a455.dim, 1, 1), dtype=np.int64)
    action[[0, a455.nak_bridge["path_index"][(0, 1)]]] = 1
    with pytest.raises(ValueError, match=r"structure constants at \(1,0\)"):
        mr.make_module(a455, action)
    action[1] = 0
    assert mr.make_module(a455, action).dim == 1


@pytest.mark.parametrize("name", ["kupisch-455", "sym-777-gendo",
                                  "gf4-local-gendo"])
def test_make_module_names_the_dense_witness_of_a_corruption(name):
    # single entries of pool-module actions changed to another value, at
    # entries drawn with a fixed seed: make_module raises what the checks
    # it makes, with the dense structure-constant check, give
    fx = fixtures.build_fixture(name)
    a, pool = fx.algebra, fx.pool
    f = a.field
    rng = np.random.default_rng(29)
    raised = 0
    for t in rng.integers(0, len(pool), size=40):
        action = pool[t].action.copy()
        i, x, y = (rng.integers(0, s) for s in action.shape)
        action[i, x, y] = (action[i, x, y] + rng.integers(1, f.order)) % f.order
        unit = la.combine(f, a.unit, action)
        if not np.array_equal(unit, f.eye(action.shape[1])):
            want = "unit does not act as identity"
        else:
            bad = dense_action_violation(f, a.mult, action)
            want = bad and ("action violates structure constants at (%d,%d)"
                            % bad[1:])
        if want is None:
            mr.make_module(a, action)
            continue
        with pytest.raises(ValueError) as err:
            mr.make_module(a, action)
        assert str(err.value) == want, (t, i, x, y)
        raised += "structure constants" in want
    assert raised > 20


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
            want = nak.hom_dim_nak(a, nak.NakModule(mi, mk),
                                   nak.NakModule(ni, nk))
            assert got == want, ((mi, mk), (ni, nk))


def _field_kron(f, A, B):
    out = f.mul(np.asarray(A, dtype=np.int64)[:, None, :, None],
                np.asarray(B, dtype=np.int64)[None, :, None, :])
    return out.reshape(A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])


def _kronecker_hom_basis(m, n):
    """hom_basis by one Kronecker constraint system per idempotent and
    radical generator, intersected one generator at a time."""
    a = m.algebra
    f = a.field
    basis = None
    for g in np.concatenate([a.idempotents, a.pres.radical_generators]):
        block = f.sub(_field_kron(f, m.rho(g), f.eye(n.dim)),
                      _field_kron(f, f.eye(m.dim), n.rho(g).T))
        if basis is None:
            basis = la.nullspace(f, block)
        else:
            basis = f.matmul(la.nullspace(f, f.matmul(block, basis.T)), basis)
    return basis


def _twisted(fx):
    """The largest pool module in the basis given by the rows of
    P = I + (ones above the diagonal), regraded by make_module."""
    f = fx.algebra.field
    big = max(fx.pool, key=lambda m: m.dim)
    p = np.triu(np.ones((big.dim, big.dim), dtype=np.int64))
    p_inv = la.solve_raw(f, p, f.eye(big.dim))
    twist = np.array([f.matmul(f.matmul(p, x), p_inv) for x in big.action])
    assert any(not np.array_equal(x, x.T) for x in
               (la.combine(f, e, twist) for e in fx.algebra.idempotents))
    return mr.make_module(fx.algebra, twist)


@pytest.mark.parametrize("name,field", [
    ("kupisch-455", None), ("kupisch-455", la.PrimeField(5)),
    ("gf4-local-gendo", None), ("penny-farthing-gendo", None),
    ("sym-777-gendo", None)])
def test_hom_basis_spans_the_kronecker_hom_space(name, field):
    # the closed form on the idempotents leaves only the radical generators
    # to solve for; it must span the space the full constraint systems cut
    # out, also on a module given in a basis where the rho(e_v) are not
    # symmetric (_twisted)
    fx = fixtures.build_fixture(name, field)
    f = fx.algebra.field
    pool = fx.pool + [_twisted(fx)]
    dims = []
    for m, n in itertools.product(pool, repeat=2):
        got = mr.hom_basis(m, n)
        flat = np.array([h.matrix.ravel() for h in got]).reshape(
            len(got), m.dim * n.dim)
        assert np.array_equal(la.row_space_basis(f, flat),
                              la.row_space_basis(f, _kronecker_hom_basis(m, n)))
        for h in got:
            for x, y in zip(m.action, n.action):
                assert np.array_equal(f.matmul(x, h.matrix),
                                      f.matmul(h.matrix, y))
        dims.append(len(got))
    assert max(dims) > 1
    if name == "penny-farthing-gendo":
        assert fx.algebra.n_idem > 1 and 0 in dims


def _per_arrow_hom_space(m, n):
    """_hom_space by one elimination per arrow: the unit maps E_rs with r
    and s at one vertex, cut down by rho_m(g) F = F rho_n(g) one arrow g at
    a time, each step keeping the combinations given by a nullspace."""
    f = m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return np.zeros((0, m.dim * n.dim), dtype=np.int64), np.zeros(0, int)
    vm = mr._vertices(m)
    r, s = np.nonzero(vm[:, None] == mr._vertices(n)[None, :])
    keys = (r * n.dim + s)[np.argsort(vm[r], kind="stable")]
    basis = np.zeros((len(keys), m.dim * n.dim), dtype=np.int64)
    basis[np.arange(len(keys)), keys] = f.one
    for gm, gn in zip(mr._arrow_actions(m), mr._arrow_actions(n)):
        if basis.shape[0] == 0:
            break
        maps = basis.reshape(-1, m.dim, n.dim)
        after = f.matmul(basis.reshape(-1, n.dim), gn)
        cons = f.sub(mr._images(f, gm, maps), after.reshape(maps.shape))
        coords = la.nullspace(f, cons.reshape(len(maps), -1).T)
        basis = f.matmul(coords, basis)
        keys = keys[coords.shape[1] - 1 - (coords[:, ::-1] != 0).argmax(axis=1)]
    return basis, keys


def _assert_per_arrow_hom_spaces(mods):
    """_hom_space gives the bytes of the per-arrow reference on mods^2."""
    for m, n in itertools.product(mods, repeat=2):
        for got, want in zip(mr._hom_space(m, n), _per_arrow_hom_space(m, n)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (m, n)
            assert got.tobytes() == want.tobytes(), (m, n)


def _arrow_ends(a):
    """(u, v) per arrow g, with g in e_u A e_v."""
    ends = (a.arrows != 0).argmax(axis=1)
    return set(zip(a.peirce[0][ends].tolist(), a.peirce[1][ends].tolist()))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_hom_space_matches_the_per_arrow_reference(fix, name):
    # the pool, the regraded twist, and modules with empty vertex blocks:
    # the simples and the zero module; then their duals over A^op
    fx = fix(name)
    a = fx.algebra
    mods = fx.pool + [_twisted(fx), mr.zero_module(a)] + mr.simples(a)
    _assert_per_arrow_hom_spaces(mods)
    _assert_per_arrow_hom_spaces([mr.dual(m) for m in mods])
    if name == "gf4-local-gendo":
        assert any(u == v for u, v in _arrow_ends(a))


@pytest.mark.parametrize("p", [2, 5])
def test_hom_space_matches_the_per_arrow_reference_on_bridges(p):
    a = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), la.PrimeField(p))
    _assert_per_arrow_hom_spaces([mr.bridge_module(a, i, k) for i in range(3)
                                  for k in range(1, (4, 5, 5)[i] + 1)])


def test_hom_space_without_arrows_is_every_graded_map():
    # J = 0: k x k, where Hom is every map that keeps the vertices
    q = alg.QuiverPresentation(vertices=["0", "1"], arrows=[], relations=[])
    a = alg.validate(alg.from_quiver(q, F2))
    assert len(a.arrows) == 0
    s0, s1 = mr.simples(a)
    mods = [s0, s1, mr.direct_sum([s0, s1, s0]), mr.zero_module(a)]
    _assert_per_arrow_hom_spaces(mods)
    assert [mr.hom_dim(mods[2], x) for x in mods] == [2, 1, 5, 0]


@functools.cache
def _kronecker(field):
    """The Kronecker algebra: two arrows a, b: 0 -> 1, no relations."""
    q = alg.QuiverPresentation(vertices=["0", "1"],
                               arrows=[(0, 1, "a"), (0, 1, "b")], relations=[])
    return alg.validate(alg.from_quiver(q, field))


def _kronecker_module(a, ra, rb):
    """The representation k^d0 => k^d1 whose arrows act by the d0 x d1
    matrices ra and rb."""
    f = a.field
    d0, d1 = ra.shape
    at = {label: i for i, label in enumerate(a.basis_labels)}
    action = np.zeros((a.dim, d0 + d1, d0 + d1), dtype=np.int64)
    action[at["e0"], :d0, :d0] = f.eye(d0)
    action[at["e1"], d0:, d0:] = f.eye(d1)
    action[at["a"], :d0, d0:] = ra
    action[at["b"], :d0, d0:] = rb
    return mr.make_module(a, action)


@st.composite
def _kronecker_pairs(draw):
    f = draw(st.sampled_from([F2, la.PrimeField(3), la.GF4()]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = _kronecker(f)
    mods = []
    for _ in range(2):
        d0, d1 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        ra, rb = rng.integers(0, f.order, size=(2, d0, d1))
        if draw(st.booleans()):
            rb[:] = 0
        mods.append(_kronecker_module(a, ra, rb))
    return mods


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_kronecker_pairs())
def test_hom_space_matches_the_per_arrow_reference_on_kronecker(mods):
    _assert_per_arrow_hom_spaces(mods)


def _kronecker_17():
    """M = (F2^17 => F2^17) with the arrows acting by I and by the companion
    matrix of x^17 + x^3 + 1, irreducible, so End(M) = GF(2^17)."""
    c = np.zeros((17, 17), dtype=np.int64)
    c[np.arange(1, 17), np.arange(16)] = 1
    c[[0, 3], 16] = 1
    return _kronecker_module(_kronecker(F2), F2.eye(17), c)


def test_hom_space_of_a_large_kronecker_sum_within_budget():
    # End(M + M) = M_2(GF(2^17)) has dimension 68 over F2
    m = _kronecker_17()
    mm = mr.direct_sum([m, m])
    t0 = time.perf_counter()
    assert len(mr.hom_basis(mm, mm)) == 68
    assert time.perf_counter() - t0 < 10.0


_POOLS = [("kupisch-455", None), ("kupisch-455", la.PrimeField(5)),
          ("gf4-local-gendo", None), ("penny-farthing-gendo", None)]


@pytest.mark.parametrize("name,field", _POOLS)
def test_fingerprint_and_iso_survive_a_change_of_basis(name, field):
    # rho_n(x) = P^-1 rho_m(x) P for a random invertible P: the fingerprint
    # must not move and iso must find the isomorphism
    fx = fixtures.build_fixture(name, field)
    f = fx.algebra.field
    rng = np.random.default_rng(0)
    for m in fx.pool:
        p = rng.integers(0, f.order, (m.dim, m.dim))
        while not la.is_invertible(f, p):
            p = rng.integers(0, f.order, (m.dim, m.dim))
        p_inv = la.solve_raw(f, p, f.eye(m.dim))
        n = mr.make_module(fx.algebra, [f.matmul(f.matmul(p_inv, x), p)
                                        for x in m.action])
        assert mr.fingerprint(n) == mr.fingerprint(m)
        assert sum(mr.fingerprint(m)[0]) == m.dim
        _assert_graded(n)
        assert_iso(m, n)


def _assert_graded(m):
    """Every rho(e_v) is a 0/1 diagonal."""
    f = m.algebra.field
    for e in m.algebra.idempotents:
        r = m.rho(e)
        assert np.array_equal(r, np.diag(np.diag(r))), m
        assert set(np.diag(r).tolist()) <= {0, f.one}, m


def _solve_corner(a, sel):
    """corner_algebra's arrays by solving in the basis of eAe = the row
    space of L(e)R(e): products, unit, idempotents, radical generators."""
    f = a.field
    e = la.combine(f, np.isin(np.arange(a.n_idem), sel), a.idempotents)
    proj = f.matmul(a.L(e), a.R(e))
    rows = la.row_space_basis(f, proj)
    m = len(rows)

    def coords(xs):
        xs = np.asarray(xs).reshape(-1, a.dim)
        return la.solve_raw(f, rows.T, xs.T).T

    # the products x y = y L(x), y running fastest
    prods = np.concatenate([f.matmul(rows, a.L(x)) for x in rows])
    rad = la.row_space_basis(f, f.matmul(a.jacobson_basis, proj))
    return [coords(prods).reshape(m, m, m), coords(e)[0],
            coords(a.idempotents[list(sel)]), coords(rad), rows]


def test_every_construction_keeps_modules_graded(fix):
    # make_module regrades at the boundary; everything built from graded
    # modules must stay graded, and every algebra, its opposite and its
    # corners must pass validate's graded-basis check, the corners sliced
    # exactly as the solves in a basis of eAe would give them
    for name in fixtures.FIXTURE_NAMES:
        fx = fix(name)
        a = fx.algebra
        for b in (a, mr.opp(a)):
            alg.validate(b.pres)
            for k in range(1, min(a.n_idem, 4) + 1):
                for sel in itertools.combinations(range(a.n_idem), k):
                    c = alg.corner_algebra(b, sel)
                    got = [c.algebra.mult, c.algebra.unit,
                           c.algebra.idempotents,
                           c.algebra.pres.radical_generators, c.basis_rows]
                    for x, y in zip(got, _solve_corner(b, sel)):
                        assert np.array_equal(x, y), (name, sel)
        projs, reg = mr.projectives(a)
        mods = fx.pool + projs + [reg] + mr.injectives(a) + mr.simples(a)
        for m in fx.pool:
            mods += [mr.syzygy(m), mr.cosyzygy(m), mr.tau(m), mr.tau_inv(m),
                     mr.dual(m), mr.direct_sum([m, fx.pool[0]])]
        if fx.endo is not None:
            mods += [mr.hom_functor(fx.endo, x) for x in fx.base_pool]
        corner = alg.corner_algebra(a, [a.n_idem - 1])
        mods += [mr.corner_restrict(corner, m) for m in list(mods)
                 if m.algebra is a]
        for m in mods:
            _assert_graded(m)


def _closure_structure(m):
    """rad (closure of the radical generators' rows), top and socle (the
    common kernel of the rho(j) over the Jacobson basis), as arrays."""
    a, f = m.algebra, m.algebra.field
    basis = la.row_space_basis(f, np.concatenate(
        [np.zeros((0, m.dim), dtype=np.int64)]
        + [m.rho(g) for g in a.pres.radical_generators]))
    while len(basis):
        prev = len(basis)
        basis = la.row_space_basis(f, np.concatenate(
            [basis] + [f.matmul(basis, x) for x in m.action]))
        if len(basis) == prev:
            break
    rad, rad_inc = mr.submodule_from_rows(m, basis)
    top, top_proj = mr.quotient_by_rows(m, rad_inc.matrix)
    jb = a.jacobson_basis
    soc_rows = (f.eye(m.dim) if len(jb) == 0 else la.nullspace(
        f, np.concatenate([m.rho(j) for j in jb], axis=1).T))
    soc, soc_inc = mr.submodule_from_rows(m, soc_rows)
    return [rad.action, rad_inc.matrix, top.action, top_proj.matrix,
            soc.action, soc_inc.matrix]


def _loop_cover_matrix(m):
    """The projective cover's matrix, one generator image per row.  The top
    vector u lifts to u @ lift: the unit vector at its t-th coordinate goes
    to the unit vector at the t-th non-pivot column of the radical's basis."""
    a, f = m.algebra, m.algebra.field
    st = mr.structure(m)
    pivots = la.row_echelon(f, st.radical_inclusion.matrix)[1]
    lift = f.eye(m.dim)[[j for j in range(m.dim) if j not in pivots]]
    rows = []
    for i in range(a.n_idem):
        for u in la.row_space_basis(f, st.top.rho(a.idempotents[i])):
            v = f.matmul(u[None, :], lift)
            v = f.matmul(v, m.rho(a.idempotents[i]))[0]
            rows += [f.matmul(v[None, :], m.rho(b))[0]
                     for b in la.row_space_basis(f, a.L(a.idempotents[i]))]
    return np.array(rows, dtype=np.int64).reshape(-1, m.dim)


@pytest.mark.parametrize("name,field", _POOLS)
def test_structure_and_cover_match_the_loop_references(name, field):
    fx = fixtures.build_fixture(name, field)
    for m in fx.pool:
        st = mr.structure(m)
        got = [st.radical.action, st.radical_inclusion.matrix, st.top.action,
               st.top_projection.matrix, st.socle.action,
               st.socle_inclusion.matrix]
        for x, y in zip(got, _closure_structure(m)):
            assert np.array_equal(x, y)
        assert np.array_equal(mr.projective_cover(m).matrix,
                              _loop_cover_matrix(m))


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _cover_test_modules(fx):
    """Every pool module of the fixture with its Omega, Omega^-1 and tau,
    and per algebra its projectives, simples, one direct sum and 0."""
    mods = []
    for pool in (fx.pool, fx.base_pool):
        for m in pool:
            mods += [m, mr.syzygy(m), mr.cosyzygy(m), mr.tau(m)]
    for a in {m.algebra for m in mods}:
        projs, _ = mr.projectives(a)
        simple = mr.simples(a)
        mods += projs + simple + [mr.direct_sum([projs[-1], simple[0]]),
                                  mr.zero_module(a)]
    return mods


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_projective_cover_is_a_minimal_surjection(fix, name, monkeypatch):
    # by definition, whichever generators the cover picks: a module map
    # onto m from one e_iA per basis vector of the top at vertex i
    for m in _cover_test_modules(fix(name)):
        a, f = m.algebra, m.algebra.field
        cov = mr.projective_cover(m)
        c, p = cov.matrix, cov.source
        assert c.shape == (p.dim, m.dim)
        for x, y in zip(p.action, m.action):
            assert np.array_equal(f.matmul(x, c), f.matmul(c, y))
        assert la.rank_raw(f, c) == m.dim
        if m.dim == 0:
            assert cov.summand_idems == [] and p.dim == 0
            continue
        st = mr.structure(m)
        assert np.array_equal(
            np.bincount(cov.summand_idems, minlength=a.n_idem),
            np.bincount(mr._vertices(st.top), minlength=a.n_idem))
        # decompose's rank test settles exactly the local and colocal
        # modules, before any Hom space is built
        fresh = mr.RightModule(a, m.dim, m.action)
        with monkeypatch.context() as mp:
            mp.setattr(mr, "_hom_space", _reached)
            if st.top.dim == 1 or st.socle.dim == 1:
                assert mr.decompose(fresh) == [fresh] and fresh.indec_certain
            else:
                with pytest.raises(_Reached):
                    mr.decompose(fresh)


@pytest.mark.parametrize("name,field", [("kupisch-455", None),
                                        ("kupisch-455", la.PrimeField(5)),
                                        ("gf4-local-gendo", None)])
def test_module_primitives_call_neither_structure_nor_solve(name, field,
                                                            monkeypatch):
    fx = fixtures.build_fixture(name, field)
    a = fx.algebra
    for b in (a, mr.opp(a)):
        for warm in (mr.projectives, mr.simples, mr.injectives):
            warm(b)
    monkeypatch.setattr(mr, "structure", _reached)
    monkeypatch.setattr(la, "solve_raw", _reached)
    fresh = [mr.RightModule(a, m.dim, m.action) for m in fx.pool]
    for m in fx.pool:
        for op in (mr.syzygy, mr.cosyzygy):
            op(m, 2)
        for op in (mr.tau, mr.tau_inv):
            op(m)
        for n in fx.pool[:4]:
            for i in (1, 2):
                mr.ext_dim(m, n, i)
    for m in fresh:
        assert mr.decompose(m) == [m] and m.indec_certain is True
    s = mr.direct_sum(fresh[:2])
    assert len(mr.decompose(s)) == 2
    for m, n in itertools.combinations(fresh, 2):
        assert not mr.iso(m, n).isomorphic


def test_decompose_returns_a_certified_part_as_it_is(fix, a455, monkeypatch):
    # a simple-top part, and a part certified by _is_local
    mods = [mr.direct_sum([mr.bridge_module(a455, 0, 3),
                           mr.bridge_module(a455, 1, 2)]),
            _gf4_eight_dim_modules(fix("gf4-local-gendo"))[0]]
    parts = [p for m in mods for p in mr.decompose(m)]
    assert len(parts) == 3 and all(p.indec_certain for p in parts)
    monkeypatch.setattr(mr, "_hom_space", _reached)
    monkeypatch.setattr(mr, "_arrow_actions", _reached)
    for p in parts:
        got = mr.decompose(p)
        assert len(got) == 1 and got[0] is p


def test_iso_reflexive_and_distinguishes(a455, monkeypatch):
    m = mr.bridge_module(a455, 0, 3)
    n = mr.bridge_module(a455, 1, 3)
    assert_iso(m, m)
    assert_not_iso(m, n)
    # decomposable sides are compared summand by summand
    mm, mn, nm, mm2 = (mr.direct_sum(p)
                         for p in ((m, m), (m, n), (n, m), (m, m)))
    assert_iso(mn, nm)
    assert mr.hom_dim(mm, mn) == mr.hom_dim(mn, mm)     # equal Hom dimensions
    assert_not_iso(mm, mn)
    # maps with a single nonzero block form a basis of Hom(m+m, m+m) without
    # an isomorphism; the summand match does not need one
    blocks = [np.kron(u, h.matrix) for u in np.eye(4, dtype=np.int64)
              .reshape(4, 2, 2) for h in mr.hom_basis(m, m)]
    real = mr.hom_basis
    assert len(blocks) == len(real(mm, mm2))
    assert not any(la.is_invertible(F2, z) for z in blocks)
    monkeypatch.setattr(mr, "hom_basis", lambda x, y: [
        mr.ModuleMap(mm, mm2, z) for z in blocks]
        if x is mm and y is mm2 else real(x, y))
    assert_iso(mm, mm2)


@pytest.mark.parametrize("name,positions", [("sym-777-gendo", (10, 16)),
                                            ("gf4-local-gendo", (6, 7))])
def test_iso_never_draws(fix, name, positions, monkeypatch):
    # tau m and Omega^2 m of these pool classes (13 and 18, and 6 and 7, of
    # a fresh class table) have equal dimensions and Hom dimensions but are
    # not isomorphic: the case a random search would have to exhaust
    eng, ids = inv._pool_classes(fix(name))
    mods = [eng.table.reps[ids[k]] for k in positions]
    pairs = [(mr.tau(m), mr.syzygy(m, 2)) for m in mods]

    def draw(*args, **kwargs):
        raise AssertionError("iso drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", draw)
    for t, o2 in pairs:
        assert len(mr.hom_basis(t, o2)) == len(mr.hom_basis(o2, t))
        assert_not_iso(t, o2)


def _solve_submodule(m, rows):
    """submodule_from_rows by one solve per algebra basis element."""
    f = m.algebra.field
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, m.dim)
    basis = la.row_space_basis(f, rows)
    r = len(basis)
    action = np.array([la.solve_raw(f, basis.T, f.matmul(basis, x).T).T
                       for x in m.action]).reshape(m.algebra.dim, r, r)
    return action, basis


def _invert_quotient(m, rows):
    """quotient_by_rows by inverting the basis completed with unit rows."""
    f = m.algebra.field
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, m.dim)
    basis = la.row_space_basis(f, rows)
    r = len(basis)
    pivots = la.row_echelon(f, basis)[1] if r else []
    comp = [j for j in range(m.dim) if j not in pivots]
    E = np.zeros((len(comp), m.dim), dtype=np.int64)
    E[np.arange(len(comp)), comp] = f.one
    proj = la.solve_raw(f, np.concatenate([basis, E]), f.eye(m.dim))[:, r:]
    action = np.array([f.matmul(f.matmul(E, x), proj) for x in m.action])
    return action.reshape(m.algebra.dim, len(comp), len(comp)), proj


def _solve_corner_restrict(corner, x):
    f = x.algebra.field
    e = la.combine(f, np.isin(np.arange(x.algebra.n_idem), corner.idem_subset),
                   x.algebra.idempotents)
    basis = la.row_space_basis(f, x.rho(e))
    action = np.array([la.solve_raw(f, basis.T,
                                    f.matmul(basis, x.rho(c)).T).T
                       for c in corner.basis_rows])
    return action.reshape(len(corner.basis_rows), len(basis), len(basis))


@pytest.fixture
def checked_spans(monkeypatch):
    """Route submodule_from_rows and quotient_by_rows through a comparison
    with the solve and inversion routes; returns the count of checked calls."""
    real_sub, real_quo = mr.submodule_from_rows, mr.quotient_by_rows
    seen = {"sub": 0, "quo": 0}

    def sub(m, rows, label=""):
        out = real_sub(m, rows, label)
        if m.dim:
            action, basis = _solve_submodule(m, rows)
            assert np.array_equal(out[0].action, action)
            assert np.array_equal(out[1].matrix, basis)
            seen["sub"] += 1
        return out

    def quo(m, rows, label=""):
        out = real_quo(m, rows, label)
        if m.dim:
            action, proj = _invert_quotient(m, rows)
            assert np.array_equal(out[0].action, action)
            assert np.array_equal(out[1].matrix, proj)
            seen["quo"] += 1
        return out

    monkeypatch.setattr(mr, "submodule_from_rows", sub)
    monkeypatch.setattr(mr, "quotient_by_rows", quo)
    return seen


def _generated(m, v):
    """The rows v * rho(b_j), which span the submodule generated by v."""
    return np.concatenate([m.algebra.field.matmul(v[None, :], x)
                           for x in m.action])


def _check_spans_of(mods, corners):
    for m in mods:
        mr.structure(m)
        for x in (mr.syzygy(m), mr.syzygy(m, 2), mr.cosyzygy(m)):
            if x.dim:
                mr.structure(x)
        # a span that is not a coordinate subspace
        v = np.arange(m.dim) % m.algebra.field.order
        mr.quotient_by_rows(m, _generated(m, v))
        for c in corners:
            assert np.array_equal(mr.corner_restrict(c, m).action,
                                  _solve_corner_restrict(c, m))


@pytest.mark.parametrize("p", [2, 5])
def test_spans_match_solve_and_inversion_routes(checked_spans, p):
    # radicals, tops, socles, syzygies and bridge quotients over a fresh
    # algebra, so that its projectives are built through the check too
    a = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), la.PrimeField(p))
    mods = [mr.bridge_module(a, i, k) for i, c in enumerate((4, 5, 5))
            for k in range(1, c + 1)]
    corners = [alg.corner_algebra(a, s) for s in ([0], [1, 2])]
    _check_spans_of(mods + [mr.regular_module(a)], corners)
    assert checked_spans["sub"] > 100 and checked_spans["quo"] > 30


def test_spans_match_solve_and_inversion_routes_gf4(checked_spans, fix):
    fx = fix("gf4-local-gendo")
    a = fx.algebra
    corners = [alg.corner_algebra(a, [i]) for i in range(a.n_idem)]
    _check_spans_of(fx.pool, corners)
    assert checked_spans["sub"] > 20 and checked_spans["quo"] > 10


def test_submodule_rejects_unstable_rows(a455, fix):
    for m in (mr.bridge_module(a455, 0, 3),
              fix("gf4-local-gendo").pool[-1]):
        # a vector whose submodule is larger than its span
        v = next(u for u in np.eye(m.dim, dtype=np.int64)
                 if la.rank_raw(m.algebra.field, _generated(m, u)) > 1)
        with pytest.raises(ValueError, match="action-stable"):
            mr.submodule_from_rows(m, v)
        zero, inc = mr.submodule_from_rows(m, np.zeros((0, m.dim)))
        assert zero.dim == 0 and inc.matrix.shape == (0, m.dim)
        assert zero.action.shape == (m.algebra.dim, 0, 0)


def test_direct_sum_decompose_round_trip(a455):
    parts = [mr.bridge_module(a455, 0, 3), mr.bridge_module(a455, 1, 2),
             mr.bridge_module(a455, 0, 3)]
    total = mr.direct_sum(parts)
    got = mr.decompose(total)
    assert sorted(p.dim for p in got) == [2, 3, 3]
    # multiset of iso classes is preserved
    remaining = list(parts)
    for g in got:
        hit = next(i for i, p in enumerate(remaining) if mr.iso(g, p))
        remaining.pop(hit)
    assert not remaining


def test_class_table_memo_is_keyed_on_the_action(a455, monkeypatch):
    # D D m is a fresh object with m's action over the same algebra: the
    # table reads its classes off m's entry instead of decomposing again
    m = mr.direct_sum([mr.bridge_module(a455, 0, 3),
                       mr.bridge_module(a455, 1, 2)])
    twin = mr.dual(mr.dual(m))
    assert twin is not m and twin.algebra is a455
    assert np.array_equal(twin.action, m.action)
    real, seen = mr.decompose, []

    def decompose(x):
        seen.append(x)
        return real(x)

    monkeypatch.setattr(mr, "decompose", decompose)
    table = mr.ClassTable()
    assert table.parts(m) == [0, 1]
    assert table.parts(twin) == [0, 1]
    assert [x for x in seen if x is m or x is twin] == [m]


def test_class_table_memo_keeps_two_copies_of_an_algebra_apart():
    # equal action bytes over two separately built copies of one algebra are
    # modules over different algebras: they must not share a memo entry
    series = nak.validate_kupisch((4, 5, 5))
    m1, m2 = (mr.bridge_module(alg.from_kupisch(series, F2), 0, 3)
              for _ in range(2))
    assert m1.algebra is not m2.algebra
    assert m1.action.tobytes() == m2.action.tobytes()
    with pytest.raises(mr.AlgebraMismatch):
        mr.iso_classes([m1, m2])


def test_syzygy_cosyzygy_stable_inverse_on_selfinjective(a777):
    for i, k in [(0, 2), (1, 4), (2, 6)]:
        m = mr.bridge_module(a777, i, k)
        assert_iso(mr.cosyzygy(mr.syzygy(m, 1), 1), m)
        assert_iso(mr.syzygy(mr.cosyzygy(m, 1), 1), m)


def _reference_hull(m):
    """The injective hull m -> D P(D m), built as a map: D of the projective
    cover of D m."""
    return mr.dual_map(mr.projective_cover(mr.dual(m)))


def _warm_engines(fx):
    """The engines of the fixture's algebra and of its opposite, after the
    theorem suite and the (co)dominant dimensions of the pool."""
    inv.theorem_suite(fx)
    for m in fx.pool:
        inv.module_domdim(m)
        inv.module_codomdim(m)
    return inv._engine(fx.algebra), inv._engine(mr.opp(fx.algebra))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_hull_projective_matches_the_reference_hull(fix, name):
    for eng in _warm_engines(fix(name)):
        assert len(eng.table.reps) > len(mr.projectives(eng.a)[0])
        for ci, m in enumerate(eng.table.reps):
            hull = _reference_hull(m).target
            want = all(mr.projective_cover(p).is_iso()
                       for p in mr.decompose(hull))
            assert eng.hull_projective(ci) == want, (name, eng.table.label(ci))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_projinj_matches_the_reference_hull(fix, name):
    a = fix(name).algebra
    for b in (a, mr.opp(a)):
        eng = inv._engine(b)
        projs, _ = mr.projectives(b)
        assert sorted(eng.projinj.values()) == [
            i for i, p in enumerate(projs) if _reference_hull(p).is_iso()]
        # e_iA is the injective D(Ae_v) with socle S_v
        for v, i in eng.projinj.items():
            assert_iso(projs[i], mr.injectives(b)[v])


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_cosyzygy_is_the_cokernel_of_the_reference_hull(fix, name):
    fx = fix(name)
    for m in fx.pool + [mr.dual(x) for x in fx.pool]:
        h = _reference_hull(m)
        coker, _ = mr.quotient_by_rows(h.target, h.matrix)
        got = mr.cosyzygy(m)
        assert got.algebra is m.algebra
        assert_iso(got, coker)


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
            assert mr.ext_dim(m, n, i) == ext_dim_nak(
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
        assert any(mr.iso(d, j) for j in injs_op)


def test_tau_and_tau_inv_stable_inverse(a455):
    m = mr.bridge_module(a455, 0, 3)
    assert_iso(mr.tau_inv(mr.tau(m)), m)


def test_nu_sends_projectives_to_injectives(a777):
    projs, _ = mr.projectives(a777)
    injs = mr.injectives(a777)
    for p in projs:
        v = mr.nu(p)
        assert any(mr.iso(v, j) for j in injs)


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
    assert mr.decompose(z) == []


def test_translates_of_zero_module(a455):
    z = mr.zero_module(a455)
    for fn, over in ((mr.tau, a455), (mr.tau_inv, a455), (mr.nu, a455),
                     (mr.transpose_tr, mr.opp(a455))):
        out = fn(z)
        assert out.dim == 0 and out.algebra is over, fn.__name__


def test_right_minimality_is_exact():
    # the projective cover of the simple module of k[x]/(x^7) is right
    # minimal; over GF(5) its 6-dimensional space of endomorphisms killing
    # the map has 5^6 > 2^12 points, more than a search would try
    for fld in (la.PrimeField(5), F2):
        b = alg.from_kupisch(nak.validate_kupisch((7,)), fld)
        p = mr.projectives(b)[0][0]
        s = mr.simples(b)[0]
        cover = mr.structure(p).top_projection
        assert check_right_minimal(cover)
        # (cover, 0) and (cover, cover) from P + P are approximations with a
        # redundant copy of P: the projection onto it kills the map
        two = mr.direct_sum([p, p])
        zero = np.zeros_like(cover.matrix)
        for second in (zero, cover.matrix):
            redundant = mr.ModuleMap(two, cover.target, np.concatenate(
                [cover.matrix, second]))
            assert not check_right_minimal(redundant)
        # one copy of P covers S and k[x]/(x^3), whatever the generators;
        # over add(P + S), S is its own approximation: P -> S factors
        # through the identity of S
        m = mr.bridge_module(b, 0, 3)
        for gens, x, dim in (([p], s, 7), ([p, p], m, 7), ([two], m, 7),
                             ([p, s], s, 1)):
            ap = mr.min_right_approx(gens, x)
            assert ap.source.dim == dim and check_right_minimal(ap)
            assert la.rank_raw(fld, ap.matrix) == x.dim


def test_algebra_mismatch_guard(a455, a777):
    m = mr.bridge_module(a455, 0, 1)
    n = mr.bridge_module(a777, 0, 1)
    with pytest.raises(mr.AlgebraMismatch):
        mr.hom_basis(m, n)


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_hom_space_is_the_identity_at_its_keys(fix, name):
    pool = fix(name).pool
    f = pool[0].algebra.field
    for m in pool:
        for n in pool:
            basis, keys = mr._hom_space(m, n)
            assert np.array_equal(basis[:, keys], f.eye(len(keys)))


def test_coords_reject_a_map_outside_the_span(a455):
    f = a455.field
    p = mr.projectives(a455)[0][0]
    basis, keys = space = mr._hom_space(p, p)
    outside = np.setdiff1d(np.arange(basis.shape[1]), keys)[0]
    flats = basis[:1].copy()
    flats[0, outside] = f.add(flats[0, outside], f.one)
    assert np.array_equal(mr._coords(f, space, basis, "hom block"),
                          f.eye(len(keys)))
    with pytest.raises(RuntimeError, match="hom block closure failed"):
        mr._coords(f, space, flats, "hom block")
    s = mr.simples(a455)
    empty = mr._hom_space(s[0], s[1])
    with pytest.raises(RuntimeError, match="hom functor closure failed"):
        mr._coords(f, empty, np.ones((1, 1), dtype=np.int64), "hom functor")


def _solve_endo(endo):
    """endo_algebra's arrays by one solve per product of basis maps: mult,
    unit, idempotents, radical generators."""
    f = endo.algebra.field
    n = endo.algebra.dim
    pos, maps = endo.block_index, endo.block_maps

    def coords(key, x):
        out = np.zeros(n, dtype=np.int64)
        if not pos[key]:
            assert not np.any(x)
            return out
        out[pos[key]] = la.solve_raw(
            f, maps[key].reshape(len(pos[key]), -1).T, x.ravel())
        return out

    mult = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), ps in pos.items():
        for (k, l), qs in pos.items():
            if l != i:
                continue
            for p, F in zip(ps, maps[(i, j)]):
                for q, G in zip(qs, maps[(k, l)]):
                    mult[p, q] = coords((k, j), f.matmul(G, F))
    idem = np.array([coords((i, i), f.eye(x.dim))
                     for i, x in enumerate(endo.summands)])
    unit = functools.reduce(f.add, idem)
    radgens = []
    for (i, j), ps in pos.items():
        for p, F in zip(ps, maps[(i, j)]):
            if i != j:
                radgens.append(f.eye(n)[p])
            elif np.any(mr._nilpotent_part(f, F)):
                radgens.append(coords((i, i), mr._nilpotent_part(f, F)))
    return [mult, unit, idem, np.array(radgens).reshape(-1, n)]


def _solve_hom_functor(endo, x):
    """hom_functor's action by one solve per basis map and image."""
    f = endo.algebra.field
    homs = [np.array([h.matrix.ravel() for h in mr.hom_basis(y, x)]
                     ).reshape(-1, y.dim * x.dim) for y in endo.summands]
    offs = np.cumsum([0] + [len(h) for h in homs])
    action = np.zeros((endo.algebra.dim, offs[-1], offs[-1]), dtype=np.int64)
    for (i, j), ps in endo.block_index.items():
        for p, phi in zip(ps, endo.block_maps[(i, j)]):
            for t, h in enumerate(homs[j]):
                img = f.matmul(phi, h.reshape(-1, x.dim)).ravel()
                if not len(homs[i]):
                    assert not np.any(img)
                    continue
                action[p, offs[j] + t, offs[i]:offs[i + 1]] = \
                    la.solve_raw(f, homs[i].T, img)
    return action


_ENDO_FIXTURES = [(name, la.PrimeField(p))
                  for name in ("sym-777-gendo", "penny-farthing-gendo",
                               "auslander-22", "two-periodic-demo")
                  for p in (2, 3)]
_ENDO_FIXTURES += [("gf4-local-gendo", None),
                   ("two-periodic-demo", la.PrimeField(5))]


@pytest.mark.parametrize("name,field", _ENDO_FIXTURES)
def test_endo_algebra_and_hom_functor_match_the_solve_references(name, field):
    fx = fixtures.build_fixture(name, field)
    b = fx.endo.algebra
    got = [b.mult, b.unit, b.idempotents, b.pres.radical_generators]
    for x, y in zip(got, _solve_endo(fx.endo)):
        assert np.array_equal(x, y), name
    for x in fx.base_pool:
        assert np.array_equal(mr.hom_functor(fx.endo, x).action,
                              _solve_hom_functor(fx.endo, x)), (name, x.label)


def test_endo_fixtures_are_the_fixtures_with_a_base_algebra():
    assert ({name for name in fixtures.FIXTURE_NAMES
             if fixtures.build_fixture(name).endo}
            == {name for name, _ in _ENDO_FIXTURES})


@pytest.mark.parametrize("name,field", _ENDO_FIXTURES)
def test_endo_pool_is_one_nonzero_hom_image_per_base_module(name, field):
    # the pool of B = End_A(A + M) is Hom_A(A + M, X) for X in the base pool,
    # in its order; it holds Hom_A(A, X) = X, so no image is zero
    f = fixtures.build_fixture(name, field)
    assert len(f.pool) == len(f.base_pool) > 0
    for x, hx in zip(f.base_pool, f.pool):
        assert x.algebra is f.base_algebra and hx.algebra is f.algebra
        assert hx.dim == sum(len(mr.hom_basis(s, x)) for s in f.endo.summands)
        assert hx.dim >= x.dim > 0


@pytest.mark.parametrize("name,c", [("sym-777-gendo", (7, 7, 7)),
                                    ("two-periodic-demo", (3,)),
                                    ("auslander-22", (2, 2))])
def test_kupisch_gendo_base_pools_come_from_kupisch_fixture(name, c):
    # the same algebra and the same modules in the same order as the
    # certified-complete pool of _kupisch_fixture
    f = fixtures.build_fixture(name)
    base = fixtures._kupisch_fixture(c, F2)
    assert base.pool_certified
    assert f.base_algebra.nak_bridge["series"].c == c
    assert np.array_equal(f.base_algebra.mult, base.algebra.mult)
    assert ([(x.dim, x.action.tobytes()) for x in f.base_pool]
            == [(x.dim, x.action.tobytes()) for x in base.pool])


def test_fixture_extras_hold_only_modules():
    for name in fixtures.FIXTURE_NAMES:
        extras = fixtures.build_fixture(name).extras
        assert all(isinstance(v, mr.RightModule) for v in extras.values())


def test_endo_algebra_of_regular_module_has_same_dim(a455):
    projs, _ = mr.projectives(a455)
    endo = mr.endo_algebra(projs)
    # End(A_A) is isomorphic to A itself
    assert endo.algebra.dim == a455.dim


def test_hom_functor_on_generator_gives_projective(a455):
    projs, _ = mr.projectives(a455)
    extra = mr.bridge_module(a455, 0, 3)
    endo = mr.endo_algebra(projs + [extra])
    img = mr.hom_functor(endo, extra)
    # Hom(X, M) for M a summand of X is projective over End(X)
    bprojs, _ = mr.projectives(endo.algebra)
    assert any(mr.iso(img, p) for p in bprojs)


def _in_add(gens, x):
    """Is x a direct sum of copies of summands of the given generators?"""
    classes = mr.iso_classes(gens)
    return all(any(mr.iso(p, g) for g in classes) for p in mr.decompose(x))


def test_in_add(a455):
    projs, reg = mr.projectives(a455)
    assert _in_add(projs, reg)
    assert not _in_add(projs, mr.bridge_module(a455, 0, 3))


def _gf4_eight_dim_modules(fx):
    """The three 8-dimensional modules of gf4-local-gendo with End(M) of
    dimension 7 (4^7 points) and top and socle not simple, reached by the
    theorem suite: Omega^2 and Omega^3 of D Hom(X, S0), and Sigma^2 Hom(X, S0)."""
    s = next(m for m in fx.pool if m.label == "Hom(X,S0)")
    ds = mr.dual(s)
    return [mr.syzygy(ds, 2), mr.syzygy(ds, 3), mr.cosyzygy(s, 2)]


def _record_searches(monkeypatch):
    """A list that gets (random_budget, exhaustive_limit, order ** k, split
    found) for each later call of search_combinations.  One decompose
    step calls it twice at most: the unit stage (budgets 0, 0), then, unless
    _is_local certifies End(m) local, the fallback with random draws; a
    split the fallback finds when order ** k > exhaustive_limit came from
    the draws."""
    calls = []
    real = la.search_combinations

    def spy(field, k, test, random_budget, exhaustive_limit):
        hit, exhausted = real(field, k, test, random_budget, exhaustive_limit)
        calls.append((random_budget, exhaustive_limit, field.order ** k,
                      hit is not None))
        return hit, exhausted

    monkeypatch.setattr(la, "search_combinations", spy)
    return calls


def test_local_certificate_settles_before_random_search(fix, monkeypatch):
    mods = _gf4_eight_dim_modules(fix("gf4-local-gendo"))
    searches = _record_searches(monkeypatch)
    for m in mods:
        st = mr.structure(m)
        assert (m.dim, len(mr.hom_basis(m, m))) == (8, 7)
        assert st.top.dim > 1 and st.socle.dim > 1
        searches.clear()
        assert mr.decompose(m) == [m] and m.indec_certain
        assert [c[:2] for c in searches] == [(0, 0)]   # the unit stage only


def test_decompose_does_not_search_again_after_an_uncertain_verdict(
        monkeypatch):
    # End(M) = GF(2^17) is past the exhaustive limit and _is_local does not
    # certify it, so the first decompose spends its budget and returns M
    # uncertain; the search draws from a fixed generator, so a repeat (here
    # and inside iso) must not run it again
    m = _kronecker_17()
    searches = _record_searches(monkeypatch)
    assert mr.decompose(m) == [m] and m.indec_certain is False
    assert len(searches) == 2
    assert mr.decompose(m) == [m] and m.indec_certain is False
    assert mr.iso(m, m).isomorphic
    assert len(searches) == 2


def test_direct_sums_fail_the_certificate_and_split(fix, a455):
    gf4 = _gf4_eight_dim_modules(fix("gf4-local-gendo"))[2]
    rad = next(m for m in fix("gf4-local-gendo").pool
               if m.label == "Hom(X,rad)")
    m03, m12 = mr.bridge_module(a455, 0, 3), mr.bridge_module(a455, 1, 2)
    for x, y in ((gf4, gf4), (gf4, rad), (m03, m03), (m03, m12)):
        s = mr.direct_sum([x, y])
        f = s.algebra.field
        assert mr._is_local(f, np.array([h.matrix for h in mr.hom_basis(x, x)]))
        assert not mr._is_local(f, np.array([h.matrix
                                              for h in mr.hom_basis(s, s)]))
        parts = mr.decompose(s)
        assert len(parts) == 2 and all(p.indec_certain for p in parts)
        assert sorted(p.dim for p in parts) == sorted((x.dim, y.dim))
        for p in parts:
            assert any(mr.iso(p, z).isomorphic for z in (x, y))


# how many of the modules below reach the fallback search of decompose once
# _is_local certifies nothing (none for the other fixtures)
_FALLBACK_MODULES = {"penny-farthing-gendo": 4, "gf4-local-gendo": 4}


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_decompose_matches_exhaustive_search_on_pools(fix, name, monkeypatch):
    # pool modules alone never get past the unit stage; their first two
    # syzygies and cosyzygies include eight that reach the certificate
    fx = fix(name)
    f = fx.algebra.field
    mods = []
    for m in fx.pool + fx.base_pool:
        mods.append(m)
        for op in (mr.syzygy, mr.cosyzygy):
            mods += [x for x in (op(m), op(m, 2)) if x.dim]
    searches = _record_searches(monkeypatch)
    reached = 0
    for m in mods:
        if f.order ** len(mr.hom_basis(m, m)) > 1 << 16:
            continue
        parts = mr.decompose(m)
        with monkeypatch.context() as mp:
            # without the certificate decompose is the exhaustive search;
            # it runs on a fresh copy of m, since decompose returns a module
            # it has already certified indecomposable as it is
            mp.setattr(mr, "_is_local", lambda field, mats: False)
            searches.clear()
            ref = mr.decompose(mr.RightModule(m.algebra, m.dim, m.action,
                                              m.label))
            reached += any(c[0] for c in searches)
        assert [p.dim for p in parts] == [r.dim for r in ref]
        assert all(p.indec_certain for p in parts + ref)
        for p, r in zip(parts, ref):
            assert_iso(p, r)
    assert reached == _FALLBACK_MODULES.get(name, 0)


def test_sum_without_a_splitting_basis_element_still_splits(monkeypatch):
    # over GF(3) the 2 x 2 matrices have a basis of elements with a single
    # eigenvalue (I, E12, E21 and the nilpotent [[1, 1], [-1, -1]]); built
    # into a basis of End(M + M) it leaves the unit stage without a split,
    # and the nilpotent parts span a subspace of codimension 1 that is not
    # closed under products, so only the certificate stands between that
    # module and a wrong "indecomposable"
    b = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), la.PrimeField(3))
    m = mr.bridge_module(b, 0, 3)
    s = mr.direct_sum([m, m])
    m2 = [np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]]),
          np.array([[0, 0], [1, 0]]), np.array([[1, 1], [2, 2]])]
    basis = [np.kron(u, h.matrix) % 3 for u in m2
             for h in mr.hom_basis(m, m)]
    f = b.field
    assert la.rank_raw(f, np.array([x.ravel() for x in basis])) == len(basis)
    assert len(basis) == len(mr.hom_basis(s, s))
    real = mr._hom_space
    flat = np.array([z.ravel() for z in basis])
    # decompose reads only the basis rows of _hom_space(s, s), not its keys
    monkeypatch.setattr(mr, "_hom_space", lambda x, y: (flat, None)
                        if x is y is s else real(x, y))
    for z in basis:     # no basis element is a Fitting splitter
        assert la.rank_raw(f, mr._fitting_power(f, z)) in (0, s.dim)
    assert not mr._is_local(f, np.array(basis))
    searches = _record_searches(monkeypatch)
    parts = mr.decompose(s)
    # the unit stage finds nothing and the fallback splits s; both parts
    # have a simple top, so decompose runs no search on them
    assert [(c[0], c[3]) for c in searches] == [(0, False), (50, True)]
    assert [p.dim for p in parts] == [3, 3]
    assert all(p.indec_certain for p in parts)
    assert all(mr.iso(p, m).isomorphic for p in parts)


# seeds whose sum only the random draws of the fallback split: both are
# over gf4-local-gendo, where 4^k > 2^16 rules out the exhaustive stage
_RANDOM_SPLIT_SEEDS = [1028, 1467]


def test_decompose_recovers_the_summands_of_random_sums(fix, monkeypatch):
    # seed s draws a pool (fx.pool or fx.base_pool of a fixture), two or
    # three of its indecomposables and a graded basis of their direct sum
    pools = [pool for name in fixtures.FIXTURE_NAMES
             for pool in (fix(name).pool, fix(name).base_pool) if pool]
    searches = _record_searches(monkeypatch)
    fallbacks = random_splits = 0
    for seed in list(range(300)) + _RANDOM_SPLIT_SEEDS:
        rng = np.random.default_rng(seed)
        pool = pools[rng.integers(len(pools))]
        picks = [pool[i] for i in rng.integers(len(pool),
                                               size=rng.integers(2, 4))]
        searches.clear()
        parts = mr.decompose(graded_twist(mr.direct_sum(picks), rng))
        fallbacks += any(c[0] for c in searches)
        random_splits += any(c[0] and c[2] > c[1] and c[3] for c in searches)
        assert all(p.indec_certain for p in parts), seed
        table = mr.ClassTable()
        assert (sorted(table.canon(x) for x in picks)
                == sorted(table.canon(p) for p in parts)), seed
    assert random_splits == len(_RANDOM_SPLIT_SEEDS)
    assert fallbacks > random_splits
