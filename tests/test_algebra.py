import copy
import itertools

import numpy as np
import pytest

from gorlab import algebra as alg
from gorlab import cli
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab import fixtures as fx
from gorlab import serialize as ser

from conftest import ORACLE_SERIES, dense_action_violation

F2 = la.PrimeField(2)
F5 = la.PrimeField(5)


def _nak455():
    return alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)


def test_from_kupisch_dimension_is_series_sum():
    a = _nak455()
    assert a.dim == 4 + 5 + 5
    assert a.n_idem == 3


def test_validation_rejects_broken_associativity():
    a = _nak455()
    pres = a.pres
    mult = pres.mult.copy()
    # corrupt one structure constant among the radical entries
    mult[3, 3, 0] = 1
    bad = alg.AlgebraPresentation(
        field=pres.field, basis_labels=list(pres.basis_labels), mult=mult,
        unit=pres.unit.copy(), idempotents=pres.idempotents.copy(),
        radical_generators=pres.radical_generators.copy())
    with pytest.raises(alg.ValidationError) as err:
        alg.validate(bad)
    assert err.value.code == "NonAssociative"
    # the witness (i, j, k) has (b_i b_j) b_k != b_i (b_j b_k) in the bad table
    broken = copy.copy(a)
    broken.mult = mult
    b = [F2.eye(a.dim)[x] for x in err.value.witness]

    def mul(x, y):          # x y = y L(x)
        return F2.matmul(y[None, :], broken.L(x))[0]
    assert not np.array_equal(mul(mul(b[0], b[1]), b[2]),
                              mul(b[0], mul(b[1], b[2])))


def test_validation_locates_a_non_orthogonal_idempotent_pair():
    a = _nak455()
    pres = a.pres
    idem = pres.idempotents.copy()
    # e_1 + x for the arrow x: 1 -> 2 is idempotent, but (e_1 + x) e_2 = x
    idem[1, a.nak_bridge["path_index"][(1, 1)]] = 1
    bad = alg.AlgebraPresentation(
        field=pres.field, basis_labels=list(pres.basis_labels),
        mult=pres.mult.copy(), unit=pres.unit.copy(), idempotents=idem,
        radical_generators=pres.radical_generators.copy())
    with pytest.raises(alg.ValidationError) as err:
        alg.validate(bad)
    assert (err.value.code, err.value.witness) == ("BadIdempotents", (1, 2))
    # x y = y L(x)
    assert F2.matmul(idem[2:3], a.L(idem[1])).any()
    assert np.array_equal(F2.matmul(idem[1:2], a.L(idem[1]))[0], idem[1])


def test_validation_rejects_nonidempotent():
    a = _nak455()
    pres = a.pres
    idem = pres.idempotents.copy()
    idem[0] = 0   # no longer sums to the unit
    bad = alg.AlgebraPresentation(
        field=pres.field, basis_labels=list(pres.basis_labels),
        mult=pres.mult.copy(), unit=pres.unit.copy(), idempotents=idem,
        radical_generators=pres.radical_generators.copy())
    with pytest.raises(alg.ValidationError):
        alg.validate(bad)


def test_validation_rejects_an_ungraded_basis():
    # b_1 + b_5 (the arrows out of vertices 0 and 1) replaces b_1: every
    # other axiom holds in the new basis, but b_1 + b_5 lies in no e_u A e_v
    a = _nak455()
    q = np.eye(a.dim, dtype=np.int64)
    q[1, 5] = 1
    q_inv = la.solve_raw(F2, q, F2.eye(a.dim))
    mult = np.einsum("ik,jl,klm->ijm", q, q, a.mult) % 2
    bad = alg.AlgebraPresentation(
        field=F2, basis_labels=list(a.basis_labels),
        mult=F2.matmul(mult.reshape(-1, a.dim), q_inv).reshape(a.mult.shape),
        unit=F2.matmul(a.unit[None, :], q_inv)[0],
        idempotents=F2.matmul(a.idempotents, q_inv),
        radical_generators=F2.matmul(a.pres.radical_generators, q_inv))
    with pytest.raises(alg.ValidationError) as err:
        alg.validate(bad)
    assert (err.value.code, err.value.witness) == ("NotGraded", 1)


def _corrupt_455(**fields):
    """Validate kupisch-455's presentation with the given fields replaced."""
    pres = _nak455().pres
    kw = dict(field=pres.field, basis_labels=list(pres.basis_labels),
              mult=pres.mult, unit=pres.unit, idempotents=pres.idempotents,
              radical_generators=pres.radical_generators)
    kw.update(fields)
    return alg.validate(alg.AlgebraPresentation(**kw))


def _penny_farthing_quiver(relations):
    """from_quiver on the penny-farthing quiver (a loop a at vertex 0,
    b1: 0 -> 1, b2: 1 -> 0) with the given relations."""
    q = alg.QuiverPresentation(vertices=["1", "2"], arrows=[
        (0, 0, "a"), (0, 1, "b1"), (1, 0, "b2")], relations=relations)
    return alg.from_quiver(q, F2)


@pytest.mark.parametrize("build, code, message", [
    # a structure-constant table of the wrong shape is refused as soon as
    # the presentation is built, before validate runs
    (lambda: _corrupt_455(mult=_nak455().mult[:-1]), "BadShape",
     "structure constant dimensions"),
    (lambda: _corrupt_455(unit=np.zeros(14, dtype=np.int64)), "BadUnit", ""),
    # the ideal generated by the unit is all of A
    (lambda: _corrupt_455(radical_generators=_nak455().unit[None, :]),
     "RadicalNotIdeal", "radical ideal contains the unit"),
    # the ideal A e_0 A is proper (e_1 misses it) but holds the idempotent e_0
    (lambda: _corrupt_455(radical_generators=_nak455().idempotents[:1]),
     "RadicalNotNilpotent", ""),
    # J = 0 leaves A/J of dimension 14, not the 3 of the idempotents
    (lambda: _corrupt_455(radical_generators=np.zeros((0, 14), dtype=np.int64)),
     "QuotientNotSemisimple", ""),
    (lambda: _penny_farthing_quiver([[]]), "BadRelation", "empty relation"),
    # a a ends at vertex 0, a b1 at vertex 1
    (lambda: _penny_farthing_quiver([[(1, (0, 0)), (1, (0, 1))]]),
     "BadRelation", "paths not parallel"),
    (lambda: _penny_farthing_quiver([[(1, (0,))]]), "BadRelation",
     "path of length < 2"),
    (lambda: alg.corner_algebra(_nak455(), []), "BadIdempotents",
     "empty idempotent subset"),
], ids=["bad-shape", "bad-unit", "radical-not-ideal", "radical-not-nilpotent",
        "quotient-not-semisimple", "empty-relation", "nonparallel-relation",
        "short-relation", "empty-corner"])
def test_every_rejection_raises_its_code(build, code, message):
    with pytest.raises(alg.ValidationError) as err:
        build()
    assert err.value.code == code
    assert message in str(err.value)


def test_penny_farthing_projective_dimensions():
    b = fx.penny_farthing_algebra(F2)
    projs, _ = mr.projectives(b)
    assert sorted(p.dim for p in projs) == [4, 6]


def test_penny_farthing_is_symmetric():
    b = fx.penny_farthing_algebra(F2)
    assert alg.is_symmetric(b)


def test_kupisch_455_not_symmetric():
    assert not alg.is_symmetric(_nak455())


def test_sym_777_base_is_symmetric():
    a = alg.from_kupisch(nak.validate_kupisch((7, 7, 7)), F2)
    assert alg.is_symmetric(a)


def _symmetric_by_gram(a):
    """Reference for is_symmetric: whether some central form lambda has an
    invertible Gram matrix (lambda(b_i b_j))_ij, trying every central form.
    Returns None when there are more than 2^12 central forms."""
    f, n = a.field, a.dim
    commutators = [f.sub(a.mult[i, j], a.mult[j, i])
                   for i in range(n) for j in range(n)]
    central = la.nullspace(f, np.array(commutators).reshape(-1, n))
    if f.order ** len(central) > 1 << 12:
        return None
    grams = np.array([la.combine(f, lam, a.mult.transpose(2, 0, 1))
                      for lam in central]).reshape(-1, n, n)
    return any(la.rank_raw(f, la.combine(f, c, grams)) == n
               for c in itertools.product(range(f.order), repeat=len(central)))


def _agrees_with_reference(a):
    """Whether is_symmetric was compared with the reference on a."""
    want = _symmetric_by_gram(a)
    if want is not None:
        assert alg.is_symmetric(a) is want
    return want is not None


@pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
def test_is_symmetric_matches_gram_reference_on_fixtures(name):
    f = fx.build_fixture(name)
    algebras = [a for a in (f.algebra, f.base_algebra) if a is not None]
    compared = [_agrees_with_reference(b)
                for a in algebras for b in (a, mr.opp(a))]
    assert any(compared)


@pytest.mark.parametrize("p", [2, 5])
def test_is_symmetric_matches_gram_reference_on_cyclic_series(p):
    # the opposite of a cyclic Nakayama algebra is again in the enumeration
    algebras = [alg.from_kupisch(nak.validate_kupisch(s), la.PrimeField(p))
                for s in cli._cyclic_series(3, 7)]
    compared = [a for a in algebras if _agrees_with_reference(a)]
    assert len(compared) > 40
    assert sum(bool(alg.is_symmetric(a)) for a in compared) > 5


def _two_loops(relations, field):
    """k<x, y>/I for the relations, as a validated algebra."""
    q = alg.QuiverPresentation(
        vertices=["*"], arrows=[(0, 0, "x"), (0, 0, "y")], relations=relations)
    return alg.validate(alg.from_quiver(q, field))


def _socle_two():
    # k[x, y]/(x^2, y^2, xy, yx): the local algebra with soc(A) = span(x, y)
    return _two_loops([[(1, p)] for p in ((0, 0), (1, 1), (0, 1), (1, 0))], F2)


def _x2_is_y3():
    # k<x, y>/(x^2 - y^3, xy, yx) over F5: not homogeneous
    return _two_loops([[(1, (0, 0)), (4, (1, 1, 1))], [(1, (0, 1))],
                       [(1, (1, 0))]], la.PrimeField(5))


# basis labels and the nonzero (i, j, k, c) entries of mult, as the
# critical-pair rewriter that from_quiver replaced computed them
PENNY_FARTHING = (["e1", "a", "b1", "aa", "ab1", "aaa", "e2", "b2", "b2a", "b2ab1"], [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (0, 4, 4, 1),
    (0, 5, 5, 1), (1, 0, 1, 1), (1, 1, 3, 1), (1, 2, 4, 1), (1, 3, 5, 1),
    (2, 6, 2, 1), (2, 7, 3, 1), (2, 8, 5, 1), (3, 0, 3, 1), (3, 1, 5, 1),
    (4, 6, 4, 1), (4, 7, 5, 1), (5, 0, 5, 1), (6, 6, 6, 1), (6, 7, 7, 1),
    (6, 8, 8, 1), (6, 9, 9, 1), (7, 0, 7, 1), (7, 1, 8, 1), (7, 4, 9, 1),
    (8, 0, 8, 1), (8, 2, 9, 1), (9, 6, 9, 1)])
GF4_LOCAL = (["e*", "x", "y", "xy"], [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (1, 0, 1, 1),
    (1, 2, 3, 1), (2, 0, 2, 1), (2, 1, 3, 1), (3, 0, 3, 1)])
SOCLE_TWO = (["e*", "x", "y"], [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (2, 0, 2, 1)])
X2_IS_Y3 = (["e*", "x", "y", "xx", "yy"], [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (0, 4, 4, 1),
    (1, 0, 1, 1), (1, 1, 3, 1), (2, 0, 2, 1), (2, 2, 4, 1), (2, 4, 3, 1),
    (3, 0, 3, 1), (4, 0, 4, 1), (4, 2, 3, 1)])


@pytest.mark.parametrize("build, pinned", [
    (lambda: fx.penny_farthing_algebra(F2), PENNY_FARTHING),
    (lambda: fx.penny_farthing_algebra(la.PrimeField(3)), PENNY_FARTHING),
    (fx.gf4_local_algebra, GF4_LOCAL),
    (_socle_two, SOCLE_TWO),
    (_x2_is_y3, X2_IS_Y3),
], ids=["penny-farthing-F2", "penny-farthing-F3", "gf4-local", "socle-two",
        "x2-is-y3-F5"])
def test_from_quiver_keeps_basis_and_structure_constants(build, pinned):
    a = build()
    entries = [tuple(int(v) for v in t) + (int(a.mult[tuple(t)]),)
               for t in np.argwhere(a.mult)]
    assert (a.basis_labels, entries) == pinned


def test_from_quiver_of_a_free_loop_is_not_finite_dimensional():
    q = alg.QuiverPresentation(vertices=["*"], arrows=[(0, 0, "x")],
                               relations=[])
    with pytest.raises(alg.NotFiniteDimensional):
        alg.from_quiver(q, F2)


def test_socle_of_dimension_two_is_not_symmetric():
    a = _socle_two()
    assert a.dim == 3
    assert _symmetric_by_gram(a) is False
    assert alg.is_symmetric(a) is False


@pytest.mark.parametrize("series, cyclic", [((2, 1), False), ((2, 2), True)])
def test_nakayama_permutation_must_be_the_identity(series, cyclic):
    # every soc(e_iA) is simple, but soc(e_0A) lies in e_0Ae_1, where every
    # central form vanishes: the linear A2 and the selfinjective (2, 2)
    a = alg.from_kupisch(nak.validate_kupisch(series, cyclic=cyclic), F2)
    assert _symmetric_by_gram(a) is False
    assert alg.is_symmetric(a) is False


def _opposite_fields(b):
    return [b.mult, b.unit, b.idempotents, b.jacobson_basis, b.peirce[0],
            b.peirce[1], b.arrows, b.cartan, b.pres.radical_generators]


def test_opposite_is_involutive_on_multiplication():
    a = _nak455()
    aop = alg.opposite(a)
    aopop = alg.opposite(aop)
    assert aop.dim == a.dim
    for x, y in zip(_opposite_fields(aopop), _opposite_fields(a)):
        assert np.array_equal(x, y)


def test_opposite_matches_full_validation():
    # opposite derives J, the Peirce vertices, the arrows and the Cartan
    # matrix from a; validate on the transposed table must find the same
    fixtures = [fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
    algebras = [a for f in fixtures for a in (f.algebra, f.base_algebra)
                if a is not None]
    algebras += [alg.opposite(a) for a in algebras]
    algebras += [alg.from_kupisch(nak.validate_kupisch(s), la.PrimeField(p))
                 for p in (2, 5) for s in cli._cyclic_series(3, 7)]
    algebras += [alg.from_kupisch(nak.validate_kupisch(s, cyclic=False), F2)
                 for s in ((2, 1), (3, 2, 1), (2, 3, 2, 1), (3, 3, 2, 1))]
    algebras += [_socle_two(), _x2_is_y3()]
    # a transposition that is left out shows only on a non-symmetric Cartan
    assert any(not np.array_equal(a.cartan, a.cartan.T) for a in algebras)
    for a in algebras:
        want = alg.validate(alg.AlgebraPresentation(
            a.field, list(a.basis_labels), a.mult.transpose(1, 0, 2).copy(),
            a.unit.copy(), a.idempotents.copy(), a.arrows.copy()))
        for x, y in zip(_opposite_fields(alg.opposite(a)),
                        _opposite_fields(want)):
            assert np.array_equal(x, y), a


def _reached(*args, **kwargs):
    raise AssertionError("reached")


def test_opposite_calls_neither_validate_nor_the_action_check(monkeypatch):
    a = alg.from_kupisch(nak.validate_kupisch((4, 5, 5)), F2)
    _, reg = mr.projectives(a)
    b = mr.endo_algebra([reg, mr.bridge_module(a, 1, 2)]).algebra
    monkeypatch.setattr(alg, "validate", _reached)
    monkeypatch.setattr(alg, "_action_violation", _reached)
    for x in (a, b):
        assert mr.opp(mr.opp(x)) is x


def _regular_witnesses(a):
    """(witness, reference witness) of the action check on A_A."""
    action = a.mult.transpose(1, 0, 2)
    return (alg._action_violation(a.field, a.mult, action),
            dense_action_violation(a.field, a.mult, action))


@pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
def test_action_check_passes_the_regular_action_of_each_fixture(name):
    a = fx.build_fixture(name).algebra
    for x in (a, mr.opp(a)):
        assert _regular_witnesses(x) == (None, None)


@pytest.mark.parametrize("series", ORACLE_SERIES, ids=str)
@pytest.mark.parametrize("field", [F2, F5], ids=str)
def test_action_check_passes_the_oracle_series(series, field):
    a = alg.from_kupisch(nak.validate_kupisch(series), field)
    for x in (a, mr.opp(a)):
        assert _regular_witnesses(x) == (None, None)


@pytest.mark.parametrize("name, field", [("kupisch-455", F2),
                                         ("kupisch-455", F5),
                                         ("gf4-local-gendo", None)],
                         ids=["kupisch-455-F2", "kupisch-455-F5",
                              "gf4-local-gendo"])
def test_action_check_finds_the_dense_witness_of_a_corruption(name, field):
    # single entries of the structure constants changed to another value,
    # at entries drawn with a fixed seed; the regular action is then read
    # off the corrupted table, so the check must name the reference witness
    a = fx.build_fixture(name, field).algebra
    f, n = a.field, a.dim
    rng = np.random.default_rng(29)
    witnesses, killed = [], 0
    for i, j, k in rng.integers(0, n, size=(60, 3)):
        mult = a.mult.copy()
        mult[i, j, k] = (mult[i, j, k] + rng.integers(1, f.order)) % f.order
        action = mult.transpose(1, 0, 2)
        got = alg._action_violation(f, mult, action)
        assert got == dense_action_violation(f, mult, action), (i, j, k)
        if got is not None:
            witnesses.append(got)
            x, wi, _ = got
            killed += not action[wi][x].any()
    assert len(witnesses) > 30
    # some witness row x has x b_i = 0, a row the products leave out
    assert killed


def test_action_check_costs_its_nonzero_rows(monkeypatch):
    # every product of the check on sym-777-gendo's B, counted as
    # rows * inner * cols, against the row supports of rho and mult
    b = fx.build_fixture("sym-777-gendo").algebra
    f, n = b.field, b.dim
    action = b.mult.transpose(1, 0, 2)
    d = action.shape[1]
    work = []
    real = f.matmul

    def counted(x, y):
        work.append(x.shape[0] * x.shape[1] * y.shape[1])
        return real(x, y)
    monkeypatch.setattr(f, "matmul", counted)
    assert alg._action_violation(f, b.mult, action) is None
    supports = int(action.any(axis=2).sum() + b.mult.any(axis=2).sum())
    assert len(work) == 2 * n
    assert sum(work) <= 2 * supports * d * n * d
    # dense products would take n * d^2 * (n * d + n^2)
    assert 5 * sum(work) < n * d * d * (n * d + n * n)


def test_corner_algebra_at_vertex_zero_of_455():
    a = _nak455()
    corner = alg.corner_algebra(a, [0])
    # e_0 A e_0 is spanned by e_0 and the length-3 loop path
    assert corner.algebra.dim == 2


def test_cartan_matrix_row_sums_are_projective_dims():
    a = _nak455()
    c = a.cartan
    assert [int(r.sum()) for r in c] == [4, 5, 5]


def _square(a):
    """Row basis of J^2, spanned by the products of Jacobson basis elements."""
    jac = a.jacobson_basis
    return la.row_space_basis(a.field, np.array(
        [a.field.matmul(jac, a.L(x)) for x in jac]).reshape(-1, a.dim))


def _assert_arrows_lift_j_mod_j2(a):
    f, jac = a.field, la.row_space_basis(a.field, a.jacobson_basis)
    square = _square(a)
    assert len(a.arrows) == len(jac) - len(square)
    for g in a.arrows:
        cells = {(a.peirce[0][j], a.peirce[1][j]) for j in np.flatnonzero(g)}
        assert len(cells) == 1
    assert np.array_equal(
        la.row_space_basis(f, np.concatenate([a.arrows, square])), jac)
    assert np.array_equal(
        la.row_space_basis(f, alg._ideal_closure(a, a.arrows)), jac)


# dim J/J^2, the number of arrows of the quiver, of each endo fixture's B
ARROW_COUNTS = {"sym-777-gendo": 5, "penny-farthing-gendo": 5,
                "gf4-local-gendo": 4, "auslander-22": 4, "two-periodic-demo": 3}


@pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
def test_arrows_lift_a_basis_of_j_mod_j2(name):
    # on every fixture algebra, its opposite, its corners (as built in
    # test_every_construction_keeps_modules_graded) and a JSON round trip
    f = fx.build_fixture(name)
    if name in ARROW_COUNTS:
        assert len(f.algebra.arrows) == ARROW_COUNTS[name]
    for a in (f.algebra, f.base_algebra):
        if a is None:
            continue
        algebras = [ser.algebra_from_json(ser.algebra_to_json(a))]
        for b in (a, mr.opp(a)):
            algebras.append(b)
            for k in range(1, min(a.n_idem, 4) + 1):
                algebras += [alg.corner_algebra(b, sel).algebra for sel in
                             itertools.combinations(range(a.n_idem), k)]
        assert np.array_equal(algebras[0].arrows, a.arrows)
        for b in algebras:
            _assert_arrows_lift_j_mod_j2(b)
    # Kupisch and bound quiver algebras present their arrows already
    a = f.base_algebra if f.endo is not None else f.algebra
    assert np.array_equal(a.arrows, a.pres.radical_generators)


def test_arrows_split_and_drop_presented_generators():
    # the sum of the three arrows of (4, 5, 5) splits into them, in their
    # order; an element of J^2 and a repeated arrow are dropped
    a = _nak455()
    arrows = a.pres.radical_generators
    j2 = _square(a)[0]
    pres = alg.AlgebraPresentation(
        F2, list(a.basis_labels), a.mult, a.unit, a.idempotents,
        np.array([arrows.sum(axis=0) % 2, j2, arrows[1]]))
    b = alg.validate(pres)
    assert np.array_equal(b.arrows, arrows)
    assert np.array_equal(b.jacobson_basis, a.jacobson_basis)
    _assert_arrows_lift_j_mod_j2(b)
    for build in (_socle_two, _x2_is_y3, fx.gf4_local_algebra):
        c = build()
        assert np.array_equal(c.arrows, c.pres.radical_generators)
        _assert_arrows_lift_j_mod_j2(c)
