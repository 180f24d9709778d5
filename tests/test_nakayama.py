import pytest

from gorlab import nakayama as nak
from gorlab.dims import HomologicalDim


def test_kupisch_violations():
    with pytest.raises(nak.KupischViolation):
        nak.validate_kupisch((1, 5))            # cyclic needs c_i >= 2
    with pytest.raises(nak.KupischViolation):
        nak.validate_kupisch((4, 2, 5))          # c_{i+1} >= c_i - 1 fails
    with pytest.raises(nak.KupischViolation):
        nak.validate_kupisch((2, 2), cyclic=False)  # linear needs c_last = 1
    exc = None
    try:
        nak.validate_kupisch((4, 2, 5))
    except nak.KupischViolation as e:
        exc = e
    assert exc is not None and exc.index is not None


def test_nak_algebras_compare_by_identity_and_hash():
    # the generated field-wise == would compare the cartan arrays and raise
    a, b = nak.validate_kupisch((4, 5, 5)), nak.validate_kupisch((4, 5, 5))
    assert a == a and a != b
    assert {a, a, b} == {a, b} and a in {a}


def test_indecomposable_count_is_sum_of_lengths():
    a = nak.validate_kupisch((4, 5, 5))
    assert len(list(nak.indecomposables(a))) == 14
    b = nak.validate_kupisch((3, 2, 1), cyclic=False)
    assert len(list(nak.indecomposables(b))) == 6


def test_selfinjective_and_symmetric_flags():
    assert nak.validate_kupisch((7, 7, 7)).symmetric
    assert nak.validate_kupisch((5, 5)).selfinjective
    assert nak.validate_kupisch((5, 5)).symmetric       # 5 % 2 == 1 % 2
    assert not nak.validate_kupisch((6, 6)).symmetric   # 6 % 2 != 1 % 2
    assert not nak.validate_kupisch((4, 5, 5)).selfinjective


def test_455_core_invariants():
    a = nak.validate_kupisch((4, 5, 5))
    core = nak.algebra_invariants_nak(a)
    assert core["domdim"] == 2
    assert core["gordim_left"] == 2
    assert core["gordim_right"] == 2
    assert core["fdomdim"] == 4
    assert core["is_gorenstein_dominant"]
    assert core["cm_finite"]


def test_56_gorenstein_dimension_infinite_with_certificate():
    a = nak.validate_kupisch((5, 6))
    core = nak.algebra_invariants_nak(a)
    g = core["gordim_left"]
    assert g.is_infinite and g.certificate is not None
    assert g.certificate.period >= 1


def test_resolution_quiver_455():
    a = nak.validate_kupisch((4, 5, 5))
    rq = nak.resolution_quiver(a)
    assert rq.successor == {0: 1, 1: 0, 2: 1}
    assert rq.black == {0, 1}
    assert rq.cyclically_black == {0, 1}


def test_resolution_quiver_needs_cyclic_nonselfinjective():
    with pytest.raises(nak.NotApplicable):
        nak.resolution_quiver(nak.validate_kupisch((5, 5)))
    with pytest.raises(nak.NotApplicable):
        nak.resolution_quiver(nak.validate_kupisch((2, 1), cyclic=False))


def _to_inj_coord(a, m):
    """Minimal-y injective coordinate of m; LookupError if none exists.

    Over a series with constant d (e.g. selfinjective) this inverts
    from_inj_coord bijectively; in general some modules admit no
    coordinate and some coordinates coincide, so the minimal y is taken.
    """
    s = nak.socle(a, m)
    for y in range(max(a.d) - m.k + 1):
        x = a.v(s + y)
        if 0 <= x < a.n and a.d[x] == m.k + y:
            return nak.InjCoord(x, y)
    raise LookupError("no injective coordinate for %r over %r" % (m, a.c))


def _tau_inv_nak(a, m):
    if nak.is_injective(a, m):
        return nak.ZERO
    return nak.NakModule(a.v(m.i - 1), m.k)


def test_inj_coord_round_trip_777():
    a = nak.validate_kupisch((7, 7, 7))
    for m in nak.indecomposables(a):
        assert nak.from_inj_coord(a, _to_inj_coord(a, m)) == m


def test_tau_and_tau_inv_are_inverse_on_nonprojectives():
    a = nak.validate_kupisch((4, 5, 5))
    for m in nak.indecomposables(a):
        if nak.is_projective(a, m):
            continue
        assert _tau_inv_nak(a, nak.tau_nak(a, m)) == m


def test_syzygy_nak_of_projective_is_zero():
    a = nak.validate_kupisch((4, 5, 5))
    for m in nak.projective_indecs(a):
        assert nak.syzygy_nak(a, m) is nak.ZERO


def test_dims_nak_projective_injective_detection():
    a = nak.validate_kupisch((4, 5, 5))
    for m in nak.indecomposables(a):
        d = nak.dims_nak(a, m)
        if nak.is_projective(a, m):
            assert d["projdim"] == 0
        if nak.is_injective(a, m):
            assert d["injdim"] == 0
        if nak.is_projective(a, m) and nak.is_injective(a, m):
            assert d["domdim"].is_infinite


def test_gp_formula_and_projectives_455():
    a = nak.validate_kupisch((4, 5, 5))
    gp = {(m.i, m.k) for m in nak.gp_indecs(a)}
    formula = {(m.i, m.k) for m in nak.indecomposables(a)
               if m.i in (0, 1) and (m.i + m.k) % 3 in (0, 1)}
    projs = {(m.i, m.k) for m in nak.projective_indecs(a)}
    assert gp == formula | projs


def test_gpi_nonprojective_455():
    a = nak.validate_kupisch((4, 5, 5))
    gpi = {(m.i, m.k) for m in nak.gpi_indecs(a)
           if not nak.is_projective(a, m)}
    assert gpi == {(1, 3)}


def test_top_and_socle():
    a = nak.validate_kupisch((4, 5, 5))
    m = nak.NakModule(0, 3)
    assert nak.top(a, m) == 0
    assert nak.socle(a, m) == (0 + 3 - 1) % 3


def test_dims_return_homological_dim_objects():
    a = nak.validate_kupisch((5, 6))
    for m in nak.indecomposables(a):
        for v in nak.dims_nak(a, m).values():
            assert isinstance(v, HomologicalDim)
            if v.is_infinite and not v.by_convention:
                assert v.certificate is not None
