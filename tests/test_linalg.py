from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gorlab import linalg as la

SMALL_FIELDS = [la.PrimeField(2), la.PrimeField(3), la.PrimeField(5), la.GF4()]


def _elements(f):
    return range(f.order)


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_field_axioms_exhaustive(f):
    els = list(_elements(f))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                      f.mul(a, c))


def test_large_prime_field_sample():
    f = la.PrimeField(101)
    rng = np.random.default_rng(0)
    for a, b, c in rng.integers(0, 101, size=(50, 3)):
        a, b, c = int(a), int(b), int(c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_nonprime_order_rejected():
    with pytest.raises(la.FieldError):
        la.PrimeField(9)
    with pytest.raises(la.FieldError):
        la.PrimeField(1)


def _naive_matmul(f, a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            acc = 0
            for t in range(k):
                acc = f.add(acc, f.mul(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_matmul_matches_naive(f):
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.integers(0, f.order, size=(4, 3))
        b = rng.integers(0, f.order, size=(3, 5))
        assert np.array_equal(f.matmul(a, b), _naive_matmul(f, a, b))


def test_matmul_empty_inner_dimension():
    f = la.GF4()
    a = np.zeros((3, 0), dtype=np.int64)
    b = np.zeros((0, 2), dtype=np.int64)
    assert np.array_equal(f.matmul(a, b), np.zeros((3, 2), dtype=np.int64))


def _table_field(p):
    """GF(p) given by its addition and multiplication tables."""
    return la.SmallTableField(p, [[(x + y) % p for y in range(p)]
                                  for x in range(p)],
                              [[x * y % p for y in range(p)] for x in range(p)])


@pytest.mark.parametrize("p", [3, 5])
def test_table_field_matmul_matches_prime_field(p):
    # addition mod 3 or 5 is not XOR, so the table field sums the products
    # one inner index at a time; inner dimensions 0 and 1 and empty row or
    # column counts are the edge cases of that loop
    f, ref = _table_field(p), la.PrimeField(p)
    assert not f._add_is_xor
    rng = np.random.default_rng(p)
    for m, k, n in [(4, 3, 5), (1, 7, 1), (3, 1, 2), (2, 0, 3), (0, 3, 2),
                    (3, 2, 0), (0, 0, 0)]:
        a = rng.integers(0, p, size=(m, k))
        b = rng.integers(0, p, size=(k, n))
        got = f.matmul(a, b)
        assert got.shape == (m, n)
        assert np.array_equal(got, ref.matmul(a, b))


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_kernel_rank_and_solve(f):
    rng = np.random.default_rng(2)
    for _ in range(10):
        arr = rng.integers(0, f.order, size=(5, 7))
        ker = la.nullspace(f, arr)
        assert la.rank_raw(f, arr) + len(ker) == 7
        for v in ker:
            prod = f.matmul(arr, np.asarray(v).reshape(-1, 1))
            assert not prod.any()
        # a solvable system: rhs in the column space by construction
        x = rng.integers(0, f.order, size=(7, 1))
        rhs = f.matmul(arr, x).ravel()
        sol = la.solve_raw(f, arr, rhs)
        assert sol is not None
        assert np.array_equal(f.matmul(arr, np.asarray(sol).reshape(-1, 1)
                                       ).ravel(), rhs)


@pytest.mark.parametrize("f", [la.PrimeField(2), la.PrimeField(5), la.GF4()],
                         ids=lambda f: "order%d" % f.order)
def test_nullspace_rows_are_the_identity_at_their_last_nonzero_columns(f):
    # sparse arrays of every shape class, so that free columns fall between
    # pivot columns; modrep reads Hom coordinates off these columns
    rng = np.random.default_rng(4)
    for shape in [(3, 7), (5, 5), (7, 3), (1, 6), (4, 1)]:
        for _ in range(20):
            arr = rng.integers(0, f.order, size=shape)
            arr[rng.random(shape) < 0.6] = 0
            ker = la.nullspace(f, arr)
            last = ker.shape[1] - 1 - (ker[:, ::-1] != 0).argmax(axis=1)
            assert np.array_equal(ker[:, last], f.eye(len(ker)))
            assert la.rank_raw(f, arr) + len(ker) == shape[1]


# the fields of both kernels' arithmetic: GF(2), small odd primes, the
# largest prime field, and table fields of characteristic 2 and 3 (where
# negation is not the identity)
KERNEL_FIELDS = [la.PrimeField(2), la.PrimeField(3), la.PrimeField(5),
                 la.PrimeField(65521), la.GF4(), _table_field(3)]


@st.composite
def _echelon_inputs(draw):
    """A field and a matrix of codes: empty, zero, identity, repeated rows,
    sparse or dense, with up to about twice the list kernel's cells."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    kind = draw(st.sampled_from(["empty", "zero", "identity", "repeated",
                                 "sparse", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "empty":
        k = draw(st.integers(0, 6))
        return f, np.zeros(draw(st.sampled_from([(0, k), (k, 0)])),
                           dtype=np.int64)
    if kind == "identity":
        return f, f.eye(draw(st.integers(1, 24)))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 2 * la.LIST_KERNEL_MAX_CELLS // rows + 1))
    m = rng.integers(0, f.order, size=(rows, cols))
    if kind == "zero":
        m[:] = 0
    elif kind == "repeated":
        m = m[rng.integers(0, min(rows, 3), size=rows)]
    elif kind == "sparse":
        m[rng.random(m.shape) < 0.7] = 0
    return f, m


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_echelon_inputs())
def test_list_and_numpy_kernels_agree(case):
    f, m = case
    want, want_pivots = la._row_echelon_numpy(f, m)
    red, pivots = la._row_echelon_lists(f, m.tolist())
    assert np.array_equal(np.array(red, dtype=np.int64).reshape(m.shape),
                          want)
    assert pivots == want_pivots
    got, got_pivots = la.row_echelon(f, m)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert got_pivots == want_pivots
    assert la.rank_raw(f, m) == len(want_pivots)
    # nullspace on each kernel: a cap of 0 cells sends every input to numpy
    with mock.patch.object(la, "LIST_KERNEL_MAX_CELLS", 0):
        kernel = la.nullspace(f, m)
    with mock.patch.object(la, "LIST_KERNEL_MAX_CELLS", m.size):
        got = la.nullspace(f, m)
    assert (got.dtype, kernel.dtype) == (np.int64, np.int64)
    assert np.array_equal(got, kernel)
    assert not f.matmul(m, kernel.T).any()


def test_row_echelon_picks_the_kernel_by_size(monkeypatch):
    used = []

    def recording(name, kernel):
        def run(*args):
            used.append(name)
            return kernel(*args)
        return run

    monkeypatch.setattr(la, "_row_echelon_lists",
                        recording("lists", la._row_echelon_lists))
    monkeypatch.setattr(la, "_row_echelon_numpy",
                        recording("numpy", la._row_echelon_numpy))
    cap = la.LIST_KERNEL_MAX_CELLS
    f = la.PrimeField(5)
    for shape, kernel in [((0, 4), "lists"), ((4, 0), "lists"),
                          ((1, 1), "lists"), ((cap, 1), "lists"),
                          ((1, cap), "lists"), ((16, cap // 16), "lists"),
                          ((cap + 1, 1), "numpy"), ((1, cap + 1), "numpy"),
                          ((16, cap // 16 + 1), "numpy")]:
        m = np.ones(shape, dtype=np.int64)
        used.clear()
        la.row_echelon(f, m)
        assert used == [kernel], shape
        # rank_raw takes the same kernel; an empty array needs none
        used.clear()
        la.rank_raw(f, m)
        assert used == ([kernel] if m.size else []), shape


def test_solve_reports_inconsistent_system():
    f = la.PrimeField(2)
    arr = np.zeros((2, 2), dtype=np.int64)
    assert la.solve_raw(f, arr, np.array([1, 0], dtype=np.int64)) is None


def test_gf4_is_characteristic_two_not_z4():
    f = la.GF4()
    assert f.order == 4
    for a in range(4):
        assert f.add(a, a) == 0          # characteristic 2
    # the three nonzero elements form a cyclic group of order 3
    nonzero = {1, 2, 3}
    for a in nonzero:
        assert {f.mul(a, b) for b in nonzero} == nonzero


def _recording_search(f, k, budget, limit, hit_at=None):
    """Run search_combinations with a test that records every vector it is
    given and hits on the vector equal to ``hit_at``."""
    seen = []

    def test(c):
        seen.append(tuple(int(x) for x in c))
        return "hit" if seen[-1] == hit_at else None

    return la.search_combinations(f, k, test, budget, limit), seen


def test_search_stage_order():
    f = la.PrimeField(3)
    (hit, exhausted), seen = _recording_search(f, 2, 4, 3 ** 2)
    assert (hit, exhausted) == (None, True)
    assert seen[:2] == [(1, 0), (0, 1)]
    rng = np.random.default_rng(0)
    draws = [tuple(int(x) for x in rng.integers(0, 3, size=2))
             for _ in range(4)]
    n_draws = sum(any(d) for d in draws)
    assert seen[2:2 + n_draws] == [d for d in draws if any(d)]
    assert seen[2 + n_draws:] == [(a, b) for a in range(3) for b in range(3)
                                  if (a, b) != (0, 0)]
    # the generator is fixed: every search repeats the same draws
    assert _recording_search(f, 2, 4, 3 ** 2)[1] == seen
    # the first hit ends the search
    (hit, exhausted), seen = _recording_search(f, 2, 4, 9, hit_at=(0, 1))
    assert (hit, exhausted) == ("hit", True) and seen == [(1, 0), (0, 1)]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_search_never_tests_the_zero_vector(f):
    for k in (1, 2, 3):
        _, seen = _recording_search(f, k, 40, f.order ** k)
        assert seen and all(any(c) for c in seen)


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_search_exhausted_flag(f):
    for k in (0, 1, 2, 3):
        for limit in (0, f.order ** k - 1, f.order ** k, f.order ** k + 1):
            for budget in (0, 5):
                (hit, exhausted), _ = _recording_search(f, k, budget, limit)
                assert hit is None
                assert exhausted == (f.order ** k <= limit)
                if k:
                    (hit, exhausted), _ = _recording_search(
                        f, k, budget, limit, hit_at=(1,) + (0,) * (k - 1))
                    assert (hit, exhausted) == ("hit", True)


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_combine_matches_naive_sum(f):
    rng = np.random.default_rng(3)
    for shape in ((4, 3), (4, 2, 3), (0, 5)):
        stack = rng.integers(0, f.order, size=shape)
        coeffs = rng.integers(0, f.order, size=shape[0])
        want = np.zeros(shape[1:], dtype=np.int64)
        for c, x in zip(coeffs, stack):
            want = f.add(want, f.mul(int(c), x))
        assert np.array_equal(la.combine(f, coeffs, stack), want)


def test_search_without_random_stage_makes_no_generator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    f = la.PrimeField(2)
    assert _recording_search(f, 3, 0, 1 << 16)[0] == (None, True)
    assert _recording_search(f, 3, 0, 0)[0] == (None, False)
    assert _recording_search(f, 0, 10, 0)[0] == (None, False)


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: "order%d" % f.order)
def test_powers_vanish_on_matrix_spans(f):
    def unit(i, j):
        e = np.zeros((3, 3), dtype=np.int64)
        e[i, j] = f.one
        return e.ravel()

    def times(span):
        return lambda power: np.concatenate(
            [f.matmul(power.reshape(-1, 3), g.reshape(3, 3)).reshape(-1, 9)
             for g in span])

    def vanish(*mats):
        span = np.array(mats, dtype=np.int64).reshape(-1, 9)
        return la.powers_vanish(f, span, times(span))

    assert vanish()                                      # the zero span
    assert vanish(unit(0, 1), unit(1, 2), unit(0, 2))   # strictly upper
    assert vanish(unit(0, 1), unit(1, 2))               # generates it
    assert not vanish(unit(0, 1), unit(1, 0))           # E01 E10 = E00
    assert not vanish(unit(0, 0))                       # an idempotent
