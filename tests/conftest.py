from collections import Counter

import numpy as np
import pytest

from gorlab import fixtures as fx
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import nakayama as nak
from gorlab.dims import HomologicalDim, PeriodicityCertificate


# the six cyclic Kupisch series of the oracle benchmark
ORACLE_SERIES = [(2,), (3, 2), (2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 5, 5)]


def dense_action_violation(f, mult, action):
    """The structure-constant check with dense products, the reference for
    ``algebra._action_violation``: the first (x, i, j) where row x of
    rho(b_i) rho(b_j) differs from row x of rho(b_i b_j), or None."""
    n, d = action.shape[:2]
    beside = action.transpose(1, 0, 2).reshape(d, n * d)
    flat = action.reshape(n, d * d)
    for i in range(n):
        lhs = f.matmul(action[i], beside).reshape(d, n, d).transpose(1, 0, 2)
        rhs = f.matmul(mult[i], flat).reshape(n, d, d)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if len(bad):
            j, x = bad[0]
            return int(x), i, int(j)
    return None


@pytest.fixture(scope="session")
def fix():
    """Shared fixture accessor; builds are cached inside gorlab.fixtures."""
    def get(name: str):
        return fx.build_fixture(name)
    return get


def assert_iso(m, n):
    r = mr.iso(m, n)
    assert r.certain, "isomorphism test inconclusive for %s vs %s" % (m, n)
    assert r.isomorphic, "%s and %s are not isomorphic" % (m, n)


def assert_not_iso(m, n):
    r = mr.iso(m, n)
    assert r.certain, "isomorphism test inconclusive for %s vs %s" % (m, n)
    assert not r.isomorphic, "%s and %s are isomorphic" % (m, n)


def graded_twist(m, rng):
    """m in a random graded basis: the rows of a random invertible P with
    P[i, j] = 0 unless basis vectors i and j lie at one vertex, with its
    columns permuted; rho(x) becomes P^-1 rho(x) P."""
    f = m.algebra.field
    vertices = mr._vertices(m)
    same = vertices[:, None] == vertices[None, :]
    p = rng.integers(0, f.order, (m.dim, m.dim)) * same
    while not la.is_invertible(f, p):
        p = rng.integers(0, f.order, (m.dim, m.dim)) * same
    p = p[:, rng.permutation(m.dim)]
    p_inv = la.solve_raw(f, p, f.eye(m.dim))
    return mr.make_module(m.algebra, [f.matmul(f.matmul(p_inv, x), p)
                                      for x in m.action])


def check_right_minimal(mp) -> bool:
    """Whether every endomorphism h of the source with h then mp = 0 is
    nilpotent, the reference for ``mr.min_right_approx``.

    These h form K, closed under precomposition, so they are all nilpotent
    iff the spans of the products K^j reach 0: an exact check."""
    f = mp.source.algebra.field
    s = mp.source
    if s.dim == 0:
        return True
    mats = np.array([h.matrix for h in mr.hom_basis(s, s)])
    cons = f.matmul(mats.reshape(-1, s.dim), mp.matrix)
    coeff_rows = la.nullspace(f, cons.reshape(len(mats), -1).T)
    kernel = f.matmul(coeff_rows, mats.reshape(len(mats), -1))
    return mr._nilpotent_span(f, kernel, s.dim)


def _flat_rank(f, mats, size):
    flats = np.array(mats, dtype=np.int64).reshape(len(mats), size)
    return la.rank_raw(f, flats), flats


def almost_split_verify(a, seq, indec_pool) -> bool:
    """Verify that 0 -> L -f-> E -g-> M -> 0 is an almost split sequence.

    Checks exactness, L iso tau(M), non-splitness, and for every pool
    module N that composition with g reaches exactly the non-retractions
    N -> M (all of Hom(N, M) when N is not iso to M, the radical of the
    endomorphism ring when it is).  The last check is over the pool as
    given, so it proves almost-splitness only for a pool that holds every
    indecomposable.
    """
    f_map, g_map = seq
    if f_map.target is not g_map.source:
        raise ValueError("maps do not compose")
    M = g_map.target
    L = f_map.source
    E = g_map.source
    fl = a.field
    if len(mr.decompose(M)) != 1:
        raise ValueError("end term is not indecomposable")
    if mr.projective_cover(M).is_iso():
        raise ValueError("end term is projective")
    if not mr.iso(L, mr.tau(M)):
        raise ValueError("left term is not tau of the end term")
    # exactness
    if la.rank_raw(fl, f_map.matrix) != L.dim:
        return False
    if la.rank_raw(fl, g_map.matrix) != M.dim:
        return False
    if np.any(fl.matmul(f_map.matrix, g_map.matrix)):
        return False
    if L.dim + M.dim != E.dim:
        return False
    # non-splitness: id_M must not factor through g
    sections = [fl.matmul(u.matrix, g_map.matrix)
                for u in mr.hom_basis(M, E)]
    _, flats = _flat_rank(fl, sections, M.dim * M.dim)
    if flats.size and la.solve_raw(
            fl, flats.T, fl.eye(M.dim).ravel()) is not None:
        return False
    # radical of End(M), as matrices
    endo = mr.endo_algebra([M])
    end_mats = endo.block_maps[(0, 0)]
    rad_rows = endo.algebra.jacobson_basis
    rad_mats = [la.combine(fl, row, end_mats) for row in rad_rows]
    raddim = len(rad_mats)
    for N in indec_pool:
        through = [fl.matmul(u.matrix, g_map.matrix)
                   for u in mr.hom_basis(N, E)]
        span_dim, span_flats = _flat_rank(fl, through, N.dim * M.dim)
        witness = mr.iso(N, M)
        if witness:
            transported = [fl.matmul(witness.witness.matrix, R)
                           for R in rad_mats]
            both = through + transported
            both_rank, _ = _flat_rank(fl, both, N.dim * M.dim)
            if span_dim != raddim or both_rank != raddim:
                return False
        else:
            if span_dim != mr.hom_dim(N, M):
                return False
    return True


def ext_dim_nak(a, m, n, i: int) -> int:
    """dim Ext^i((i,k), (j,l)) over a Nakayama algebra, one degree: the
    Euler identity on minimal covers, at Omega^(i-1) of (i,k)."""
    if i == 0:
        return nak.hom_dim_nak(a, m, n)
    x = m
    for _ in range(i - 1):
        if x is nak.ZERO:
            return 0
        x = nak.syzygy_nak(a, x)
    return nak._ext1_nak(a, x, n)


def resdim_reference(addgens, x, cutoff: int = 24) -> HomologicalDim:
    """add(M)-resolution dimension of x by approximating whole modules, the
    reference for ``invariants._DimEngine.resdim``.

    Summands are compared as multisets of class ids in one private
    ``mr.ClassTable``, whose first classes are those of add(M).  Infinite
    is certified when an earlier approximation kernel recurs as a direct
    summand of a later one: the approximations are minimal, so this forces
    the chain never to terminate.
    """
    table = mr.ClassTable()
    for m in addgens:
        table.parts(m)
    gens = list(table.reps)
    kernels = []     # Counters of the class ids of the kernels' summands
    cur, parts = x, Counter(table.parts(x))
    for step in range(cutoff + 1):
        if all(ci < len(gens) for ci in parts):
            return HomologicalDim.finite(step)
        ker, _ = mr.kernel_submodule(mr._approximation(gens, cur))
        parts = Counter(table.parts(ker))
        for back, old in enumerate(kernels):
            if old <= parts:
                cert = PeriodicityCertificate("approximation-kernel",
                                              back + 1, step - back)
                return HomologicalDim.infinite(cert)
        kernels.append(parts)
        cur = ker
    return HomologicalDim.at_least(cutoff, "cutoff %d exhausted" % cutoff)
