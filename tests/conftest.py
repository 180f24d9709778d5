import numpy as np
import pytest

from gorlab import fixtures as fx
from gorlab import linalg as la
from gorlab import modrep as mr


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
