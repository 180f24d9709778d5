import numpy as np
import pytest

from gorlab import fixtures as fx
from gorlab import linalg as la
from gorlab import modrep as mr


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
