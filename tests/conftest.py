import pytest

from gorlab import fixtures as fx
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
