"""Algebra-level homological invariants over the generic engine.

Per-module projective/injective/dominant/codominant dimensions are read off
the graph of isomorphism classes of indecomposables whose edges are the
summands of (co)syzygies: projective dimension is the longest syzygy path to
a projective class, dominant dimension the shortest cosyzygy path to a class
whose injective hull is not projective.  That hull is the sum of the
D(Ae_v) over the socle vertices v of the class, so it is projective iff every
such v is the socle vertex of an injective e_iA; no hull is built.  Each
algebra has one ``modrep.ClassTable`` and covers each class once, reading the
socle and cosyzygy of X off its opposite's cover of D X.  Each answer is a
function of the module and the bound only, not of earlier queries.  Infinite
values carry a periodicity certificate, and AtLeast values name the bound
that cut the search.

Whether Ext^i(X, Y) = 0 for all i >= 1 is decided by
``_DimEngine.ext_window`` in one walk of the syzygy orbit of X's iso-class
multiset, testing Ext^1 at each state until the orbit dies or repeats.  On
it sit Gorenstein-projectivity certification, Müller's dominant-dimension
formula for endomorphism algebras of generators over symmetric algebras,
the gendo-symmetric test, and an executable suite of theorem checks run
against the named fixtures.  The GP test, the checks and the Chen-Koenig
formula read Omega, Ext, D, Tr, tau and approximation kernels off the class
graph of ``_DimEngine``: a module enters it once, through ``parts``, which
rejects a module over another algebra, and everything after works on class
lists.  The Nakayama checks of the suite call the closed forms of
``nakayama``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from . import modrep as mr
from . import nakayama as nak
from .algebra import BasedAlgebra, corner_algebra, is_symmetric
from .dims import HomologicalDim, PeriodicityCertificate, dim_max

__all__ = [
    "DEFAULT_BOUND",
    "NotSymmetric",
    "NotGenerator",
    "GpVerdict",
    "CheckResult",
    "module_projdim",
    "module_injdim",
    "module_domdim",
    "module_codomdim",
    "algebra_domdim",
    "gorenstein_dims",
    "fdomdim_pool",
    "gp_test",
    "gi_test",
    "gpi_test",
    "mueller_domdim",
    "chen_koenig_injdim",
    "gendo_symmetric_check",
    "theorem_suite",
]

DEFAULT_BOUND = 24


class NotSymmetric(ValueError):
    """The base algebra has no nondegenerate central form."""


class NotGenerator(ValueError):
    """The module misses an indecomposable projective summand."""


def _dim_plus(d: HomologicalDim, k: int) -> HomologicalDim:
    if d.kind == "finite":
        return HomologicalDim.finite(d.value + k)
    if d.kind == "atleast":
        return HomologicalDim.at_least(d.value + k, d.bound_reason)
    return d


# ---------------------------------------------------------------------------
# Iso-class bookkeeping and the per-algebra dimension engine


# the benchmark wraps ``invariants._ClassTable.canon``
_ClassTable = mr.ClassTable


class _DimEngine:
    """The class graph of one algebra and the dimensions read off it.

    The memos hold only facts that no query order can change: class ids,
    one cover record per class and its dual's class, Hom dimensions and
    Ext^1 values keyed on (class, target), approximation kernels keyed on
    (generator classes, class), and GP verdicts keyed on (classes, bound).
    Each dimension is searched afresh per query.  A module enters through
    ``parts`` once, which rejects a module over another algebra; Omega^k
    (``omega_parts``), Ext^i (``ext_dim``) and the theorem checks then work
    on class lists.

    ``_omega(ci)`` keeps, from the projective cover P -> X of X = reps[ci],
    the summand idempotents of P and Omega X, whose classes are read when
    first asked for; the class of e_vA gives [v] and 0 with no cover built.
    ``op`` is the engine of A^op and ``dual(ci)`` the class of D X there,
    whose record gives the socle of X and cosyzygy D Omega D X.

    ``dual`` reads the socle of X off the arrows when the dimension vector
    of X is a Cartan column, that of D(Ae_v).  The hull of a simple socle
    S_v is D(Ae_v), so X with socle S_v and the dimension vector of
    D(Ae_v) is D(Ae_v), and D X is the A^op projective at v, recorded in
    the class table of ``op`` with no decomposition or iso test.
    ``projinj`` maps v to i when e_iA is injective with socle S_v, that is
    when D(e_iA) is the A^op projective at v.  ``op`` and ``projinj`` are
    built on first use, once this engine is cached.

    ``tr(ci)`` is the class of the transpose Tr X in ``op``, none for a
    projective X.  Tr Tr X = X for X indecomposable and not projective
    (Auslander-Bridger; ARS IV.1), so the edge is recorded both ways and
    each Tr-pair of classes is transposed once; ``mr.transpose_tr`` covers
    X and Omega X again, in a presentation of its own.  The translates are
    edges too: tau X = D Tr X (``tau_parts``) and tau^-1 X = Tr D X
    (``tau_inv_parts``).

    ``resdim(gens, classes, cutoff)`` walks kernel multisets: minimal right
    approximations are additive (Auslander-Smalo, J. Algebra 66, 1980), so
    a class outside add(G), G the sum of the classes gens, has one edge per
    gens, to the classes of the kernel of its add(G)-approximation.
    """

    def __init__(self, a: BasedAlgebra):
        self.a = a
        self.table = mr.ClassTable()
        self._omega_memo = {}
        self._dual_memo = {}
        self._tr_memo = {}
        self._hom_memo = {}
        self._ext1_memo = {}
        self._kernel_memo = {}
        self.gp_memo = {}
        projs, self.reg = mr.projectives(a)
        # the class of each e_vA, mapped to v
        self.proj_ids = {self.table.parts(p)[0]: v for v, p in enumerate(projs)}

    def parts(self, m) -> list:
        """The classes of m's summands: the one way a module enters."""
        if m.algebra is not self.a:
            raise mr.AlgebraMismatch("module is not over the engine's algebra")
        return self.table.parts(m)

    @cached_property
    def op(self) -> "_DimEngine":
        return _engine(mr.opp(self.a))

    @cached_property
    def projinj(self) -> dict:
        out = {}
        # in projective order, so the classes of op keep their ids
        for i, p in enumerate(mr.projectives(self.a)[0]):
            d = self.dual(self.table.parts(p)[0])
            if d in self.op.proj_ids:
                out[self.op.proj_ids[d]] = i
        return out

    def _omega(self, ci: int) -> tuple:
        """(summand idempotents of P, Omega X) for X = reps[ci]."""
        if ci in self.proj_ids:
            # e_vA is its own cover; without this a seed-1 bench oracle
            # pass builds 240 covers, not 180
            return [self.proj_ids[ci]], mr.zero_module(self.a)
        if ci not in self._omega_memo:
            cov = mr.projective_cover(self.table.reps[ci])
            self._omega_memo[ci] = (cov.summand_idems,
                                    mr.kernel_submodule(cov)[0])
        return self._omega_memo[ci]

    def dual(self, ci: int) -> int:
        """The class of D reps[ci] in ``op``."""
        if ci not in self._dual_memo:
            x, a = self.table.reps[ci], self.a
            d = mr.dual(x)
            # dim D(Ae_v) e_u = dim e_uAe_v, column v of the Cartan matrix
            verts = mr._vertices(x)
            dims = np.bincount(verts, minlength=a.n_idem)
            if (a.cartan == dims[:, None]).all(axis=0).any():
                # soc X: the x with x alpha = 0 for every arrow alpha
                acts = mr._arrow_actions(x).transpose(1, 0, 2)
                soc = linalg.nullspace(a.field, acts.reshape(x.dim, -1).T)
                v = int(verts[soc.any(axis=0)][0])
                if len(soc) == 1 and (dims == a.cartan[:, v]).all():
                    # X = D(Ae_v), so D X is the A^op projective e_vA^op
                    self.op.table.record(d, self.op.table.parts(
                        mr.projectives(self.op.a)[0][v]))
            # one class: D of an indecomposable is indecomposable
            [self._dual_memo[ci]] = self.op.table.parts(d)
        return self._dual_memo[ci]

    def tr(self, ci: int) -> list:
        """The classes of Tr reps[ci] in ``op``: none for a projective
        class, else the one class t of Tr X, with ``op.tr(t)`` = [ci]."""
        if ci in self.proj_ids:
            return []
        if ci not in self._tr_memo:
            # Tr of an indecomposable nonprojective is one
            [t] = self.op.table.parts(mr.transpose_tr(self.table.reps[ci]))
            self._tr_memo[ci] = [t]
            self.op._tr_memo.setdefault(t, [ci])
        return self._tr_memo[ci]

    def tau_parts(self, ci: int) -> list:
        """The classes of tau reps[ci] = D Tr reps[ci]."""
        return [self.op.dual(t) for t in self.tr(ci)]

    def tau_inv_parts(self, ci: int) -> list:
        """The classes of tau^-1 reps[ci] = Tr D reps[ci]."""
        return self.op.tr(self.dual(ci))

    def omega_parts(self, classes: list, k: int) -> list:
        """The classes of Omega^k of the sum of the given classes."""
        for _ in range(k):
            classes = [p for ci in classes for p in self.syzygy_parts(ci)]
        return classes

    def syzygy_parts(self, ci: int) -> list:
        return self.table.parts(self._omega(ci)[1])

    def cosyzygy_parts(self, ci: int) -> list:
        return [self.op.dual(p) for p in self.op.syzygy_parts(self.dual(ci))]

    def _hom_dim(self, ci: int, n) -> int:
        if (ci, n) not in self._hom_memo:
            self._hom_memo[ci, n] = mr.hom_dim(self.table.reps[ci], n)
        return self._hom_memo[ci, n]

    def ext1_against(self, ci: int, n) -> int:
        """The formula of ``mr.ext_dim`` on ``_omega(ci)``, with
        dim Hom(Omega X, n) summed over the classes of Omega X."""
        if (ci, n) not in self._ext1_memo:
            idems = self._omega(ci)[0]
            hk = sum(self._hom_dim(p, n) for p in self.syzygy_parts(ci))
            hp = np.bincount(mr._vertices(n), minlength=self.a.n_idem)[idems]
            self._ext1_memo[ci, n] = hk and int(hk - hp.sum()
                                                + self._hom_dim(ci, n))
        return self._ext1_memo[ci, n]

    def ext_dim(self, m, n, i: int) -> int:
        """dim Ext^i(m, n): the Hom sum over m's classes at i = 0, else
        ``ext1_against`` summed over the classes of Omega^(i-1) m."""
        parts = self.parts(m)
        if i == 0:
            return sum(self._hom_dim(ci, n) for ci in parts)
        return sum(self.ext1_against(ci, n)
                   for ci in self.omega_parts(parts, i - 1))

    def ext_window(self, classes: list, n, bound: int):
        """(hit, window, certificate) for Ext^i(m, n), i >= 1, with m the
        sum of the given classes, in one walk of the syzygy orbit of their
        sorted multiset.

        Ext^i(m, n) = Ext^1(Omega^(i-1) m, n), so each state is tested
        against n before the walk moves on; ``hit`` is the least i with
        Ext^i(m, n) != 0.  Otherwise, once the multiset of Omega^t m dies or
        repeats within the bound, every later degree repeats one inside the
        window t, which the certificate records.  (None, None, None) at the
        bound.
        """
        state = tuple(sorted(classes))
        seen = {state: 0}
        for t in range(1, bound + 1):
            if any(self.ext1_against(ci, n) for ci in state):
                return t, None, None
            state = tuple(sorted(p for ci in state
                                 for p in self.syzygy_parts(ci)))
            if not state:
                return None, t, PeriodicityCertificate("syzygy-terminates",
                                                       t, 0)
            if state in seen:
                p = seen[state]
                labels = tuple(self.table.label(c) for c in state)
                return None, t, PeriodicityCertificate("syzygy", p, t - p,
                                                       labels)
            seen[state] = t
        return None, None, None

    def resdim(self, gens: list, classes: list, cutoff: int) -> HomologicalDim:
        """The add(G)-resolution dimension of the sum of the given classes,
        G the sum of the classes gens.  An earlier kernel multiset inside a
        later one certifies Infinite, as the approximations are minimal."""
        gens, reps = tuple(sorted(set(gens))), self.table.reps
        state, kernels = Counter(classes), []
        for step in range(cutoff + 1):
            outside = [ci for ci in state if ci not in gens]
            if not outside:
                return HomologicalDim.finite(step)
            kernel = Counter()
            for ci in outside:
                if (gens, ci) not in self._kernel_memo:
                    ker, _ = mr.kernel_submodule(mr._approximation(
                        [reps[g] for g in gens], reps[ci]))
                    self._kernel_memo[gens, ci] = self.table.parts(ker)
                for p in self._kernel_memo[gens, ci]:
                    kernel[p] += state[ci]
            state = kernel
            for back, old in enumerate(kernels):
                if old <= state:
                    cert = PeriodicityCertificate("approximation-kernel",
                                                  back + 1, step - back)
                    return HomologicalDim.infinite(cert)
            kernels.append(state)
        return HomologicalDim.at_least(cutoff, "cutoff %d exhausted" % cutoff)

    def hull_projective(self, ci: int) -> bool:
        """Whether the injective hull of class ci is projective."""
        socle = self.op._omega(self.dual(ci))[0]
        return all(v in self.projinj for v in socle)

    def _cycle_cert(self, op: str, path: tuple, ci: int) -> PeriodicityCertificate:
        start = path.index(ci)
        states = tuple(self.table.label(c) for c in path[start:]) + (
            self.table.label(ci),)
        return PeriodicityCertificate(op, start, len(path) - start, states)

    def projdim(self, ci: int, bound: int, path: tuple = ()) -> HomologicalDim:
        """The longest syzygy path from ci to a projective class.

        ``path`` is the chain of classes that led to ci.  A class met again
        on it closes a cycle, so the dimension is infinite; a class that the
        bound cuts off is nonprojective, so it adds at least 1.
        """
        if ci in self.proj_ids:
            return HomologicalDim.finite(0)
        if ci in path:
            return HomologicalDim.infinite(self._cycle_cert("syzygy", path, ci))
        if len(path) >= bound:
            return HomologicalDim.at_least(1, "syzygy depth budget %d" % bound)
        parts = self.syzygy_parts(ci)
        if not parts:
            return HomologicalDim.finite(0)
        path += (ci,)
        return _dim_plus(dim_max([self.projdim(p, bound, path)
                                  for p in parts]), 1)

    def domdim(self, classes: list, bound: int) -> HomologicalDim:
        """The shortest cosyzygy path from classes to a class whose injective
        hull is not projective, breadth first over levels t = 0..bound.

        A level that adds no new class closes the reachable set, so the
        dimension is infinite; its certificate follows the first cosyzygy
        part from classes[0] until a class repeats or has no cosyzygy.
        """
        level, seen = classes, set(classes)
        for t in range(bound + 1):
            if not all(self.hull_projective(c) for c in level):
                return HomologicalDim.finite(t)
            level = list(dict.fromkeys(p for c in level
                                       for p in self.cosyzygy_parts(c)
                                       if p not in seen))
            seen.update(level)
            if not level:
                return HomologicalDim.infinite(self._cosyzygy_cert(classes[0]))
        return HomologicalDim.at_least(bound + 1,
                                       "cosyzygy depth budget %d" % bound)

    def _cosyzygy_cert(self, ci: int) -> PeriodicityCertificate:
        path = ()
        while ci not in path:
            parts = self.cosyzygy_parts(ci)
            if not parts:
                return PeriodicityCertificate(
                    "cosyzygy-terminates", 1, 0, (self.table.label(ci),))
            path += (ci,)
            ci = parts[0]
        return self._cycle_cert("cosyzygy", path, ci)


def _engine(a: BasedAlgebra) -> _DimEngine:
    return a.cached("dim_engine", lambda: _DimEngine(a))


# ---------------------------------------------------------------------------
# Per-module dimensions (generic engine)


def module_projdim(m, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    if m.dim == 0:
        return HomologicalDim.infinite_by_convention()
    eng = _engine(m.algebra)
    return dim_max([eng.projdim(ci, bound) for ci in eng.parts(m)])


def module_injdim(m, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    return module_projdim(mr.dual(m), bound)


def module_domdim(m, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    if m.dim == 0:
        return HomologicalDim.infinite_by_convention()
    eng = _engine(m.algebra)
    return eng.domdim(eng.parts(m), bound)


def module_codomdim(m, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    return module_domdim(mr.dual(m), bound)


# ---------------------------------------------------------------------------
# Algebra-level dimensions


def algebra_domdim(a: BasedAlgebra, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    """Min over indecomposable projectives of their dominant dimension."""
    eng = _engine(a)
    return eng.domdim(sorted(eng.proj_ids), bound)


def gorenstein_dims(a: BasedAlgebra, bound: int = DEFAULT_BOUND) -> tuple:
    """(left, right) self-injective dimensions of the regular modules."""
    projs, _ = mr.projectives(a)
    right = dim_max(module_injdim(p, bound) for p in projs)
    left = dim_max(module_projdim(i, bound) for i in mr.injectives(a))
    return left, right


def fdomdim_pool(pool, bound: int = DEFAULT_BOUND) -> HomologicalDim:
    """Max finite dominant dimension over the indecomposable pool as given.

    It is the algebra's finitistic dominant dimension only when the pool
    holds every indecomposable; otherwise it may be lower.
    """
    finite_vals = [0]
    undecided = False
    for m in pool:
        d = module_domdim(m, bound)
        if d.kind == "finite":
            finite_vals.append(d.value)
        elif d.kind == "atleast":
            undecided = True
    if undecided:
        return HomologicalDim.at_least(max(finite_vals),
                                       "undecided pool members at bound %d" % bound)
    return HomologicalDim.finite(max(finite_vals))


# ---------------------------------------------------------------------------
# Gorenstein projectivity


@dataclass
class GpVerdict:
    status: str                       # "yes" | "no" | "unknown"
    witness_degree: int | None = None
    condition: str = ""
    window: int | None = None
    certificate: tuple = ()
    bound: int | None = None

    def __bool__(self):
        return self.status == "yes"

    def __str__(self):
        if self.status == "yes":
            return "yes (window %s)" % self.window
        if self.status == "no":
            return "no (%s nonzero in degree %d)" % (self.condition,
                                                     self.witness_degree)
        return "unknown (bound %s)" % self.bound


def gp_test(a: BasedAlgebra, m, bound: int = DEFAULT_BOUND) -> GpVerdict:
    """Is m Gorenstein projective?  Ext^i(m,A) = 0 = Ext^i(Tr m, A), i >= 1."""
    if m.dim == 0:
        return GpVerdict("yes", window=0)
    eng = _engine(a)
    parts = eng.parts(m)
    key = (tuple(sorted(parts)), bound)
    if key not in eng.gp_memo:
        eng.gp_memo[key] = _gp_test_impl(parts, eng, bound)
    return eng.gp_memo[key]


def _gp_test_impl(parts, eng, bound) -> GpVerdict:
    hit, w1, c1 = eng.ext_window(parts, eng.reg, bound)
    if hit is not None:
        return GpVerdict("no", hit, "Ext^i(m, A)")
    if w1 is None:
        return GpVerdict("unknown", bound=bound)
    # Tr of a sum is the sum of the Tr of its summands
    tr = [t for ci in parts for t in eng.tr(ci)]
    if not tr:
        return GpVerdict("yes", window=w1, certificate=(c1,))
    hit, w2, c2 = eng.op.ext_window(tr, eng.op.reg, bound)
    if hit is not None:
        return GpVerdict("no", hit, "Ext^i(Tr m, A^op)")
    if w2 is None:
        return GpVerdict("unknown", bound=bound)
    return GpVerdict("yes", window=max(w1, w2), certificate=(c1, c2))


def gi_test(a: BasedAlgebra, m, bound: int = DEFAULT_BOUND) -> GpVerdict:
    """Gorenstein injectivity: the dual must be Gorenstein projective
    over the opposite algebra."""
    return gp_test(mr.opp(a), mr.dual(m), bound)


def gpi_test(a: BasedAlgebra, m, bound: int = DEFAULT_BOUND) -> GpVerdict:
    gp = gp_test(a, m, bound)
    if gp.status == "no":
        return GpVerdict("no", gp.witness_degree, "GP side: " + gp.condition)
    gi = gi_test(a, m, bound)
    if gi.status == "no":
        return GpVerdict("no", gi.witness_degree, "GI side: " + gi.condition)
    if gp.status == "yes" and gi.status == "yes":
        return GpVerdict("yes", window=max(gp.window, gi.window),
                         certificate=gp.certificate + gi.certificate)
    return GpVerdict("unknown", bound=bound)


# ---------------------------------------------------------------------------
# Dominant dimension of endomorphism algebras of generators


def _require_symmetric_generator(b: BasedAlgebra, m):
    if not is_symmetric(b):
        raise NotSymmetric("base algebra is not symmetric")
    eng = _engine(b)
    missing = set(eng.proj_ids) - set(eng.parts(m))
    if missing:
        raise NotGenerator("module misses projective class(es) %s" %
                           sorted(missing))
    return eng


def mueller_domdim(b: BasedAlgebra, m,
                   bound: int = DEFAULT_BOUND) -> HomologicalDim:
    """domdim(End(m)) = inf{i >= 1 : Ext^i_b(m, m) != 0} + 1 for a
    generator m over a symmetric algebra b.

    Ext^i(P, -) = 0 for projective P, so the projective summands of m add
    nothing on the left; the syzygy window of m bounds the degrees to test.
    """
    eng = _require_symmetric_generator(b, m)
    i, w, cert = eng.ext_window(eng.parts(m), m, bound)
    if i is not None:
        return HomologicalDim.finite(i + 1)
    if w is None:
        return HomologicalDim.at_least(
            bound + 1, "Ext window not certified at bound %d" % bound)
    return HomologicalDim.infinite(cert)


def chen_koenig_injdim(endo: mr.EndoData, bound: int = DEFAULT_BOUND,
                       dd: HomologicalDim | None = None) -> dict:
    """Both sides of injdim(B_B) = z+2 + resdim_add(M)(tau Omega^z(M) + D(A))
    for B = End(M) = ``endo.algebra``, M the sum of ``endo.summands`` over a
    symmetric A, z = domdim(B) - 2: lhs off B's own engine, rhs off A's,
    with D(A) the duals of the A^op projectives.
    """
    gen = mr.direct_sum(endo.summands)
    eng = _require_symmetric_generator(gen.algebra, gen)
    lhs = gorenstein_dims(endo.algebra, bound)[1]
    if dd is None:
        dd = mueller_domdim(gen.algebra, gen, bound)
    if dd.kind != "finite":
        return {"lhs": lhs, "rhs": lhs, "z": None,
                "note": "domdim not finite; formula degenerate, "
                        "rhs reported equal to lhs"}
    z = dd.as_int() - 2
    ids = eng.parts(gen)
    targets = [t for ci in eng.omega_parts(ids, z) for t in eng.tau_parts(ci)]
    targets += [eng.op.dual(ci) for ci in sorted(eng.op.proj_ids)]
    rhs = _dim_plus(eng.resdim(ids, targets, bound), z + 2)
    return {"lhs": lhs, "rhs": rhs, "z": z}


def gendo_symmetric_check(a: BasedAlgebra, bound: int = DEFAULT_BOUND) -> bool:
    """domdim >= 2 and the projective-injective corner is symmetric."""
    dd = algebra_domdim(a, bound)
    if not dd.ge(2):
        return False
    corner = _projinj_corner(a)
    return corner is not None and is_symmetric(corner.algebra)


def _projinj_corner(a: BasedAlgebra):
    """The corner eAe for e the sum of the e_i with e_iA injective, or None
    when no e_iA is; built once per algebra."""
    def build():
        sel = sorted(_engine(a).projinj.values())
        return corner_algebra(a, sel) if sel else None
    return a.cached("projinj_corner", build)


# ---------------------------------------------------------------------------
# Theorem suite


@dataclass
class CheckResult:
    name: str
    status: str          # "pass" | "fail" | "skip"
    detail: str = ""

    def __str__(self):
        return "%s: %s%s" % (self.name, self.status,
                             " (%s)" % self.detail if self.detail else "")


def _classes(a, pool):
    """(engine of a, iso-class ids of the summands of pool, in order)."""
    eng = _engine(a)
    ids = (ci for m in pool for ci in eng.parts(m))
    return eng, list(dict.fromkeys(ids))


def _pool_classes(fixture, _unused=None):
    """_classes of the fixture's pool.  The ignored second parameter is kept
    for the benchmark, which calls ``_pool_classes(fixture, 0)``."""
    return _classes(fixture.algebra, fixture.pool)


def _sym_target(fixture):
    """``_classes`` of the symmetric member of the fixture, or (None, [])."""
    base = fixture.base_algebra
    if is_symmetric(fixture.algebra):
        return _classes(fixture.algebra, fixture.pool)
    if base is not None and is_symmetric(base):
        return _classes(base, fixture.base_pool)
    return None, []


def theorem_suite(fixture, bound: int = DEFAULT_BOUND) -> list:
    checks = (_check_a, _check_b, _check_c, _check_d, _check_e, _check_f,
              _check_g, _check_h, _check_i, _check_j, _check_k)
    return [check(fixture, bound) for check in checks]


def _is_proj_module(m, _unused=None):
    """Whether m is projective.  The ignored second parameter is kept for
    the benchmark, which calls ``_is_proj_module(m, 0)``."""
    return mr.projective_cover(m).is_iso()


def _nonproj_gpis(fixture, bound):
    """(engine, the nonprojective GPI classes of the fixture's pool)."""
    eng, ids = _pool_classes(fixture)
    return eng, [ci for ci in ids if ci not in eng.proj_ids and gpi_test(
        fixture.algebra, eng.table.reps[ci], bound).status == "yes"]


def _tau_is_omega2(eng, ci):
    """Whether tau X = Omega^2 X for the nonprojective class ci, compared
    as class multisets; None (undecided) unless every class met has a
    certified representative.  An "iso" found by the table carries a
    witness, and "not iso" between certified indecomposables is exact, so
    the answer is then exact by Krull-Schmidt."""
    tau = eng.tau_parts(ci)
    omega2 = eng.omega_parts([ci], 2)
    if not all(eng.table.reps[c].indec_certain for c in [ci] + tau + omega2):
        return None
    return sorted(tau) == sorted(omega2)


def _check_a(fixture, bound):
    name = "tau-iso-omega2-symmetric"
    eng, ids = _sym_target(fixture)
    if eng is None:
        return CheckResult(name, "skip", "no symmetric member")
    checked, undecided = 0, 0
    for ci in ids:
        if ci in eng.proj_ids:
            continue
        r = _tau_is_omega2(eng, ci)
        if r is None:
            undecided += 1
            continue
        if not r:
            return CheckResult(name, "fail",
                               "counterexample %s" % eng.table.label(ci))
        checked += 1
    return CheckResult(name, "pass", "%d nonprojectives%s" % (
        checked, ", %d undecided" % undecided if undecided else ""))


def _check_b(fixture, bound):
    name = "codomdim2-iff-tau-omega2"
    if not gendo_symmetric_check(fixture.algebra, bound):
        return CheckResult(name, "skip", "not gendo-symmetric")
    eng, ids = _pool_classes(fixture)
    checked, undecided = 0, 0
    for ci in ids:
        if ci in eng.proj_ids:
            continue
        m = eng.table.reps[ci]
        cd = module_codomdim(m, bound)
        if cd.kind == "atleast" and cd.value < 2:
            undecided += 1
            continue
        lhs = cd.ge(2)
        rhs = _tau_is_omega2(eng, ci)
        if rhs is None:
            undecided += 1
            continue
        if lhs != rhs:
            return CheckResult(name, "fail",
                               "class %s: codomdim>=2 is %s but tau~Omega^2 is %s"
                               % (eng.table.label(ci), lhs, rhs))
        checked += 1
    return CheckResult(name, "pass",
                       "%d classes, %d undecided" % (checked, undecided))


def _check_c(fixture, bound):
    name = "gpi-iff-infinite-dom-and-codom"
    if not gendo_symmetric_check(fixture.algebra, bound):
        return CheckResult(name, "skip", "not gendo-symmetric")
    eng, ids = _pool_classes(fixture)
    checked, undecided = 0, 0
    for ci in ids:
        m = eng.table.reps[ci]
        v = gpi_test(fixture.algebra, m, bound)
        d = module_domdim(m, bound)
        cd = module_codomdim(m, bound)
        if v.status == "unknown" or d.kind == "atleast" or cd.kind == "atleast":
            undecided += 1
            continue
        lhs = v.status == "yes"
        rhs = d.is_infinite and cd.is_infinite
        if lhs != rhs:
            return CheckResult(name, "fail",
                               "class %s: gpi=%s domdim=%s codomdim=%s"
                               % (eng.table.label(ci), v, d, cd))
        checked += 1
    return CheckResult(name, "pass",
                       "%d classes, %d undecided" % (checked, undecided))


def _check_d(fixture, bound):
    name = "gpi-closed-under-translates"
    if not gendo_symmetric_check(fixture.algebra, bound):
        return CheckResult(name, "skip", "not gendo-symmetric")
    eng, gpis = _nonproj_gpis(fixture, bound)
    if not gpis:
        return CheckResult(name, "skip", "no nonprojective GPI in pool")
    reps = eng.table.reps
    # the classes of each translate
    ops = [("tau", eng.tau_parts), ("tau_inv", eng.tau_inv_parts),
           ("omega2", lambda ci: eng.omega_parts([ci], 2)),
           ("omega-2", lambda ci: [q for p in eng.cosyzygy_parts(ci)
                                   for q in eng.cosyzygy_parts(p)])]
    checked = 0
    for ci in gpis:
        for opname, op in ops:
            classes = op(ci)
            if not classes:
                continue
            # GP and GI are closed under finite sums and summands
            for c in classes:
                v = gpi_test(fixture.algebra, reps[c], bound)
                if v.status == "no":
                    return CheckResult(name, "fail", "%s of %s not GPI: %s"
                                       % (opname, eng.table.label(ci), v))
            checked += 1
    return CheckResult(name, "pass", "%d translates of %d GPI classes"
                       % (checked, len(gpis)))


def _check_e(fixture, bound):
    name = "cm-finite-gendo-symmetric-no-nonproj-gpi"
    if not (fixture.cm_finite
            and gendo_symmetric_check(fixture.algebra, bound)):
        return CheckResult(name, "skip", "needs CM-finite gendo-symmetric")
    eng, gpis = _nonproj_gpis(fixture, bound)
    if gpis:
        return CheckResult(name, "fail",
                           "nonprojective GPI %s" % eng.table.label(gpis[0]))
    return CheckResult(name, "pass", "%d classes scanned"
                       % len(_pool_classes(fixture)[1]))


def _check_f(fixture, bound):
    name = "fdomdim-at-most-g-plus-1"
    if not (fixture.cm_finite
            and gendo_symmetric_check(fixture.algebra, bound)):
        return CheckResult(name, "skip", "needs CM-finite gendo-symmetric")
    _, right = gorenstein_dims(fixture.algebra, bound)
    if right.kind != "finite":
        return CheckResult(name, "skip", "Gorenstein dimension not finite: %s"
                           % right)
    g = right.as_int()
    eng, ids = _pool_classes(fixture)
    fd = fdomdim_pool([eng.table.reps[c] for c in ids], bound)
    if fd.value > g + 1:
        return CheckResult(name, "fail", "fdomdim %s exceeds g+1 = %d"
                           % (fd, g + 1))
    return CheckResult(name, "pass", "g=%d, pool fdomdim %s" % (g, fd))


def _check_g(fixture, bound):
    name = "corner-restriction-into-perp"
    if not gendo_symmetric_check(fixture.algebra, bound):
        return CheckResult(name, "skip", "not gendo-symmetric")
    a = fixture.algebra
    corner = _projinj_corner(a)
    mb = mr.corner_restrict(corner, mr.regular_module(a))
    eng, gpis = _nonproj_gpis(fixture, bound)
    if not gpis:
        return CheckResult(name, "pass", "vacuous: no nonprojective GPI")
    ce = _engine(corner.algebra)
    images, undecided = [], 0
    for m in [eng.table.reps[ci] for ci in gpis]:
        y = mr.corner_restrict(corner, m)
        for src, tgt, what in ((mb, y, "corner gen, %s e"),
                               (y, mb, "%s e, corner gen")):
            hit, w, _ = ce.ext_window(ce.parts(src), tgt, bound)
            if hit is not None:
                return CheckResult(name, "fail", "Ext^%d(%s) != 0"
                                   % (hit, what % m.label))
            undecided += w is None
        images.append(y)
    first = {}
    for t, y in enumerate(images):
        s = first.setdefault(tuple(sorted(ce.parts(y))), t)
        if s != t:
            return CheckResult(name, "fail", "corner restriction not "
                               "injective on classes %d, %d" % (s, t))
    if undecided:
        return CheckResult(name, "skip", "no Ext window in %d of %d "
                           "directions at bound %d"
                           % (undecided, 2 * len(images), bound))
    return CheckResult(name, "pass", "%d GPI classes restricted" % len(images))


def _check_h(fixture, bound):
    name = "ext-comparison-through-corner"
    if not gendo_symmetric_check(fixture.algebra, bound):
        return CheckResult(name, "skip", "not gendo-symmetric")
    a = fixture.algebra
    corner = _projinj_corner(a)
    eng, ids = _pool_classes(fixture)
    # Ext^n(X, Y) transfers through the corner for
    # 0 <= n <= codomdim(X) + domdim(Y) - 2: the first argument enters via a
    # projective presentation in add(eA) (codominant condition), the second
    # via its injective coresolution (dominant condition).
    sources, targets = [], []
    for ci in ids:
        m = eng.table.reps[ci]
        cd = module_codomdim(m, bound)
        dd = module_domdim(m, bound)
        if cd.ge(1) and len(sources) < 2:
            sources.append((m, cd))
        if dd.ge(1) and len(targets) < 4:
            targets.append((m, dd, mr.corner_restrict(corner, m)))
        if len(sources) >= 2 and len(targets) >= 4:
            break
    if not sources or not targets:
        return CheckResult(name, "skip", "no pool classes with the required "
                                         "one-sided dimensions >= 1")
    ce = _engine(corner.algebra)
    pairs_checked = 0
    for x, dx in sources:
        xe = mr.corner_restrict(corner, x)
        for y, dy, ye in targets:
            gx = 99 if dx.is_infinite else dx.value
            gy = 99 if dy.is_infinite else dy.value
            top_n = min(gx + gy - 2, 3)
            for n in range(0, top_n + 1):
                lhs, rhs = eng.ext_dim(x, y, n), ce.ext_dim(xe, ye, n)
                if lhs != rhs:
                    return CheckResult(
                        name, "fail",
                        "Ext^%d(%s, %s): %d over A, %d over corner"
                        % (n, x.label, y.label, lhs, rhs))
                pairs_checked += 1
    return CheckResult(name, "pass", "%d comparisons" % pairs_checked)


def _check_i(fixture, bound):
    name = "dom-i-equals-syzygy-image"
    if fixture.nak is None:
        return CheckResult(name, "skip", "needs a Nakayama fixture")
    a = fixture.nak
    inv = nak.algebra_invariants_nak(a)
    d = inv["domdim"]
    top_i = 4 if d.is_infinite else min(d.value, 4)
    if top_i < 1:
        return CheckResult(name, "skip", "dominant dimension below 1")
    indecs = list(nak.indecomposables(a))
    projset = set(nak.projective_indecs(a))
    for i in range(1, top_i + 1):
        lhs = {m for m in indecs if nak.dims_nak(a, m)["domdim"].ge(i)}
        rhs = set(projset)
        for x in indecs:
            cur = x
            for _ in range(i):
                cur = nak.syzygy_nak(a, cur)
                if cur is nak.ZERO:
                    break
            if cur is not nak.ZERO:
                rhs.add(cur)
        if lhs != rhs:
            return CheckResult(name, "fail",
                               "i=%d: Dom_i %s vs syzygy image %s"
                               % (i, sorted(map(str, lhs)),
                                  sorted(map(str, rhs))))
    return CheckResult(name, "pass", "i up to %d" % top_i)


def _check_j(fixture, bound):
    name = "strong-nakayama-instances"
    if fixture.nak is None:
        return CheckResult(name, "skip", "needs a Nakayama fixture")
    a = fixture.nak
    if not nak.nearly_gorenstein_check_nak(a):
        return CheckResult(name, "skip", "fixture not nearly Gorenstein")
    projs = nak.projective_indecs(a)
    for m in nak.indecomposables(a):
        if (not any(nak.hom_dim_nak(a, m, p) for p in projs)
                and nak._ext_vanishes_nak(a, m, projs)):
            return CheckResult(name, "fail",
                               "%s has Ext^i(m, A)=0 for all certified i" % (m,))
    return CheckResult(name, "pass",
                       "%d indecomposables" % len(list(nak.indecomposables(a))))


def _check_k(fixture, bound):
    name = "auslander-proj-equals-dom-d"
    if fixture.name != "auslander-22":
        return CheckResult(name, "skip", "runs on the auslander-22 fixture")
    a = fixture.algebra
    d = algebra_domdim(a, bound)
    if d.kind == "atleast" and d.value <= 2:
        return CheckResult(name, "skip", "algebra domdim %s undecided" % d)
    if d != 2:
        return CheckResult(name, "fail", "algebra domdim %s, expected 2" % d)
    eng, ids = _pool_classes(fixture)
    for ci in ids:
        m = eng.table.reps[ci]
        dm = module_domdim(m, bound)
        if dm.kind == "atleast":
            return CheckResult(name, "skip", "undecided pool member")
        is_proj = ci in eng.proj_ids
        if is_proj != dm.ge(2):
            return CheckResult(name, "fail",
                               "class %s: projective=%s but domdim=%s"
                               % (eng.table.label(ci), is_proj, dm))
    corner = _projinj_corner(a)
    mcorner = mr.corner_restrict(corner, mr.regular_module(a))
    classes = len(set(_engine(corner.algebra).parts(mcorner)))
    expected = len(list(nak.indecomposables(
        fixture.base_algebra.nak_bridge["series"])))
    if classes != expected:
        return CheckResult(name, "fail",
                           "corner generator has %d classes, expected %d"
                           % (classes, expected))
    return CheckResult(name, "pass",
                       "proj = Dom_2; corner generator maximal 0-orthogonal "
                       "(%d classes)" % expected)
