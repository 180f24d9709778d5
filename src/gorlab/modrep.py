"""Module-category engine over a BasedAlgebra.

Modules are finite dimensional right modules: elements are row vectors and
each algebra basis element acts by right multiplication with a matrix, so
action(b_i) @ action(b_j) = sum_k c^k_ij action(b_k).  Left modules are
handled as right modules over the opposite algebra; the duality D sends a
right module M to the right opposite(A)-module on the transposed matrices.

Maps f: M -> N are stored as dim(M) x dim(N) matrices acting by
v -> v @ F, so composition "f then g" is F @ G.

Submodule and quotient actions need no solve: the basis of a span is kept in
reduced echelon form, so a vector of the span has its coordinates at the
pivot columns, and one matmul checks that the span is action-stable.
Projective covers need no solve either: the unit vectors at the non-pivot
columns of the radical's echelon basis lift a basis of the top, so by
Nakayama's lemma they generate the module minimally.  No injective hull is
built: the hull of m is D of the projective cover of D m, a sum of D(Ae_v)
over the socle vertices v of m, so the cosyzygy of m is D Omega D m.

Modules are kept in graded bases (Auslander-Reiten-Smalo, III.1): each
basis vector lies in one M e_v, so every rho(e_v) is a 0/1 diagonal.
``make_module`` regrades its input; every other construction keeps the
grading.  A Hom space is the kernel of one linear system over the unit maps
that keep the vertices, a block of rows per arrow (:func:`_hom_space`); its
basis is the identity at a set of keys, so the coordinates of a map are its
entries there, checked by one matmul, and endomorphism algebras and the Hom
functor read their structure constants this way.  Likewise e_iA is spanned
by the basis elements b = e_i b of A, so the action of each projective is a
submatrix of that of A_A.

The Nakayama functor nu, the transpose Tr and the AR translate tau all come
from the minimal presentation g: P_1 -> P_0 of a module and the closed form
Hom(e_iA, A) = Ae_i (h -> h(e_i)), valid for any finite-dimensional algebra
(Auslander-Reiten-Smalo, Representation Theory of Artin Algebras, II/IV):
Hom(g, A) is read off the components of g, with no Hom-space solve.

Iso classes of indecomposables are numbered by a :class:`ClassTable`: a
module meets ``iso`` only against the classes in its fingerprint bucket, and
a module is read as the multiset of its summands' class ids, so the
Krull-Schmidt matching of ``iso`` compares multisets.
``iso`` draws nothing: the random stage of ``linalg.search_combinations``
serves only the fallback of ``decompose``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (BasedAlgebra, AlgebraPresentation, validate, opposite,
                      _action_violation)

__all__ = [
    "RightModule",
    "ModuleMap",
    "AlgebraMismatch",
    "make_module",
    "zero_module",
    "regular_module",
    "projectives",
    "simples",
    "injectives",
    "direct_sum",
    "submodule_from_rows",
    "quotient_by_rows",
    "hom_basis",
    "fingerprint",
    "structure",
    "projective_cover",
    "syzygy",
    "cosyzygy",
    "ext_dim",
    "dual",
    "nu",
    "transpose_tr",
    "tau",
    "tau_inv",
    "iso",
    "IsoResult",
    "decompose",
    "ClassTable",
    "iso_classes",
    "min_right_approx",
    "endo_algebra",
    "EndoData",
    "hom_functor",
    "bridge_module",
    "corner_restrict",
    "opp",
]


class AlgebraMismatch(ValueError):
    pass


@dataclass(eq=False)
class RightModule:
    """A right module in a graded basis: every rho(e_v) is a 0/1 diagonal,
    so each basis vector lies in a single m e_v (:func:`_vertices`)."""
    algebra: BasedAlgebra
    dim: int
    action: np.ndarray          # (algebra.dim, dim, dim)
    label: str = ""
    indec_certain: bool | None = None   # set by decompose on its outputs

    def rho(self, x: np.ndarray) -> np.ndarray:
        """Action matrix of an arbitrary algebra element (coordinates x)."""
        return linalg.combine(self.algebra.field, x, self.action)

    def __repr__(self):
        return "RightModule(dim=%d%s)" % (self.dim,
                                          ", %s" % self.label if self.label else "")


@dataclass(eq=False)
class ModuleMap:
    source: RightModule
    target: RightModule
    matrix: np.ndarray          # (source.dim, target.dim), v -> v @ matrix

    def is_iso(self) -> bool:
        return (self.source.dim == self.target.dim
                and linalg.is_invertible(self.source.algebra.field, self.matrix))


def make_module(a: BasedAlgebra, action, label: str = "") -> RightModule:
    """The module with the given action, checked against the structure
    constants.  If some rho(e_v) is not a 0/1 diagonal, it is the isomorphic
    module in the graded basis P, the echelon bases of the m e_v stacked
    over v, with action P rho P^-1."""
    f = a.field
    action = f.check(np.asarray(action, dtype=np.int64))
    dim = action.shape[1] if action.ndim == 3 else 0
    if action.shape != (a.dim, dim, dim):
        raise ValueError("action must be one dim x dim matrix per basis element")
    m = RightModule(a, dim, action, label)
    if not dim:
        return m
    if not np.array_equal(m.rho(a.unit), f.eye(dim)):
        raise ValueError("unit does not act as identity")
    bad = _action_violation(f, a.mult, action)
    if bad is not None:
        raise ValueError("action violates structure constants at (%d,%d)" % bad[1:])
    idems = f.matmul(a.idempotents, action.reshape(a.dim, -1)).reshape(-1, dim, dim)
    if idems[:, ~np.eye(dim, dtype=bool)].any():
        p = np.concatenate([linalg.row_space_basis(f, r) for r in idems])
        p_inv = linalg.solve_raw(f, p, f.eye(dim))
        m.action = f.matmul(_images(f, p, action).reshape(-1, dim),
                            p_inv).reshape(a.dim, dim, dim)
    return m


def zero_module(a: BasedAlgebra) -> RightModule:
    return RightModule(a, 0, np.zeros((a.dim, 0, 0), dtype=np.int64), "0")


def regular_module(a: BasedAlgebra) -> RightModule:
    return RightModule(a, a.dim, a.mult.transpose(1, 0, 2).copy(), "A")


def opp(a: BasedAlgebra) -> BasedAlgebra:
    """Cached opposite algebra; opp(opp(a)) is a itself."""
    def build():
        op = opposite(a)
        op.cache["opp"] = a
        return op
    return a.cached("opp", build)


def direct_sum(mods) -> RightModule:
    """The direct sum, with the summands' bases in order."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum")
    a = mods[0].algebra
    if any(m.algebra is not a for m in mods):
        raise AlgebraMismatch("summands over different algebras")
    total = sum(m.dim for m in mods)
    action = np.zeros((a.dim, total, total), dtype=np.int64)
    pos = 0
    for m in mods:
        action[:, pos:pos + m.dim, pos:pos + m.dim] = m.action
        pos += m.dim
    return RightModule(a, total, action,
                       "+".join(m.label for m in mods) if all(m.label for m in mods) else "")


def _pivots(basis: np.ndarray) -> np.ndarray:
    """Pivot columns of an echelon basis: the first nonzero entry of each row."""
    return (basis != 0).argmax(axis=1) if basis.shape[1] else np.zeros(0, int)


def _images(f, basis: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Stack of basis @ acts[j] for a stack of d x e matrices, as one matmul."""
    k, d, e = acts.shape
    flat = f.matmul(basis, acts.transpose(1, 0, 2).reshape(d, k * e))
    return flat.reshape(len(basis), k, e).transpose(1, 0, 2)


def _restrict(f, basis: np.ndarray, imgs: np.ndarray) -> np.ndarray:
    """Action on the span of a reduced echelon basis, from the images
    imgs[j] = basis @ acts[j], read off at the pivots (basis[:, pivots] = I)
    and checked to lie in the span."""
    k, r, d = imgs.shape
    action = imgs[:, :, _pivots(basis)]
    if r and not np.array_equal(f.matmul(action.reshape(k * r, r), basis),
                                imgs.reshape(k * r, d)):
        raise ValueError("rows do not span an action-stable subspace")
    return action


def submodule_from_rows(m: RightModule, rows, label: str = "") -> tuple:
    """(submodule, inclusion map) on the span of the given row vectors,
    which must be action-stable."""
    f = m.algebra.field
    if m.dim == 0:
        sub = RightModule(m.algebra, 0,
                          np.zeros((m.algebra.dim, 0, 0), dtype=np.int64), label)
        return sub, ModuleMap(sub, m, np.zeros((0, 0), dtype=np.int64))
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, m.dim)
    basis = linalg.row_space_basis(f, rows)
    sub = RightModule(m.algebra, len(basis),
                      _restrict(f, basis, _images(f, basis, m.action)), label)
    return sub, ModuleMap(sub, m, basis)


def quotient_by_rows(m: RightModule, rows, label: str = "") -> tuple:
    """(quotient, projection map) by the action-stable span of rows."""
    f = m.algebra.field
    if m.dim == 0:
        quo = RightModule(m.algebra, 0,
                          np.zeros((m.algebra.dim, 0, 0), dtype=np.int64), label)
        return quo, ModuleMap(m, quo, np.zeros((0, 0), dtype=np.int64))
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, m.dim)
    basis = linalg.row_space_basis(f, rows)
    pivots = _pivots(basis)
    comp = np.delete(np.arange(m.dim), pivots)
    q = len(comp)
    # v = v[pivots] @ basis + w with w[pivots] = 0, so the coset of v has
    # coordinates w[comp] = v[comp] - v[pivots] @ basis[:, comp]
    proj = np.zeros((m.dim, q), dtype=np.int64)
    proj[comp, np.arange(q)] = f.one
    proj[pivots] = f.neg(basis[:, comp])
    # the unit vectors at comp represent the cosets
    action = f.matmul(m.action[:, comp, :].reshape(-1, m.dim), proj)
    quo = RightModule(m.algebra, q, action.reshape(m.algebra.dim, q, q), label)
    return quo, ModuleMap(m, quo, proj)


# ---------------------------------------------------------------------------
# Hom spaces


def _vertices(m: RightModule) -> np.ndarray:
    """The vertex v of each basis vector, which lies in m e_v: the one
    rho(e_v) with a nonzero diagonal entry at its place."""
    a = m.algebra
    return a.field.matmul(a.idempotents, m.action.diagonal(axis1=1, axis2=2)
                          ).argmax(axis=0)


def _arrow_actions(m: RightModule) -> np.ndarray:
    """The stack of rho(alpha) over the arrows alpha, from one matmul."""
    a = m.algebra
    return a.field.matmul(a.arrows, m.action.reshape(a.dim, -1)).reshape(
        len(a.arrows), m.dim, m.dim)


def fingerprint(m: RightModule) -> tuple:
    """(dimension vector, rank of rho(g) per arrow g): both are isomorphism
    invariants, since rho_n(x) = P^-1 rho_m(x) P."""
    a = m.algebra
    return (tuple(np.bincount(_vertices(m), minlength=a.n_idem).tolist()),
            tuple(linalg.rank_raw(a.field, x) for x in _arrow_actions(m)))


def _hom_space(m: RightModule, n: RightModule) -> tuple:
    """(basis, keys): the rows of basis are flattened maps spanning
    Hom_A(m, n), and basis[:, keys] is the identity, so the coordinates of
    a map in this basis are its entries at the keys.

    The e_v are complete orthogonal idempotents, so F commutes with every
    rho(e_v) iff F = sum_v rho_m(e_v) F rho_n(e_v): in graded bases, a span of
    the unit maps E_rs with r and s at one vertex, listed by vertex, then r,
    then s.  With the idempotents the arrows generate A as an algebra, so
    only rho_m(g) F = F rho_n(g) remains: one system (Assem-Simson-Skowronski
    I, III.1) with a block of rows (g, x, y) per arrow g in e_u A e_v, x in
    m e_u, y in n e_v, whose entry at E_rs is
    rho_m(g)[x, r] [y = s] - [x = r] rho_n(g)[s, y].  Its nullspace rows are
    the identity at their last nonzero columns.
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    a = m.algebra
    f = a.field
    vm, vn = _vertices(m), _vertices(n)
    r, s = np.nonzero(vm[:, None] == vn[None, :])
    if len(r) == 0:
        return np.zeros((0, m.dim * n.dim), dtype=np.int64), np.zeros(0, int)
    order = np.argsort(vm[r], kind="stable")
    r, s = r[order], s[order]
    ends = (a.arrows != 0).argmax(axis=1)
    g, x, y = np.nonzero((vm == a.peirce[0][ends][:, None])[:, :, None]
                         & (vn == a.peirce[1][ends][:, None])[:, None, :])
    g, x, y = g[:, None], x[:, None], y[:, None]
    cons = f.sub(np.where(y == s, _arrow_actions(m)[g, x, r], 0),
                 np.where(x == r, _arrow_actions(n)[g, s, y], 0))
    coords = linalg.nullspace(f, cons)
    unit = r * n.dim + s
    basis = np.zeros((len(coords), m.dim * n.dim), dtype=np.int64)
    basis[:, unit] = coords
    return basis, unit[len(unit) - 1 - (coords[:, ::-1] != 0).argmax(axis=1)]


def _coords(f, space: tuple, flats: np.ndarray, what: str) -> np.ndarray:
    """Coordinates of the rows of flats (flattened maps) in the basis of
    space = _hom_space(...), read at its keys and checked by one matmul."""
    basis, keys = space
    coords = flats[:, keys]
    if not np.array_equal(f.matmul(coords, basis), flats):
        raise RuntimeError("%s closure failed" % what)
    return coords


def hom_basis(m: RightModule, n: RightModule) -> list:
    """Basis of the intertwiner space Hom_A(m, n) as ModuleMaps, in the
    order of :func:`_hom_space`."""
    return [ModuleMap(m, n, v.reshape(m.dim, n.dim))
            for v in _hom_space(m, n)[0]]


def hom_dim(m: RightModule, n: RightModule) -> int:
    return len(_hom_space(m, n)[0])


# ---------------------------------------------------------------------------
# Radical / top / socle and covers


@dataclass
class StructureData:
    radical: RightModule
    radical_inclusion: ModuleMap
    top: RightModule
    top_projection: ModuleMap
    socle: RightModule
    socle_inclusion: ModuleMap


def structure(m: RightModule) -> StructureData:
    """rad M = sum of the M*alpha over the arrows alpha, as MJ^k lies in it
    plus MJ^(k+1) and J is nilpotent; soc M is where every rho(alpha) is 0."""
    if m.dim == 0:
        raise ValueError("structure of the zero module")
    acts = _arrow_actions(m)
    rad, rad_inc = submodule_from_rows(m, acts.reshape(-1, m.dim), label="rad")
    top, top_proj = quotient_by_rows(m, rad_inc.matrix, label="top")
    soc_rows = linalg.nullspace(m.algebra.field,
                                acts.transpose(1, 0, 2).reshape(m.dim, -1).T)
    soc, soc_inc = submodule_from_rows(m, soc_rows, label="soc")
    return StructureData(rad, rad_inc, top, top_proj, soc, soc_inc)


def projectives(a: BasedAlgebra) -> tuple:
    """(list of e_iA, regular module).  e_iA is spanned by the basis
    elements b = e_i b, so its action is a submatrix of that of A_A."""
    def build():
        reg = regular_module(a)
        ixs = (np.flatnonzero(a.peirce[0] == i) for i in range(a.n_idem))
        return [RightModule(a, len(ix), reg.action[:, ix][:, :, ix],
                            "e%dA" % i) for i, ix in enumerate(ixs)], reg
    return a.cached("projectives", build)


def _labelled(mods, fmt) -> list:
    for i, m in enumerate(mods):
        m.label = fmt % i
    return mods


def simples(a: BasedAlgebra) -> list:
    return a.cached("simples", lambda: _labelled(
        [structure(p).top for p in projectives(a)[0]], "S%d"))


def injectives(a: BasedAlgebra) -> list:
    """Indecomposable injectives nu(e_iA) = D(Ae_i), socle S_i."""
    return a.cached("injectives", lambda: _labelled(
        [nu(p) for p in projectives(a)[0]], "D(Ae%d)"))


def projective_cover(m: RightModule) -> ModuleMap:
    """Minimal surjection from a projective; kernel lies in its radical.

    The basis vectors gens of m at the non-pivot columns of rad m's echelon
    basis lift a basis of the top, so by Nakayama's lemma they generate m
    minimally (Auslander-Reiten-Smalo, I.3-4)."""
    a = m.algebra
    if m.dim == 0:
        cover = ModuleMap(zero_module(a), m, np.zeros((0, 0), dtype=np.int64))
        cover.summand_idems = []
        return cover
    projs, _ = projectives(a)
    rad = linalg.row_space_basis(a.field, _arrow_actions(m).reshape(-1, m.dim))
    gens = np.delete(np.arange(m.dim), _pivots(rad))
    # gens[t] lies at vertex tv[t] and generates one summand e_iA
    tv = _vertices(m)[gens]
    idems = np.sort(tv).tolist()
    blocks = []
    for i in sorted(set(idems)):
        # e_iA's basis is the b = e_i b of A; the generator v is sent to
        # v * b, the row of rho(b) at v
        imgs = m.action[a.peirce[0] == i][:, gens[tv == i]]
        blocks.append(imgs.transpose(1, 0, 2).reshape(-1, m.dim))
    cover = ModuleMap(direct_sum([projs[i] for i in idems]), m,
                      np.concatenate(blocks))
    cover.summand_idems = idems
    return cover


def dual(m: RightModule) -> RightModule:
    """D(m): right module over the opposite algebra, transposed action."""
    out = RightModule(opp(m.algebra), m.dim,
                      m.action.transpose(0, 2, 1).copy(),
                      "D(%s)" % m.label if m.label else "")
    return out


def dual_map(mp: ModuleMap) -> ModuleMap:
    return ModuleMap(dual(mp.target), dual(mp.source), mp.matrix.T.copy())


def kernel_submodule(mp: ModuleMap) -> tuple:
    f = mp.source.algebra.field
    rows = linalg.nullspace(f, mp.matrix.T)
    return submodule_from_rows(mp.source, rows)


def syzygy(m: RightModule, steps: int = 1) -> RightModule:
    cur = m
    for _ in range(steps):
        if cur.dim == 0:
            return cur
        cur, _ = kernel_submodule(projective_cover(cur))
    return cur


def cosyzygy(m: RightModule, steps: int = 1) -> RightModule:
    """D Omega^steps D m: the injective hull of m is D P(D m)."""
    return dual(syzygy(dual(m), steps))


# ---------------------------------------------------------------------------
# Ext


def ext_dim(m: RightModule, n: RightModule, i: int) -> int:
    """dim Ext^i(m, n) = dim Ext^1(X, n) for X = Omega^(i-1) m.

    For the projective cover 0 -> Omega X -> P -> X -> 0 the long exact
    sequence gives dim Ext^1(X, n) = dim Hom(Omega X, n) - dim Hom(P, n)
    + dim Hom(X, n), and dim Hom(e_jA, n) = dim n e_j.
    """
    if i < 0:
        raise ValueError("negative degree")
    if i == 0:
        return hom_dim(m, n)
    x = syzygy(m, i - 1)
    if x.dim == 0:
        return 0
    cov = projective_cover(x)
    k, _ = kernel_submodule(cov)
    hk = hom_dim(k, n)
    if hk == 0:
        return 0
    hp = int(np.bincount(_vertices(n), minlength=n.algebra.n_idem)
             [cov.summand_idems].sum())
    return hk - hp + hom_dim(x, n)


# ---------------------------------------------------------------------------
# Nakayama functor, transpose, AR translate


def minimal_presentation(m: RightModule):
    """g: P_1 -> P_0 with both covers minimal, and the idempotent index of
    each indecomposable summand of P_1 and of P_0."""
    p = projective_cover(m)
    k, incl = kernel_submodule(p)
    q = projective_cover(k)
    f = m.algebra.field
    g = ModuleMap(q.source, p.source, f.matmul(q.matrix, incl.matrix))
    return g, q.summand_idems, p.summand_idems


def _hom_to_regular(m: RightModule) -> ModuleMap:
    """Hom(g, A): Hom(P_0, A) -> Hom(P_1, A) for the minimal presentation g
    of m, as a map of right opp(A)-modules.

    Hom(e_iA, A) is Ae_i = projectives(opp(a))[i] via h -> h(e_i), and
    precomposition with g sends x in Ae_i to x*y, where y in e_iAe_j is the
    e_iA-component of g(e_j).  Both projectives are spanned by basis
    elements of A, listed in ea[i] and ae[i].
    """
    a = m.algebra
    f = a.field
    op = opp(a)
    g, idems1, idems0 = minimal_presentation(m)
    ea = [np.flatnonzero(a.peirce[0] == i) for i in range(a.n_idem)]
    ae = [np.flatnonzero(op.peirce[0] == i) for i in range(a.n_idem)]

    def offsets(basis, idems):
        return np.cumsum([0] + [len(basis[i]) for i in idems])

    p0, p1 = offsets(ea, idems0), offsets(ea, idems1)     # P_0, P_1
    h0, h1 = offsets(ae, idems0), offsets(ae, idems1)     # Hom(P_0, A), ...
    mat = np.zeros((h0[-1], h1[-1]), dtype=np.int64)
    for t, j in enumerate(idems1):
        e_j = a.idempotents[j][ea[j]]
        gen = f.matmul(e_j[None, :], g.matrix[p1[t]:p1[t + 1]])[0]  # g(e_j)
        for s, i in enumerate(idems0):
            y = np.zeros(a.dim, dtype=np.int64)
            y[ea[i]] = gen[p0[s]:p0[s + 1]]
            mat[h0[s]:h0[s + 1], h1[t]:h1[t + 1]] = \
                a.R(y)[np.ix_(ae[i], ae[j])]
    op_projs, _ = projectives(op)
    src, tgt = (direct_sum([op_projs[i] for i in idems]) if idems
                else zero_module(op) for idems in (idems0, idems1))
    return ModuleMap(src, tgt, mat)


def nu(m: RightModule) -> RightModule:
    """Nakayama functor D Hom(m, A), with Hom(m, A) the kernel of Hom(g, A)
    by left exactness; sends e_iA to D(Ae_i)."""
    k, _ = kernel_submodule(_hom_to_regular(m))
    out = dual(k)
    out.label = "nu(%s)" % m.label if m.label else ""
    return out


def nu_map(m: RightModule):
    """nu of the minimal presentation g: P_1 -> P_0 of m; returns
    (nu(P_1), nu(P_0), nu(g))."""
    ng = dual_map(_hom_to_regular(m))
    return ng.source, ng.target, ng


def transpose_tr(m: RightModule) -> RightModule:
    """Tr(m): cokernel of Hom(g, A) over the opposite algebra."""
    g = _hom_to_regular(m)
    tr, _ = quotient_by_rows(g.target, g.matrix)
    tr.label = "Tr(%s)" % m.label if m.label else ""
    return tr


def tau(m: RightModule) -> RightModule:
    """AR translate: kernel of nu(P_1) -> nu(P_0) from the minimal
    presentation (projective summands of m contribute nothing)."""
    ns, _, ng = nu_map(m)
    if ns.dim == 0:
        return zero_module(m.algebra)
    t, _ = kernel_submodule(ng)
    t.label = "tau(%s)" % m.label if m.label else ""
    return t


def tau_inv(m: RightModule) -> RightModule:
    """Inverse translate Tr D; injective summands contribute nothing.

    Tr over opposite(A) lands back over A via the cached opposite."""
    out = transpose_tr(dual(m))
    out.label = "tau_inv(%s)" % m.label if m.label else ""
    return out


# ---------------------------------------------------------------------------
# Isomorphism and decomposition


@dataclass
class IsoResult:
    """``certain`` is False only when ``decompose`` could not certify a
    summand indecomposable; ``witness`` is set only between indecomposables."""
    isomorphic: bool
    certain: bool
    witness: ModuleMap | None = None

    def __bool__(self):
        return self.isomorphic


def iso(m: RightModule, n: RightModule) -> IsoResult:
    """Isomorphism test.  Between indecomposables the non-isomorphisms form
    the radical, a proper subspace, so a basis of Hom(m, n) holds an
    isomorphism if there is one; other modules are decomposed and the
    multisets of their summands' classes compared (Krull-Schmidt)."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    f = m.algebra.field
    if m.dim != n.dim:
        return IsoResult(False, True)
    if m.dim == 0:
        return IsoResult(True, True,
                         ModuleMap(m, n, np.zeros((0, 0), dtype=np.int64)))
    hb = hom_basis(m, n)
    # between certified indecomposables the basis stage decides on its own
    if not (m.indec_certain and n.indec_certain):
        if len(hb) != hom_dim(n, m):
            return IsoResult(False, True)
        ms, ns = decompose(m), decompose(n)
        if len(ms) > 1 or len(ns) > 1:
            table = ClassTable()
            same = len(ms) == len(ns) and (sorted(map(table.canon, ms))
                                           == sorted(map(table.canon, ns)))
            return IsoResult(same, all(p.indec_certain for p in ms + ns))
    # both sides single modules, flagged by decompose
    for h in hb:
        if linalg.is_invertible(f, h.matrix):
            return IsoResult(True, True, h)
    return IsoResult(False, bool(m.indec_certain and n.indec_certain))


def _fitting_power(f, x):
    """x^(2^e) for the least 2^e >= dim: every power x^n with n >= dim has
    the same kernel and image (Fitting's lemma)."""
    for _ in range((x.shape[0] - 1).bit_length()):
        x = f.matmul(x, x)
    return x


def _nilpotent_part(f, F):
    """F - lambda*id for the scalar lambda that makes it nilpotent, or None
    when there is none (F has no single eigenvalue in f)."""
    for lam in range(f.order):
        nil = f.sub(F, f.mul(lam, f.eye(len(F))))
        if not np.any(_fitting_power(f, nil)):
            return nil
    return None


def _nilpotent_span(f, span, d) -> bool:
    """Whether the span N of the rows (flattened d x d matrices) has N^j = 0;
    exact when N*N lies in N."""
    gens = span.reshape(-1, d, d)
    return linalg.powers_vanish(f, span, lambda power: np.concatenate(
        [f.matmul(power.reshape(-1, d), g).reshape(-1, d * d) for g in gens]))


def _is_local(f, mats) -> bool:
    """Certify E = span(mats) = End(M) local: the nilpotent parts of the
    basis span an N of codimension 1 with N^j = 0, so E/N = f (Lux-Szoke,
    Exp. Math. 16(1), 2007).  Then N*N lies in N: the algebra N generates
    is nilpotent, so it misses 1 and cannot be bigger than N."""
    nils = [_nilpotent_part(f, F) for F in mats]
    if any(n is None for n in nils):
        return False
    d = mats.shape[1]
    span = linalg.row_space_basis(f, np.reshape(nils, (len(nils), d * d)))
    return len(span) == len(mats) - 1 and _nilpotent_span(f, span, d)


def decompose(m: RightModule) -> list:
    """Indecomposable summands, by Fitting splits M = Ker x^n (+) Im x^n:
    on the basis of End(m), then (unless _is_local certifies End(m) local)
    on random and on all combinations, within a budget.  A module that
    decompose has already certified indecomposable is returned as it is."""
    if m.indec_certain:
        return [m]
    if m.dim == 0:
        return []
    f = m.algebra.field
    # a module with simple top (or simple socle) is local (or colocal),
    # hence indecomposable; this avoids the endomorphism search entirely.
    # dim top = dim - rank of the rho(alpha) stacked by rows, dim soc =
    # dim - rank of the rho(alpha) side by side
    acts = _arrow_actions(m)
    if (linalg.rank_raw(f, acts.reshape(-1, m.dim)) == m.dim - 1
            or linalg.rank_raw(f, acts.transpose(1, 0, 2).reshape(m.dim, -1))
            == m.dim - 1):
        m.indec_certain = True
        return [m]
    mats = _hom_space(m, m)[0].reshape(-1, m.dim, m.dim)

    def try_split(coeffs):
        p = _fitting_power(f, linalg.combine(f, coeffs, mats))
        r = linalg.rank_raw(f, p)
        if 0 < r < m.dim:
            a, _ = submodule_from_rows(m, linalg.nullspace(f, p.T))
            b, _ = submodule_from_rows(m, linalg.row_space_basis(f, p))
            return a, b
        return None

    sp, exhausted = linalg.search_combinations(
        f, len(mats), try_split, random_budget=0, exhaustive_limit=0)
    if sp is None and _is_local(f, mats):
        exhausted = True            # End(m) is local: no split exists
    elif sp is None:
        sp, exhausted = linalg.search_combinations(
            f, len(mats), try_split, random_budget=50,
            exhaustive_limit=1 << 16)
    if sp:
        return decompose(sp[0]) + decompose(sp[1])
    m.indec_certain = exhausted   # False: budget spent without a certificate
    return [m]


class ClassTable:
    """Canonical indices for the iso classes of indecomposables over one
    algebra, numbered in the order first seen; ``reps[ci]`` represents
    class ci.

    ``buckets`` groups the class ids by :func:`fingerprint`, an isomorphism
    invariant, so ``iso`` runs only against classes in the module's bucket.
    ``parts(m)`` lists the classes of m's summands, memoised on m's content,
    the pair (algebra, action bytes): equal actions over one algebra are one
    module, not merely isomorphic ones, so a fresh object with a known action
    (a dual, a syzygy) is not decomposed again.  BasedAlgebra hashes by
    identity, so modules over two algebra objects never share an entry.
    """

    def __init__(self):
        self.reps = []
        self.buckets = {}
        self._parts = {}

    def canon(self, m) -> int:
        bucket = self.buckets.setdefault(fingerprint(m), [])
        for i in bucket:
            if iso(m, self.reps[i]):
                return i
        self.reps.append(m)
        bucket.append(len(self.reps) - 1)
        return len(self.reps) - 1

    def label(self, ci: int) -> str:
        r = self.reps[ci]
        return r.label or "class%d(dim %d)" % (ci, r.dim)

    def parts(self, m) -> list:
        key = (m.algebra, m.action.tobytes())
        if key not in self._parts:
            self._parts[key] = [self.canon(p) for p in decompose(m)]
        return self._parts[key]

    def record(self, m, classes: list) -> None:
        """Memoise the classes of m's summands, known without decomposing."""
        self._parts.setdefault((m.algebra, m.action.tobytes()), classes)


def iso_classes(mods) -> list:
    """One indecomposable summand per iso class among the summands of the
    given modules, in the order first seen."""
    table = ClassTable()
    for m in mods:
        table.parts(m)
    return table.reps


# ---------------------------------------------------------------------------
# Approximations


def min_right_approx(addgens, x: RightModule) -> ModuleMap:
    """Minimal right add(⊕addgens)-approximation of x: the projective cover
    of Hom(-, x) restricted to add(⊕addgens) (Auslander-Smalo, Preprojective
    modules over Artin algebras, J. Algebra 66, 1980).

    Let G_t run over the indecomposable summands, one per iso class.  The
    maps G_t -> x through a radical map G_t -> G_s span R_t: the products
    "h then g" with g: G_s -> x, and h any map G_t -> G_s for s != t or h in
    rad End(G_t).  One copy of G_t per basis vector of Hom(G_t, x)/R_t gives
    the approximation, which is right minimal by construction.  Raises
    RuntimeError unless :func:`_is_local` certifies every End(G_t) local
    with residue field f.
    """
    return _approximation(iso_classes(addgens), x)


def _approximation(gens, x: RightModule) -> ModuleMap:
    """:func:`min_right_approx` for gens = iso_classes(addgens)."""
    f = x.algebra.field
    spaces = [_hom_space(g, x) for g in gens]
    mods, maps = [], [np.zeros((0, x.dim), dtype=np.int64)]
    for t, g in enumerate(gens):
        if not len(spaces[t][0]):
            continue
        ends = _hom_space(g, g)[0].reshape(-1, g.dim, g.dim)
        if not _is_local(f, ends):
            raise RuntimeError("endomorphism ring not split local")
        through = [np.zeros((0, g.dim * x.dim), dtype=np.int64)]
        for s, (gs, _) in enumerate(spaces):
            if not len(gs):
                continue
            hs = (np.array([_nilpotent_part(f, F) for F in ends]) if s == t
                  else _hom_space(g, gens[s])[0].reshape(-1, g.dim, gens[s].dim))
            if len(hs):
                # prods[j] stacks h_i @ g_j over i
                prods = _images(f, hs.reshape(-1, gens[s].dim),
                                gs.reshape(-1, gens[s].dim, x.dim))
                through.append(prods.reshape(-1, g.dim * x.dim))
        coords = _coords(f, spaces[t], np.concatenate(through), "approximation")
        free = np.delete(np.arange(len(spaces[t][0])),
                         linalg.row_echelon(f, coords)[1])
        mods += [g] * len(free)
        maps.append(spaces[t][0][free].reshape(-1, x.dim))
    src = direct_sum(mods) if mods else zero_module(x.algebra)
    return ModuleMap(src, x, np.concatenate(maps))


# ---------------------------------------------------------------------------
# Endomorphism algebras


@dataclass
class EndoData:
    algebra: BasedAlgebra
    summands: list                 # pairwise non-isomorphic indecomposables
    block_index: dict              # (i, j) -> list of basis positions
    block_maps: dict               # (i, j) -> stack of map matrices X_i -> X_j


def endo_algebra(summands) -> EndoData:
    """End(⊕X_i) as a based algebra; multiplication f*g = "g then f".

    Block (i, j) of the basis is the basis of Hom(X_i, X_j) from
    :func:`_hom_space`, so the coordinates of a map X_i -> X_j are its
    entries at that block's keys."""
    mods = iso_classes(summands)
    a = mods[0].algebra
    f = a.field
    spaces = {(i, j): _hom_space(X, Y)
              for i, X in enumerate(mods) for j, Y in enumerate(mods)}
    block_index = {}
    block_maps = {}
    n = 0
    for (i, j), (basis, _) in spaces.items():
        block_index[(i, j)] = list(range(n, n + len(basis)))
        block_maps[(i, j)] = basis.reshape(-1, mods[i].dim, mods[j].dim)
        n += len(basis)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for k, i, j in itertools.product(range(len(mods)), repeat=3):
        # products F*G = "G then F" for F: X_i -> X_j and G: X_k -> X_i;
        # prods[p, q] = G_q @ F_p
        fs, gs = block_maps[(i, j)], block_maps[(k, i)]
        if not (len(fs) and len(gs)):
            continue
        prods = _images(f, gs.reshape(-1, mods[i].dim), fs)
        coords = _coords(f, spaces[(k, j)],
                         prods.reshape(len(fs) * len(gs), -1), "hom block")
        mult[np.ix_(block_index[(i, j)], block_index[(k, i)],
                    block_index[(k, j)])] = coords.reshape(len(fs), len(gs), -1)
    idem = np.zeros((len(mods), n), dtype=np.int64)
    for i, X in enumerate(mods):
        idem[i, block_index[(i, i)]] = _coords(
            f, spaces[(i, i)], f.eye(X.dim).reshape(1, -1), "hom block")[0]
    unit = idem.sum(axis=0)         # the idempotents have disjoint supports
    radgens = [np.zeros((0, n), dtype=np.int64)]
    for (i, j), positions in block_index.items():
        if i != j:
            radgens.append(f.eye(n)[positions])
            continue
        nils = [_nilpotent_part(f, F) for F in block_maps[(i, j)]]
        if any(nil is None for nil in nils):
            raise RuntimeError("endomorphism ring not local")
        nils = [nil.ravel() for nil in nils if np.any(nil)]
        if nils:
            rows = np.zeros((len(nils), n), dtype=np.int64)
            rows[:, positions] = _coords(f, spaces[(i, i)], np.array(nils),
                                         "hom block")
            radgens.append(rows)
    labels = ["f%d_%d_%d" % (i, j, pos)
              for (i, j), positions in block_index.items() for pos in positions]
    pres = AlgebraPresentation(f, labels, mult, unit, idem,
                               np.concatenate(radgens))
    B = validate(pres)
    return EndoData(B, mods, block_index, block_maps)


def hom_functor(endo: EndoData, n: RightModule) -> RightModule:
    """Hom_A(⊕X_i, n) as a right module over End(⊕X_i)."""
    B = endo.algebra
    f = B.field
    spaces = [_hom_space(X, n) for X in endo.summands]
    offs = np.cumsum([0] + [len(basis) for basis, _ in spaces])
    action = np.zeros((B.dim, offs[-1], offs[-1]), dtype=np.int64)
    # B basis element pos is a map Phi: X_i -> X_j; (h . Phi) = "Phi then h"
    for (i, j), phis in endo.block_maps.items():
        hs = spaces[j][0].reshape(-1, endo.summands[j].dim, n.dim)
        if not (len(phis) and len(hs)):
            continue
        # imgs[t, b] = Phi_b @ h_t
        imgs = _images(f, phis.reshape(-1, endo.summands[j].dim), hs)
        coords = _coords(f, spaces[i], imgs.reshape(len(hs) * len(phis), -1),
                         "hom functor")
        action[np.ix_(endo.block_index[(i, j)], np.arange(offs[j], offs[j + 1]),
                      np.arange(offs[i], offs[i + 1]))] = \
            coords.reshape(len(hs), len(phis), -1).transpose(1, 0, 2)
    return RightModule(B, int(offs[-1]), action,
                       "Hom(X,%s)" % n.label if n.label else "")


def corner_restrict(corner, x: RightModule) -> RightModule:
    """x*e as a right module over the corner algebra eAe: the action of
    eAe's basis (at the pivots of basis_rows) on x's selected vertices."""
    if x.algebra is not corner.parent:
        raise AlgebraMismatch("module is not over the corner's parent algebra")
    keep = np.isin(_vertices(x), corner.idem_subset)
    action = x.action[_pivots(corner.basis_rows)][:, keep][:, :, keep]
    return RightModule(corner.algebra, int(keep.sum()), action,
                       "%s*e" % x.label if x.label else "")


def bridge_module(a: BasedAlgebra, i: int, k: int) -> RightModule:
    """Realise the Nakayama module e_iA/e_iJ^k over a from_kupisch algebra."""
    bridge = a.nak_bridge
    if bridge is None:
        raise ValueError("algebra was not built by from_kupisch")
    series = bridge["series"]
    index = bridge["path_index"]
    f = a.field
    projs, _ = projectives(a)
    p = projs[i]
    if k == series.c[i]:
        return p
    # e_iJ^k is spanned by the paths from i of length >= k
    rows = []
    for t in range(k, series.c[i]):
        v = np.zeros(a.dim, dtype=np.int64)
        v[index[(i, t)]] = f.one
        # coordinates inside e_iA
        rows.append(v)
    # express in p's basis, the basis elements b = e_i b of A
    coords = np.array(rows)[:, np.flatnonzero(a.peirce[0] == i)]
    quo, _ = quotient_by_rows(p, coords, label="e%dA/e%dJ^%d" % (i, i, k))
    return quo
