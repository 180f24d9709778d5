"""Finite-dimensional based algebras: construction and validation.

An algebra is given concretely by a basis, structure constants, a unit, a
complete set of pairwise orthogonal primitive idempotents and a generating
set of its Jacobson radical J, from which ``validate`` chooses the arrows, a
lift of a basis of J/J^2 that generates the algebra with the idempotents.
Builders are provided for bound-quiver presentations (normal paths by
elimination) and for Nakayama algebras given by a Kupisch series.

Every basis is graded: each basis element lies in one e_u A e_v, so every
L(e_u) and R(e_v) is a 0/1 diagonal; ``validate`` checks this.

Convention: module elements are row vectors of coordinates, and every
linear map acts by right multiplication.  For an element x of the algebra,
``L(x)`` is the matrix of left multiplication by x (v -> coords of x*v) and
``R(x)`` the matrix of right multiplication (v -> coords of v*x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .linalg import FieldSpec
from . import nakayama as nak

__all__ = [
    "AlgebraPresentation",
    "BasedAlgebra",
    "QuiverPresentation",
    "ValidationError",
    "NotFiniteDimensional",
    "validate",
    "from_quiver",
    "from_kupisch",
    "opposite",
    "is_symmetric",
    "corner_algebra",
    "CornerData",
]


class ValidationError(ValueError):
    """A presentation axiom failed; ``code`` and ``witness`` locate it."""

    def __init__(self, code: str, witness=None, message: str = ""):
        self.code = code
        self.witness = witness
        super().__init__("%s%s%s" % (code, " at %r" % (witness,) if witness is not None else "",
                                     ": " + message if message else ""))


class NotFiniteDimensional(RuntimeError):
    pass


@dataclass
class AlgebraPresentation:
    field: FieldSpec
    basis_labels: list
    mult: np.ndarray          # shape (n, n, n); mult[i, j] = coords of b_i * b_j
    unit: np.ndarray          # shape (n,)
    idempotents: np.ndarray   # shape (k, n)
    radical_generators: np.ndarray  # shape (r, n)

    def __post_init__(self):
        n = len(self.basis_labels)
        self.mult = self.field.check(np.asarray(self.mult, dtype=np.int64))
        self.unit = self.field.check(np.asarray(self.unit, dtype=np.int64))
        self.idempotents = self.field.check(
            np.asarray(self.idempotents, dtype=np.int64).reshape(-1, n))
        self.radical_generators = self.field.check(
            np.asarray(self.radical_generators, dtype=np.int64).reshape(-1, n))
        if self.mult.shape != (n, n, n) or self.unit.shape != (n,):
            raise ValidationError("BadShape", None, "structure constant dimensions")


class BasedAlgebra:
    """A validated presentation with derived caches.

    Not built directly; use :func:`validate` or one of the builders, or
    :func:`opposite`, which derives its data from a validated algebra.

    Basis element j lies in e_u A e_v for u, v = ``peirce[0][j], peirce[1][j]``.
    ``arrows`` is a homogeneous lift of a basis of J/J^2, chosen by
    :func:`validate` from the presented generators; ``jacobson_basis`` spans J.

    Data built once per algebra is kept in ``cache``, through :meth:`cached`
    only, under the keys ``"opp"`` (the opposite algebra, stored both ways
    so that ``modrep.opp(modrep.opp(a)) is a``), ``"projectives"`` (the e_iA
    and A_A), ``"simples"``, ``"injectives"``, ``"symmetric"``
    (:func:`is_symmetric`), ``"dim_engine"`` (the dimension engine of
    ``invariants``) and ``"projinj_corner"`` (the corner on the e_i with
    e_iA injective, or None).
    """

    def __init__(self, pres: AlgebraPresentation, *, _token=None):
        if _token is not _VALIDATED:
            raise TypeError("use validate() to build a BasedAlgebra")
        self.pres = pres
        self.field = pres.field
        self.dim = len(pres.basis_labels)
        self.basis_labels = list(pres.basis_labels)
        self.mult = pres.mult
        self.unit = pres.unit
        self.idempotents = pres.idempotents
        self.n_idem = pres.idempotents.shape[0]
        # filled during validation
        self.jacobson_basis = None   # rows spanning the radical ideal
        self.arrows = None           # homogeneous lift of a basis of J/J^2
        self.peirce = None           # (left, right) vertex of each basis element
        self.cartan = None           # integer matrix, entry (i,j) = dim e_i A e_j
        self.nak_bridge = None       # set by from_kupisch
        self.cache = {}

    def cached(self, key, build):
        """The cache entry under key; build() makes it on first use only."""
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    # -- element arithmetic ------------------------------------------------

    def L(self, x: np.ndarray) -> np.ndarray:
        """Left multiplication matrix of the element with coordinates x."""
        return linalg.combine(self.field, x, self.mult)

    def R(self, x: np.ndarray) -> np.ndarray:
        return linalg.combine(self.field, x, self.mult.transpose(1, 0, 2))

    def __repr__(self):
        return "BasedAlgebra(dim=%d, idem=%d, %r)" % (self.dim, self.n_idem, self.field)


_VALIDATED = object()


def validate(pres: AlgebraPresentation) -> BasedAlgebra:
    """Check all presentation axioms; return the algebra with
    ``jacobson_basis``, ``peirce``, ``arrows`` and ``cartan`` set.  The
    ``cache`` starts empty and fills on use.

    Connectedness is not checked: it is an assumption of the theory, not of
    well-formedness, and a semisimple algebra (J = 0) is accepted too.
    """
    f = pres.field
    n = len(pres.basis_labels)
    alg = BasedAlgebra(pres, _token=_VALIDATED)

    # associativity: the right regular action respects mult; row i of
    # R(b_j) R(b_k) is (b_i b_j) b_k, that of R(b_j b_k) is b_i (b_j b_k)
    witness = _action_violation(f, pres.mult, pres.mult.transpose(1, 0, 2))
    if witness is not None:
        raise ValidationError("NonAssociative", witness)

    if not (np.array_equal(alg.L(pres.unit), f.eye(n))
            and np.array_equal(alg.R(pres.unit), f.eye(n))):
        raise ValidationError("BadUnit")

    idem = pres.idempotents
    k = idem.shape[0]
    # rights stacks the R(e_b); e_a times that stack gives prods[a, b] = e_a e_b
    rights = f.matmul(idem, pres.mult.transpose(1, 0, 2).reshape(n, n * n))
    prods = f.matmul(idem, rights.reshape(k, n, n).transpose(1, 0, 2).reshape(n, k * n))
    want = np.where(np.eye(k, dtype=bool)[:, :, None], idem[:, None, :], 0)
    bad = np.argwhere((prods.reshape(k, k, n) != want).any(axis=2))
    if len(bad):
        raise ValidationError("BadIdempotents", tuple(int(x) for x in bad[0]))
    if not np.array_equal(linalg.combine(f, np.full(k, f.one), idem), pres.unit):
        raise ValidationError("BadIdempotents", None, "idempotents do not sum to the unit")

    jac = _ideal_closure(alg, pres.radical_generators)
    if jac.shape[0] and linalg.in_row_space(f, jac, pres.unit):
        raise ValidationError("RadicalNotIdeal", None, "radical ideal contains the unit")
    # column block x of left is L(jac[x]): times(P) stacks the jac[x] * y, y in P
    left = f.matmul(jac, pres.mult.reshape(n, -1)).reshape(-1, n, n)
    left = left.transpose(1, 0, 2).reshape(n, -1)

    def times(power):
        return f.matmul(power, left).reshape(-1, n)
    if not linalg.powers_vanish(f, jac, times):
        raise ValidationError("RadicalNotNilpotent")
    # elementary semisimple quotient: A = span(e_i) + J with independent images
    if k + jac.shape[0] != n or linalg.rank_raw(f, np.concatenate([idem, jac])) != n:
        raise ValidationError("QuotientNotSemisimple",
                              (k, int(jac.shape[0]), n))
    alg.jacobson_basis = jac

    alg.peirce = _peirce(alg)
    alg.arrows = _arrows(alg, linalg.row_space_basis(f, times(jac)))
    cart = np.zeros((k, k), dtype=np.int64)
    np.add.at(cart, alg.peirce, 1)
    alg.cartan = cart
    return alg


def _peirce(alg) -> tuple:
    """(left, right) vertex of each basis element b_j, or NotGraded at the
    first b_j with some e_u b_j or b_j e_u not a multiple c b_j.  Then
    c^2 = c is 0 or 1, and exactly one of the e_u gives 1 on each side."""
    f, n = alg.field, alg.dim
    # row j of each product: e_u b_j, row n + j: b_j e_u
    rows, cols = np.arange(2 * n), np.arange(2 * n) % n
    both = np.concatenate([alg.mult, alg.mult.transpose(1, 0, 2)], axis=1)
    acts = f.matmul(alg.idempotents, both.reshape(n, -1)).reshape(-1, 2 * n, n)
    diag = acts[:, rows, cols]
    acts[:, rows, cols] = 0
    bad = np.flatnonzero(acts.any(axis=(0, 2))) % n
    if len(bad):
        raise ValidationError("NotGraded", int(bad.min()))
    vertex = diag.argmax(axis=0)
    return vertex[:n], vertex[n:]


def _arrows(alg, square) -> np.ndarray:
    """The Peirce pieces e_u g e_v (g at the basis of one e_u A e_v) of the
    generators g outside the span of J^2 (rows of square) and the pieces
    before them.  AgA lies in span(e_u g e_v) + J^2, so they lift a basis of
    J/J^2 (Auslander-Reiten-Smalo, III.1)."""
    cell = alg.peirce[0] * alg.n_idem + alg.peirce[1]
    pieces = np.array([g * (cell == c) for g in alg.pres.radical_generators
                       for c in sorted(set(cell[g != 0].tolist()))],
                      dtype=np.int64).reshape(-1, alg.dim)
    _, pivots = linalg.row_echelon(alg.field, np.concatenate([square, pieces]).T)
    return pieces[[p - len(square) for p in pivots if p >= len(square)]]


def _action_violation(f: FieldSpec, mult: np.ndarray, action: np.ndarray):
    """First (x, i, j) where row x of rho(b_i) rho(b_j) differs from row x
    of rho(b_i b_j), for the stack action[i] = rho(b_i) of d x d matrices
    and the structure constants mult; None if the action respects mult.

    One pair of products per b_i: rho(b_i) times all rho(b_j) side by side
    (d x n*d), and mult[i] times the stack (n x d*d).  Only the nonzero rows
    enter them, the x with x b_i != 0 and the j with b_i b_j != 0; the zero
    rows stay zero in the full (n, d, d) arrays that are compared.  The cost
    is (A + M) * n * d^2 multiply-adds, for A <= n * d and M <= n^2 the
    nonzero rows of all rho(b_i) and of all mult[i]; dense products would
    take A = n * d and M = n^2.  The n^2 * d^2 tensor of all products is
    never formed."""
    n, d = action.shape[:2]
    beside = action.transpose(1, 0, 2).reshape(d, n * d)
    flat = action.reshape(n, d * d)
    act_rows, mult_rows = action.any(axis=2), mult.any(axis=2)
    for i in range(n):
        lhs = np.zeros((d, n * d), dtype=np.int64)
        lhs[act_rows[i]] = f.matmul(action[i][act_rows[i]], beside)
        rhs = np.zeros((n, d * d), dtype=np.int64)
        rhs[mult_rows[i]] = f.matmul(mult[i][mult_rows[i]], flat)
        bad = np.argwhere((lhs.reshape(d, n, d).transpose(1, 0, 2)
                           != rhs.reshape(n, d, d)).any(axis=2))
        if len(bad):
            j, x = bad[0]
            return int(x), i, int(j)
    return None


def _ideal_closure(alg, rows) -> np.ndarray:
    """Row basis of the two-sided ideal generated by the given elements."""
    f, n = alg.field, alg.dim
    # basis @ sides[0] stacks the products x * b_j, basis @ sides[1] the b_j * x
    sides = [alg.mult.reshape(n, -1), alg.mult.transpose(1, 0, 2).reshape(n, -1)]
    basis = linalg.row_space_basis(f, rows)
    while True:
        prev = basis.shape[0]
        if prev == 0:
            return basis
        basis = linalg.row_space_basis(f, np.concatenate(
            [basis] + [f.matmul(basis, s).reshape(-1, n) for s in sides]))
        if basis.shape[0] == prev:
            return basis


# ---------------------------------------------------------------------------
# Bound quiver presentations


@dataclass
class QuiverPresentation:
    """A quiver with admissible relations.

    Paths are written left to right (a path p followed by q is pq), as
    tuples of arrow indices; the empty path at a vertex is ('v', index).
    Relations are lists of (coefficient code, path) pairs of parallel paths
    of length >= 2.
    """

    vertices: list
    arrows: list                      # (source, target, label)
    relations: list

    def source(self, path):
        if path[0] == "v":
            return path[1]
        return self.arrows[path[0]][0]

    def target(self, path):
        if path[0] == "v":
            return path[1]
        return self.arrows[path[-1]][1]

    def check_admissible(self):
        for rel in self.relations:
            if not rel:
                raise ValidationError("BadRelation", rel, "empty relation")
            srcs = {self.source(p) for _, p in rel}
            tgts = {self.target(p) for _, p in rel}
            if len(srcs) != 1 or len(tgts) != 1:
                raise ValidationError("BadRelation", rel, "paths not parallel")
            for _, p in rel:
                if p[0] == "v" or len(p) < 2:
                    raise ValidationError("BadRelation", rel, "path of length < 2")


_MAX_PATH_LEN = 64


def _path_key(q: QuiverPresentation, path):
    return (len(path), tuple(q.arrows[a][2] for a in path))


def _normal_forms(q: QuiverPresentation, field: FieldSpec):
    """(normal, forms): the normal paths, and the normal form of every
    nontrivial path of length <= L as coordinates over them; longer paths
    lie in the ideal.

    Modulo J^(L+1), the ideal is spanned by the products p r s of each
    relation r with paths p and s, cut off at length L.  With the paths
    ordered largest first, the pivots of one reduced echelon are the leading
    paths, the other columns are the normal paths, and each row gives the
    normal form of its pivot.  At the first L where every path of length L
    is a row on its own, J^L lies in the ideal, because the ideal is
    admissible and so contains some J^m.
    """
    rels = []
    for rel in q.relations:
        combo = {}
        for c, p in rel:
            combo[tuple(p)] = int(field.add(combo.get(tuple(p), 0), c))
        rels.append((q.source(rel[0][1]), q.target(rel[0][1]),
                     min(len(p) for _, p in rel), combo))
    levels = [[(a,) for a in range(len(q.arrows))]]
    for L in range(2, _MAX_PATH_LEN + 1):
        levels.append([p + (a,) for p in levels[-1]
                       for a, (s, _, _) in enumerate(q.arrows) if s == q.target(p)])
        paths = sorted(itertools.chain(*levels), key=lambda p: _path_key(q, p),
                       reverse=True)
        col = {p: c for c, p in enumerate(paths)}
        rows = []
        for src, tgt, low, combo in rels:
            for p in [()] + [u for u in paths
                             if len(u) <= L - low and q.target(u) == src]:
                for s in [()] + [u for u in paths
                                 if len(u) <= L - low - len(p) and q.source(u) == tgt]:
                    row = np.zeros(len(paths), dtype=np.int64)
                    for t, c in combo.items():
                        if len(p) + len(t) + len(s) <= L:
                            row[col[p + t + s]] = c
                    rows.append(row)
        red, pivots = linalg.row_echelon(
            field, np.reshape(rows, (len(rows), len(paths))))
        top = len(levels[-1])   # the paths of length L come first
        if pivots[:top] == list(range(top)) and not red[:top, top:].any():
            normal = np.delete(np.arange(len(paths)), pivots)
            nf = np.zeros((len(paths), len(normal)), dtype=np.int64)
            nf[normal, np.arange(len(normal))] = field.one
            nf[pivots] = field.neg(red[:len(pivots), normal])
            return [paths[c] for c in normal], dict(zip(paths, nf))
    raise NotFiniteDimensional(_MAX_PATH_LEN)


def from_quiver(q: QuiverPresentation, field: FieldSpec) -> AlgebraPresentation:
    """Bound quiver algebra kQ/I as a based presentation, for an admissible
    ideal I.

    The basis consists of the trivial paths and the normal paths, the
    standard monomials of I for the order by length, then arrow labels
    (Green, Noncommutative Groebner bases and projective resolutions, 1999),
    found by one elimination per length bound (:func:`_normal_forms`).
    Raises NotFiniteDimensional if no J^L with L <= 64 lies in I.  For an I
    that contains no power of J, such as (x^2 - x^3) on a loop, the result
    is the quotient by I + J^(L+1) at the first L that passes, here k[x]/(x^2).
    """
    q.check_admissible()
    normal, forms = _normal_forms(q, field)
    paths = [("v", i) for i in range(len(q.vertices))] + normal
    paths.sort(key=lambda p: (q.source(p), len(p) if p[0] != "v" else 0,
                              _path_key(q, p) if p[0] != "v" else (0, ())))
    index = {p: i for i, p in enumerate(paths)}
    to_basis = [index[p] for p in normal]
    n = len(paths)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for p in paths:
        for r in paths:
            if q.target(p) != q.source(r):
                continue
            if p[0] == "v" or r[0] == "v":
                word = r if p[0] == "v" else p
                mult[index[p], index[r], index[word]] = field.one
            elif p + r in forms:
                mult[index[p], index[r], to_basis] = forms[p + r]
    idem = field.eye(n)[[index[("v", i)] for i in range(len(q.vertices))]]
    radgens = field.eye(n)[[index[(a,)] for a in range(len(q.arrows))]]
    labels = ["e%s" % q.vertices[p[1]] if p[0] == "v"
              else "".join(q.arrows[a][2] for a in p) for p in paths]
    return AlgebraPresentation(field, labels, mult, idem.sum(axis=0), idem, radgens)


# ---------------------------------------------------------------------------
# Nakayama algebras from Kupisch series


def from_kupisch(series, field: FieldSpec) -> BasedAlgebra:
    """Based algebra of the connected Nakayama algebra with the given series.

    Basis paths are pairs (start vertex i, length t) with t < c_i; the
    returned algebra carries a ``nak_bridge`` attribute mapping those pairs
    to basis indices, which modrep uses to realise Nakayama modules.
    """
    if not isinstance(series, nak.NakAlgebra):
        raise TypeError("expected a NakAlgebra from nakayama.validate_kupisch")
    n_v = series.n
    c = series.c
    cyclic = series.cyclic
    paths = [(i, t) for i in range(n_v) for t in range(c[i])]
    index = {p: k for k, p in enumerate(paths)}
    n = len(paths)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for (i, t) in paths:
        end = (i + t) % n_v if cyclic else i + t
        # c[end] >= c[i] - t for a Kupisch series, so each (end, s) is a path
        for s in range(c[i] - t):
            mult[index[(i, t)], index[(end, s)], index[(i, t + s)]] = field.one
    idem = field.eye(n)[[index[(i, 0)] for i in range(n_v)]]
    arrows = field.eye(n)[[index[(i, 1)] for i in range(n_v) if c[i] >= 2]]
    labels = ["p%d.%d" % p for p in paths]
    pres = AlgebraPresentation(field, labels, mult, idem.sum(axis=0), idem, arrows)
    alg = validate(pres)
    alg.nak_bridge = {"series": series, "path_index": index}
    return alg


# ---------------------------------------------------------------------------
# Derived constructions


def opposite(a: BasedAlgebra) -> BasedAlgebra:
    """Same basis, transposed structure constants; an involution.

    Every axiom of A^op is one of A read the other way, so nothing is
    re-validated: associativity, the unit and the idempotents carry over;
    J(A^op) is the same two-sided nilpotent ideal (the same reduced rows),
    and J^2 the same set, so the arrows are a's; e_u A^op e_v = e_v A e_u
    swaps the Peirce vertices and transposes the Cartan matrix."""
    op = BasedAlgebra(AlgebraPresentation(
        a.field, list(a.basis_labels), a.mult.transpose(1, 0, 2).copy(),
        a.unit.copy(), a.idempotents.copy(), a.arrows.copy()), _token=_VALIDATED)
    op.jacobson_basis, op.arrows = a.jacobson_basis, a.arrows
    op.peirce, op.cartan = (a.peirce[1], a.peirce[0]), a.cartan.T
    return op


def is_symmetric(a: BasedAlgebra) -> bool:
    """Whether a has a nondegenerate central linear form.

    A central form is nondegenerate iff its kernel contains no minimal right
    ideal (Skowronski-Yamagata, Frobenius Algebras I, EMS 2011, IV.2).  As a
    is elementary, some central form is nondegenerate iff every
    soc(e_iA) = {x in e_iA : xJ = 0} is spanned by one s_i and some central
    form is nonzero on every s_i.  A central form vanishes on e_iAe_j for
    i != j, so the second condition also forces the Nakayama permutation to
    be the identity.  The value vectors (lambda(s_i))_i form a space of
    dimension at most ``n_idem``, which is searched exhaustively.
    """
    return a.cached("symmetric", lambda: _socle_test(a))


def _socle_test(a: BasedAlgebra) -> bool:
    f = a.field
    n = a.dim
    # soc(A_A) = {x : xJ = 0} is a two-sided ideal, so soc(e_iA) = e_i soc(A_A);
    # J is spanned by products of arrows, so xJ = 0 iff x kills every arrow
    soc = (linalg.nullspace(f, np.concatenate([a.R(g) for g in a.arrows], axis=1).T)
           if len(a.arrows) else f.eye(n))
    socles = []
    for e in a.idempotents:
        s = linalg.row_space_basis(f, f.matmul(soc, a.L(e)))
        if len(s) != 1:
            return False
        socles.append(s[0])
    commutators = f.sub(a.mult, a.mult.transpose(1, 0, 2)).reshape(-1, n)
    central = linalg.nullspace(f, commutators)
    values = linalg.row_space_basis(f, f.matmul(central, np.array(socles).T))
    hit, _ = linalg.search_combinations(
        f, len(values),
        lambda c: c if linalg.combine(f, c, values).all() else None,
        random_budget=0, exhaustive_limit=f.order ** len(values))
    return hit is not None


@dataclass
class CornerData:
    algebra: BasedAlgebra
    parent: BasedAlgebra
    idem_subset: tuple
    basis_rows: np.ndarray   # corner basis as elements of the parent


def corner_algebra(a: BasedAlgebra, idem_subset) -> CornerData:
    """The algebra eAe for e the sum of the selected idempotents: the span
    of the basis elements in the e_u A e_v with u, v selected."""
    sel = sorted(set(idem_subset))
    if not sel:
        raise ValidationError("BadIdempotents", sel, "empty idempotent subset")
    f = a.field
    left, right = a.peirce
    idx = np.flatnonzero(np.isin(left, sel) & np.isin(right, sel))
    # each e_u lies in e_u A e_u, so e = sum of the selected e_u is unit[idx]
    pres = AlgebraPresentation(
        f, ["c%d" % i for i in range(len(idx))], a.mult[np.ix_(idx, idx, idx)],
        a.unit[idx], a.idempotents[sel][:, idx],
        linalg.row_space_basis(f, a.jacobson_basis[:, idx]))
    return CornerData(validate(pres), a, tuple(sel), f.eye(a.dim)[idx])
