"""Exact linear algebra over small finite fields.

Field elements are represented by integer codes.  For a prime field F_p the
codes are 0..p-1 with modular arithmetic; for a table field the codes index
the addition/multiplication tables.  All matrix routines take an explicit
field and 2-D numpy arrays of codes, and are pure functions:
``nullspace``, ``row_space_basis``, ``solve_raw`` and ``rank_raw`` are built
on ``row_echelon``.  It has two kernels, chosen by the matrix size alone: up
to ``LIST_KERNEL_MAX_CELLS`` cells it reduces Python lists of codes with the
fields' row operations (``_scale_row``, ``_sub_multiple``), above that numpy
arrays; the reduced form is unique, so the kernel never changes a result.
``rank_raw`` and ``nullspace`` call the list kernel themselves, without
rebuilding the array.
``combine`` forms a linear combination of a stack of arrays (one matmul), and
``search_combinations`` is the bounded search for a coefficient vector whose
combination passes a test (a Fitting split, a central form that is nonzero
on every socle); its random stage serves only ``modrep.decompose`` and
draws from a fixed generator, so every result is reproducible.  ``powers_vanish`` decides
whether a span of algebra elements (rows) generates a nilpotent algebra.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "FieldSpec",
    "PrimeField",
    "SmallTableField",
    "GF4",
    "FieldError",
    "row_echelon",
    "nullspace",
    "row_space_basis",
    "solve_raw",
    "in_row_space",
    "is_invertible",
    "rank_raw",
    "combine",
    "search_combinations",
    "powers_vanish",
]


class FieldError(ValueError):
    """Malformed field data or entries outside the field."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Common interface: arithmetic on integer-coded elements.

    Subclasses provide vectorised ``add``/``sub``/``mul``/``neg`` on numpy
    arrays (or scalars), scalar inversion, ``_matmul``, the product that
    ``matmul`` calls after its shape check, and the two row operations of
    the list kernel on Python lists of codes: ``_scale_row(row, c)`` is
    c * row and ``_sub_multiple(row, c, piv)`` is row - c * piv.
    """

    order: int
    one: int  # code of the multiplicative unit; zero is always code 0

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, x: int) -> int:
        raise NotImplementedError

    # -- derived helpers -------------------------------------------------

    def check(self, a) -> np.ndarray:
        arr = np.asarray(a, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise FieldError("entry outside the field of order %d" % self.order)
        return arr

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise FieldError("matmul shape mismatch %s @ %s" % (a.shape, b.shape))
        return self._matmul(a, b)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        m = self.zeros(n, n)
        np.fill_diagonal(m, self.one)
        return m


class PrimeField(FieldSpec):
    def __init__(self, p: int):
        if p > 1 << 16:
            raise FieldError("prime too large: %d" % p)
        if not _is_prime(p):
            raise FieldError("%d is not prime" % p)
        self.p = p
        self.order = p
        self.one = 1 % p

    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p

    def neg(self, a):
        return (-np.asarray(a, dtype=np.int64)) % self.p

    def inv(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(x, self.p - 2, self.p)

    def _matmul(self, a, b):
        # products bounded by p^2 * inner-dim, far below int64 overflow
        return (a @ b) % self.p

    def _scale_row(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def _sub_multiple(self, row, c, piv):
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, piv)]

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class SmallTableField(FieldSpec):
    """Finite field given by explicit addition and multiplication tables."""

    MAX_ORDER = 64

    def __init__(self, order: int, add_table, mul_table):
        if order < 2 or order > self.MAX_ORDER:
            raise FieldError("table field order must be in 2..%d" % self.MAX_ORDER)
        self.order = order
        self._add = np.asarray(add_table, dtype=np.int64)
        self._mul = np.asarray(mul_table, dtype=np.int64)
        if self._add.shape != (order, order) or self._mul.shape != (order, order):
            raise FieldError("tables must be order x order")
        self._validate_axioms()
        one_candidates = [
            x for x in range(order) if np.array_equal(self._mul[x], np.arange(order))
        ]
        self.one = one_candidates[0]
        self._neg = np.array(
            [int(np.where(self._add[x] == 0)[0][0]) for x in range(order)],
            dtype=np.int64,
        )
        self._inv = np.zeros(order, dtype=np.int64)
        for x in range(1, order):
            hits = np.where(self._mul[x] == self.one)[0]
            self._inv[x] = int(hits[0])
        rng = np.arange(order)
        self._add_is_xor = np.array_equal(self._add, rng[:, None] ^ rng[None, :])
        self._add_rows = self._add.tolist()
        self._mul_rows = self._mul.tolist()
        self._neg_rows = self._neg.tolist()

    def _validate_axioms(self):
        q = self.order
        idx = np.arange(q)
        A, M = self._add, self._mul
        if A.min() < 0 or A.max() >= q or M.min() < 0 or M.max() >= q:
            raise FieldError("table entries outside 0..%d" % (q - 1))
        if not (np.array_equal(A, A.T) and np.array_equal(M, M.T)):
            raise FieldError("tables must be commutative")
        if not np.array_equal(A[0], idx):
            raise FieldError("code 0 must be the additive identity")
        # associativity of both operations, exhaustively
        if not np.array_equal(A[A[:, :, None], idx[None, None, :]],
                              A[idx[:, None, None], A[None, :, :]]):
            raise FieldError("addition not associative")
        if not np.array_equal(M[M[:, :, None], idx[None, None, :]],
                              M[idx[:, None, None], M[None, :, :]]):
            raise FieldError("multiplication not associative")
        # distributivity: x*(y+z) == x*y + x*z
        lhs = M[idx[:, None, None], A[None, :, :]]
        rhs = A[M[:, :, None], M[:, None, :]]
        if not np.array_equal(lhs, rhs):
            raise FieldError("distributivity fails")
        # multiplicative unit and inverses
        units = [x for x in range(q) if np.array_equal(M[x], idx)]
        if len(units) != 1:
            raise FieldError("no unique multiplicative identity")
        one = units[0]
        for x in range(q):
            if x != 0 and one not in M[x]:
                raise FieldError("element %d has no inverse" % x)
            if 0 not in A[x]:
                raise FieldError("element %d has no negative" % x)

    def add(self, a, b):
        # advanced indexing broadcasts the two index arrays natively
        return self._add[np.asarray(a, dtype=np.int64),
                         np.asarray(b, dtype=np.int64)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._mul[np.asarray(a, dtype=np.int64),
                         np.asarray(b, dtype=np.int64)]

    def _matmul(self, a, b):
        if a.shape[1] == 0:
            return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        prods = self._mul[a[:, :, None], b[None, :, :]]
        if self._add_is_xor:
            return np.bitwise_xor.reduce(prods, axis=1)
        acc = prods[:, 0, :]
        for k in range(1, prods.shape[1]):
            acc = self._add[acc, prods[:, k, :]]
        return acc

    def neg(self, a):
        return self._neg[np.asarray(a, dtype=np.int64)]

    def _scale_row(self, row, c):
        times = self._mul_rows[c]
        return [times[x] for x in row]

    def _sub_multiple(self, row, c, piv):
        # row - c * piv = row + (-c) * piv
        times = self._mul_rows[self._neg_rows[c]]
        add = self._add_rows
        return [add[x][times[y]] for x, y in zip(row, piv)]

    def inv(self, x: int) -> int:
        if int(x) == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self._inv[int(x)])

    def __repr__(self):
        return "TableField(%d)" % self.order

    def __eq__(self, other):
        return (
            isinstance(other, SmallTableField)
            and other.order == self.order
            and np.array_equal(other._add, self._add)
            and np.array_equal(other._mul, self._mul)
        )

    def __hash__(self):
        return hash(("SmallTableField", self.order, self._add.tobytes(), self._mul.tobytes()))


def GF4() -> SmallTableField:
    """The field with four elements; codes 0, 1, w, w^2 = w+1 as 0,1,2,3.

    Addition is XOR on the codes; w generates the multiplicative group.
    """
    add = [[x ^ y for y in range(4)] for x in range(4)]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    return SmallTableField(4, add, mul)


# The largest matrix, in cells, that row_echelon reduces on Python lists.
LIST_KERNEL_MAX_CELLS = 256


def row_echelon(field: FieldSpec, m: np.ndarray):
    """Reduced row echelon form.  Returns (rref matrix, pivot column list).

    The kernel is chosen by size alone.  A matrix of at most
    ``LIST_KERNEL_MAX_CELLS`` cells is reduced on Python lists of codes
    (``_row_echelon_lists``): most systems here are that small, with one or
    two pivots, and on them a numpy call costs more than its arithmetic.  A
    larger one goes to ``_row_echelon_numpy``, whose few array operations per
    pivot cost little next to a Python loop over every entry.  The reduced
    row echelon form is unique, so both return the same array and pivots.
    The cut is near the crossover on dense matrices, where the list kernel
    loses soonest.
    """
    m = np.asarray(m, dtype=np.int64)
    rows, cols = m.shape
    if rows * cols > LIST_KERNEL_MAX_CELLS:
        return _row_echelon_numpy(field, m)
    red, pivots = _row_echelon_lists(field, m.tolist())
    return np.array(red, dtype=np.int64).reshape(rows, cols), pivots


def _row_echelon_lists(field: FieldSpec, r: list):
    """Reduce the rows ``r`` (lists of codes) in place; returns (r, pivots).
    The pivots and row operations are those of ``_row_echelon_numpy``."""
    scale, sub_multiple = field._scale_row, field._sub_multiple
    one = field.one
    rows = len(r)
    pivots = []
    lead = 0
    for col in range(len(r[0]) if rows else 0):
        if lead == rows:
            break
        for p in range(lead, rows):
            if r[p][col]:
                break
        else:
            continue
        row = r[p]
        if p != lead:
            r[p] = r[lead]
        if row[col] != one:
            row = scale(row, field.inv(row[col]))
        r[lead] = row
        # whole rows: the pivot row vanishes before `col`, so subtracting a
        # multiple of it leaves the leading entries as they are
        for i, other in enumerate(r):
            c = other[col]
            if c and i != lead:
                r[i] = sub_multiple(other, c, row)
        pivots.append(col)
        lead += 1
    return r, pivots


def _row_echelon_numpy(field: FieldSpec, m: np.ndarray):
    r = np.array(m, dtype=np.int64, copy=True)
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        nz = np.nonzero(r[lead:, col])[0]
        if nz.size == 0:
            continue
        p = lead + int(nz[0])
        if p != lead:
            r[[lead, p]] = r[[p, lead]]
        # Columns before `col` are already reduced and vanish on row `lead`,
        # so elimination only needs to touch the trailing block.
        r[lead, col:] = field.mul(r[lead, col:],
                                  field.inv(int(r[lead, col])))
        factors = r[:, col].copy()
        factors[lead] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            r[hit, col:] = field.sub(
                r[hit, col:],
                field.mul(factors[hit, None], r[lead, col:][None, :]))
        pivots.append(col)
        lead += 1
    return r, pivots


def nullspace(field: FieldSpec, arr: np.ndarray):
    """Kernel basis of a raw coefficient array, as a (k x cols) array.

    Row t is 1 at the t-th free (non-pivot) column and elsewhere nonzero
    only at pivot columns before it, so its last nonzero column is its free
    column and the rows restricted to the free columns are the identity."""
    arr = np.asarray(arr, dtype=np.int64)
    cols = arr.shape[1]
    if arr.size <= LIST_KERNEL_MAX_CELLS:
        # built as Python rows: row j is one at j and -red[i][j] at pivots[i]
        red, pivots = _row_echelon_lists(field, arr.tolist())
        minus = [field._scale_row(row, int(field.neg(field.one)))
                 for row in red[:len(pivots)]]
        out = []
        for j in sorted(set(range(cols)) - set(pivots)):
            out.append([0] * cols)
            out[-1][j] = field.one
            for pc, row in zip(pivots, minus):
                out[-1][pc] = row[j]
        return np.array(out, dtype=np.int64).reshape(len(out), cols)
    r, pivots = row_echelon(field, arr)
    free = sorted(set(range(cols)) - set(pivots))
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = field.one
    out[:, pivots] = field.neg(r[:len(pivots)][:, free].T)
    return out


def row_space_basis(field: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """Independent rows spanning the row space, in echelon form."""
    arr = np.asarray(arr, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, arr.shape[1] if arr.ndim == 2 else 0), dtype=np.int64)
    r, pivots = row_echelon(field, arr)
    return r[: len(pivots)]


def solve_raw(field: FieldSpec, arr: np.ndarray, rhs: np.ndarray):
    """Solve arr x = rhs for a 1-D or 2-D rhs; None if inconsistent."""
    rhs = np.asarray(rhs, dtype=np.int64)
    one_d = rhs.ndim == 1
    if one_d:
        rhs = rhs[:, None]
    ncols = arr.shape[1]
    aug = np.concatenate([arr, rhs], axis=1)
    r, pivots = row_echelon(field, aug)
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, rhs.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    return x[:, 0] if one_d else x


def in_row_space(field: FieldSpec, basis: np.ndarray, vec: np.ndarray) -> bool:
    return solve_raw(field, basis.T, vec) is not None


def is_invertible(field: FieldSpec, arr: np.ndarray) -> bool:
    arr = np.asarray(arr)
    return arr.shape[0] == arr.shape[1] and rank_raw(field, arr) == arr.shape[0]


def rank_raw(field: FieldSpec, arr: np.ndarray) -> int:
    arr = np.asarray(arr, dtype=np.int64)
    if arr.size == 0:
        return 0
    if arr.size <= LIST_KERNEL_MAX_CELLS:
        # the list kernel without the array rebuild: only pivots are needed;
        # with nullspace's, the small calls of a seed-1 bench oracle pass
        # take 11-14 ms, 15-19 ms through row_echelon (one Xeon vCPU)
        return len(_row_echelon_lists(field, arr.tolist())[1])
    return len(row_echelon(field, arr)[1])


def combine(field: FieldSpec, coeffs, stack: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] * stack[t] over the field, for a stack of equally
    shaped arrays (rows, matrices) indexed by its first axis."""
    stack = np.asarray(stack)
    flat = stack.reshape(stack.shape[0], math.prod(stack.shape[1:]))
    return field.matmul(np.asarray(coeffs)[None], flat).reshape(stack.shape[1:])


def search_combinations(field: FieldSpec, k: int, test,
                        random_budget: int, exhaustive_limit: int):
    """First nonzero c in field^k with ``test(c)`` not None.

    The unit vectors are tried first, then ``random_budget`` draws from the
    fixed generator ``default_rng(0)`` (a zero draw is skipped), then every
    nonzero vector in lexicographic order when ``order**k <= exhaustive_limit``.
    Returns ``(test(c), True)`` for the first hit, else ``(None,
    exhausted)``: ``exhausted`` is True when the exhaustive stage ran, so
    that every nonzero vector was tried.
    """
    for t in range(k):
        c = np.zeros(k, dtype=np.int64)
        c[t] = field.one
        hit = test(c)
        if hit is not None:
            return hit, True
    if k and random_budget:
        # the Generator is made only here: numpy.random is imported lazily
        rng = np.random.default_rng(0)
        for _ in range(random_budget):
            c = rng.integers(0, field.order, size=k)
            if c.any():
                hit = test(c)
                if hit is not None:
                    return hit, True
    if field.order ** k > exhaustive_limit:
        return None, False
    for c in itertools.product(range(field.order), repeat=k):
        if any(c):
            hit = test(np.array(c, dtype=np.int64))
            if hit is not None:
                return hit, True
    return None, True


def powers_vanish(field: FieldSpec, span: np.ndarray, times) -> bool:
    """Whether P_0 = span, P_(j+1) = span(times(P_j)) reaches 0 with the
    rank falling at every step.  ``times(P)`` stacks the rows of P
    multiplied by each generator, so True means every product of enough
    elements of the span is 0; False is exact when the span is closed under
    products."""
    power = span
    while len(power):
        nxt = row_space_basis(field, times(power))
        if len(nxt) >= len(power):
            return False
        power = nxt
    return True
