"""Matrices and subspaces over GF(q), row convention throughout.

A subspace is identified with the unique reduced row-echelon basis of its
row space, which makes equality, hashing and set membership exact integer
comparisons.  Elimination has two kernels that agree entry for entry:
rref_batch runs on arrays of matrices in numpy, and _rref_generic runs on
one matrix of Python ints, behind MatrixGF.rref/rank and intersection_dim,
and is the reference rref_batch is tested against.  So do the two checks
of canonical form: canonical_batch on arrays, is_canonical_basis per matrix.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
import math

from ._numpy import np
from .gf import GF


def _digit_products(field: GF) -> np.ndarray:
    """(m, m, m) table over GF(p): [i, j] holds the base-p digits of p^i * p^j."""
    p, m = field.p, field.m
    powers = p ** np.arange(m, dtype=np.int64)
    times = np.array([[field.mul(int(a), int(b)) for b in powers] for a in powers], dtype=np.int64)
    return times[..., None] // powers % p


def span(field: GF, rows, idx) -> np.ndarray:
    """The combinations sum_i c_i row_i of rows (..., r, L) for each index in idx.

    c_i is base-q digit i of the index, c_0 least significant, and the
    result is an int64 array (..., len(idx), L) of element codes.  The sum
    is taken over the prime field: the m base-p digits of a code are its
    coordinates over GF(p), and multiplication by the code p^e is the
    m x m map over GF(p) whose row j holds the digits of p^e * p^j, so
    rows times digits is one integer matrix product mod p for any q.
    """
    p, m = field.p, field.m
    powers = p ** np.arange(m, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    *batch, r, width = rows.shape
    scaled = np.einsum("...rlj,ejk->...relk", rows[..., None] // powers % p,
                       _digit_products(field)) % p  # digits of p^e * row_r
    scaled = scaled.reshape(*batch, r * m, width * m)
    digits = np.asarray(idx, dtype=np.int64)[:, None] // p ** np.arange(r * m, dtype=np.int64)
    out = digits % p @ scaled % p
    return out.reshape(*out.shape[:-1], width, m) @ powers


def _digit_mul(x, y, table, p):
    """Products of the elements whose base-p digits are x and y (..., m), broadcast;
    table is None for a prime field."""
    if table is None:
        return x * y % p
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(*outer.shape[:-2], -1) @ table.reshape(-1, len(table)) % p


def rref_batch(field: GF, mats) -> tuple[np.ndarray, np.ndarray]:
    """(rref, rank) of every matrix of a (..., r, c) array of element codes.

    Entry for entry the results of MatrixGF.rref() and rank(): elimination
    runs column by column on all matrices at once, pivoting on the first
    nonzero entry at or below each matrix's current rank.  Entries are
    held as their m base-p digits, so a product is one contraction with
    the (m, m, m) digit table of span and an inverse is x^(q-2) by
    square-and-multiply; no table of q entries is built.  Memory is a few
    copies of the input's digits, so callers pass bounded chunks.  Digits
    are int64, or Python ints when a product of two (p^2 >= 2^63) would
    overflow int64.
    """
    p, m, q = field.p, field.m, field.order
    table = _digit_products(field) if m > 1 else None
    dtype = object if p * p >= 1 << 63 else np.int64
    powers = p ** np.arange(m, dtype=dtype)
    mats = np.asarray(mats, dtype=dtype)
    *batch, r, c = mats.shape
    a = mats.reshape(math.prod(batch), r, c)[..., None] // powers % p
    rank = np.zeros(len(a), dtype=np.int64)
    for col in range(c):
        free = (a[:, :, col] != 0).any(-1) & (np.arange(r) >= rank[:, None])
        b = np.flatnonzero(free.any(1))
        if not len(b):
            continue
        sub, top, at = a[b], rank[b], np.arange(len(b))
        piv = free[b].argmax(1)
        row = sub[at, piv]
        sub[at, piv] = sub[at, top]
        inv, x, e = np.zeros_like(row[:, col]), row[:, col], q - 2
        inv[:, 0] = 1
        while e:
            if e & 1:
                inv = _digit_mul(inv, x, table, p)
            x, e = _digit_mul(x, x, table, p), e >> 1
        row = _digit_mul(inv[:, None], row, table, p)
        sub = (sub - _digit_mul(sub[:, :, col, None], row[:, None], table, p)) % p
        sub[at, top] = row
        a[b] = sub
        rank[b] += 1
    return (a @ powers).reshape(*batch, r, c), rank.reshape(batch)


class MatrixGF:
    """Immutable dense matrix over a GF instance; entries are element codes."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: GF, rows):
        rows = tuple(map(tuple, rows))
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            if r and (min(r) < 0 or max(r) >= field.order):
                x = next(x for x in r if not 0 <= x < field.order)
                raise ValueError(f"entry {x} outside field of order {field.order}")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, field: GF, rows) -> "MatrixGF":
        """The matrix of rows that are already equal-length tuples of element codes."""
        self = object.__new__(cls)
        self.field, self.rows = field, rows
        self.nrows, self.ncols = len(rows), len(rows[0]) if rows else 0
        return self

    @classmethod
    def identity(cls, field: GF, n: int) -> "MatrixGF":
        return cls._of(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: GF, nrows: int, ncols: int) -> "MatrixGF":
        return cls._of(field, ((0,) * ncols,) * nrows)

    def hstack(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field or self.nrows != other.nrows:
            raise ValueError("hstack shape/field mismatch")
        return MatrixGF._of(self.field, tuple(a + b for a, b in zip(self.rows, other.rows)))

    def sub(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape/field mismatch")
        f = self.field
        return MatrixGF._of(f, tuple(
            tuple(f.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        ))

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("matmul shape/field mismatch")
        f = self.field
        ot = list(zip(*other.rows))
        return MatrixGF._of(f, tuple(tuple(_dot(f, row, col) for col in ot) for row in self.rows))

    def rref(self) -> "MatrixGF":
        """Reduced row-echelon form; the row space is preserved."""
        return MatrixGF._of(self.field, tuple(_rref_generic(self.field, self.rows, self.ncols)[0]))

    def rank(self) -> int:
        return _rref_generic(self.field, self.rows, self.ncols)[1]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"MatrixGF(q={self.field.order}, {self.nrows}x{self.ncols})"


def _dot(f, row, col) -> int:
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


# ----------------------------------------------------------------------
# The per-matrix elimination kernel.  It returns (rows, rank); rref_batch
# must agree with it entry for entry.
# ----------------------------------------------------------------------

def _rref_generic(field, rows, ncols):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        r += 1
        if r == nrows:
            break
    return [tuple(r_) for r_ in rows], r


class Subspace:
    """A subspace of GF(q)^N, stored as its canonical RREF basis.

    Two Subspace values are equal iff their bases are entrywise equal;
    ordering compares (dim, basis rows), which fixes the canonical
    enumeration order used for witnesses and file output.
    """

    __slots__ = ("field", "ambient_dim", "dim", "basis")

    def __init__(self, field: GF, ambient_dim: int, basis_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(map(tuple, basis_rows))
        self.dim = len(self.basis)

    def sort_key(self):
        return (self.dim, self.basis)

    def __lt__(self, other: "Subspace"):
        return self.sort_key() < other.sort_key()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(q={self.field.order}, dim={self.dim}, ambient={self.ambient_dim})"


def subspace_from_rows(m: MatrixGF) -> Subspace:
    """Canonical representative of the row space; rank drops are kept visible.

    Rows that already are the canonical basis (is_canonical_basis) are kept
    without elimination.
    """
    if is_canonical_basis(m.rows, m.field.order):
        return Subspace(m.field, m.ncols, m.rows)
    reduced = m.rref()
    basis = [r for r in reduced.rows if any(r)]
    return Subspace(m.field, m.ncols, basis)


def is_canonical_basis(rows, q: int) -> bool:
    """True iff elimination would leave the rows unchanged, a canonical full-rank RREF basis:
    entries in [0, q), nonzero rows with leading entry 1, pivot columns rising strictly and
    zero in the other rows.  Without elimination, in one pass: the last holds exactly when
    the entries of all rows at all pivot columns, non-negative, sum to the number of rows.
    """
    last = -1
    leads = []
    for row in rows:
        if 1 not in row or min(row) < 0 or max(row) >= q:
            return False
        lead = row.index(1)
        if lead <= last or any(row[:lead]):
            return False
        leads.append(lead)
        last = lead
    return sum([row[c] for row in rows for c in leads]) == len(rows)


def canonical_batch(bases) -> np.ndarray:
    """Mask over an (M, k, N) array of element codes in [0, q): True where is_canonical_basis
    holds.  Each row's first nonzero column is its pivot; the columns at the k pivots
    must be the identity's, and the pivots must rise strictly."""
    bases = np.asarray(bases)
    m, k, n = bases.shape
    if not n:  # no column to hold a pivot: canonical iff k = 0
        return np.full(m, not k)
    lead = (bases != 0).argmax(axis=2)  # (M, k)
    columns = bases.transpose(0, 2, 1)[np.arange(m)[:, None], lead]  # [m, j]: column lead[m, j]
    return ((columns == np.eye(k, dtype=bases.dtype)).reshape(m, k * k).all(axis=1)
            & (lead[:, :-1] < lead[:, 1:]).all(axis=1))


def intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(U) + dim(V) - rank of the stacked bases."""
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("subspaces live in different ambient spaces")
    return u.dim + v.dim - _rref_generic(u.field, u.basis + v.basis, u.ambient_dim)[1]


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """d(U, V) = dim U + dim V - 2 dim(U cap V); = 2k - 2 dim(U cap V) for equal dims."""
    return u.dim + v.dim - 2 * intersection_dim(u, v)


def enumerate_subspaces(field: GF, ambient_dim: int, dim: int):
    """All dim-dimensional subspaces of GF(q)^ambient_dim, in canonical order."""
    return (Subspace(field, ambient_dim, rows) for rows in enumerate_bases(field, ambient_dim, dim))


def enumerate_bases(field: GF, ambient_dim: int, dim: int):
    """The canonical bases of enumerate_subspaces, as lists of rows, in the same order.

    Walks RREF bases directly: one basis per subspace, grouped by pivot
    columns, free entries filled in odometer order.
    """
    q = field.order
    n, k = ambient_dim, dim
    if k == 0:
        yield []
        return
    if k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        free = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free.append((r, c))
        for assignment in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), val in zip(free, assignment):
                rows[r][c] = val
            yield rows
