"""Matrices and subspaces over GF(q), row convention throughout.

A subspace is identified with the unique reduced row-echelon basis of its
row space, which makes equality, hashing and set membership exact integer
comparisons.  Elimination has two kernels that agree entry for entry:
rref_batch runs on arrays of matrices in numpy, and _rref_generic runs on
one matrix of Python ints, behind MatrixGF.rref/rank and intersection_dim,
and is the reference rref_batch is tested against.  So do the two checks
of canonical form: canonical_batch on arrays, is_canonical_basis per matrix.
rref_batch's one loop, _eliminate, swaps no rows and copies no matrix: in
each column every matrix scales its first row of no pivot yet with a
nonzero entry there and clears the column from its other rows, in place,
and at the end each pivot row moves to its place.  Over GF(2) a row is
packed into words and a column step is a bit test, an argmax and an XOR;
over any other field an entry is its m base-p digits in the smallest
unsigned dtype, multiplied by a contraction (_digit_mul) and added
carry-free.
Spans have one kernel, span_blocks, which only adds: the q^r combinations
of r rows are filled digit l of the index at a time, combination c q^l + i
being combination i plus c row_l, into a preallocated output.  Addition is
carry-free, digit-wise mod p: XOR for p = 2, which also adds whole packed
vector codes, and for odd p a sum and a conditional subtract on small
unsigned digits.  It builds verify's vector tables and qpoly's MRD
codewords.
Every array kernel chunks by one budget, _CHUNK_BYTES, at a price an item
from tracemalloc: rref_chunk's for elimination, _span_bytes' for spans.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
import math

from ._numpy import np
from .gf import GF

_CHUNK_BYTES = 1 << 22  # the one budget: bytes of temporaries a chunk of any kernel holds


def _digit_products(field: GF) -> np.ndarray:
    """(m, m, m) table over GF(p): [i, j] holds the base-p digits of p^i * p^j."""
    p, m = field.p, field.m
    powers = p ** np.arange(m, dtype=np.int64)
    times = np.array([[field.mul(int(a), int(b)) for b in powers] for a in powers], dtype=np.int64)
    return times[..., None] // powers % p


def _add(p: int, a, b, out):
    """a + b into out, digit-wise mod p.  For p = 2 that is XOR, which adds every
    digit of packed codes at once.  For odd p it is a sum and a conditional subtract:
    out's unsigned dtype holds 2p - 2, so x - p wraps to above x exactly when x < p.
    Python ints (an object out) take the remainder instead."""
    if p == 2:
        return np.bitwise_xor(a, b, out=out)
    np.add(a, b, out=out)
    if out.dtype == object:
        return np.remainder(out, p, out=out)
    return np.minimum(out, out - p, out=out)


def _pack(digits, p: int, width: int, dtype):
    """The base-p codes (..., width) of digits (..., width g), g digits a code,
    the first least significant, by Horner's rule."""
    g = digits.shape[-1] // width if width else 0
    digits = digits.reshape(*digits.shape[:-1], width, g)
    codes = np.zeros(digits.shape[:-1], dtype)
    for e in range(g - 1, -1, -1):
        codes *= p
        codes += digits[..., e]
    return codes


def per_chunk(item_bytes: int) -> int:
    """Items of item_bytes a chunk holds within _CHUNK_BYTES, or 1."""
    return max(1, _CHUNK_BYTES // max(1, item_bytes))


def _span_bytes(field: GF, sets: int, r: int, length: int, width: int, dtype, new: bool):
    """(held, per combination): about span_blocks' bytes for sets row sets (tracemalloc).
    A set holds its int64 rows, for m > 1 their digit products, its prime rows and
    prefix sums; a combination of each its low-table entry, for odd p its digits and
    subtract temporary or packed codes, and without out the yielded and next block."""
    p, m, code = field.p, field.m, np.dtype(dtype).itemsize * width
    wide = code if p == 2 else np.min_scalar_type(2 * p - 2).itemsize * length * m
    per_set = r * length * (9 + 16 * m * m * (m > 1)) + 2 * (r * m + 1) * wide
    return sets * per_set, sets * (wide + (p != 2) * (wide + max(wide, code)) + 2 * new * code)


def span_blocks(field: GF, rows, out=None):
    """Yield the q^r combinations sum_l c_l row_l of rows (..., r, L), c_l being
    base-q digit l of the index (c_0 least significant), in index order, a block
    (..., n, W) of n consecutive combinations at a time, n the largest power of
    p that _CHUNK_BYTES holds (_span_bytes), or 1.  Entry j of a combination
    packs its coordinates j g, ..., j g + g - 1 (g = L / W) into one base-q
    code, the first least significant: W = L gives element codes, W = 1 the
    code of the whole vector.  With out, (..., q^r, W), each block is written
    into its place in out and is a view of it; without, each is a new array of
    element codes in the smallest unsigned dtype.

    Its only field arithmetic is carry-free addition (_add).  Over GF(p) the
    rows span what the r m rows p^e row_l, e < m, span, with base-p digit
    l m + e of the index as the scalar of p^e row_l; their digits come from
    the (m, m, m) table _digit_products.  The first w of those rows, p^w = n,
    fill a low table by doubling: combination c p^j + i is combination i plus
    c row_j, the multiples c row_j taken by doubling c.  Block h is the low
    table plus combination h of the other rows, its offset: from h to h + 1
    the offset gains the sum of those rows 0..t, t the number of trailing
    digits p - 1 of h (each wraps to 0, and -(p - 1) row = row).  For p = 2
    the rows are packed into codes before the doubling; odd p packs each
    block's digits after it.
    """
    p, m = field.p, field.m
    rows = np.asarray(rows, dtype=np.int64)
    *batch, r, length = rows.shape
    width = length if out is None else out.shape[-1]
    dtype = np.min_scalar_type(field.order - 1) if out is None else out.dtype
    held, per_combination = _span_bytes(field, math.prod(batch), r, length, width, dtype,
                                        out is None)
    most = max(1, (_CHUNK_BYTES - held) // max(1, per_combination))  # blocks beside held rows
    if m > 1:  # digits of p^e row_l
        rows = np.einsum("...rlj,ejk->...relk", rows[..., None] // p ** np.arange(m) % p,
                         _digit_products(field)) % p
    # combinations lead the working arrays, so each step adds contiguous runs
    prime = np.moveaxis(rows.reshape(*batch, r * m, length * m), -2, 0).astype(
        np.min_scalar_type(2 * p - 2), order="C")
    if p == 2:
        prime = _pack(prime, 2, width, dtype)
    s, wide = r * m, prime.shape[-1]
    w = 0
    while w < s and p ** (w + 1) <= most:
        w += 1
    low = np.zeros((p ** w, *batch, wide), prime.dtype)
    for j in range(w):
        part = low[:p ** (j + 1)].reshape(p, p ** j, *batch, wide)
        step, c = prime[j], 1  # step = c row_j
        while c < p:
            _add(p, part[:min(c, p - c)], step, part[c:2 * c])
            c *= 2
            if c < p:
                step = _add(p, step, step, np.empty_like(step))
    prefix = prime[w:].copy()  # prefix[t]: the sum of the other rows 0..t
    for t in range(1, s - w):
        _add(p, prefix[t - 1], prefix[t], prefix[t])
    offset = np.zeros(prime.shape[1:], prime.dtype)
    digits = None if p == 2 else np.empty_like(low)
    n = p ** w
    lead = None if out is None else np.moveaxis(out, -2, 0)
    for h in range(p ** (s - w)):
        if out is None:
            dest = np.empty((*batch, n, width), dtype)
            place = np.moveaxis(dest, -2, 0)
        else:
            dest, place = out[..., h * n:(h + 1) * n, :], lead[h * n:(h + 1) * n]
        if p == 2:
            _add(2, low, offset, place)
        else:
            np.copyto(place, _pack(_add(p, low, offset, digits) if h else low, p, width, dtype))
        yield dest
        t = 0
        while h % p == p - 1:
            h, t = h // p, t + 1
        if t < s - w:
            _add(p, offset, prefix[t], offset)


def span_into(field: GF, rows, out):
    """Fill out, (..., q^r, W), with the combinations of rows (span_blocks), and
    return it: a chunk of the leading batch axis at a time, as many row sets as
    hold their whole spans in about _CHUNK_BYTES, and at least one."""
    rows, whole = np.asarray(rows), out
    if rows.ndim == 2:  # one row set: a batch of one
        rows, out = rows[None], out[None]
    held, per_combination = _span_bytes(field, math.prod(rows.shape[1:-2]), *rows.shape[-2:],
                                        out.shape[-1], out.dtype, False)
    step = per_chunk(held + out.shape[-2] * per_combination)  # row sets whose spans fit
    for lo in range(0, len(rows), step):
        for _ in span_blocks(field, rows[lo:lo + step], out[lo:lo + step]):
            pass
    return whole


def _digit_mul(x, y, table, p):
    """Products of the elements whose base-p digits are x and y (..., m), broadcast;
    table is None for a prime field."""
    if table is None:
        return x * y % p
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(*outer.shape[:-2], -1) @ table.reshape(-1, len(table)) % p


def _pack_bits(mats) -> np.ndarray:
    """The rows of (N, r, c) matrices over GF(2) as (N, r, W) words of the smallest
    unsigned dtype holding c bits (uint64 past 32), column 0 the top bit of word 0."""
    count, r, c = mats.shape
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= min(c, 64))
    dtype, bits = np.dtype(f"u{size}"), 8 * size
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint64)).astype(dtype)
    bools = (mats != 0).view(np.uint8)
    words = np.empty((count, r, -(-c // bits)), dtype)
    for w in range(words.shape[2]):
        block = bools[:, :, w * bits:(w + 1) * bits]
        words[:, :, w] = block @ weights[:block.shape[2]]
    return words


def _eliminate(field: GF, mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(work, slot, rank) of the (N, r, c) element codes mats: work holds their
    rows reduced in place, in their original order; slot (N, r) gives each pivot
    row its place in the rref, pivots being found in column order, and r to the
    rows of no pivot, which end up zero; rank (N,) counts the pivot rows.

    For q = 2 work packs each row into words (_pack_bits).  For every other q
    it holds each entry's m base-p digits, (N, r, c, m), in the smallest
    unsigned dtype; products go through _digit_mul in uint64 (Python ints where
    p^2 >= 2^63) and inverses, x^(q-2), by square-and-multiply."""
    p, m, q = field.p, field.m, field.order
    count, r, c = mats.shape
    at, slot, rank = np.arange(count), np.full((count, r), r), np.zeros(count, np.int64)
    if q == 2:
        work = _pack_bits(mats)
        bits = 8 * work.itemsize
    else:
        wide = object if p * p >= 1 << 63 else np.uint64
        table = _digit_products(field).astype(wide) if m > 1 else None
        work = (mats[..., None].astype(wide) // p ** np.arange(m, dtype=wide) % p).astype(
            object if wide is object else np.min_scalar_type(2 * p - 2))
        one = np.zeros(m, wide)
        one[0] = 1
    for col in range(c if r and count else 0):
        if rank.min() == r:  # every matrix has its pivots
            break
        if q == 2:
            word, bit = divmod(col, bits)
            nonzero = work[:, :, word] & work.dtype.type(1 << (bits - 1 - bit)) != 0
        else:
            nonzero = (work[:, :, col] != 0).any(-1)
        free = nonzero & (slot == r)
        piv = free.argmax(1)
        has = free[at, piv]
        if not has.any():
            continue
        slot[at, piv] = np.where(has, rank, slot[at, piv])
        rank += has
        nonzero[at, piv] = False
        nonzero &= has[:, None]  # the rows to clear
        if q == 2:
            work[:, :, word:] ^= work[at, piv, word:][:, None] * nonzero[..., None]
            continue
        row = work[at, piv, col:].astype(wide)
        inv, x, e = np.zeros_like(row[:, 0]), row[:, 0], q - 2
        inv[:, 0] = 1
        while e:
            if e & 1:
                inv = _digit_mul(inv, x, table, p)
            x, e = _digit_mul(x, x, table, p), e >> 1
        # scaled to a leading 1, or by 1 where no pivot
        row = _digit_mul(np.where(has[:, None], inv, one)[:, None], row, table, p)
        work[at, piv, col:] = row
        factor = (work[:, :, col] * nonzero[..., None]).astype(wide)
        minus = _digit_mul(factor[:, :, None], ((p - row) % p)[:, None], table, p)
        _add(p, work[:, :, col:], minus, work[:, :, col:])
    return work, slot, rank


def rref_chunk(field: GF, r: int, c: int) -> int:
    """Matrices of (r, c) per rref_batch call (per_chunk): 192 bytes a matrix and, an
    entry, 10 over GF(2), 28 over GF(p), 150 as Python ints, and for m > 1 digits
    8 m^2 + 18 m + 16 (_digit_mul's uint64 products) and 16 m a column (the pivot
    row's).  tracemalloc's peak on 6 x 12 matrices is 0.88 to 1.01 of it, m <= 16."""
    p, m = field.p, field.m
    if m > 1:
        return per_chunk(r * c * (8 * m * m + 18 * m + 16) + 16 * m * c + 192)
    return per_chunk(r * c * (10 if p == 2 else 150 if p * p >= 1 << 63 else 28) + 192)


def rref_batch(field: GF, mats) -> tuple[np.ndarray, np.ndarray]:
    """(rref, rank) of every matrix of a (..., r, c) array of element codes.

    Entry for entry the results of MatrixGF.rref() and rank(), by one
    swap-free elimination (_eliminate) on all matrices at once: in each
    column every matrix takes its first row of no pivot yet with a nonzero
    entry there, scales it to a leading 1 and clears the column from every
    other row, in place.  That row is zero in every earlier column, so
    clearing touches only this column and later ones.  Pivots are found in
    column order, so at the end each pivot row moves to the place its pivot
    gives it, zero rows last; the rref is unique, so it is _rref_generic's.
    Callers pass chunks of rref_chunk matrices.  The rref is int64, or
    Python ints where p^2 >= 2^63.
    """
    p, q = field.p, field.order
    mats = np.asarray(mats)
    *batch, r, c = mats.shape
    count = math.prod(batch)
    work, slot, rank = _eliminate(field, mats.reshape(count, r, c))
    # each matrix's rows in rref order and one spare place, which takes every row of
    # no pivot; the places past the rank stay zero
    tail = work.shape[2:]
    place = (slot + (r + 1) * np.arange(count)[:, None]).ravel()
    rows = np.zeros((count, r + 1, *tail), work.dtype)
    rows.reshape(count * (r + 1), *tail)[place] = work.reshape(count * r, *tail)
    rows = rows[:, :r]
    dtype = object if p * p >= 1 << 63 else np.int64
    if q == 2:
        bits = np.unpackbits(rows.astype(rows.dtype.newbyteorder(">")).view(np.uint8).ravel())
        rows = bits.reshape(count, r, 8 * rows.shape[2] * rows.itemsize)[..., :c].astype(dtype)
    else:
        rows = _pack(rows.reshape(count, r, c * work.shape[3]), p, c, dtype)
    return rows.reshape(*batch, r, c), rank.reshape(batch)


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
