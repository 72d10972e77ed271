"""Linearized polynomials over GF(q^n) and the MRD codes they generate.

A map x -> a_0 x + a_1 x^q + ... + a_t x^(q^t) with coefficients in
GF(q^n) is GF(q)-linear, so it has an n x n matrix over GF(q); the code of
all such maps with q-degree at most t is MRD with rank distance n - t.
The rectangular code of n x (n+h) matrices comes from the same maps with
coefficients in GF(q^(n+h)): the Frobenius powers are taken in GF(q^n) and
embedded by padding their coordinates with h zeros, which leaves every
element code unchanged.  The square code is h = 0.

The code is GF(q)-linear (Gabidulin 1985): the matrix of a map is linear
in the base-q digits of its coefficients, so the codeword with odometer
index idx is sum_d digit_d(idx) B_d over the (n+h)(t+1) basis matrices
B_d, each computed once with QPolynomial.to_matrix.  The span kernel of
linalg adds them in, one basis matrix at a time: codeword c q^d + i is
codeword i plus c B_d, added carry-free (XOR for p = 2, digit-wise mod p
for odd p).  mrd_array has it fill one preallocated array in place, and
enumerate_mrd yields the matrices of its blocks, each a table of the low
digits built once plus one offset of the high digits.  _bounded_rank
keeps the nonzero codewords of rank at most r, which enumerate_filtration
yields as matrices.  linalg sizes their blocks and rank chunks from one
budget, linalg._CHUNK_BYTES.

Enumeration order is an odometer over the integer codes of
(a_0, ..., a_t) with a_0 varying fastest.
"""

from __future__ import annotations

from ._numpy import np
from .gf import GF, extension_field, field_of_order
from .linalg import MatrixGF, rref_batch, rref_chunk, span_blocks, span_into

DEFAULT_BUDGET = 1 << 24  # elements an enumeration or a construction may produce


class BudgetError(Exception):
    """An enumeration or construction would exceed its element budget."""


class QPolynomial:
    """The GF(q)-linear map x -> sum a_i phi(x^(q^i)) from ext to big.

    ext = GF(q^n) holds x and its Frobenius powers; phi pads their
    coordinates with zeros into big = GF(q^(n+h)), which holds the
    coefficients.  big defaults to ext, the square map on GF(q^n).
    """

    __slots__ = ("ext", "big", "coeffs")

    def __init__(self, ext: GF, coeffs, big: GF | None = None):
        if big is None:
            big = ext
        elif big.base != ext.base or big.n < ext.n:
            raise ValueError("incompatible field pair for a rectangular map")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        for a in coeffs:
            if not 0 <= a < big.order:
                raise ValueError("coefficient code out of range")
        self.ext = ext
        self.big = big
        self.coeffs = coeffs

    def evaluate(self, x: int) -> int:
        ext, big = self.ext, self.big
        acc = 0
        power = x
        for a in self.coeffs:
            if a:
                acc = big.add(acc, big.mul(a, power))
            power = ext.frobenius(power, 1)
        return acc

    def to_matrix(self) -> MatrixGF:
        """n x (n+h) matrix over GF(q), row i = coordinates of f(alpha^i).

        Row-vector convention: coords(f(x)) = coords(x) @ M.
        """
        ext = self.ext
        q = ext.q
        return MatrixGF._of(ext.base, tuple(self.big.to_vector(self.evaluate(q ** i))
                                            for i in range(ext.n)))

    def __repr__(self):
        return (
            f"QPolynomial(q={self.ext.q}, n={self.ext.n}, h={self.big.n - self.ext.n}, "
            f"coeffs={self.coeffs})"
        )


# Same class: cdcbench/spans.py wraps RectQPolynomial.to_matrix by name.
RectQPolynomial = QPolynomial


def _check_budget(total: int, budget: int, what: str):
    if budget is not None and total > budget:
        raise BudgetError(
            f"{what} has {total} elements, above the budget of {budget}; "
            "use the formula-only paths or raise the budget"
        )


def check_degree(n: int, t: int, h: int = 0) -> None:
    """Reject a q-degree bound t outside [0, n) or a negative widening h."""
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got t={t}, n={n}")
    if h < 0:
        raise ValueError("h must be non-negative")


def _mrd_basis(q: int, n: int, t: int, h: int, budget: int | None):
    """Validate, then (field, count, basis): the (n+h)(t+1) basis matrices, each
    flattened to a row of n(n+h) element codes, in index digit order."""
    check_degree(n, t, h)
    ext = extension_field(q, n)
    big = extension_field(q, n + h)
    total = big.order ** (t + 1)
    _check_budget(total, budget, f"the rank-metric code of {n}x{n + h} matrices with q={q}, t={t}")
    if total > 1 << 62:
        raise ValueError(f"the code has {total} codewords, above the 2^62 index range")
    # basis matrix i*(n+h) + d is the map alpha^d x^(q^i): index digit order
    basis = [QPolynomial(ext, [0] * i + [q ** d], big).to_matrix().rows
             for i in range(t + 1) for d in range(n + h)]
    return ext.base, total, np.reshape(basis, (len(basis), -1))


def mrd_array(q: int, n: int, t: int, *, h: int = 0,
              budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """The codewords of enumerate_mrd, with its checks and order, as one
    (count, n, n+h) array of element codes in the smallest unsigned dtype,
    filled in place by linalg.span_into."""
    field, count, basis = _mrd_basis(q, n, t, h, budget)
    out = np.empty((count, n, n + h), dtype=np.min_scalar_type(q - 1))
    span_into(field, basis, out.reshape(count, n * (n + h)))
    return out


def enumerate_mrd(q: int, n: int, t: int, *, h: int = 0, budget: int | None = DEFAULT_BUDGET):
    """The n x (n+h) matrices of the maps of q-degree <= t, in odometer order.

    The q^((n+h)(t+1)) maps GF(q^n) -> GF(q^(n+h)) form an MRD code with
    rank distance n - t; h = 0 is the square code.  Validation (including the budget check) happens at call time;
    indices are int64, so a code of more than 2^62 codewords is refused.
    The codewords come from linalg.span_blocks, a block at a time, sized by
    the one budget, linalg._CHUNK_BYTES.
    """
    field, _count, basis = _mrd_basis(q, n, t, h, budget)
    # entries in range by construction (no check), listed a codeword at a time, not a block
    return (MatrixGF._of(field, tuple(map(tuple, rows.tolist())))
            for block in span_blocks(field, basis) for rows in block.reshape(-1, n, n + h))


def _bounded_rank(field: GF, words: np.ndarray, r: int) -> np.ndarray:
    """The nonzero matrices of words, a (count, n, n) array, of rank at most r, in order;
    their ranks come from rref_batch, a chunk of linalg.rref_chunk matrices at a time."""
    step = rref_chunk(field, *words.shape[1:])
    rank = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        rref_batch(field, words[lo:lo + step])[1] for lo in range(0, len(words), step)])
    return words[(rank > 0) & (rank <= r)]


def enumerate_filtration(q: int, n: int, t: int, j: int, *,
                         budget: int | None = DEFAULT_BUDGET):
    """Matrices of the nonzero maps of q-degree <= t whose kernel dimension is at least j.

    The zero map (kernel dimension n) is excluded, which makes the stream
    length equal filtration_size(q, n, t, j).  They are the _bounded_rank
    codewords of mrd_array, all computed at call time.
    """
    if not 0 <= j <= t:
        raise ValueError(f"need 0 <= j <= t, got j={j}, t={t}")
    field = field_of_order(q)
    words = _bounded_rank(field, mrd_array(q, n, t, budget=budget), n - j)
    return (MatrixGF._of(field, tuple(map(tuple, rows))) for rows in words.tolist())


def enumerate_rect_mrd(q: int, k: int, h: int, t: int, *,
                       budget: int | None = DEFAULT_BUDGET):
    """enumerate_mrd(q, k, t, h=h): the k x (k+h) MRD code of q-degree <= t maps."""
    # Kept by name for cdcbench/spans.py; library code calls enumerate_mrd.
    return enumerate_mrd(q, k, t, h=h, budget=budget)
