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
B_d, each computed once with QPolynomial.to_matrix.  enumerate_mrd yields
these codeword matrices from linalg.span, mrd_array returns them as one
array, and _bounded_rank keeps its nonzero codewords of rank at most r,
which enumerate_filtration yields as matrices.

Enumeration order is an odometer over the integer codes of
(a_0, ..., a_t) with a_0 varying fastest.
"""

from __future__ import annotations

from ._numpy import np
from .gf import GF, extension_field, field_of_order
from .linalg import MatrixGF, rref_batch, span

DEFAULT_BUDGET = 1 << 24  # elements an enumeration or a construction may produce
_CHUNK = 1 << 9  # codewords per span or rref_batch call


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


def _mrd_blocks(q: int, n: int, t: int, h: int, budget: int | None):
    """Validate, then (field, count, blocks): blocks yields the codewords
    as int64 arrays of at most _CHUNK codewords each."""
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
    basis = np.reshape(basis, (len(basis), -1))
    blocks = (span(ext.base, basis, np.arange(lo, min(lo + _CHUNK, total))).reshape(-1, n, n + h)
              for lo in range(0, total, _CHUNK))
    return ext.base, total, blocks


def mrd_array(q: int, n: int, t: int, *, h: int = 0,
              budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """The codewords of enumerate_mrd, with its checks and order, as one
    (count, n, n+h) array of element codes in the smallest unsigned dtype."""
    _field, count, blocks = _mrd_blocks(q, n, t, h, budget)
    out = np.empty((count, n, n + h), dtype=np.min_scalar_type(q - 1))
    for lo, block in zip(range(0, count, _CHUNK), blocks):
        out[lo:lo + len(block)] = block
    return out


def enumerate_mrd(q: int, n: int, t: int, *, h: int = 0, budget: int | None = DEFAULT_BUDGET):
    """The n x (n+h) matrices of the maps of q-degree <= t, in odometer order.

    The q^((n+h)(t+1)) maps GF(q^n) -> GF(q^(n+h)) form an MRD code with
    rank distance n - t; h = 0 is the square code.  Validation (including the budget check) happens at call time;
    indices are int64, so a code of more than 2^62 codewords is refused.
    """
    field, _count, blocks = _mrd_blocks(q, n, t, h, budget)
    # span's entries are in range by construction: no per-entry check
    return (MatrixGF._of(field, tuple(map(tuple, rows)))
            for block in blocks for rows in block.tolist())


def _ranks(field: GF, mats: np.ndarray) -> np.ndarray:
    """The ranks of a (count, r, c) array of matrices, by rref_batch on _CHUNK at a time."""
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        rref_batch(field, mats[lo:lo + _CHUNK])[1] for lo in range(0, len(mats), _CHUNK)])


def _bounded_rank(field: GF, words: np.ndarray, r: int) -> np.ndarray:
    """The nonzero matrices of words, a (count, n, n) array, of rank at most r, in order."""
    rank = _ranks(field, words)
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
