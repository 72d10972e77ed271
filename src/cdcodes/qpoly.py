"""Linearized polynomials over GF(q^n) and the MRD codes they generate.

A map x -> a_0 x + a_1 x^q + ... + a_t x^(q^t) with coefficients in
GF(q^n) is GF(q)-linear, so it has an n x n matrix over GF(q); the code of
all such maps with q-degree at most t is MRD with rank distance n - t.
The rectangular code of n x (n+h) matrices comes from the same maps with
coefficients in GF(q^(n+h)): the Frobenius powers are taken in GF(q^n) and
embedded by padding their coordinates with h zeros, which leaves every
element code unchanged.  The square code is h = 0.  This module
enumerates that code and its bounded-rank subsets (kernel dimension at
least j, zero map excluded).

Enumeration order is an odometer over the integer codes of
(a_0, ..., a_t) with a_0 varying fastest; streams accept start/stop
indices so disjoint sub-ranges can be enumerated independently and
deterministically.
"""

from __future__ import annotations

from .gf import GF, extension_field
from .linalg import MatrixGF

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        rows = [self.big.to_vector(self.evaluate(q ** i)) for i in range(ext.n)]
        return MatrixGF(ext.base, rows)

    def kernel_dim(self) -> int:
        m = self.to_matrix()
        return m.nrows - m.rank()

    def __eq__(self, other):
        return (
            isinstance(other, QPolynomial)
            and (self.ext, self.big) == (other.ext, other.big)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

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


def enumerate_mrd(q: int, n: int, t: int, *, h: int = 0, start: int = 0,
                  stop: int | None = None, budget: int | None = DEFAULT_BUDGET):
    """All q^((n+h)(t+1)) maps GF(q^n) -> GF(q^(n+h)) of q-degree <= t, in odometer order.

    Their n x (n+h) matrices form an MRD code with rank distance n - t;
    h = 0 is the square code.  Validation (including the budget check)
    happens at call time.
    """
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got t={t}, n={n}")
    if h < 0:
        raise ValueError("h must be non-negative")
    ext = extension_field(q, n)
    big = extension_field(q, n + h)
    order = big.order
    total = order ** (t + 1)
    _check_budget(total, budget, f"the rank-metric code of {n}x{n + h} matrices with q={q}, t={t}")
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError("bad enumeration sub-range")

    def gen():
        for idx in range(start, stop):
            coeffs = []
            rest = idx
            for _ in range(t + 1):
                rest, a = divmod(rest, order)
                coeffs.append(a)
            yield QPolynomial(ext, coeffs, big)

    return gen()


def enumerate_filtration(q: int, n: int, t: int, j: int, *,
                         budget: int | None = DEFAULT_BUDGET):
    """Nonzero maps of q-degree <= t whose kernel dimension is at least j.

    The zero map (kernel dimension n) is excluded, which makes the stream
    length equal filtration_size(q, n, t, j).
    """
    if not 0 <= j <= t:
        raise ValueError(f"need 0 <= j <= t, got j={j}, t={t}")
    for f in enumerate_mrd(q, n, t, budget=budget):
        if not f.is_zero() and f.kernel_dim() >= j:
            yield f


def enumerate_rect_mrd(q: int, k: int, h: int, t: int, *,
                       budget: int | None = DEFAULT_BUDGET):
    """enumerate_mrd(q, k, t, h=h): the k x (k+h) MRD code of q-degree <= t maps."""
    # Kept by name for cdcbench/spans.py; library code calls enumerate_mrd.
    return enumerate_mrd(q, k, t, h=h, budget=budget)
