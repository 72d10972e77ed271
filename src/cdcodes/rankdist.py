"""Exact rank-distribution combinatorics for square MRD codes over GF(q).

Everything here is arbitrary-precision integer arithmetic: Gaussian
binomials, the Delsarte rank distribution of an MRD code in the space of
n x n matrices, the closed forms for its first three nonzero counts, the
sizes of the bounded-rank subsets used by the block constructions, and the
cardinalities of the multi-block, parallel-linkage and lifted MRD codes.

The Delsarte distribution is the cost of every bound and table row.  It is
evaluated in O(n^2) big-integer additions and multiplications: the rows
[r i]_q of Gaussian binomials come one from the next by the q-Pascal rule,
and the powers of q it needs are built once by repeated multiplication, so
its double sum multiplies precomputed values only.  It refuses a q that is
not a prime power before any arithmetic.  Division steps check exact
divisibility and raise ArithmeticError otherwise; no rounding can occur
anywhere.  All functions are pure, so the memo caches are safe for
concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .gf import factor_prime_power


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n.

    Computed as the telescoping product prod_i (q^(n-i) - 1)/(q^(i+1) - 1)
    with interleaved exact divisions; each partial quotient is itself a
    Gaussian binomial, so every division is exact.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(k):
        out, rest = divmod(out * (q ** (n - i) - 1), q ** (i + 1) - 1)
        if rest:
            raise ArithmeticError("internal error: inexact division in Gaussian binomial")
    return out


@dataclass(frozen=True)
class RankDistribution:
    """Rank counts of an MRD code with rank distance d in n x n matrices over GF(q).

    counts[r] is the number of codewords of rank r, for r = 0..n.
    """

    q: int
    n: int
    d: int
    counts: tuple[int, ...]

    def __getitem__(self, r: int) -> int:
        return self.counts[r]

    def total(self) -> int:
        return sum(self.counts)

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of counts for ranks lo..hi inclusive."""
        return sum(self.counts[lo:hi + 1])


@lru_cache(maxsize=None)
def delsarte_distribution(q: int, n: int, d: int) -> RankDistribution:
    """Rank distribution of an MRD code with rank distance d in n x n matrices.

    A_r = [n r]_q * sum_{i=0}^{r-d} (-1)^i q^binom(i,2) [r i]_q (q^(n(r-i-d+1)) - 1)
    for d <= r <= n, A_0 = 1, and A_r = 0 for 0 < r < d.  The normalization
    sum_r A_r = q^(n(n-d+1)) is checked.

    Evaluation order: q^i for i = 0..n, q^(n e) - 1 for e = 1..n-d+1 and
    q^binom(i,2) for i = 0..n-d are built once by repeated multiplication.
    The row [r 0..r]_q follows from row r-1 by the q-Pascal rule
    [r i] = [r-1 i-1] + q^i [r-1 i]; the inner sum of A_r then uses row r,
    and [n r]_q comes from row n.  That is O(n^2) big-integer additions and
    multiplications in all.  Raises ValueError for a q that is not a prime
    power, before any of it.
    """
    factor_prime_power(q)
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    q_pow = [1]  # q^i
    for _ in range(n):
        q_pow.append(q_pow[-1] * q)
    minus_one = [0]  # entry e is q^(n e) - 1
    power = 1
    for _ in range(n - d + 1):
        power *= q_pow[n]
        minus_one.append(power - 1)
    signed_q_tri = [1]  # (-1)^i q^binom(i,2), as binom(i+1,2) = binom(i,2) + i
    for i in range(n - d):
        signed_q_tri.append(-signed_q_tri[-1] * q_pow[i])
    row = [1]  # [r 0..r]_q, for r = 0 so far
    sums = [0] * (n + 1)  # the inner sum of A_r
    for r in range(1, n + 1):
        row = [1] + [row[i - 1] + q_pow[i] * row[i] for i in range(1, r)] + [1]
        if r >= d:
            top = r - d + 1
            sums[r] = sum(signed_q_tri[i] * row[i] * minus_one[top - i]
                          for i in range(top))
    counts = [1] + [0] * (d - 1) + [row[r] * sums[r] for r in range(d, n + 1)]
    dist = RankDistribution(q, n, d, tuple(counts))
    if dist.total() != q ** (n * (n - d + 1)):
        raise ArithmeticError("internal error: rank distribution does not sum to the code size")
    return dist


def closed_form_first_three(q: int, n: int, d: int):
    """(A_d, A_{d+1}, A_{d+2}) in closed form; entries beyond rank n are None.

    Must agree entry for entry with delsarte_distribution.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    a_d = (q ** n - 1) * gaussian_binomial(n, d, q)
    a_d1 = a_d2 = None
    if d + 1 <= n:
        inner = q ** (2 * n) - 1 - Fraction(q ** (d + 1) - 1, q - 1) * (q ** n - 1)
        val = gaussian_binomial(n, d + 1, q) * inner
        if val.denominator != 1:
            raise ArithmeticError("internal error: closed form of A_{d+1} is not an integer")
        a_d1 = int(val)
    if d + 2 <= n:
        inner = (
            q ** (3 * n) - 1
            - Fraction(q ** (d + 2) - 1, q - 1) * (q ** (2 * n) - 1)
            + q
            * Fraction(q ** (d + 2) - 1, q ** 2 - 1)
            * Fraction(q ** (d + 1) - 1, q - 1)
            * (q ** n - 1)
        )
        val = gaussian_binomial(n, d + 2, q) * inner
        if val.denominator != 1:
            raise ArithmeticError("internal error: closed form of A_{d+2} is not an integer")
        a_d2 = int(val)
    return a_d, a_d1, a_d2


def filtration_size(q: int, n: int, t: int, j: int) -> int:
    """Number of q-degree <= t maps on GF(q^n) with kernel dimension >= j, zero map excluded.

    Equals the sum of the rank counts for ranks n-t .. n-j of the MRD code
    with rank distance n-t (kernel >= j is rank <= n-j, and every nonzero
    codeword has rank >= n-t).
    """
    if not 0 <= j <= t < n:
        raise ValueError(f"need 0 <= j <= t < n, got q={q}, n={n}, t={t}, j={j}")
    dist = delsarte_distribution(q, n, n - t)
    return dist.range_sum(n - t, n - j)


def multiblock_size(q: int, n: int, t: int, s: int) -> int:
    """Member count sum_{j=0}^{s} q^((s-j) n (t+1)) F^j of the (s+1)-block code.

    F = filtration_size(q, n, t, n - t) counts the nonzero maps of rank at
    most t, which fill the blocks before the identity.
    """
    if s < 1:
        raise ValueError("need at least s = 1 extra blocks")
    if 2 * t < n:
        raise ValueError(f"need 2t >= n, got t={t}, n={n}")
    if t >= n:
        raise ValueError(f"need t < n, got t={t}, n={n}")
    f = filtration_size(q, n, t, n - t)
    return sum(q ** ((s - j) * n * (t + 1)) * f ** j for j in range(s + 1))


def parallel_linkage_size(q: int, k: int, h: int, d: int, v_size: int) -> int:
    """Member count q^((2k+h)(t+1)) + S * v_size of the parallel linkage, t = k - d/2.

    S = filtration_size(q, k, t, d/2) counts the nonzero k x k maps of rank
    at most t that prefix the v_size members of the second family.
    """
    if d % 2 != 0:
        raise ValueError("the subspace distance d must be even")
    if not 0 < d <= k:
        raise ValueError(f"need 0 < d <= k, got d={d}, k={k}")
    if h < 0:
        raise ValueError("h must be non-negative")
    t = k - d // 2  # >= 1 whenever d <= k and d is even
    return q ** ((2 * k + h) * (t + 1)) + filtration_size(q, k, t, d // 2) * v_size


def lifted_mrd_size(q: int, n: int, d: int) -> int:
    """Cardinality q^(n(n-d+1)) of the lifted code of an MRD code with rank distance d."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    return q ** (n * (n - d + 1))
