"""Exact arithmetic in the finite fields GF(q^n), built as towers over GF(p).

One class, GF, covers every field.  GF(p) is the prime field, the base
case; GF(base, n) is the degree-n extension of any field `base`, and
GF(p, m) is the extension GF(GF(p), m).  Field elements are plain Python
ints: in GF(q^n) over GF(q) the base-q digits of the integer are the
coordinates with respect to the power basis (1, alpha, ..., alpha^(n-1)),
which are the coefficients of the residue polynomial, lowest degree first.
With this encoding 0 and 1 are always the additive and multiplicative
identities, and for p = 2 addition of any two elements is XOR of their
codes.

Moduli are chosen deterministically: the lexicographically smallest monic
irreducible polynomial, comparing coefficient tuples low degree first.  Two
runs (or two machines) therefore agree on every element code and every
multiplication table.

Prime fields use modular integer arithmetic.  Extensions multiply through
precomputed log/antilog tables for fields of up to 2^16 elements; larger
fields (allowed up to 2^20) fall back to polynomial multiplication per
operation.  Frobenius powers are square-and-multiply on top of mul.
Field objects are immutable after construction and all operations are
pure, so they can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

TABLE_LIMIT = 1 << 16
ORDER_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with q = p^m, p prime.  Raises if q is not a prime power."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while q % p != 0:
        p += 1
        if p * p > q:
            p = q
            break
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1 or not is_prime(p):
        raise ValueError(f"not a prime power: {q}")
    return p, m


# ----------------------------------------------------------------------
# Polynomials over a field object.  Coefficient lists are low degree
# first, entries are element codes of the coefficient field.
# ----------------------------------------------------------------------

def _poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _poly_trim(out)


def _poly_rem(F, num, den):
    num = list(num)
    dn = len(den) - 1
    inv_lead = F.inv(den[-1])
    while len(num) - 1 >= dn and num:
        if num[-1] == 0:
            num.pop()
            continue
        factor = F.mul(num[-1], inv_lead)
        shift = len(num) - 1 - dn
        for i, dc in enumerate(den):
            if dc:
                num[shift + i] = F.sub(num[shift + i], F.mul(factor, dc))
        num.pop()
    return _poly_trim(num)


def _monic_polys(F, degree):
    for tail in itertools.product(range(F.order), repeat=degree):
        yield list(tail) + [1]


def _poly_is_irreducible(F, cs) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    cs = _poly_trim(cs)
    deg = len(cs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if cs[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(F, d):
            if not _poly_rem(F, cs, div):
                return False
    return True


def smallest_irreducible(F, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree over F."""
    for tail in itertools.product(range(F.order), repeat=degree):
        cand = list(tail) + [1]
        if _poly_is_irreducible(F, cand):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {degree} found (internal bug)")


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, r = divmod(value, base)
        out.append(r)
    return tuple(out)


def _undigits(digits, base: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * base + d
    return out


def _digit_add(a: int, b: int, p: int) -> int:
    """Digitwise addition mod p of the base-p expansions (carry-free)."""
    if p == 2:
        return a ^ b
    out, shift = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += ((da + db) % p) * shift
        shift *= p
    return out


def _digit_neg(a: int, p: int) -> int:
    if p == 2:
        return a
    out, shift = 0, 1
    while a:
        a, da = divmod(a, p)
        out += ((p - da) % p) * shift
        shift *= p
    return out


def _pow_raw(field, a: int, e: int) -> int:
    """Square-and-multiply on top of field.mul; usable before log tables exist."""
    out, base = 1, a
    while e:
        if e & 1:
            out = field.mul(out, base)
        base = field.mul(base, base)
        e >>= 1
    return out


def _find_generator(field) -> int:
    """Smallest code that generates the multiplicative group."""
    n1 = field.order - 1
    factors = set()
    rest, f = n1, 2
    while f * f <= rest:
        while rest % f == 0:
            factors.add(f)
            rest //= f
        f += 1
    if rest > 1:
        factors.add(rest)
    for g in range(2, field.order):
        if all(_pow_raw(field, g, n1 // ell) != 1 for ell in factors):
            return g
    if field.order == 2:
        return 1
    raise RuntimeError("no multiplicative generator found (internal bug)")


def _build_log_tables(field):
    g = _find_generator(field)
    n1 = field.order - 1
    exp = [1] * n1
    log = [0] * field.order
    x = 1
    for i in range(n1):
        exp[i] = x
        log[x] = i
        x = field.mul(x, g)
    return exp, log


class GF:
    """The finite field GF(q^n), a degree-n extension of a base field GF(q).

    GF(p) is the prime field, the degree-1 base case with no base field;
    GF(p, m, modulus) is GF(GF(p), m, modulus), and GF(base, n, modulus)
    extends any field.  Codes are ints in [0, q^n); the base-q digits are
    the coordinates over the base field in the power basis, so
    to_vector/from_vector are trivial re-encodings and the code q**i
    represents alpha^i.  Attributes: p the characteristic, m the degree
    over GF(p), q the base-field order, n the degree over the base field.
    """

    def __init__(self, base, n: int = 1, modulus=None):
        if isinstance(base, GF):
            if n < 1:
                raise ValueError("extension degree n must be >= 1")
            self.p, self.q, self.m = base.p, base.order, base.m * n
        else:
            if not is_prime(base):
                raise ValueError(f"p = {base} is not prime")
            if not 1 <= n <= 4:
                raise ValueError(f"extension degree m = {n} outside supported range 1..4")
            self.p = self.q = base
            self.m = n
            base = prime_field(base) if n > 1 else None
        self.base = base
        self.n = n
        self.order = self.q ** n
        if base is not None and self.order > ORDER_LIMIT:
            raise ValueError(f"field order {self.q}^{n} exceeds supported limit 2^20")
        if modulus is None:
            modulus = (0, 1) if n == 1 else smallest_irreducible(base, n)
        modulus = tuple(modulus)
        if len(modulus) != n + 1 or modulus[n] != 1:
            raise ValueError(f"modulus must be monic of degree {n}")
        if not all(0 <= c < self.q for c in modulus):
            raise ValueError(f"modulus coefficients must be reduced mod {self.q}")
        if not _poly_is_irreducible(base, list(modulus)):
            raise ValueError(f"modulus {modulus} is reducible over {base!r}")
        self.modulus = modulus
        self._key = (self.p if base is None else base._key, n, modulus)
        self._exp = self._log = None
        if self.m > 1 and self.order <= TABLE_LIMIT:
            self._exp, self._log = _build_log_tables(self)

    def _mul_raw(self, a: int, b: int) -> int:
        """Product of the coordinate polynomials modulo the modulus."""
        pa = list(_digits(a, self.q, self.n))
        pb = list(_digits(b, self.q, self.n))
        prod = _poly_mul(self.base, pa, pb)
        prod = _poly_rem(self.base, prod, list(self.modulus))
        prod += [0] * (self.n - len(prod))
        return _undigits(prod, self.q)

    # -- arithmetic on element codes; m == 1 is arithmetic mod p --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return _digit_add(a, b, self.p)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return _digit_neg(a, self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(q)")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return _pow_raw(self, a, self.order - 2)

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i); the i-fold Frobenius over the base field."""
        if i < 0:
            raise ValueError("Frobenius iteration count must be >= 0")
        return _pow_raw(self, a, self.q ** (i % self.n))

    def to_vector(self, a: int) -> tuple[int, ...]:
        """Coordinates of a over the base field, length n."""
        return _digits(a, self.q, self.n)

    def from_vector(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        if not all(0 <= c < self.q for c in coords):
            raise ValueError("coordinates out of range for the base field")
        return _undigits(coords, self.q)

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other):
        return other is self or (isinstance(other, GF) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GF({self.p})" if self.base is None else f"GF({self.q}^{self.n})/{self.base!r}"


# Same class: cdcbench/spans.py wraps GFExtension.__init__ by name.
GFExtension = GF


@lru_cache(maxsize=None)
def prime_field(p: int) -> GF:
    return GF(p, 1)


@lru_cache(maxsize=None)
def field_of_order(q: int) -> GF:
    """The canonical GF(q) for a prime power q (deterministic modulus)."""
    p, m = factor_prime_power(q)
    return GF(p, m)


@lru_cache(maxsize=None)
def extension_field(q: int, n: int) -> GF:
    """The canonical GF(q^n) over field_of_order(q)."""
    return GF(field_of_order(q), n)
