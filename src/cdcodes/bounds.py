"""Exact evaluation of the subspace-code bound formulas and table generation.

Every bound is an arbitrary-precision integer; the only divisions are the
Johnson-type halving (floored: the bounded quantity is a code size) and the
anticode quotient (floored for the same reason).  Values render in plain
decimal so tables can be compared byte for byte; comparisons against
reference strings normalize by stripping non-digits first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import tables
from .gf import factor_prime_power
from .rankdist import gaussian_binomial, multiblock_size, parallel_linkage_size


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated bound on A_q(n, d, k); n is the ambient dimension."""

    q: int
    n: int
    d: int
    k: int
    value: int
    kind: str  # "lower" or "upper"
    formula: str
    inputs: tuple[tuple[str, str], ...] = ()

    def label(self) -> str:
        return f"A_{self.q}({self.n},{self.d},{self.k})"

    def __post_init__(self):
        factor_prime_power(self.q)  # raises ValueError: GF(q) must exist
        if self.value < 1:
            raise ValueError("a bound on a nonempty code must be at least 1")


def bound_multiblock(q: int, n: int, t: int, s: int) -> BoundRecord:
    """Lower bound on A_q((s+1)n, 2(n-t), n) from s+1 parallel blocks.

    value = sum_{j=0}^{s} q^((s-j) n (t+1)) * F^j with F the bounded-rank
    subset size; s = 1, 2, 3 give the published two/three/four-block tables.
    """
    value = multiblock_size(q, n, t, s)
    return BoundRecord(
        q=q, n=(s + 1) * n, d=2 * (n - t), k=n, value=value, kind="lower",
        formula=f"multiblock(s={s})",
    )


def bound_johnson_halving(q: int, n: int, t: int) -> BoundRecord:
    """Lower bound on A_q(2n-1, 2(n-t), n-1): the s=1 bound divided by q^n + 1, floored."""
    value = multiblock_size(q, n, t, 1) // (q ** n + 1)
    return BoundRecord(
        q=q, n=2 * n - 1, d=2 * (n - t), k=n - 1, value=value, kind="lower",
        formula="johnson-halving",
    )


def bound_parallel_linkage(q: int, k: int, h: int, d: int, input_value: int,
                           input_source: str = "user") -> BoundRecord:
    """Lower bound on A_q(3k+h, d, k) from the three-block linkage.

    value = q^((2k+h)(k-d/2+1)) + S * input_value, where S counts the
    k x k maps of rank between d/2 and k-d/2 and input_value is a known
    lower bound on A_q(2k+h, d, k) (recorded in the result's inputs).
    """
    value = parallel_linkage_size(q, k, h, d, input_value)
    if input_value < 1:
        raise ValueError("the A_q(2k+h,d,k) input must be positive")
    return BoundRecord(
        q=q, n=3 * k + h, d=d, k=k, value=value, kind="lower",
        formula="parallel-linkage",
        inputs=((f"A_{q}({2 * k + h},{d},{k})={input_value}", input_source),),
    )


def anticode_upper(q: int, n: int, delta: int, k: int) -> BoundRecord:
    """Anticode upper bound on A_q(n, 2*delta, k): a floored Gaussian-binomial ratio."""
    factor_prime_power(q)  # before the Gaussian binomials, which take long for large n
    if not 1 <= delta <= k <= n:
        raise ValueError(f"need 1 <= delta <= k <= n, got delta={delta}, k={k}, n={n}")
    num = gaussian_binomial(n, k - delta + 1, q)
    den = gaussian_binomial(k, k - delta + 1, q)
    return BoundRecord(
        q=q, n=n, d=2 * delta, k=k, value=num // den, kind="upper",
        formula="anticode",
    )


def multiblock_closed_form_2k(q: int, k: int, s: int) -> int:
    """Closed form of the multi-block bound at n = 2k, t = k.

    The bounded-rank subset collapses to the single count
    (q^(2k) - 1) * prod_i (q^(2k-i) - 1)/(q^(k-i) - 1); spelled out here
    independently of the rank-distribution machinery as a cross-check.
    """
    prod = Fraction(q ** (2 * k) - 1)
    for i in range(k):
        prod *= Fraction(q ** (2 * k - i) - 1, q ** (k - i) - 1)
    if prod.denominator != 1:
        raise ArithmeticError("internal error: the n = 2k subset count is not an integer")
    a_k = int(prod)
    n = 2 * k
    t = k
    return sum(q ** ((s - j) * n * (t + 1)) * a_k ** j for j in range(s + 1))


# ----------------------------------------------------------------------
# Best-known value registry (CSV) and comparisons
# ----------------------------------------------------------------------

CSV_HEADER = ["q", "n", "d", "k", "value", "source"]


def load_best_known(path) -> dict:
    """The registry {(q, n, d, k): (value, source)} of a best-known CSV."""
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = set(CSV_HEADER) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"best-known CSV is missing columns: {sorted(missing)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    key = tuple(int(row[c]) for c in ("q", "n", "d", "k"))
                    value = int(row["value"])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"bad best-known CSV row at line {lineno}: {row}") from exc
                if value < 1:
                    raise ValueError(f"non-positive value at line {lineno}")
                if key in table:
                    raise ValueError(f"duplicate key {key} at line {lineno}")
                table[key] = (value, row["source"] or "")
        except csv.Error as exc:
            raise ValueError(f"bad best-known CSV at line {reader.reader.line_num}: {exc}") from None
    return table


def default_best_known() -> dict:
    """The shipped registry: the previously best known values quoted alongside the tables."""
    ref = resources.files("cdcodes").joinpath("data/best_known.csv")
    with resources.as_file(ref) as path:
        return load_best_known(path)


def compare(records, table: dict):
    """Flag each record as improvement / tie / below / unknown against the registry."""
    out = []
    for rec in records:
        known = table.get((rec.q, rec.n, rec.d, rec.k))
        if known is None:
            status = "unknown"
            old = None
        else:
            old = known[0]
            status = "improvement" if rec.value > old else ("tie" if rec.value == old else "below")
        out.append({"record": rec, "status": status, "old": old})
    return out


# ----------------------------------------------------------------------
# Table generation against the published row grids
# ----------------------------------------------------------------------

_MULTIBLOCK_TABLES = {2: 1, 4: 2, 5: 3}


def generate_table(table_id: int):
    """Recompute one of tables 2-5 row by row, in published order."""
    if table_id in _MULTIBLOCK_TABLES:
        s = _MULTIBLOCK_TABLES[table_id]
        rows = getattr(tables, f"TABLE{table_id}")
        return [bound_multiblock(q, n, t, s) for q, n, t, _new, _old in rows]
    if table_id == 3:
        return [bound_johnson_halving(q, n, t) for q, n, t, _new, _old in tables.TABLE3]
    raise ValueError(f"no generated grid for table id {table_id}; use generate_table1 for table 1")


def generate_table1(best_known: dict):
    """Three-block linkage rows; each needs a best-known A_q(2k+h, d, k) input.

    Returns (records, skipped) where skipped lists (q, k, h, d, reason) for
    rows whose input value is absent from the registry.
    """
    records = []
    skipped = []
    for q, k, h, d, _new, _old in tables.TABLE1:
        known = best_known.get((q, 2 * k + h, d, k))
        if known is None:
            skipped.append((q, k, h, d, f"no best-known value for A_{q}({2 * k + h},{d},{k})"))
            continue
        value, source = known
        records.append(bound_parallel_linkage(q, k, h, d, value, input_source=source))
    return records, skipped


def expected_rows(table_id: int):
    """Published (label, new, old) strings for --check mode, digits only."""
    out = []
    if table_id in _MULTIBLOCK_TABLES or table_id == 3:
        s = _MULTIBLOCK_TABLES.get(table_id)
        for q, n, t, new, old in getattr(tables, f"TABLE{table_id}"):
            if table_id == 3:
                label = f"A_{q}({2 * n - 1},{2 * (n - t)},{n - 1})"
            else:
                label = f"A_{q}({(s + 1) * n},{2 * (n - t)},{n})"
            out.append((label, new, old))
        return out
    if table_id == 1:
        return [
            (f"A_{q}({3 * k + h},{d},{k})", new, old)
            for q, k, h, d, new, old in tables.TABLE1
        ]
    raise ValueError(f"unknown table id {table_id}")


def check_table(table_id: int):
    """Compare freshly computed rows with the embedded reference strings.

    Returns a list of mismatch dicts; empty means the table reproduces
    exactly.  Only tables 2-5 are checkable (table 1 depends on external
    inputs).
    """
    records = generate_table(table_id)
    expected = expected_rows(table_id)
    mismatches = []
    for rec, (label, new, _old) in zip(records, expected):
        if str(rec.value) != new:
            mismatches.append({"label": label, "expected": new, "actual": str(rec.value)})
    return mismatches
