"""Command-line front end: bounds, tables, constructions, verification.

`bound` and `table` run without loading numpy, which is imported on first
array use (see `cdcodes._numpy`).  Options are taken under their full names
only, and each construction takes its own: lifted ``--q --n --t``,
multiblock ``--q --n --t --s``, parallel-linkage ``--q --k --d`` with
optional ``--h`` (default 0) and ``--v-code``, grassmannian ``--q --n --k``;
all take ``--budget`` and ``-o``.

File formats
------------
Code files are JSON lines (UTF-8).  The first line is a header::

    {"q": ..., "p": ..., "m": ..., "moduli": [c0..cm], "N": ..., "k": ...,
     "claimed_distance": ..., "provenance": {...}, "count": ...}

followed by one line per member: the RREF basis as an array of rows, each
row an array of integer element codes.  The writer prints the code's
bases array, which builds keep in canonical sorted order, one %-template
per chunk of lines, so identical codes produce identical files.  The reader
skips blank lines and checks, for each member line in this order, that it
is JSON, a list of rows of length N, made of integers (not floats or
booleans) in [0, q), and the canonical full-rank RREF basis of its row
space (``[]`` for the zero subspace); then that the header count matches.
The first failing line is reported as "line L: <check>".  Lines are checked
a chunk at a time, and one at a time only to find which line of a chunk
failed.

Numeric tables are CSV with columns ``A_q(n,d,k), new, old, formula``; the
best-known registry is CSV with header ``q,n,d,k,value,source``.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or parse
error, printed as one ``error: ...`` line, 3 enumeration budget exceeded.
``construct --budget`` sets the enumeration cap, 2^24 elements by default.
``verify`` finds the exact distance when it is priced within the pair scan
of 5,000 members; past that, auto samples and ``--mode exhaustive`` exits 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

from . import bounds as bounds_mod
from ._numpy import np
from .construct import (
    CodeSet,
    bases_dtype,
    grassmannian_code,
    lifted_mrd_code,
    multiblock_parallel_mrd,
    padded_bases,
    parallel_linkage,
)
from .gf import GF
from .linalg import MatrixGF, subspace_from_rows
from .qpoly import DEFAULT_BUDGET, BudgetError
from .verify import SAMPLED_PAIRS, SAMPLED_SEED, validate_codeset

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_chain = itertools.chain.from_iterable


# ----------------------------------------------------------------------
# Code file round trip
# ----------------------------------------------------------------------

_WRITE_CHUNK = 4096  # member lines per write
_READ_CHUNK = 64  # member lines per parse when reading; larger chunks read no faster
# Non-blank lines that each hold one JSON list of lists of integer tokens.  Every
# member line the per-line checks accept has this form, and a line of this form
# that parses as JSON within its chunk parses alone to the same value.  Each
# whitespace run sits between two fixed tokens, so a line matches in one way
# only and a failed match backtracks through each earlier line once.
_ROW = r"\[[-0-9, \t\r]*\]"
_LINE = rf"[ \t\r]*\[[ \t\r]*(?:{_ROW}(?:[ \t\r]*,[ \t\r]*{_ROW})*[ \t\r]*)?\][ \t\r]*"
_MEMBER_LINES = re.compile(rf"(?:{_LINE}\n)*(?:{_LINE})?")


@functools.cache
def _line_format(dim: int, n: int) -> str:
    """One member line's JSON text with %d for each entry."""
    return "[" + ", ".join(["[" + ", ".join(["%d"] * n) + "]"] * dim) + "]\n"


def write_codeset(code: CodeSet, fh) -> None:
    header = {
        "q": code.q,
        "p": code.field.p,
        "m": code.field.m,
        "moduli": list(code.field.modulus),
        "N": code.ambient_dim,
        "k": code.dim,
        "claimed_distance": code.claimed_distance,
        "provenance": code.provenance,
        "count": len(code),
    }
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    bases, n = code.bases, code.ambient_dim
    for lo in range(0, len(bases), _WRITE_CHUNK):
        chunk = bases[lo:lo + _WRITE_CHUNK]
        full = chunk.any(axis=2)  # the rows that are not padding
        if full.all():
            template = _line_format(chunk.shape[1], n) * len(chunk)
        else:
            template = "".join([_line_format(d, n) for d in full.sum(axis=1).tolist()])
        fh.write(template % tuple(chunk[full].ravel().tolist()))


def _all_ints(values) -> bool:
    """True for a list of plain ints (JSON floats and booleans excluded)."""
    return isinstance(values, list) and {int}.issuperset(map(type, values))


def _line_error(field: GF, n: int, line: str) -> str | None:
    """The first check one member line fails, in the order JSON, shape, integers,
    range, canonical form; None if it passes them all."""
    try:
        rows = json.loads(line.rstrip("\r\n"))
    except json.JSONDecodeError as exc:
        return f"{exc.msg} (column {exc.pos + 1})"
    except RecursionError:
        return "member is nested too deeply"
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == n for r in rows):
        return f"member is not a list of rows of length N={n}"
    if not all(map(_all_ints, rows)):
        return "member entries are not all integers"
    try:
        matrix = MatrixGF(field, rows)
    except ValueError as exc:
        return str(exc)
    s = subspace_from_rows(matrix)
    if s.basis != matrix.rows:
        return "basis is not a canonical full-rank RREF"
    return None


def _chunk_members(field: GF, n: int, texts: list[str]) -> tuple[list, list[int]] | None:
    """(rows, dims) of the members on the non-blank lines in texts, or None if any
    line fails a check: their rows in order, and the number of rows of each.

    The lines are checked together: one pattern match for their form, one
    json.loads of them joined, one pass over all rows for length n and one
    over their distinct entries for the range [0, q).  subspace_from_rows
    then keeps each canonical basis as it is, so a basis that comes back
    changed is not canonical.
    """
    if not _MEMBER_LINES.fullmatch("".join(texts)):
        return None
    try:
        parsed = json.loads("[" + ",".join(texts) + "]")
    except ValueError:  # JSONDecodeError, or an int of more digits than str() allows
        return None
    rows = list(_chain(parsed))
    entries = set(_chain(rows))
    if not ({n}.issuperset(map(len, rows))
            and 0 <= min(entries, default=0) and max(entries, default=0) < field.order):
        return None
    for member in parsed:
        basis = tuple(map(tuple, member))
        s = subspace_from_rows(MatrixGF._of(field, basis))
        if s.basis != basis:
            return None
    return rows, list(map(len, parsed))


def _read_members(field: GF, n: int, lines: list[str], lineno: int) -> tuple[list, list[int]]:
    """_chunk_members of a chunk of lines, the first numbered lineno; blank lines are skipped.

    The chunk is checked as a whole, and line by line only to name the
    first line that fails.
    """
    members = _chunk_members(field, n, [line for line in lines if line.strip()])
    if members is not None:
        return members
    for at, line in enumerate(lines, start=lineno):
        error = line.strip() and _line_error(field, n, line)
        if error:
            raise ValueError(f"line {at}: {error}")
    raise RuntimeError(f"lines {lineno}-{lineno + len(lines) - 1} fail a chunk check but no line check")


def read_codeset(fh) -> CodeSet:
    header_line = fh.readline()
    if not header_line.strip():
        raise ValueError("empty code file")
    try:
        header = json.loads(header_line)
    except RecursionError:
        raise ValueError("code file header is nested too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("code file header is not a JSON object")
    for key in ("q", "p", "m", "moduli", "N", "k", "claimed_distance", "count"):
        if key not in header:
            raise ValueError(f"code file header is missing '{key}'")
        if not _all_ints(header[key] if key == "moduli" else [header[key]]):
            kind = "a list of integers" if key == "moduli" else "an integer"
            raise ValueError(f"code file header '{key}' is not {kind}")
    for key in ("N", "k"):
        if header[key] < 0:
            raise ValueError(f"code file header '{key}' is negative")
    provenance = header.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError("code file header 'provenance' is not a JSON object")
    field = GF(header["p"], header["m"], tuple(header["moduli"]))
    if field.order != header["q"]:
        raise ValueError("header q does not match p^m")
    n, dtype = header["N"], bases_dtype(field)
    parts, dims = [], []
    lineno = 2
    while lines := list(itertools.islice(fh, _READ_CHUNK)):
        rows, chunk_dims = _read_members(field, n, lines, lineno)
        parts.append(np.fromiter(_chain(rows), dtype, count=len(rows) * n))
        dims += chunk_dims
        lineno += len(lines)
    if len(dims) != header["count"]:
        raise ValueError(
            f"header count {header['count']} does not match {len(dims)} member lines"
        )
    rows = np.concatenate([np.zeros(0, dtype)] + parts).reshape(sum(dims), n)
    return CodeSet(field, n, header["k"], header["claimed_distance"],
                   padded_bases(rows, dims, header["k"]), provenance)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

_STR_BITS = 13_000  # ~3,900 digits, under Python's default 4,300-digit limit on str(int)


def _decimal(value: int) -> str:
    """Decimal text of a non-negative int of any size, without str(int)'s digit limit."""
    if value.bit_length() <= _STR_BITS:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def cmd_bound(args) -> int:
    rec = args.run(args)
    print(f"{_decimal(rec.value)} {rec.formula} {rec.kind} {rec.label()}")
    return EXIT_OK


def _table_records(args):
    if args.table_id == 1:
        if args.best_known:
            registry = bounds_mod.load_best_known(args.best_known)
        else:
            registry = bounds_mod.default_best_known()
        records, skipped = bounds_mod.generate_table1(registry)
        return records, skipped
    return bounds_mod.generate_table(args.table_id), []


def cmd_table(args) -> int:
    if args.best_known is not None and args.table_id != 1:
        raise UsageError("--best-known supplies the inputs of table 1 only")
    if args.check:
        if args.table_id == 1:
            raise UsageError("table 1 depends on external inputs and has no embedded reference")
        mismatches = bounds_mod.check_table(args.table_id)
        if mismatches:
            for mm in mismatches:
                print(f"MISMATCH {mm['label']}: expected {mm['expected']}, got {mm['actual']}")
            return EXIT_CHECK_FAILED
        rows = len(bounds_mod.expected_rows(args.table_id))
        print(f"table {args.table_id}: all {rows} rows reproduce exactly")
        return EXIT_OK

    records, skipped = _table_records(args)
    olds = {
        label: old for label, _new, old in bounds_mod.expected_rows(args.table_id)
    }
    lines = ["A_q(n,d,k),new,old,formula"]
    for rec in records:
        old = olds.get(rec.label()) or ""
        lines.append(f"{rec.label()},{rec.value},{old},{rec.formula}")
    for q, k, h, d, reason in skipped:
        lines.append(f"A_{q}({3 * k + h},{d},{k}),,,skipped: {reason}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(records)} rows to {args.output}"
              + (f" ({len(skipped)} skipped)" if skipped else ""))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_file(path: str) -> CodeSet:
    with open(path, encoding="utf-8") as fh:
        return read_codeset(fh)


def cmd_construct(args) -> int:
    code = args.run(args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_codeset(code, fh)
        print(f"wrote {len(code)} members to {args.output}")
    else:
        write_codeset(code, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    code = _read_file(args.path)
    report = validate_codeset(code, sampled_pairs=args.pairs, seed=args.seed, mode=args.mode)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


class UsageError(Exception):
    """A malformed command line: main prints it as one error line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """The class of the parser and its subparsers: options under their full
    names only, and UsageError where argparse would print usage and exit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _variant(sub, name: str, summary: str, run, options: str, parents=()) -> _Parser:
    """Add the subparser `name` to sub: it sets args.run to run and takes the
    int options named in options, each required except --h, which defaults to 0."""
    sp = sub.add_parser(name, help=summary, parents=list(parents))
    for opt in options.split():
        kind = {"default": 0} if opt == "h" else {"required": True}
        sp.add_argument(f"--{opt}", type=int, **kind)
    sp.set_defaults(run=run)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cdc` parser, built once per process: parsing leaves it unchanged.

    Each bound formula and construction is one subparser with its own options
    and library call, which looks its function up by name when it runs.
    """
    parser = _Parser(
        prog="cdc",
        description="Constant-dimension subspace codes: constructions, verification, bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate one bound formula")
    p_bound.set_defaults(func=cmd_bound)
    bsub = p_bound.add_subparsers(dest="formula", required=True)
    _variant(bsub, "multiblock", "multi-block lower bound on A_q((s+1)n, 2(n-t), n)",
             lambda a: bounds_mod.bound_multiblock(a.q, a.n, a.t, a.s), "q n t s")
    _variant(bsub, "johnson", "halved bound on A_q(2n-1, 2(n-t), n-1)",
             lambda a: bounds_mod.bound_johnson_halving(a.q, a.n, a.t), "q n t")
    _variant(bsub, "anticode", "anticode upper bound on A_q(n, 2*delta, k)",
             lambda a: bounds_mod.anticode_upper(a.q, a.n, a.delta, a.k), "q n delta k")
    _variant(bsub, "parallel-linkage",
             "three-block linkage bound on A_q(3k+h, d, k); --input bounds A_q(2k+h, d, k) below",
             lambda a: bounds_mod.bound_parallel_linkage(a.q, a.k, a.h, a.d, a.input,
                                                         input_source="cli"),
             "q k h d input")

    p_table = sub.add_parser("table", help="regenerate a published bound table")
    p_table.add_argument("table_id", type=int, choices=[1, 2, 3, 4, 5])
    p_table.add_argument("--best-known", dest="best_known", default=None,
                         help="best-known CSV supplying table-1 inputs")
    check_or_write = p_table.add_mutually_exclusive_group()
    check_or_write.add_argument("--check", action="store_true",
                                help="compare against the embedded reference rows (tables 2-5)")
    check_or_write.add_argument("-o", "--output", default=None)
    p_table.set_defaults(func=cmd_table)

    p_con = sub.add_parser("construct", help="build a code and write it as JSON lines")
    p_con.set_defaults(func=cmd_construct)
    csub = p_con.add_subparsers(dest="construction", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget (default 2^24)")
    common.add_argument("-o", "--output", default=None)
    _variant(csub, "lifted", "lifted MRD code: (2n, q^(n(t+1)), 2(n-t), n)",
             lambda a: lifted_mrd_code(a.q, a.n, a.t, budget=a.budget), "q n t", [common])
    _variant(csub, "multiblock", "(s+1)-block parallel code on (s+1)n, distance 2(n-t)",
             lambda a: multiblock_parallel_mrd(a.q, a.n, a.t, a.s, budget=a.budget),
             "q n t s", [common])
    linkage = _variant(csub, "parallel-linkage", "two linked families on 3k+h, distance d",
                       lambda a: parallel_linkage(a.q, a.k, a.h, a.d,
                                                  _read_file(a.v_code) if a.v_code else None,
                                                  budget=a.budget),
                       "q k h d", [common])
    linkage.add_argument("--v-code", dest="v_code", default=None,
                         help="code file for the second linkage family")
    _variant(csub, "grassmannian", "every k-subspace of GF(q)^n, handy for building v-code inputs",
             lambda a: grassmannian_code(a.q, a.n, a.k, budget=a.budget), "q n k", [common])

    p_ver = sub.add_parser("verify", help="validate a code file and print a JSON report")
    p_ver.add_argument("path")
    p_ver.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto",
                       help="auto finds the exact distance when its price fits the pair scan "
                            "of 5,000 members, else samples --pairs; exhaustive exits 2 there")
    p_ver.add_argument("--pairs", type=int, default=SAMPLED_PAIRS)
    p_ver.add_argument("--seed", type=int, default=SAMPLED_SEED)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ValueError, OSError) as exc:  # ValueError covers ConstructionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
