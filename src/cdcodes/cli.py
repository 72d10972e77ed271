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
row an array of integer element codes.  The writer prints the code's bases
array, which CodeSet keeps in canonical sorted order, so identical codes
produce identical files.  It renders a chunk of lines at once: the line's
byte template, with as many slots per entry as q - 1 has digits, is tiled
over the members, each entry's decimal digits fill its slots, and the slots
of leading zeros are dropped.  The reader skips blank lines and checks, for
each member line in this order, that it is JSON, a list of rows of length
N, made of integers (not floats or booleans) in [0, q), the canonical
full-rank RREF basis of its row space (``[]`` for the zero subspace), and k
rows long; then that the header count matches.
The first failing line is reported as "line L: <check>".  Lines are read a
chunk at a time, on one of two paths.  A chunk equal to the rendering of its
own digit runs, or equal to it once space, tab and CR are left out of both,
is the writer's bytes for that array in some JSON whitespace, and is read as
one: its entries are checked against q on the array, and each member's
canonical form and k rows one member at a time.  Every other chunk (a bad
line, a ``-0``, members of no entries as k * N = 0) is read one line at a
time by the checks above, which name the first line that fails.

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
import sys

from . import bounds as bounds_mod
from ._numpy import np
from .construct import (
    CodeSet,
    bases_dtype,
    grassmannian_code,
    lifted_mrd_code,
    multiblock_parallel_mrd,
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
# Member lines per read.  On the 729- and 855-member bench files, 64 lines read
# 4-6 % slower, and 256 or more read at most 3 % faster but peak 60 % higher
# in tracemalloc.
_READ_CHUNK = 128
@functools.cache
def _line_format(dim: int, n: int) -> str:
    """One member line's JSON text with %d for each entry."""
    row = "[" + ", ".join(["%d"] * n) + "]" if dim else ""  # dim = 0: "[]" whatever n is
    return "[" + ", ".join([row] * dim) + "]\n"


@functools.cache
def _line_template(dim: int, n: int, width: int) -> tuple:
    """The bytes of _line_format(dim, n) with width NUL slots in place of each
    %d, as a uint8 array, and the offsets of those slots."""
    line = np.frombuffer(_line_format(dim, n).replace("%d", "\0" * width).encode(), np.uint8)
    return line, np.flatnonzero(line == 0)


def _entry_width(q: int) -> int:
    """Digits of the widest entry, q - 1."""
    return len(str(q - 1))


def _render(bases, width: int) -> bytes:
    """The member lines of bases, an (M, k, N) array of entries of at most
    width digits: _line_format's text with each entry in decimal.

    The line template is tiled over the members and each entry's digits fill
    its width slots, most significant first.  The slots of leading zeros stay
    NUL and are dropped with the rest.  The digits come from integer division,
    which serves every entry type, uint64 and an object array's Python ints.
    """
    count, dim, n = bases.shape
    line, slots = _line_template(dim, n, width)
    lines = np.tile(line, (count, 1))
    digits = np.empty((count, dim * n, width), np.uint8)
    rest = bases.reshape(count, dim * n)
    for j in reversed(range(width)):
        digit = rest % 10 + 48
        digits[..., j] = digit if j == width - 1 else digit * (rest > 0)
        rest = rest // 10
    lines[:, slots] = digits.reshape(count, dim * n * width)
    return lines.tobytes().replace(b"\0", b"")


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
    width = _entry_width(code.q)
    for lo in range(0, len(code), _WRITE_CHUNK):
        fh.write(_render(code.bases[lo:lo + _WRITE_CHUNK], width).decode("ascii"))


def _all_ints(values) -> bool:
    """True for a list of plain ints (JSON floats and booleans excluded)."""
    return isinstance(values, list) and {int}.issuperset(map(type, values))


def _line_member(field: GF, n: int, k: int, line: str) -> list:
    """One member line's rows once they pass the checks in the order JSON,
    shape, integers, range, canonical form, k rows; a ValueError names the
    first check the line fails."""
    try:
        rows = json.loads(line.rstrip("\r\n"))  # an int past str()'s digit limit is a ValueError
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg} (column {exc.pos + 1})") from None
    except RecursionError:
        raise ValueError("member is nested too deeply") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == n for r in rows):
        raise ValueError(f"member is not a list of rows of length N={n}")
    if not all(map(_all_ints, rows)):
        raise ValueError("member entries are not all integers")
    matrix = MatrixGF(field, rows)  # a ValueError for an entry outside [0, q)
    if subspace_from_rows(matrix).basis != matrix.rows:
        raise ValueError("basis is not a canonical full-rank RREF")
    if len(rows) != k:
        raise ValueError(f"member has {len(rows)} rows, not k={k}")
    return rows


def _canonical_members(field: GF, k: int, members: list) -> bool:
    """True if each member, a list of rows of entries in [0, q), is a canonical
    basis of k rows: subspace_from_rows keeps a canonical basis as it is, so a
    basis that comes back changed is not canonical."""
    for member in members:
        basis = tuple(map(tuple, member))
        s = subspace_from_rows(MatrixGF._of(field, basis))
        if s.basis != basis or len(basis) != k:
            return False
    return True


def _digit_runs(data: bytes, count: int, dtype, width: int):
    """The count runs of decimal digits in data as a flat array of dtype, each
    read from its last width digits; None if data holds another number of runs.

    A run of more digits, or of a value past dtype, reads as some other value
    (the sum wraps), which the caller's comparison with the rendering refuses.
    """
    digit = np.empty(width + len(data), np.uint8)
    digit[:width] = 10  # not a digit: every run starts inside data
    np.subtract(np.frombuffer(data, np.uint8), 48, out=digit[width:])  # other bytes wrap past 9
    run = digit < 10
    end = run[:-1] > run[1:]  # the last digit of each run; member lines end in "]"
    if np.count_nonzero(end) != count:
        return None
    values, inside = digit[:-1][end].astype(dtype), True
    for j in range(1, width):  # the digit j places before each run's last
        inside = inside & run[:-1 - j][end[j:]]
        values += (digit[:-1 - j][end[j:]] * inside).astype(dtype) * 10 ** j
    return values


def _writer_array(field: GF, n: int, k: int, texts: list[str]):
    """The members on the lines in texts as one (len(texts), k, n) array of
    entries in [0, q), if the lines are the writer's bytes for it up to JSON
    whitespace; None if not.

    The lines' digit runs are parsed in one pass and the array is rendered
    back.  The text is taken if it equals that rendering, or equals it once
    space, tab and CR are removed from both.  Whitespace inside a number
    splits its digit run, so every run is one number of the rendering, and
    the text's JSON parse is that array by construction: a misread can only
    send the lines on to the per-line checks.
    """
    if not texts or k * n == 0:
        # the line template is as long as the header's k and n say, and a line
        # of no entries cannot bound them; such a code has at most one member
        return None
    data = "".join(texts).encode("ascii", "replace")  # the writer's bytes are ASCII
    if not data.endswith(b"\n"):
        data += b"\n"  # the last line of a file without a final newline
    width, shape = _entry_width(field.order), (len(texts), k, n)
    values = _digit_runs(data, len(texts) * k * n, bases_dtype(field), width)
    if values is None or values.max(initial=0) >= field.order:
        return None
    rendered = _render(values.reshape(shape), width)
    if rendered != data and rendered.translate(None, b" \t\r") != data.translate(None, b" \t\r"):
        return None
    return values.reshape(shape)


def _read_members(field: GF, n: int, k: int, lines: list[str], lineno: int):
    """The members on a chunk of lines, the first numbered lineno, as one
    (M, k, n) array of bases_dtype(field); blank lines are skipped.

    Lines in the writer's bytes, in any JSON whitespace, are read as an array,
    whose members then pass the canonical-form and k-row checks of
    _canonical_members.  Any other chunk is read one line at a time by
    _line_member, which names the first line that fails.
    """
    bases = _writer_array(field, n, k, list(filter(str.strip, lines)))
    if bases is not None and _canonical_members(field, k, bases.tolist()):
        return bases
    members = []
    for at, line in enumerate(lines, start=lineno):
        if line.strip():
            try:
                members.append(_line_member(field, n, k, line))
            except ValueError as exc:
                raise ValueError(f"line {at}: {exc}") from None
    flat = np.fromiter(_chain(_chain(members)), bases_dtype(field), count=len(members) * k * n)
    return flat.reshape(len(members), k, n)


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
    n, k = header["N"], header["k"]
    parts, lineno = [np.zeros((0, k, n), bases_dtype(field))], 2
    while lines := list(itertools.islice(fh, _READ_CHUNK)):
        parts.append(_read_members(field, n, k, lines, lineno))
        lineno += len(lines)
    bases = np.concatenate(parts)
    if len(bases) != header["count"]:
        raise ValueError(f"header count {header['count']} does not match {len(bases)} member lines")
    return CodeSet(field, n, k, header["claimed_distance"], bases, provenance)


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
        self.commands = {}  # subcommand name -> its parser

    def add_subparsers(self, **kwargs):
        sub = super().add_subparsers(**kwargs)
        self.commands = sub.choices
        return sub

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        try:
            return super().parse_args(args, namespace)
        except UsageError as exc:
            raise UsageError(self.misplaced_option(args) or exc) from None

    def misplaced_option(self, argv) -> str | None:
        """An error naming the first option before a subcommand name that the
        parser it comes under does not take, or None if there is none.

        argv is what follows this parser's name on the command line; the
        search goes on into each subcommand it names.  argparse passes such
        an option over and blames the token after it.
        """
        for at, token in enumerate(argv if self.commands else ()):
            if token in self.commands:
                return self.commands[token].misplaced_option(argv[at + 1:])
            if token.startswith("-") and token not in self._option_string_actions:
                return f"{token} is not an option of '{self.prog}'"
        return None


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
