import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdcodes import bounds, cli, gf, linalg, tables, verify
from cdcodes.cli import main, read_codeset, write_codeset
from cdcodes.construct import (CodeSet, bases_dtype, grassmannian_code, lifted_mrd_code,
                               multiblock_parallel_mrd)
from cdcodes.gf import field_of_order
from cdcodes.linalg import Subspace
from codefile_reference import percent_member_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_per_process(capsys):
    argvs = [
        ["bound", "multiblock", "--q", "2", "--n", "4", "--t", "2", "--s", "1"],
        ["bound", "anticode", "--q", "2"],  # argparse usage error
        ["construct", "lifted", "--q", "2"],  # missing construction options
        ["bound", "johnson", "--q", "3", "--n", "4", "--t", "2"],
        ["table", "3", "--check"],
    ]

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli.build_parser.cache_clear()
    cached = [run_cli(capsys, *argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert cached == fresh
    assert [code for code, _out, _err in cached] == [0, 2, 2, 0, 0]


def test_bound_multiblock(capsys):
    code, out, _ = run_cli(capsys, "bound", "multiblock", "--q", "2", "--n", "6", "--t", "3", "--s", "2")
    assert code == 0
    assert out.split()[0] == "282957166112041"
    assert "A_2(18,6,6)" in out


def test_bound_anticode(capsys):
    code, out, _ = run_cli(capsys, "bound", "anticode", "--q", "2", "--n", "4", "--delta", "1", "--k", "2")
    assert code == 0
    assert out.split()[0] == "35"


def test_bound_johnson(capsys):
    code, out, _ = run_cli(capsys, "bound", "johnson", "--q", "2", "--n", "9", "--t", "6")
    assert code == 0
    assert out.split()[0] == "18073187439672244"


def test_bound_parallel_linkage(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "parallel-linkage", "--q", "2", "--k", "6", "--h", "1",
        "--d", "6", "--input", "269057345",
    )
    assert code == 0
    assert out.split()[0] == "4527245732135821"


def test_bound_bad_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "bound", "multiblock", "--q", "2", "--n", "6", "--t", "2", "--s", "1")
    assert code == 2
    assert "error" in err


def test_bound_q_not_a_prime_power_exit_2(capsys):
    code, out, err = run_cli(capsys, "bound", "multiblock", "--q", "6", "--n", "4", "--t", "2", "--s", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "prime power" in err


def test_bound_above_the_int_str_digit_limit(capsys):
    value = bounds.bound_multiblock(9, 40, 39, 3).value
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "bound", "multiblock", "--q", "9", "--n", "40", "--t", "39",
                             "--s", "3")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit  # the interpreter-wide limit is untouched
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(value)) > 4300
        assert out.split()[0] == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


BOUND_OPTIONS = {
    "multiblock": ("q", "n", "t", "s"), "johnson": ("q", "n", "t"),
    "anticode": ("q", "n", "delta", "k"), "parallel-linkage": ("q", "k", "h", "d", "input"),
}


@st.composite
def bound_argvs(draw):
    """Well-formed `cdc bound` argument lists with small, possibly invalid, integers."""
    formula = draw(st.sampled_from(sorted(BOUND_OPTIONS)))
    argv = ["bound", formula]
    for name in BOUND_OPTIONS[formula]:
        if name == "h" and draw(st.booleans()):
            continue  # --h defaults to 0
        value = draw(st.integers(-3, 10 ** 6) if name == "input" else st.integers(-3, 12))
        argv += [f"--{name}", str(value)]
    return argv


@given(bound_argvs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bound_answers_any_integers_with_a_value_or_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    if code == 0:
        assert int(out.split()[0]) > 0
    else:
        assert out == "" and err.startswith("error: ")


def test_table_check_passes(capsys):
    for tid in ("2", "3", "4", "5"):
        code, out, _ = run_cli(capsys, "table", tid, "--check")
        assert code == 0
        assert "reproduce exactly" in out


def test_table_check_rejected_for_table1(capsys):
    code, _, err = run_cli(capsys, "table", "1", "--check")
    assert code == 2


def test_table_output_csv(tmp_path, capsys):
    out_path = tmp_path / "t5.csv"
    code, out, _ = run_cli(capsys, "table", "5", "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "A_q(n,d,k),new,old,formula"
    assert len(lines) == 15  # header + 14 rows
    assert lines[1].startswith("A_2(20,4,5),1315398998655356311,")


def test_table1_uses_registry_and_reports_skips(tmp_path, capsys):
    out_path = tmp_path / "t1.csv"
    code, out, _ = run_cli(capsys, "table", "1", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "A_2(18,6,6),282952629488341" in text
    assert "A_2(19,6,6),4527245732135821" in text
    assert "skipped: no best-known value" in text


def test_table1_with_custom_registry(tmp_path, capsys):
    reg = tmp_path / "reg.csv"
    reg.write_text(
        "q,n,d,k,value,source\n2,10,4,5,1235787711790,made-up\n", encoding="utf-8"
    )
    out_path = tmp_path / "t1.csv"
    code, _, _ = run_cli(capsys, "table", "1", "--best-known", str(reg), "-o", str(out_path))
    assert code == 0
    rows = out_path.read_text().splitlines()
    # the supplied A_2(10,4,5) input makes exactly the A_2(15,4,5) row computable
    assert any(l.startswith("A_2(15,4,5),") and ",skipped" not in l for l in rows)
    assert sum(",,,skipped" in l for l in rows) == 62


def test_table1_refuses_an_oversized_best_known_field_in_one_line(tmp_path, capsys):
    reg = tmp_path / "reg.csv"
    reg.write_text("q,n,d,k,value,source\n2,10,4,5,1235787711790," + "x" * 200_000 + "\n",
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "table", "1", "--best-known", str(reg))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: bad best-known CSV at line 2: field larger than field limit")


TABLE1_INPUTS = sorted({(q, 2 * k + h, d, k) for q, k, h, d, _new, _old in tables.TABLE1})
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
CSV_FIELD = st.one_of(st.integers(-3, 10 ** 20).map(str), CSV_TEXT,
                      st.sampled_from(['"', '"1"', ' 7', '1e3', '\r', '\n', '"a""b"']))


@st.composite
def best_known_texts(draw):
    """Best-known CSV text: mostly the right header, else another or any text,
    then rows of drawn fields, some keyed by an input of table 1 with a drawn value."""
    lines = ["q,n,d,k,value,source" if draw(st.booleans()) else draw(
        st.sampled_from(["q,n,d,k,value", "value,source,q,n,d,k,extra"]) | CSV_TEXT)]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            key = draw(st.sampled_from(TABLE1_INPUTS))
            fields = [*key, draw(st.integers(-2, 10 ** 30)), draw(CSV_TEXT)]
        else:
            fields = draw(st.lists(CSV_FIELD, max_size=8))
        lines.append(",".join(map(str, fields)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@given(best_known_texts())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table1_reads_any_best_known_csv_or_gives_one_error_line(tmp_path, capsys, text):
    reg = tmp_path / "reg.csv"
    reg.write_text(text, encoding="utf-8", newline="")
    code, out, err = run_cli(capsys, "table", "1", "--best-known", str(reg))
    assert code in (0, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    if code == 0:
        assert out.startswith("A_q(n,d,k),new,old,formula") and err == ""
    else:
        assert out == "" and err.startswith("error: ")


def test_construct_writes_and_verify_passes(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    code, out, _ = run_cli(
        capsys, "construct", "multiblock", "--q", "2", "--n", "2", "--t", "1", "--s", "1",
        "-o", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["count"] == 25
    assert len(lines) == 1 + 25
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    dist = next(c for c in report["checks"] if c["check"] == "min_distance")
    assert dist["actual"].startswith("2 ")


def test_construct_lifted_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["count"] == 16
    assert len(lines) == 17


def test_construct_missing_args_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "multiblock", "--q", "2", "--n", "2", "--t", "1")
    assert code == 2
    assert "--s" in err


@pytest.mark.parametrize("argv, message", [
    (("grassmannian", "--q", "2", "--n", "-1", "--k", "0"), "need 0 <= k <= N, got k=0, N=-1"),
    (("grassmannian", "--q", "2", "--n", "3", "--k", "-1"), "need 0 <= k <= N, got k=-1, N=3"),
    (("lifted", "--q", "2", "--n", "3", "--t", "5"), "need 0 <= t < n, got t=5, n=3"),
])
def test_construct_bad_parameters_are_named(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    "construct lifted --q 2 --n 2 --t 1 --h 1",  # an option lifted does not take
    "construct multiblock --q 2 --n 2 --t 1 --s 1 --v-code nope",
    "bound multiblock --q 2 --n 4 --t 2 --s 1 --h 1",  # not read as --help
    "bound anticode --q 2 --n 4 --del 1 --k 2",  # not read as --delta
    "construct lifted --q x --n 2 --t 1",
    "construct multiblock --q 2 --n 2 --t 1",
    "table 7",
    "table 1 --check",
    "table 2 --best-known x.csv",  # table 2 takes no inputs
    "table 2 --check -o t.csv",  # --check writes no file
    "",
    "--bogus 1 table 2",  # an unknown option before the command
    "construct --q 2 lifted --n 2 --t 1",  # an option before the construction name
    "--he",  # not read as --help
])
def test_usage_errors_are_one_line_and_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv.split())  # main returns: no SystemExit
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    ("--bogus 1 table 2", "--bogus is not an option of 'cdc'"),
    ("construct --q 2 lifted --n 2 --t 1", "--q is not an option of 'cdc construct'"),
    ("--he", "--he is not an option of 'cdc'"),
    ("bound --s=1 multiblock --q 2 --n 4 --t 2", "--s=1 is not an option of 'cdc bound'"),
    ("construct lifted --q 2 --n 2 --t 1 --h 1", "unrecognized arguments: --h 1"),
    ("construct grassmannian --q 2 --n -1", "the following arguments are required: --k"),
    ("bound multiblock --q 1 --n 4 --t 2 --s 1", "not a prime power: 1"),
    ("bound anticode --q 1 --n 4 --delta 1 --k 2", "not a prime power: 1"),
    ("bound anticode --q 6 --n 1200 --delta 1 --k 600", "not a prime power: 6"),  # no arithmetic
])
def test_usage_errors_name_the_token_at_fault(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdc ")


CONSTRUCT_OPTIONS = {
    "lifted": ("q", "n", "t"), "multiblock": ("q", "n", "t", "s"),
    "parallel-linkage": ("q", "k", "h", "d", "v-code"), "grassmannian": ("q", "n", "k"),
}
OPTIONAL = {"h", "v-code", "budget", "o", "check", "best-known"}
VALUES = {
    "q": st.sampled_from(["2", "3", "4", "6"]),
    "budget": st.integers(0, 4096).map(str),
    "v-code": st.sampled_from(["{v}", "{missing}"]), "o": st.just("{out}"),
    "best-known": st.sampled_from(["{registry}", "{missing}"]),
}
SMALL_INT = st.integers(0, 4).map(str)
JUNK = st.sampled_from(["x", "1.5", "-1"])
TABLE_IDS = ["1", "2", "3", "4", "5", "7", "x"]


def _flag(name):
    return "-o" if name == "o" else f"--{name}"


@st.composite
def construct_and_table_argvs(draw):
    """(argv, refused) for `cdc construct` and `cdc table`: each declared option
    absent, present or repeated with a drawn value, and in half the lists junk
    values and options that the command does not take.  refused says the
    parser must refuse argv.  Files are placeholders in braces; construct's
    --budget is always given, at most 4096, so every build stays small."""
    if draw(st.booleans()):
        variant = draw(st.sampled_from(sorted(CONSTRUCT_OPTIONS)))
        head, declared = ["construct", variant], CONSTRUCT_OPTIONS[variant] + ("budget", "o")
        foreign = sorted({"q", "n", "t", "s", "k", "h", "d", "v-code", "del", "bud"}
                         - set(declared))
    else:
        head, declared = ["table", draw(st.sampled_from(TABLE_IDS))], ("check", "best-known", "o")
        foreign = ["q", "budget", "v-code", "h", "best", "che", "out"]
    dirty = draw(st.booleans())
    groups, given_names, refused = [], set(), False
    for name in declared:
        required = name == "budget" or (name not in OPTIONAL and not dirty)
        count = draw(st.integers(1 if required else 0, 2))
        given_names |= {name} if count else set()
        refused |= not count and name not in OPTIONAL
        for _ in range(count):
            if name == "check":
                groups.append(["--check"])
                continue
            value = draw(VALUES.get(name, SMALL_INT))
            if dirty and name not in ("v-code", "o", "best-known") and draw(st.booleans()):
                value = draw(JUNK)
                refused |= value != "-1"
            groups.append([_flag(name), value])
    for name in draw(st.lists(st.sampled_from(foreign), max_size=2 if dirty else 0)):
        groups.append([_flag(name), draw(SMALL_INT | JUNK)])
        refused = True
    if head[0] == "table":
        refused |= (head[1] not in TABLE_IDS[:5] or {"check", "o"} <= given_names
                    or ("best-known" in given_names and head[1] != "1")
                    or (head[1] == "1" and "check" in given_names))
    order = draw(st.permutations(groups))
    return head + [token for group in order for token in group], refused


@given(construct_and_table_argvs())
@example((["construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "--h", "1"], True))
@example((["table", "2", "--best-known", "{missing}"], True))
@example((["table", "2", "--check", "-o", "{out}"], True))
@example((["construct", "grassmannian", "--q", "2", "--n", "1", "--k", "0", "--budget", "1"],
          False))  # a file of one 0-dimensional member reads back
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_construct_and_table_answer_any_arguments_or_refuse_them_in_one_line(
        tmp_path, capsys, case):
    argv, refused = case
    out_path, v_path = tmp_path / "out", tmp_path / "v.jsonl"
    out_path.unlink(missing_ok=True)
    if not v_path.exists():
        with open(v_path, "w", encoding="utf-8") as fh:
            write_codeset(grassmannian_code(2, 4, 2), fh)
    files = {"out": out_path, "v": v_path, "missing": tmp_path / "missing",
             "registry": Path(cli.__file__).with_name("data") / "best_known.csv"}
    code, out, err = run_cli(capsys, *[arg.format(**files) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    if refused:
        assert code == 2 and err.startswith("error: ")
    if code:
        assert out == "" and not out_path.exists()
    elif argv[0] == "construct":
        with open(out_path, encoding="utf-8") if out_path.exists() else io.StringIO(out) as fh:
            header = json.loads(fh.readline())
            fh.seek(0)
            assert len(read_codeset(fh)) == header["count"]
    elif out_path.exists():
        assert out_path.read_text().startswith("A_q(n,d,k),new,old,formula\n")


def json_lines(code):
    """The member lines as json.dumps prints them, one call per member."""
    return "".join(json.dumps([list(row) for row in s.basis]) + "\n" for s in code.members)


def reversed_planes(q):
    """Every plane of GF(q)^3, given to CodeSet in reverse order."""
    planes = grassmannian_code(q, 3, 2)
    return CodeSet(planes.field, 3, 2, 2, planes.bases[::-1])


@pytest.mark.parametrize("build, args", [
    (multiblock_parallel_mrd, (2, 3, 2, 1)), (lifted_mrd_code, (3, 3, 1)),
    (lifted_mrd_code, (16, 2, 0)),  # entries up to 15: two digits
    (lifted_mrd_code, (251, 1, 0)),  # entries up to 250: three digits, one byte each
    (lifted_mrd_code, (257, 1, 0)),  # entries up to 256: two bytes each
    (grassmannian_code, (2, 3, 0)),  # one 0-dimensional member
    (lambda: CodeSet(field_of_order(2), 4, 2, 2, np.zeros((0, 2, 4), np.uint8)), ()),  # none
    (reversed_planes, (3,)),  # written in sorted order
    (lifted_mrd_code, (4, 2, 0)),
    (grassmannian_code, (2, 0, 0)),  # one member of no rows in an ambient space of none
])
def test_written_member_lines_are_the_json_text(monkeypatch, build, args):
    code = build(*args)
    assert list(code.members) == sorted(code.members)
    for chunk in (1, 7, 10, 4096):  # one member a chunk, several chunks, one chunk
        buf = io.StringIO()
        monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
        write_codeset(code, buf)
        header, members = buf.getvalue().split("\n", 1)
        assert members == json_lines(code) == percent_member_lines(code.bases, chunk)
        assert json.loads(header)["count"] == len(code)
        assert read_codeset(io.StringIO(buf.getvalue())).members == code.members


@pytest.mark.parametrize("convert, shown", [
    (lambda b: b.astype(bool), "True"), (lambda b: b.astype(float), "1.0"),
    (lambda b: -b.astype(np.int64), "-1"),
])
def test_writer_refuses_entries_that_are_not_plain_ints(convert, shown):
    # the reader accepts only plain non-negative ints, so a code holds nothing else to write
    code = lifted_mrd_code(2, 2, 1)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=rf"member entry {re.escape(shown)} is not a non-negative int"):
        write_codeset(CodeSet(code.field, 4, 2, 2, convert(code.bases)), buf)
    assert buf.getvalue() == ""  # nothing written: the code is refused where its array is made
    # an int64 array is cast to the code's entry type, whose entries are written as plain ints
    expected = io.StringIO()
    write_codeset(code, expected)
    write_codeset(CodeSet(code.field, 4, 2, 2, code.bases.astype(np.int64), code.provenance),
                  buf)
    assert buf.getvalue() == expected.getvalue()


def large_prime_code(p, monkeypatch):
    """Two planes of GF(p)^4, p a prime near 2^64, with entries up to p - 1;
    is_prime is trial division and would take about 2^31 steps to confirm p."""
    monkeypatch.setattr(gf, "is_prime", lambda n: n == p)
    field = gf.GF(p)
    bases = [[[1, 0, 0, 9], [0, 1, 2 ** 63, 1]], [[1, 0, p - 1, 10 ** 19], [0, 1, 0, p - 2]]]
    return CodeSet(field, 4, 2, 2, np.array(bases, dtype=bases_dtype(field)))


@pytest.mark.parametrize("p", [2**64 - 59, 2**64 + 13])
def test_codes_beyond_int64_write_as_the_reference_and_read_back(monkeypatch, p):
    # entries held as uint64 below 2^64 and as Python ints in an object array above
    code = large_prime_code(p, monkeypatch)
    assert code.bases.dtype == (object if p > 2**64 else np.uint64)
    for chunk in (1, 4096):
        buf = io.StringIO()
        monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
        write_codeset(code, buf)
        members = buf.getvalue().split("\n", 1)[1]
        assert members == json_lines(code) == percent_member_lines(code.bases, chunk)
    back = read_codeset(io.StringIO(buf.getvalue()))
    assert back.bases.dtype == code.bases.dtype and back.bases.tolist() == code.bases.tolist()


class LengthOnly:
    """A text file that keeps only the length of what is written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def traced_peak(fn) -> int:
    """The most memory fn's allocations held at once, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k, n, line, result", [
    (0, 10**7, "[]", 1),
    (10**7, 0, "[[]]", "line 2: basis is not a canonical full-rank RREF"),
], ids=["k0", "N0"])
def test_a_header_of_many_rows_or_columns_and_no_entries_costs_the_reader_nothing(k, n, line, result):
    # a member of k rows of n entries, with k * n = 0, is written without entries,
    # so the size of the header's k or N must not set the size of what a read builds
    header = {"q": 2, "p": 2, "m": 1, "moduli": [1, 1], "N": n, "k": k, "claimed_distance": 2, "count": 1}
    text = json.dumps(header) + "\n" + line + "\n"
    found = []

    def read():
        try:
            found.append(len(read_codeset(io.StringIO(text))))
        except ValueError as exc:
            found.append(str(exc))

    assert traced_peak(read) < 1 << 20 and found == [result]


def test_code_file_io_peaks_within_the_bases_and_one_chunk(tmp_path, monkeypatch):
    # a 2 MB file of 53 chunks: a whole-file temporary is over each bound, and
    # so is one of 8 bytes for each digit of a chunk
    code = lifted_mrd_code(16, 2, 1)
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 1024)
    monkeypatch.setattr(cli, "_READ_CHUNK", 1024)
    chunk = 1024 * len(cli._line_format(2, 4) % ((15,) * 8))  # 1,024 of the widest member lines
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk)  # CodeSet checks the array in chunks too
    path = tmp_path / "code.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_codeset(code, fh)
    assert path.stat().st_size > 50 * chunk
    write_codeset(code, LengthOnly())  # line templates are cached outside the trace

    def read():
        with open(path, encoding="utf-8") as fh:
            return read_codeset(fh)

    read()
    assert traced_peak(lambda: write_codeset(code, LengthOnly())) < 5 * chunk
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:1025]
    assert traced_peak(lambda: cli._writer_array(code.field, 4, 2, lines)) < 6 * chunk
    # beside the array pass, a read holds a chunk's members as Python lists for
    # the per-member check, and CodeSet takes the chunks' arrays stacked into one
    assert traced_peak(read) < 2 * code.bases.nbytes + 12 * chunk


def test_construct_budget_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "construct", "multiblock", "--q", "2", "--n", "4", "--t", "2", "--s", "1",
        "--budget", "100",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_verify_corrupted_member_exit_1(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    # tamper with one member so that it duplicates another's row space
    lines[2] = lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    report = json.loads(out)
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert "distinct_members" in failing or "min_distance" in failing


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2


def test_verify_non_canonical_member_exit_2(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    rows = json.loads(lines[1])
    rows[0], rows[1] = rows[1], rows[0]  # swapped rows are no longer RREF-ordered
    lines[1] = json.dumps(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "canonical" in err


def test_verify_malformed_header_and_member_shape_exit_2(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    path.write_text("5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and "JSON object" in err
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    lines[1] = json.dumps([row + [0] for row in json.loads(lines[1])])  # rows of length N+1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and "length N=4" in err


@pytest.mark.parametrize("field, value", [
    ("p", "2"), ("q", 4.0), ("N", True), ("moduli", [1, "1"]), ("moduli", 3),
])
def test_verify_non_integer_header_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and f"'{field}'" in err


@pytest.mark.parametrize("entry", ["a", 1.0, True, None])
def test_verify_non_integer_member_entry_exit_2(tmp_path, capsys, entry):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    rows = json.loads(lines[1])
    rows[0][0] = entry
    lines[1] = json.dumps(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and "line 2" in err and "integers" in err


def test_verify_truncated_member_line_names_its_line(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + [lines[5][:9]]) + "\n", encoding="utf-8")  # cut short
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: line 6: Expecting ',' delimiter (column 10)"]


def test_verify_out_of_range_member_entry_names_its_line(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(path))
    lines = path.read_text().splitlines()
    rows = json.loads(lines[4])
    rows[0][3] = 5
    lines[4] = json.dumps(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: line 5: entry 5 outside field of order 2"]


@pytest.mark.parametrize("argv, line, member, message", [
    (["verify"], 3, "[[0, 0, 0, 1]]", "line 3: member has 1 rows, not k=2"),
    (["verify"], 3, "[]", "line 3: member has 0 rows, not k=2"),
    (["verify"], 3, "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]",
     "line 3: member has 3 rows, not k=2"),
    (["construct", "parallel-linkage", "--q", "2", "--k", "2", "--d", "2", "--v-code"], 2,
     "[[0, 0, 0, 1]]", "line 2: member has 1 rows, not k=2"),
], ids=["one-row", "zero-rows", "three-rows", "v-code"])
def test_a_member_of_another_dimension_is_one_error_line(tmp_path, capsys, argv, line, member,
                                                        message):
    # each member is canonical: only its row count differs from the header's k
    path = tmp_path / "code.jsonl"
    build = ["grassmannian", "--q", "2", "--n", "4", "--k", "2"] if argv[0] == "construct" else \
        ["lifted", "--q", "2", "--n", "2", "--t", "1"]
    assert run_cli(capsys, "construct", *build, "-o", str(path))[0] == 0
    lines = path.read_text().splitlines()
    lines[line - 1] = member
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli(capsys, *argv, str(path)) == (2, "", f"error: {message}\n")


def test_cli_multiblock_4621_end_to_end(tmp_path, capsys):
    path = tmp_path / "big.jsonl"
    code, _, _ = run_cli(
        capsys, "construct", "multiblock", "--q", "2", "--n", "4", "--t", "2", "--s", "1",
        "-o", str(path),
    )
    assert code == 0
    header = json.loads(path.read_text().splitlines()[0])
    assert header["count"] == 4621
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    dist = next(c for c in report["checks"] if c["check"] == "min_distance")
    assert dist["actual"] == "4 (exhaustive)"


def test_verify_sampled_deterministic(tmp_path, capsys):
    path = tmp_path / "code.jsonl"
    run_cli(capsys, "construct", "multiblock", "--q", "2", "--n", "2", "--t", "1", "--s", "2",
            "-o", str(path))
    code1, out1, _ = run_cli(capsys, "verify", str(path), "--mode", "sampled",
                             "--pairs", "5000", "--seed", "11")
    code2, out2, _ = run_cli(capsys, "verify", str(path), "--mode", "sampled",
                             "--pairs", "5000", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_defaults_to_auto_mode(tmp_path, capsys, monkeypatch):
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "2", "--t", "1", "-o", str(small))
    run_cli(capsys, "construct", "lifted", "--q", "2", "--n", "5", "--t", "2", "-o", str(large))

    def verify_distance(*argv):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        return next(c for c in json.loads(out)["checks"] if c["check"] == "min_distance")["actual"]

    assert verify_distance(str(small)) == "2 (exhaustive)"  # 16 members
    assert verify_distance(str(large)) == "6 (exhaustive)"  # 32,768 members, on the oracle
    # with no bytes for the oracle only the pair scan could answer, and its
    # price for 32,768 members is over the budget: auto samples, exhaustive refuses
    monkeypatch.setattr(verify, "_ORACLE_BYTES", 0)
    assert verify_distance(str(large), "--pairs", "1000").endswith(
        f" (sampled(1000,seed={0x5EED}))")
    code, out, err = run_cli(capsys, "verify", str(large), "--mode", "exhaustive")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "32768 members priced over the budget" in err


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_only_the_reader_and_the_witness_make_subspaces(tmp_path, capsys, monkeypatch, mode):
    # the build and the oracles work on the bases array; the reader checks each
    # member with one subspace_from_rows call, and the report's witness is two members
    made = []
    init = Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    path = str(tmp_path / "code.jsonl")
    code, _, _ = run_cli(capsys, "construct", "multiblock", "--q", "2", "--n", "3", "--t", "2",
                         "--s", "1", "-o", path)
    assert code == 0 and made == []
    code, out, _ = run_cli(capsys, "verify", path, "--mode", mode, "--pairs", "1000")
    assert code == 0 and len(json.loads(out)["checks"][-1]["witness"]) == 2
    assert len(made) == 855 + 2


def test_codeset_roundtrip_identity():
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    buf = io.StringIO()
    write_codeset(code, buf)
    buf.seek(0)
    loaded = read_codeset(buf)
    assert loaded.members == code.members
    assert loaded.q == code.q
    assert loaded.ambient_dim == code.ambient_dim
    assert loaded.dim == code.dim
    assert loaded.claimed_distance == code.claimed_distance
    assert loaded.provenance["predicted_size"] == 25
    # writing the loaded code again is byte-identical
    buf2 = io.StringIO()
    write_codeset(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_read_codeset_header_count_mismatch():
    code = lifted_mrd_code(2, 2, 1)
    buf = io.StringIO()
    write_codeset(code, buf)
    text = buf.getvalue().strip().splitlines()
    del text[3]
    with pytest.raises(ValueError):
        read_codeset(io.StringIO("\n".join(text) + "\n"))


def test_construct_parallel_linkage_with_v_code_file(tmp_path, capsys):
    v_path = tmp_path / "v.jsonl"
    code, _, _ = run_cli(capsys, "construct", "grassmannian", "--q", "2", "--n", "4", "--k", "2",
                         "-o", str(v_path))
    assert code == 0
    out_path = tmp_path / "pl.jsonl"
    code, _, _ = run_cli(capsys, "construct", "parallel-linkage", "--q", "2", "--k", "2",
                         "--h", "0", "--d", "2", "--v-code", str(v_path), "-o", str(out_path))
    assert code == 0
    header = json.loads(out_path.read_text().splitlines()[0])
    assert header["count"] == 571


def test_construct_parallel_linkage_names_a_v_code_of_another_dimension(tmp_path, capsys):
    v_path = tmp_path / "v.jsonl"
    assert run_cli(capsys, "construct", "grassmannian", "--q", "2", "--n", "4", "--k", "1",
                   "-o", str(v_path))[0] == 0
    code, out, err = run_cli(capsys, "construct", "parallel-linkage", "--q", "2", "--k", "2",
                             "--d", "2", "--v-code", str(v_path))
    assert code == 2 and not out
    assert err == "error: v_code must consist of k-dim subspaces of GF(q)^(2k+h)\n"
