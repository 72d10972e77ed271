"""The code-file reader checks member lines a chunk at a time; it must accept
exactly what the per-line reference reader below accepts, and name the same
first bad line with the same message."""

import io
import json
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdcodes import cli
from cdcodes.cli import read_codeset, write_codeset
from cdcodes.construct import CodeSet, grassmannian_code, lifted_mrd_code, multiblock_parallel_mrd
from cdcodes.gf import GF
from cdcodes.linalg import MatrixGF, Subspace, subspace_from_rows
from subspace_codes import code_of


def _all_ints(values) -> bool:
    return isinstance(values, list) and {int}.issuperset(map(type, values))


def reference_read_codeset(fh) -> CodeSet:
    """The per-line reader: one parse and one set of checks per member line."""
    header_line = fh.readline()
    if not header_line.strip():
        raise ValueError("empty code file")
    header = json.loads(header_line)
    if not isinstance(header, dict):
        raise ValueError("code file header is not a JSON object")
    for key in ("q", "p", "m", "moduli", "N", "k", "claimed_distance", "count"):
        if key not in header:
            raise ValueError(f"code file header is missing '{key}'")
        if not _all_ints(header[key] if key == "moduli" else [header[key]]):
            kind = "a list of integers" if key == "moduli" else "an integer"
            raise ValueError(f"code file header '{key}' is not {kind}")
    field = GF(header["p"], header["m"], tuple(header["moduli"]))
    if field.order != header["q"]:
        raise ValueError("header q does not match p^m")
    members = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        try:
            rows = json.loads(line.rstrip("\r\n"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc.msg} (column {exc.pos + 1})") from None
        if not isinstance(rows, list) or not all(
                isinstance(r, list) and len(r) == header["N"] for r in rows):
            raise ValueError(f"line {lineno}: member is not a list of rows of length N={header['N']}")
        if not all(map(_all_ints, rows)):
            raise ValueError(f"line {lineno}: member entries are not all integers")
        member = Subspace(field, header["N"], rows)
        try:
            matrix = MatrixGF(field, member.basis)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if subspace_from_rows(matrix).basis != member.basis:  # [] is the zero subspace
            raise ValueError(f"line {lineno}: basis is not a canonical full-rank RREF")
        if member.dim != header["k"]:
            raise ValueError(f"line {lineno}: member has {member.dim} rows, not k={header['k']}")
        members.append(member)
    if len(members) != header["count"]:
        raise ValueError(
            f"header count {header['count']} does not match {len(members)} member lines"
        )
    return code_of(field, header["N"], header["k"], header["claimed_distance"], members,
                   header.get("provenance", {}))


def outcome(reader, text):
    """The members and header fields a reader returns, or the error it raises."""
    try:
        code = reader(io.StringIO(text))
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)
    return ("read", code.q, code.ambient_dim, code.dim, code.claimed_distance,
            code.provenance, [(s.field, s.ambient_dim, s.basis) for s in code.members])


def code_text(code):
    buf = io.StringIO()
    write_codeset(code, buf)
    return buf.getvalue()


CODES = {  # small files: N = 4 over GF(2) and GF(3), N = 6 over GF(2)
    "lifted(2,2,1)": code_text(lifted_mrd_code(2, 2, 1)),
    "lifted(3,2,1)": code_text(lifted_mrd_code(3, 2, 1)),
    "multiblock(2,2,1,1)": code_text(multiblock_parallel_mrd(2, 2, 1, 1)),
}
MUTATIONS = ["truncate", "split", "two_then_split", "entry", "blank", "delete", "swap_rows",
             "drop_row", "widen_row", "empty_member", "not_a_list", "crlf"]


@st.composite
def mutated_files(draw):
    """A small code file with one to three line-level mutations."""
    header, *lines = CODES[draw(st.sampled_from(sorted(CODES)))].splitlines(keepends=True)
    q = json.loads(header)["q"]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if kind == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line) - 1))] + "\n"
        elif kind == "split" and len(line) > 1:
            cut = draw(st.integers(1, len(line) - 1))
            lines[i:i + 1] = [line[:cut] + "\n", line[cut:]]
        elif kind == "two_then_split" and i + 2 < len(lines) and ", [" in lines[i + 2]:
            # [[..],[..]],[[..],[..]] then [[1,0] / [0,1]]: as many members as lines
            first, rest = lines[i + 2].split(", [", 1)
            lines[i:i + 3] = [line.rstrip("\n") + "," + lines[i + 1], first + "\n", "[" + rest]
        elif kind == "entry" and any(ch.isdigit() for ch in line):
            value = draw(st.sampled_from(["1.0", "true", "false", "null", "-1", "-0", str(q),
                                          str(q + 7), "18446744073709551616", "1e0", '"1"',
                                          "01", "[0]"]))
            digits = [j for j, ch in enumerate(line) if ch.isdigit()]
            j = draw(st.sampled_from(digits))
            lines[i] = line[:j] + value + line[j + 1:]
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["\n", " \n", "\t\n", "\r\n", "\x0c\n"])))
        elif kind == "delete":
            del lines[i]
        elif kind in ("swap_rows", "drop_row", "widen_row") and line.startswith("[["):
            try:
                rows = json.loads(line)
            except json.JSONDecodeError:
                continue
            if kind == "swap_rows" and len(rows) > 1:
                rows[0], rows[-1] = rows[-1], rows[0]
            elif kind == "drop_row":
                rows.pop(draw(st.integers(0, len(rows) - 1)))
            elif kind == "widen_row":
                row = rows[draw(st.integers(0, len(rows) - 1))]
                if isinstance(row, list):  # not_a_list may have left a bare entry there
                    row.append(0)
            lines[i] = json.dumps(rows, separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
            lines[i] += "\n"
        elif kind == "empty_member":
            lines[i] = draw(st.sampled_from(["[]\n", "[[]]\n", "[ ]\n"]))
        elif kind == "not_a_list":
            lines[i] = draw(st.sampled_from(["5\n", '"[[1, 0]]"\n', "{}\n", "[5, 6]\n",
                                             "[[1, 0, 0, 0], 5]\n", '["1000", [0, 1, 0, 0]]\n',
                                             "[{}]\n"]))
        elif kind == "crlf":
            lines[i] = line.rstrip("\n") + draw(st.sampled_from(["\r\n", " \t\n", "\r"]))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")  # no final newline
    return header + "".join(lines)


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_files(), st.integers(1, 8))
def test_reader_agrees_with_the_per_line_reference(text, chunk):
    with mock.patch.object(cli, "_READ_CHUNK", chunk):  # errors near chunk boundaries too
        assert outcome(read_codeset, text) == outcome(reference_read_codeset, text)


def with_line(name, at, member):
    """CODES[name] with line `at` (1-based, the header is line 1) replaced by member."""
    lines = CODES[name].splitlines(keepends=True)
    lines[at - 1] = member + "\n"
    return "".join(lines)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files())
@example(with_line("lifted(2,2,1)", 3, "[[0, 0, 0, 1]]"))  # a 1-row member among 2-row members
@example(with_line("multiblock(2,2,1,1)", 3, "[]"))  # the zero subspace in a k = 2 file
def test_verify_answers_any_mutated_file_or_refuses_it_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "code.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        with open(path, encoding="utf-8") as fh:  # as `cdc verify` opens it
            read_codeset(fh)
        message = None
    except ValueError as exc:
        message = str(exc)
    code, out, err = run_main(capsys, "verify", str(path))
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    assert (code == 2) == (message is not None)
    if message is not None:
        assert (out, err) == ("", f"error: {message}\n")
    else:  # every member the reader lets through has the header's k rows
        assert json.loads(out)["checks"][0]["actual"] == "0 offending members"


def two_members_then_a_split_member(lines):
    first, rest = lines[3].split(", [", 1)
    return lines[:1] + [lines[1].rstrip("\n") + "," + lines[2], first + "\n", "[" + rest] + lines[4:]


@pytest.mark.parametrize("name, edit, result", [
    ("lifted(2,2,1)", lambda lines: lines, "read"),
    ("lifted(3,2,1)", lambda lines: lines, "read"),
    ("multiblock(2,2,1,1)", lambda lines: lines, "read"),
    ("lifted(3,2,1)", lambda lines: [lines[0], "[[10, 0, 0, 0], [0, 1, 0, 0]]\n"] + lines[2:],
     "line 2: entry 10 outside field of order 3"),
    ("lifted(3,2,1)", lambda lines: [lines[0], "[[1, 0, 0, -0], [0, 1, 0, 0]]\r\n"] + lines[2:],
     "read"),
    ("multiblock(2,2,1,1)", two_members_then_a_split_member, "line 2: Extra data (column 29)"),
    ("lifted(2,2,1)", lambda lines: [lines[0], lines[1].replace("1", "1.0", 1)] + lines[2:],
     "line 2: member entries are not all integers"),  # 1.0 == 1 keeps the basis canonical
    ("lifted(2,2,1)", lambda lines: [lines[0], lines[1].replace("1", "true", 1)] + lines[2:],
     "line 2: member entries are not all integers"),
    ("lifted(2,2,1)", lambda lines: lines[:2] + ["5\n"] + lines[3:],
     "line 3: member is not a list of rows of length N=4"),
    ("lifted(2,2,1)", lambda lines: lines[:2] + ["[[1, 0, 0, 0], 5]\n"] + lines[3:],
     "line 3: member is not a list of rows of length N=4"),
    ("lifted(3,2,1)", lambda lines: [lines[0], "[[1, 0, 0, 5], [0, 1, 0, 0]]\n",
                                     f"[[{'1' * 5000}, 0, 0, 0], [0, 1, 0, 0]]\n"] + lines[3:],
     "line 2: entry 5 outside field of order 3"),  # line 3 is past the int digit limit
])
def test_reader_agrees_on_chosen_files(name, edit, result):
    text = "".join(edit(CODES[name].splitlines(keepends=True)))
    expected = outcome(reference_read_codeset, text)
    assert outcome(read_codeset, text) == expected
    assert (expected[2] if expected[0] == "error" else "read") == result


def test_a_file_in_reverse_order_reads_as_the_sorted_code():
    header, *lines = CODES["lifted(3,2,1)"].splitlines(keepends=True)
    code = read_codeset(io.StringIO(header + "".join(lines[::-1])))
    assert code.members == lifted_mrd_code(3, 2, 1).members


def test_valid_file_never_takes_the_per_line_checks(monkeypatch):
    # the per-line checks run only to name the line of an error a chunk check found
    calls = []
    monkeypatch.setattr(cli, "_line_error", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "_READ_CHUNK", 7)
    code = read_codeset(io.StringIO(CODES["multiblock(2,2,1,1)"]))
    assert len(code) == 25 and calls == []


WRITTEN = dict(CODES, **{  # more entry widths, a code of the zero subspace and an empty one
    "lifted(16,2,0)": code_text(lifted_mrd_code(16, 2, 0)),
    "lifted(251,1,0)": code_text(lifted_mrd_code(251, 1, 0)),
    "grassmannian(2,3,0)": code_text(grassmannian_code(2, 3, 0)),
    "empty": code_text(CodeSet(GF(3), 4, 2, 2, np.zeros((0, 2, 4), np.uint8))),
})


def chunk_members_calls(monkeypatch):
    calls = []
    chunk_members = cli._chunk_members
    monkeypatch.setattr(cli, "_chunk_members", lambda *args: calls.append(args) or chunk_members(*args))
    return calls


def entries_per_member(text):
    header = json.loads(text.split("\n", 1)[0])
    return header["k"] * header["N"]


@pytest.mark.parametrize("chunk", [1, 7, cli._READ_CHUNK])
@pytest.mark.parametrize("name", sorted(name for name in WRITTEN if entries_per_member(WRITTEN[name])))
def test_files_in_the_writer_bytes_never_take_the_chunk_checks(monkeypatch, name, chunk):
    # the writer's own bytes are read as an array: its rendering equals them.
    # A member of no entries always takes the chunk checks (a code of one member)
    def refuse(*args):
        raise AssertionError("a chunk of the writer's bytes went to _chunk_members")

    monkeypatch.setattr(cli, "_chunk_members", refuse)
    monkeypatch.setattr(cli, "_READ_CHUNK", chunk)
    code = read_codeset(io.StringIO(WRITTEN[name]))
    assert code_text(code) == WRITTEN[name]


@pytest.mark.parametrize("respell", [
    lambda body: body.replace(", ", ","),
    lambda body: body.replace("\n", "\r\n"),
    lambda body: body[:-1],  # no final newline
], ids=["respaced", "crlf", "no-final-newline"])
@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_other_spellings_of_a_file_read_to_the_same_code_through_the_chunk_checks(
        monkeypatch, name, respell):
    header, body = WRITTEN[name].split("\n", 1)
    text = header + "\n" + respell(body)
    calls = chunk_members_calls(monkeypatch)
    assert outcome(read_codeset, text) == outcome(read_codeset, WRITTEN[name])
    assert bool(calls) == (text != WRITTEN[name] or not entries_per_member(text))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
def test_reader_names_a_bad_line_at_once_after_many_padded_empty_members():
    # 63 empty members with blanks inside the brackets, in a file of k = 0,
    # then a float: a check whose work grows exponentially with the lines
    # before the bad one would not finish; the reference names line 65 at once
    header = json.loads(CODES["lifted(2,2,1)"].splitlines()[0])
    text = json.dumps(dict(header, k=0)) + "\n" + "[ \t ]\n" * 63
    text += "[[1.0, 0, 0, 0], [0, 1, 0, 0]]\n"

    def too_slow(signum, frame):
        raise TimeoutError("reading took over 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        result = outcome(read_codeset, text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result == outcome(reference_read_codeset, text)
    assert result[2] == "line 65: member entries are not all integers"


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of one `cdc` call."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def readers_of(path):
    """The `cdc` calls that read a code file: verify, and a parallel-linkage v-code."""
    return [("verify", str(path)),
            ("construct", "parallel-linkage", "--q", "2", "--k", "2", "--d", "2", "--v-code", str(path))]


@pytest.mark.parametrize("field, value, message", [
    ("provenance", 5, "'provenance' is not a JSON object"),
    ("provenance", None, "'provenance' is not a JSON object"),
    ("provenance", ["construction"], "'provenance' is not a JSON object"),
    ("N", -1, "'N' is negative"),
    ("k", -2, "'k' is negative"),
])
def test_malformed_header_fields_end_with_one_error_line(tmp_path, capsys, field, value, message):
    header, *lines = CODES["lifted(2,2,1)"].splitlines(keepends=True)
    fields = json.loads(header)
    fields[field] = value
    path = tmp_path / "code.jsonl"
    path.write_text(json.dumps(fields) + "\n" + "".join(lines), encoding="utf-8")
    for argv in readers_of(path):
        assert run_main(capsys, *argv) == (2, "", f"error: code file header {message}\n")


@pytest.mark.parametrize("at, message", [(0, "code file header is nested too deeply"),
                                         (2, "line 3: member is nested too deeply")])
def test_deeply_nested_lines_end_with_one_error_line(tmp_path, capsys, at, message):
    lines = CODES["lifted(2,2,1)"].splitlines(keepends=True)
    lines[at] = "[" * 100_000 + "]" * 100_000 + "\n"
    path = tmp_path / "code.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    for argv in readers_of(path):
        assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")
