"""The benchmark's own checks: the output gate catches wrong outputs, and the
span recorder's self-time arithmetic is exact."""

import io

import pytest

from cdcbench import run, spans, workloads


@pytest.fixture
def toy_bench(tmp_path):
    """The toy code with one table pass and one point of the published bound grid."""
    return run.Bench(workloads.TOY, 1, workloads.load_expected(), tmp_path)


def test_unmodified_code_passes_the_gate(toy_bench):
    toy_bench.gate_size_bound()
    toy_bench.iteration(0)
    assert toy_bench.attempted == 9  # size bound, construct, verify, 5 tables, 1 bound point
    assert toy_bench.failed == 0


def test_one_changed_member_fails(toy_bench, monkeypatch):
    from cdcodes import cli

    write = cli.write_codeset

    def write_with_member_changed(code, fh):
        buf = io.StringIO()
        write(code, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[1] = lines[2]  # the first member becomes a copy of the second
        fh.write("".join(lines))

    monkeypatch.setattr(cli, "write_codeset", write_with_member_changed)
    toy_bench.iteration(0)
    assert toy_bench.failed == 2  # the file hash, and the report (duplicate member)


def test_wrong_table_row_fails(toy_bench, monkeypatch):
    from cdcodes import tables

    q, n, t, new, old = tables.TABLE2[0]
    monkeypatch.setattr(tables, "TABLE2", [(q, n, t, str(int(new) + 1), old), *tables.TABLE2[1:]])
    toy_bench.iteration(0)
    assert toy_bench.failed == 1


def test_wrong_verify_report_fails():
    exp = workloads.load_expected()["workloads"]["q3-exhaustive"]
    report = ('{"pass": true, "checks": [{"check": "min_distance", "pass": true,'
              ' "actual": "3 (exhaustive)"}]}')
    assert workloads.check_verify(exp, 0, report)
    assert workloads.check_verify(exp, 1, report)


def test_bound_cross_checks():
    point = workloads.multiblock_point(2, 6, 3, 1)  # n = 2k: closed form applies
    assert point.closed_form == (2, 3, 1)
    rc, out, _ = run.run_cli(point.lower)
    lower = workloads.bound_value(rc, out)
    assert workloads.check_bound(point, lower, lower) == []
    assert workloads.check_bound(point, lower, lower - 1)  # above the anticode bound
    assert workloads.check_bound(point, lower + 1, lower + 1)  # off the closed form
    assert workloads.check_bound(point, None, lower)


def test_grid_is_a_function_of_the_seed():
    assert workloads.large_grid(5) == workloads.large_grid(5)
    assert workloads.large_grid(5) != workloads.large_grid(6)


def test_self_times_of_a_nested_trace(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    rec = spans.SpanRecorder()
    root = rec.open("cli.main")                 # 0 .. 10
    a = rec.open("construct.build")             # 1 .. 4
    b = rec.open("linalg.rref")                 # 2 .. 3
    rec.close(b)
    rec.close(a)
    c = rec.open("linalg.rref")                 # 5 .. 9
    rec.close(c)
    rec.close(root)
    st = rec.self_times()
    assert st["cli.main"] == (10.0, 3.0, 1)
    assert st["construct.build"] == (3.0, 2.0, 1)
    assert st["linalg.rref"] == (5.0, 5.0, 2)
    assert sum(v[1] for v in st.values()) == 10.0  # the root span's duration


def test_traced_layers_add_up_and_wrappers_are_removed(toy_bench):
    from cdcodes import cli, linalg

    main, rref = cli.main, cli.subspace_from_rows
    rec = spans.SpanRecorder()
    untraced = toy_bench.iteration(0)
    with spans.Instrumentation(rec):
        assert cli.main is not main and cli.subspace_from_rows is not rref
        traced = toy_bench.iteration(0)
    assert cli.main is main and cli.subspace_from_rows is rref is linalg.subspace_from_rows
    m = run.per_layer(toy_bench, rec, [untraced], [traced],
                      [{"import_s": 0.1, "field_s": 0.001}], iterations=2)
    wall, gap = m["trace.wall_s"]["value"], m["trace.gap_s"]["value"]
    assert 0 <= gap < 0.05 * wall
    assert m["construct.members"]["value"] == 25
    assert m["linalg.rref_calls.read"]["value"] == 25
    assert m["verify.pairs"]["value"] == 25 * 24 // 2
    assert m["tables.rows_checked"]["value"] == 83
    assert toy_bench.failed == 0
