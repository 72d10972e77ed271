import pytest

from cdcodes import tables
from cdcodes.bounds import (
    BoundRecord,
    anticode_upper,
    bound_johnson_halving,
    bound_multiblock,
    bound_parallel_linkage,
    check_table,
    compare,
    default_best_known,
    expected_rows,
    generate_table,
    generate_table1,
    load_best_known,
    multiblock_closed_form_2k,
)
from cdcodes.rankdist import filtration_size


def test_multiblock_anchor_values():
    assert bound_multiblock(2, 6, 3, 1).value == 16865101
    assert bound_multiblock(2, 7, 4, 1).value == 34532238023
    assert bound_multiblock(2, 6, 3, 2).value == 282957166112041
    assert bound_multiblock(2, 5, 3, 2).value == 1252379805361
    assert bound_multiblock(2, 5, 3, 3).value == 1315398998655356311


def test_multiblock_record_fields():
    rec = bound_multiblock(2, 6, 3, 2)
    assert (rec.q, rec.n, rec.d, rec.k) == (2, 18, 6, 6)
    assert rec.kind == "lower"
    assert rec.label() == "A_2(18,6,6)"


def test_multiblock_parameter_errors():
    with pytest.raises(ValueError):
        bound_multiblock(2, 6, 2, 1)  # 2t < n
    with pytest.raises(ValueError):
        bound_multiblock(2, 6, 6, 1)  # t must stay below n
    with pytest.raises(ValueError):
        bound_multiblock(2, 6, 3, 0)


def test_multiblock_recurrence():
    # bound(s+1) = q^(n(t+1)) * bound(s) + F^(s+1), exactly
    for q, n, t in [(2, 4, 2), (2, 6, 3), (3, 5, 3), (5, 6, 4)]:
        f = filtration_size(q, n, t, n - t)
        for s in (1, 2, 3):
            lhs = bound_multiblock(q, n, t, s + 1).value
            rhs = q ** (n * (t + 1)) * bound_multiblock(q, n, t, s).value + f ** (s + 1)
            assert lhs == rhs


def test_closed_form_2k_matches_multiblock():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in (1, 2, 3, 4):
            for s in (2, 3):
                assert multiblock_closed_form_2k(q, k, s) == bound_multiblock(q, 2 * k, k, s).value


def test_johnson_anchurs():
    assert bound_johnson_halving(2, 9, 6).value == 18073187439672244
    assert bound_johnson_halving(3, 9, 6).value == 58151863451946414791142287
    rec = bound_johnson_halving(2, 9, 6)
    assert (rec.n, rec.d, rec.k) == (17, 6, 8)


def test_parallel_linkage_anchors():
    a = bound_parallel_linkage(2, 6, 0, 6, 16813481)
    assert a.value == 282952629488341
    b = bound_parallel_linkage(2, 6, 0, 6, 16865101)
    assert b.value == 282957166112041
    c = bound_parallel_linkage(2, 6, 1, 6, 269057345)
    assert c.value == 4527245732135821
    assert (c.q, c.n, c.d, c.k) == (2, 19, 6, 6)
    assert c.inputs[0][0] == "A_2(13,6,6)=269057345"


def test_parallel_linkage_errors():
    with pytest.raises(ValueError):
        bound_parallel_linkage(2, 6, 0, 5, 100)  # odd distance
    with pytest.raises(ValueError):
        bound_parallel_linkage(2, 4, 0, 6, 100)  # d > k
    with pytest.raises(ValueError):
        bound_parallel_linkage(2, 6, -1, 6, 100)
    with pytest.raises(ValueError):
        bound_parallel_linkage(2, 6, 0, 6, 0)


def test_anticode_values():
    assert anticode_upper(2, 4, 1, 2).value == 35
    assert anticode_upper(2, 8, 2, 4).value == 97155 // 15 == 6477
    assert anticode_upper(2, 6, 1, 2).value == 651
    with pytest.raises(ValueError):
        anticode_upper(2, 4, 3, 2)


def test_lower_bounds_stay_below_anticode():
    # every generated lower bound respects the anticode ceiling
    for table_id in (2, 3, 4, 5):
        for rec in generate_table(table_id):
            upper = anticode_upper(rec.q, rec.n, rec.d // 2, rec.k)
            assert rec.value <= upper.value


def test_generate_tables_match_reference():
    for table_id in (2, 3, 4, 5):
        assert check_table(table_id) == []
        records = generate_table(table_id)
        expected = expected_rows(table_id)
        assert len(records) == len(expected)
        for rec, (label, new, _old) in zip(records, expected):
            assert rec.label() == label
            assert str(rec.value) == new


def test_table_row_counts():
    assert len(tables.TABLE1) == 63
    assert len(tables.TABLE2) == 41
    assert len(tables.TABLE3) == 7
    assert len(tables.TABLE4) == 21
    assert len(tables.TABLE5) == 14


def test_default_best_known_and_compare():
    table = default_best_known()
    assert table[2, 12, 6, 6] == (16813481, "prior-tables")
    assert table[2, 13, 6, 6][0] == 269057345
    rec = bound_multiblock(2, 6, 3, 1)
    [res] = compare([rec], table)
    assert res["status"] == "improvement"
    assert res["old"] == 16813481
    tie = BoundRecord(2, 12, 6, 6, 16813481, "lower", "fake")
    below = BoundRecord(2, 12, 6, 6, 5, "lower", "fake")
    missing = BoundRecord(2, 99, 6, 6, 5, "lower", "fake")
    statuses = [r["status"] for r in compare([tie, below, missing], table)]
    assert statuses == ["tie", "below", "unknown"]


def test_generate_table1_with_default_registry():
    table = default_best_known()
    records, skipped = generate_table1(table)
    by_label = {rec.label(): rec for rec in records}
    # anchored rows from the shipped registry
    assert by_label["A_2(18,6,6)"].value == 282952629488341
    assert by_label["A_2(19,6,6)"].value == 4527245732135821
    # other (18,6,6)/(19,6,6) rows compute from the quoted prior values
    assert by_label["A_3(18,6,6)"].value == int(
        dict(((q, k, h, d), new) for q, k, h, d, new, _ in tables.TABLE1)[(3, 6, 0, 6)]
    )
    # rows with no registry input are reported, not fatal
    assert all(reason.startswith("no best-known value") for *_params, reason in skipped)
    assert len(records) + len(skipped) == 63


def test_generate_table1_rows_match_reference_where_computable():
    # the shipped registry makes 8 rows computable (all (q,18,6,6) plus
    # A_2(19,6,6)); each must land exactly on its published value
    expected = {
        (q, 3 * k + h, d, k): new for q, k, h, d, new, _old in tables.TABLE1
    }
    records, _skipped = generate_table1(default_best_known())
    assert len(records) == 8
    for rec in records:
        assert str(rec.value) == expected[(rec.q, rec.n, rec.d, rec.k)]


def test_load_best_known_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("q,n,d\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_best_known(bad_header)
    dup = tmp_path / "d.csv"
    dup.write_text("q,n,d,k,value,source\n2,4,2,2,5,x\n2,4,2,2,6,y\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_best_known(dup)
    bad_value = tmp_path / "v.csv"
    bad_value.write_text("q,n,d,k,value,source\n2,4,2,2,abc,x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_best_known(bad_value)


def test_load_best_known_names_the_line_of_malformed_csv(tmp_path):
    # csv.Error, here a field over the csv module's limit, comes out as a ValueError
    big = tmp_path / "big.csv"
    big.write_text("q,n,d,k,value,source\n2,4,2,2,5,x\n2,4,2,3,5," + "x" * 200_000 + "\n",
                   encoding="utf-8")
    with pytest.raises(ValueError, match="^bad best-known CSV at line 3: field larger than"):
        load_best_known(big)


def test_bound_record_rejects_nonpositive():
    with pytest.raises(ValueError):
        BoundRecord(2, 4, 2, 2, 0, "lower", "bad")
