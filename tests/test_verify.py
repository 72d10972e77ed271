import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdcodes.construct import (
    CodeSet,
    grassmannian_code,
    lifted_mrd_code,
    linkage,
    multiblock_parallel_mrd,
    parallel_linkage,
    rect_lifted_mrd_code,
)
from cdcodes.gf import field_of_order
from cdcodes.linalg import MatrixGF, Subspace, rref_batch, subspace_distance, subspace_from_rows
from cdcodes.qpoly import enumerate_mrd
from cdcodes.rankdist import delsarte_distribution
from cdcodes.verify import (
    empirical_rank_distribution,
    membership_masks,
    min_distance_exhaustive,
    min_distance_sampled,
    validate_codeset,
)
import cdcodes.construct as construct
import cdcodes.gf as gf
import cdcodes.verify as verify
from subspace_codes import code_of
from span_reference import span_product
from vector_oracle import subspace_vectors


def brute_min_distance(code):
    best, witness = None, None
    for u, v in itertools.combinations(sorted(code.members), 2):
        d = subspace_distance(u, v)
        if best is None or d < best:
            best, witness = d, (u, v)
    return best, witness


def test_exhaustive_lifted_221():
    code = lifted_mrd_code(2, 2, 1)
    dist, witness = min_distance_exhaustive(code)
    assert dist == 2
    brute_dist, brute_witness = brute_min_distance(code)
    assert dist == brute_dist
    assert witness == brute_witness  # lexicographically smallest minimizer


def test_exhaustive_matches_brute_on_grassmannian():
    code = grassmannian_code(2, 4, 2)
    dist, witness = min_distance_exhaustive(code)
    assert dist == 2
    assert witness == brute_min_distance(code)[1]


def test_exhaustive_matches_brute_q3():
    code = grassmannian_code(3, 3, 1)
    dist, witness = min_distance_exhaustive(code)
    assert (dist, witness) == brute_min_distance(code)


def test_exhaustive_singleton_sentinel():
    field = field_of_order(2)
    single = CodeSet(field, 2, 2, 2, np.eye(2, dtype=np.uint8)[None])
    dist, witness = min_distance_exhaustive(single)
    assert dist == math.inf and witness is None


def test_a_code_priced_over_the_budget_is_refused_before_any_scan(monkeypatch):
    # 531,441 members: level 3's keys would outgrow _ORACLE_BYTES, and the
    # pair scan of that many members costs more than the budget
    code = lifted_mrd_code(3, 4, 2)
    calls = record_vector_builds(monkeypatch)
    monkeypatch.setattr(verify, "_min_distance_pairs_generic",
                        lambda *a: pytest.fail("the pair scan ran"))
    with pytest.raises(ValueError, match="^exact distance of 531441 members priced over the budget"):
        min_distance_exhaustive(code)
    assert not calls


def min_distance_check(report):
    return next(c for c in report["checks"] if c["check"] == "min_distance")


def test_the_budget_pays_for_the_pair_scan_of_its_members(monkeypatch):
    # with no bytes for the oracle only the stacked-rank scan can answer: it
    # does for up to _BUDGET_MEMBERS members, and above them auto samples
    code = lifted_mrd_code(2, 3, 1)  # 64 members
    members, bases = sorted_bases(code)
    dist, (i, j) = verify._min_distance_pairs_generic(code.field, bases)
    witness = [[list(row) for row in members[x].basis] for x in (i, j)]
    monkeypatch.setattr(verify, "_ORACLE_BYTES", 0)
    for budget_members in (verify._BUDGET_MEMBERS, 64):
        monkeypatch.setattr(verify, "_BUDGET_MEMBERS", budget_members)
        check = min_distance_check(validate_codeset(code))
        assert (check["actual"], check["witness"]) == (f"{dist} (exhaustive)", witness)
    monkeypatch.setattr(verify, "_BUDGET_MEMBERS", 63)
    with pytest.raises(ValueError, match="^exact distance of 64 members priced over the budget"):
        validate_codeset(code, mode="exhaustive")
    sampled, pair = min_distance_sampled(code, 500, seed=3)
    check = min_distance_check(validate_codeset(code, sampled_pairs=500, seed=3))
    assert (check["actual"], check["witness"]) == (
        f"{sampled} (sampled(500,seed=3))", [[list(row) for row in w.basis] for w in pair])


def planted_lifted_code():
    """lifted_mrd_code(2, 5, 2), its last member replaced by the row space of
    (I | A + E), (I | A) member 1 and E of rank 2, and sorted again.

    E is a rank-3 difference C of two members, C = A' - A, less one row of
    C, so the planted member is at rank distance 1 from (I | A')."""
    code = lifted_mrd_code(2, 5, 2)
    bases = code.bases.copy()
    parts = bases[:, :, 5:]
    rank = lambda a: MatrixGF(code.field, a.tolist()).rank()  # noqa: E731
    c = next(parts[x] ^ parts[1] for x in range(2, len(bases) - 1)
             if rank(parts[x] ^ parts[1]) == 3)
    e = next(e for e in (np.where(np.arange(5)[:, None] == r, 0, c) for r in range(5))
             if rank(e) == 2)
    bases[-1, :, 5:] = parts[1] ^ e
    bases = bases[np.lexsort(bases.reshape(len(bases), -1).T[::-1])]
    return CodeSet(code.field, 10, 5, code.claimed_distance, bases, dict(code.provenance))


def test_a_planted_defect_fails_the_default_check_exactly():
    code = planted_lifted_code()  # 32,768 members, one pair at distance 2
    report = validate_codeset(code)
    assert [c["check"] for c in report["checks"] if not c["pass"]] == ["min_distance"]
    check = min_distance_check(report)
    assert check["actual"] == "2 (exhaustive)"
    assert check["witness"] == min_distance_check(validate_codeset(code, mode="exhaustive"))["witness"]
    u, v = (subspace_from_rows(MatrixGF(code.field, rows)) for rows in check["witness"])
    assert subspace_distance(u, v) == 2


_FIELDS = [np.uint64(0x5555555555555555), np.uint64(0x3333333333333333),
           np.uint64(0x0F0F0F0F0F0F0F0F)]  # alternate 1-, 2- and 4-bit fields
_ONE, _TWO, _FOUR, _BYTE_SUM, _TOP_BYTE = map(np.uint64, (1, 2, 4, 0x0101010101010101, 56))


def popcount_rows(arr):
    """Per-row popcount of a 2-D uint64 array: each word's bits are added in
    parallel, in 2-, 4- and 8-bit fields, and one multiply sums its bytes."""
    words = arr - (arr >> _ONE & _FIELDS[0])
    words = (words & _FIELDS[1]) + (words >> _TWO & _FIELDS[1])
    words = (words + (words >> _FOUR)) & _FIELDS[2]
    return (words * _BYTE_SUM >> _TOP_BYTE).sum(axis=1)


def masked_pair_scan(code):
    """Reference oracle: popcount every reference-mask pair, one member row at a time.

    dim(U cap V) is read off the q^dim common vectors of U and V; the
    witness is the first pair, in sorted-member order, with the most.
    """
    members, arr = sorted(code.members), reference_masks(code)
    best_count, witness = -1, None
    for i in range(len(members) - 1):
        counts = popcount_rows(arr[i] & arr[i + 1:])
        if int(counts.max()) > best_count:
            best_count = int(counts.max())
            witness = (members[i], members[i + 1 + int(np.argmax(counts))])
    return 2 * code.dim - 2 * verify._dim_from_count(best_count, code.q), witness


def sorted_bases(code):
    """The code's members sorted as Subspace values, and their CodeSet bases array."""
    members = sorted(code.members)
    return members, code_of(code.field, code.ambient_dim, code.dim, 0, members).bases


def stacked_rank_scan(code):
    """Reference oracle: _min_distance_pairs_generic over all pairs."""
    members, bases = sorted_bases(code)
    dist, (i, j) = verify._min_distance_pairs_generic(code.field, bases)
    return dist, (members[i], members[j])


def oracle_variants(code, monkeypatch):
    """min_distance_exhaustive as shipped, and its sub-subspace scan forced:
    plain and with one-member chunks."""
    def run(**patches):
        for name, value in patches.items():
            monkeypatch.setattr(verify, name, value)
        out = min_distance_exhaustive(code)
        monkeypatch.undo()
        return out

    return [run(), run(_PAIR_COST=math.inf), run(_PAIR_COST=math.inf, _CHUNK_BYTES=1)]


def test_generic_path_agrees_with_masked():
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    assert min_distance_exhaustive(code) == masked_pair_scan(code) == stacked_rank_scan(code)


def test_stacked_rank_scan_takes_every_pair_once_in_bounded_chunks(monkeypatch):
    code = lifted_mrd_code(2, 2, 1)  # 16 members, 120 pairs
    members, bases = sorted_bases(code)
    calls = []
    batch = verify.rref_batch
    monkeypatch.setattr(verify, "rref_batch", lambda f, mats: calls.append(mats) or batch(f, mats))
    pair_bytes = 6 * 16 * bases.shape[1] * bases.shape[2]  # six int64 copies of a pair's digits
    for pairs_per_chunk in (1, 7, 120, 1000):
        monkeypatch.setattr(verify, "_CHUNK_BYTES", pairs_per_chunk * pair_bytes)
        calls.clear()
        dist, (i, j) = verify._min_distance_pairs_generic(code.field, bases)
        assert (dist, (members[i], members[j])) == masked_pair_scan(code)
        step = min(pairs_per_chunk, 120)
        assert [len(m) for m in calls] == [step] * (120 // step) + ([120 % step] if 120 % step else [])
        assert np.concatenate(calls).tolist() == [  # every pair once, in index order
            bases[a].tolist() + bases[b].tolist() for a, b in itertools.combinations(range(16), 2)]


def reference_masks(code):
    """Row i: the bitmask of the vector codes of sorted member i among all q^N,
    in uint64 words, built by expanding the member with subspace_vectors."""
    members = sorted(code.members)
    words = (code.q ** code.ambient_dim + 63) // 64
    arr = np.zeros((len(members), words), dtype=np.uint64)
    for idx, s in enumerate(members):
        mask = 0
        for v in subspace_vectors(s):
            mask |= 1 << v
        arr[idx] = np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")
    return arr


def masked_sampled(code, pairs, seed):
    """Reference sampled oracle: popcount the reference masks of each drawn pair.

    The witness is the smallest (min, max) index pair among the sampled
    pairs with the most common vectors.
    """
    members, arr = sorted(code.members), reference_masks(code)
    left, right = verify._sample_pairs(seed, len(members), pairs)
    counts = popcount_rows(arr[left] & arr[right]).tolist()
    best = max(counts)
    i, j = min((min(a, b), max(a, b)) for a, b, c in zip(left.tolist(), right.tolist(), counts)
               if c == best)
    return 2 * code.dim - 2 * verify._dim_from_count(best, code.q), (members[i], members[j])


def mask_test_codes(q):
    """Lifted, rect-lifted, multiblock and Grassmannian codes over GF(q), and
    the planes of GF(q)^3 given in reverse order, which CodeSet sorts."""
    planes = grassmannian_code(q, 3, 2)
    return [lifted_mrd_code(q, 2, 0), rect_lifted_mrd_code(q, 2, 1, 0),
            multiblock_parallel_mrd(q, 2, 1, 1), grassmannian_code(q, 3, 1),
            CodeSet(planes.field, 3, 2, 2, planes.bases[::-1])]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_masks_match_the_vectors_reference(q, monkeypatch):
    for code in mask_test_codes(q):
        members, bases = sorted_bases(code)
        table_bases, table = membership_masks(code)
        points = code.q ** code.ambient_dim
        assert np.array_equal(table_bases, bases) and table.dtype == np.min_scalar_type(points - 1)
        # each row: the member's vector codes in some order
        assert np.sort(table, axis=1).tolist() == [sorted(subspace_vectors(s)) for s in members]
        if len(members) > 400:  # the default chunks already split these codes
            continue
        # one member per chunk, then a few: boundaries fall inside the code
        for chunk_bytes in (1, 3000):
            monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
            assert np.array_equal(membership_masks(code)[1], table)
        monkeypatch.undo()
        fast = (min_distance_exhaustive(code),
                min_distance_sampled(code, 2000, seed=q))
        assert fast == (masked_pair_scan(code), masked_sampled(code, 2000, q))  # witnesses too


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_vector_table_matches_the_product_reference(q, monkeypatch):
    # entry c of row i is combination c of member i's rows, as a base-q vector code
    field = field_of_order(q)
    rng = np.random.default_rng(q)
    for n, k in ((0, 0), (3, 0), (3, 1), (4, 2), (5, 3)):
        bases = rng.integers(0, q, size=(6, k, n)).astype(np.uint8)
        bases[::3] = 0  # zero rows
        expected = span_product(field, bases, np.arange(q ** k)) @ q ** np.arange(n, dtype=np.int64)
        for chunk_bytes in (verify._CHUNK_BYTES, 3000, 1):  # chunks of members, of combinations
            if chunk_bytes == 1 and q ** k > 4096:
                continue  # one combination a block: 15,625 blocks a member
            monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
            table = verify._vector_table(field, n, bases)
            assert table.dtype == np.min_scalar_type(q ** n - 1) and np.array_equal(table, expected)


def fixture_codes():
    codes = [lifted_mrd_code(2, 2, 1), grassmannian_code(2, 4, 2), grassmannian_code(3, 3, 1),
             multiblock_parallel_mrd(2, 2, 1, 1), multiblock_parallel_mrd(2, 2, 1, 2),
             multiblock_parallel_mrd(2, 3, 2, 1), lifted_mrd_code(3, 3, 1)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes += [c for c in mask_test_codes(q) if len(c.members) <= 1000]
    return codes


def test_oracle_agrees_with_the_pair_scans_on_every_fixture(monkeypatch):
    for code in fixture_codes():
        expected = masked_pair_scan(code)
        assert oracle_variants(code, monkeypatch) == [expected] * 3, code
        if len(code.members) <= 200:
            assert stacked_rank_scan(code) == expected, code


def shared_row_code(rng, q, n, k):
    """Up to 12 random k-dim subspaces of GF(q)^n, each holding some rows of
    one pool of k + 2 rows, so members meet in every dimension up to k."""
    field = field_of_order(q)
    vector = lambda: [rng.randrange(q) for _ in range(n)]  # noqa: E731
    pool = [vector() for _ in range(k + 2)]
    matrices = []
    for _ in range(12):
        rows = rng.sample(pool, rng.randint(0, k))
        matrices.append(rows + [vector() for _ in range(k - len(rows))])
    members = [subspace_from_rows(MatrixGF(field, m)) for m in matrices]
    return code_of(field, n, k, 2, [s for s in members if s.dim == k])


def test_oracle_agrees_with_the_stacked_rank_scan_on_wide_keys(monkeypatch):
    # from level 2 on, the canonical basis rows of a key read in base q^N
    # overflow one uint64 word (q^(2N) > 2^64), so the keys are lexsorted as rows
    rng = random.Random(15)
    met = set()
    for q, lo, hi in ((2, 33, 60), (3, 21, 38)):
        for _ in range(8):
            n, k = rng.randint(lo, hi), rng.randint(2, 3)
            assert q ** (2 * n) > 1 << 64 and q ** n <= 1 << 63
            code = shared_row_code(rng, q, n, k)
            expected = stacked_rank_scan(code)
            assert oracle_variants(code, monkeypatch) == [expected] * 3, code
            met.add(code.dim - expected[0] // 2)
    assert {2, 3} <= met  # pairs met in wide levels
    for code in (grassmannian_code(2, 9, 8), grassmannian_code(3, 6, 5)):
        calls = record_vector_builds(monkeypatch)
        assert min_distance_exhaustive(code) == stacked_rank_scan(code)
        assert calls  # the sub-subspace scan decided
        monkeypatch.undo()


REFUSAL = r"^member \d+: basis is not a canonical full-rank RREF$"


@st.composite
def random_codes(draw):
    """The k-dimensional row spaces of drawn k x n matrices over GF(q), q in
    {2, 3, 4}, some repeated.

    When a drawn matrix is not its row space's canonical basis, CodeSet first
    refuses the drawn matrices in one line; the code holds the row spaces of rank k.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    field = field_of_order(q)
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    matrices = draw(st.lists(st.lists(row, min_size=k, max_size=k), min_size=2, max_size=14))
    members = [subspace_from_rows(MatrixGF(field, m)) for m in matrices]
    if any(s.basis != tuple(map(tuple, m)) for s, m in zip(members, matrices)):
        with pytest.raises(ValueError, match=REFUSAL):
            CodeSet(field, n, k, 0, np.array(matrices))
        members = [s for s in members if s.dim == k]
    copies = draw(st.lists(st.integers(0, 13), max_size=3)) if members else []
    members += [members[i % len(members)] for i in copies]
    return code_of(field, n, k, draw(st.integers(0, 2 * k + 2)), members)


def test_a_codeset_of_a_line_and_a_plane_that_contains_it_is_refused():
    # 2 - 2 dim(U cap V) would call them distance 0, while subspace_distance
    # gives 1: no distance oracle is ever given such a code
    field = field_of_order(2)
    line = subspace_from_rows(MatrixGF(field, [[1, 0, 0]]))
    plane = subspace_from_rows(MatrixGF(field, [[1, 0, 0], [0, 1, 0]]))
    assert subspace_distance(line, plane) == 1
    # the line given as a plane with a zero row, and the plane among lines
    with pytest.raises(ValueError, match="^member 0: basis is not a canonical full-rank RREF$"):
        CodeSet(field, 3, 2, 2, np.array([[[1, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0]]]))
    with pytest.raises(ValueError, match=r"^bases array of shape \(1, 2, 3\), not \(M, 1, 3\)$"):
        CodeSet(field, 3, 1, 2, np.array([plane.basis]))


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_a_code_is_sorted_once_at_construction(monkeypatch, mode):
    code = lifted_mrd_code(2, 3, 1)
    expected = validate_codeset(code, sampled_pairs=2000, mode=mode)
    u_code, v_code = lifted_mrd_code(2, 2, 1), grassmannian_code(2, 4, 2)
    q_matrices = list(enumerate_mrd(2, 2, 1))
    calls = []
    sort = construct.sorted_bases
    monkeypatch.setattr(construct, "sorted_bases", lambda b: calls.append(len(b)) or sort(b))
    order = np.random.default_rng(3).permutation(len(code))
    for bases in (code.bases, code.bases[::-1], code.bases[order]):
        calls.clear()
        c = CodeSet(code.field, 6, 3, code.claimed_distance, bases, dict(code.provenance))
        assert calls == [len(code)] and np.array_equal(c.bases, code.bases)
        calls.clear()
        assert validate_codeset(c, sampled_pairs=2000, mode=mode) == expected
        membership_masks(c), min_distance_exhaustive(c), min_distance_sampled(c, 100, seed=1)
        assert calls == []  # validate_codeset and the oracles take the code's order
    # a build's CodeSet sorts its one array; _collect neither sorts nor checks the order
    for build in (lambda: lifted_mrd_code(2, 3, 1), lambda: rect_lifted_mrd_code(3, 2, 1, 1),
                  lambda: multiblock_parallel_mrd(2, 3, 2, 1),
                  lambda: linkage(u_code, q_matrices, 2, 1),
                  lambda: parallel_linkage(2, 2, 0, 2, v_code),
                  lambda: grassmannian_code(2, 5, 2)):
        calls.clear()
        built = build()
        assert calls == [len(built)]


@given(random_codes())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_oracle_agrees_with_the_pair_scans_on_random_codes(monkeypatch, code):
    checks = {c["check"]: c for c in validate_codeset(code, mode="exhaustive")["checks"]}
    assert checks["distinct_members"]["actual"] == len(set(code.members))
    assert checks["member_dimensions"]["actual"] == "0 offending members"
    if len(code.members) < 2:
        assert min_distance_exhaustive(code) == (math.inf, None)
        return
    expected = masked_pair_scan(code)
    assert stacked_rank_scan(code) == expected
    assert oracle_variants(code, monkeypatch) == [expected] * 3


@given(random_codes(), st.integers(1, 300), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sampled_agrees_with_the_masked_reference_on_random_codes(monkeypatch, code, pairs, seed):
    if len(code.members) < 2:
        assert min_distance_sampled(code, pairs, seed) == (math.inf, None)
        return
    expected = masked_sampled(code, pairs, seed)
    assert min_distance_sampled(code, pairs, seed) == expected  # distance and witness
    with monkeypatch.context() as patch:  # each chunk of a few pairs builds its own rows
        patch.setattr(verify, "_ORACLE_BYTES", 0)
        patch.setattr(verify, "_CHUNK_BYTES", 1000)
        assert min_distance_sampled(code, pairs, seed) == expected


def record_vector_builds(monkeypatch):
    calls = []
    kernel = verify.span_into
    monkeypatch.setattr(verify, "span_into", lambda *a: calls.append(a) or kernel(*a))
    return calls


def test_codes_beyond_int64_vector_codes_take_the_stacked_rank_path(monkeypatch):
    monkeypatch.setattr(verify, "_PAIR_COST", math.inf)  # only the int64 check decides
    calls = record_vector_builds(monkeypatch)
    field = field_of_order(2)
    for n, oracle in ((63, True), (64, False)):  # codes reach 2^63 - 1, then 2^64 - 1
        rows = ([1] + [0] * (n - 1), [0] * (n - 1) + [1], [1] + [0] * (n - 2) + [1])
        code = code_of(field, n, 1, 2, [subspace_from_rows(MatrixGF(field, [r])) for r in rows])
        calls.clear()
        assert min_distance_exhaustive(code) == stacked_rank_scan(code)
        assert stacked_rank_scan(code)[0] == 2
        assert bool(calls) == oracle


def lifted_pair(q, k, rank, claimed):
    """The row spaces of (I_k | 0) and (I_k | diag(1^rank, 0)): distance 2 rank."""
    field = field_of_order(q)
    rows = [[int(r == c) for c in range(2 * k)] for r in range(k)]
    other = [row[:k] + [int(r == c < rank) for c in range(k)] for r, row in enumerate(rows)]
    members = [subspace_from_rows(MatrixGF(field, m)) for m in (rows, other)]
    return code_of(field, 2 * k, k, claimed, members)


def test_codes_costlier_than_their_pair_scan_take_the_stacked_rank_path(monkeypatch):
    # one pair costs less than the 15 index sets of level 3 of GF(2)^4; level 6
    # of a 10-dim pair in GF(2)^20 has [10, 6]_2 ~ 5.4e7 keys per member; the
    # vectors of a 6-dim pair over GF(16) alone fill 2 * 16^6 int64s
    calls = record_vector_builds(monkeypatch)
    for code, dist in ((lifted_pair(2, 4, 2, 4), 4), (lifted_pair(2, 10, 5, 10), 10),
                       (lifted_pair(16, 6, 3, 6), 6), (lifted_pair(2, 20, 10, 20), 20)):
        assert min_distance_exhaustive(code) == stacked_rank_scan(code) == (dist, tuple(sorted(code.members)))
    assert not calls


def test_codes_beyond_the_byte_allowance_take_the_stacked_rank_path(monkeypatch):
    code = lifted_mrd_code(2, 3, 1)  # 64 members; the scan starts at level 2
    expected = masked_pair_scan(code)
    calls = record_vector_builds(monkeypatch)
    level_bytes = verify._level_cost(2, 6, 64, 3, 2)[1]
    assert level_bytes > 64 * 2 ** 3 * 1  # more than the vector table
    for allowance, oracle in ((level_bytes, True), (level_bytes - 1, False)):
        monkeypatch.setattr(verify, "_ORACLE_BYTES", allowance)
        calls.clear()
        assert min_distance_exhaustive(code) == expected
        assert bool(calls) == oracle
    # claiming more than 2k starts the scan at level 0, which needs no keys:
    # only the vector table's bytes decide whether it is built
    low = CodeSet(code.field, code.ambient_dim, code.dim, 2 * code.dim + 2, code.bases)
    table_bytes = 64 * 2 ** 3 * 1  # uint8 entries hold the codes below 2^6
    for allowance, oracle in ((table_bytes, True), (table_bytes - 1, False)):
        monkeypatch.setattr(verify, "_ORACLE_BYTES", allowance)
        calls.clear()
        assert min_distance_exhaustive(low) == expected
        assert bool(calls) == oracle


def test_subspace_index_cache_stays_within_its_bytes(monkeypatch):
    monkeypatch.setattr(verify, "_INDEX_CACHE", {})
    monkeypatch.setattr(verify, "_INDEX_CACHE_BYTES", 15 * 3 * 8)  # [4, 3]_2 x 3 rows
    field = field_of_order(2)
    big = verify._subspace_indices(field, 4, 3)
    assert big.shape == (15, 3) and list(verify._INDEX_CACHE) == [(field, 4, 3)]
    assert verify._subspace_indices(field, 4, 3) is big
    verify._subspace_indices(field, 3, 1)  # 7 x 1 more would overflow: the cache starts over
    assert list(verify._INDEX_CACHE) == [(field, 3, 1)]
    assert verify._subspace_indices(field, 5, 2).shape == (155, 2)  # too large to keep
    assert list(verify._INDEX_CACHE) == [(field, 3, 1)]


def min_pair_difference_rank(q, mats):
    """min rank(A - B) over the pairs of itertools.combinations(mats, 2), q prime: the
    differences are taken mod q and ranked by rref_batch, 2^16 pairs at a time."""
    field = field_of_order(q)
    words = np.array([m.rows for m in mats], dtype=np.int64)
    first, second = np.triu_indices(len(words), 1)
    step = 1 << 16
    return min(int(rref_batch(field, (words[first[lo:lo + step]] - words[second[lo:lo + step]])
                              % q)[1].min()) for lo in range(0, len(first), step))


@pytest.mark.parametrize("q, n, t, levels", [(2, 4, 1, [2, 1]), (2, 4, 0, [1, 0]),
                                              (3, 3, 0, [1, 0]), (2, 5, 1, [2, 1])])
def test_rank_distance_scan_starts_at_the_singleton_bound(q, n, t, levels, monkeypatch):
    # MRD codes with delta = n - t >= 3 meet the bound: two levels, none of the middle ones
    mats = list(enumerate_mrd(q, n, t))
    seen = []
    level_pair = verify._level_pair
    monkeypatch.setattr(verify, "_level_pair", lambda *a: seen.append(a[-1]) or level_pair(*a))
    brute = min_pair_difference_rank(q, mats)
    assert verify.pairwise_min_rank_distance(mats) == brute == n - t
    assert seen == levels
    seen.clear()  # a repeated matrix moves the scan up to level n
    assert verify.pairwise_min_rank_distance(mats + mats[:1]) == 0
    assert seen[-1] == n


def test_dim_from_count_rejects_a_count_that_is_not_a_power_of_q():
    assert verify._dim_from_count(27, 3) == 3
    assert verify._dim_from_count(1, 3) == 0
    with pytest.raises(ArithmeticError, match="not a power of q=3"):
        verify._dim_from_count(18, 3)


class SplitMix64:
    """The sequential SplitMix64 generator that verify._draws reproduces in
    numpy (see the verify module docstring for the constants)."""

    def __init__(self, seed: int):
        self.state = seed & verify._U64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & verify._U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & verify._U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & verify._U64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        return self.next_u64() % n


def test_splitmix_reference_sequence():
    # first outputs for seed 0; frozen so independent implementations can diff
    rng = SplitMix64(0)
    seq = [rng.next_u64() for _ in range(3)]
    assert seq == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def generator_pairs(seed, size, pairs):
    """i = randbelow(size), then j = randbelow(size) redrawn while it equals i."""
    rng, out = SplitMix64(seed), []
    for _ in range(pairs):
        i, j = rng.randbelow(size), rng.randbelow(size)
        while j == i:
            j = rng.randbelow(size)
        out.append((i, j))
    return out


def generator_sampled(code, pairs, seed):
    """Reference sampled oracle for a constant-dimension code: subspace_distance
    of each pair SplitMix64 draws, and the smallest (min, max) index pair of
    sorted members at the minimum."""
    members = sorted(code.members, key=Subspace.sort_key)
    d, i, j = min((subspace_distance(members[i], members[j]), min(i, j), max(i, j))
                  for i, j in generator_pairs(seed, len(members), pairs))
    return d, (members[i], members[j])


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("size", [2, 3, 16, 855])
def test_sampled_pairs_are_the_generator_sequence(seed, size):
    expected = generator_pairs(seed, size, 3000)
    for pairs in (1, 2, 7, 3000):
        left, right = verify._sample_pairs(seed, size, pairs)
        assert list(zip(left.tolist(), right.tolist())) == expected[:pairs]


@pytest.mark.parametrize("build, args", [(multiblock_parallel_mrd, (2, 2, 1, 2)),
                                         (lifted_mrd_code, (3, 2, 1))])
def test_sampled_witness_is_the_smallest_sampled_minimiser(build, args):
    code = build(*args)
    assert min_distance_sampled(code, 2000, seed=7) == generator_sampled(code, 2000, 7)


def test_sampled_deterministic_and_bounded_below_by_exhaustive():
    code = multiblock_parallel_mrd(2, 2, 1, 2)
    d1, w1 = min_distance_sampled(code, 100_000, seed=42)
    d2, w2 = min_distance_sampled(code, 100_000, seed=42)
    assert (d1, w1) == (d2, w2)
    exact, _ = min_distance_exhaustive(code)
    assert d1 >= exact
    assert d1 >= 2


def test_sampled_covers_all_pairs_eventually():
    code = lifted_mrd_code(2, 2, 1)  # 120 pairs
    exact, _ = min_distance_exhaustive(code)
    sampled, _ = min_distance_sampled(code, 20000, seed=7)
    assert sampled == exact


def test_sampled_generic_path(monkeypatch):
    # vector codes of GF(2)^64 overflow int64: stacked ranks score the drawn
    # pairs and no vector table is built; those of GF(2)^63 still fit
    calls = record_vector_builds(monkeypatch)
    field = field_of_order(2)
    for n, table in ((63, True), (64, False)):
        rows = ([1] + [0] * (n - 1), [0] * (n - 1) + [1], [1] + [0] * (n - 2) + [1])
        code = code_of(field, n, 1, 2, [subspace_from_rows(MatrixGF(field, [r])) for r in rows])
        calls.clear()
        assert min_distance_sampled(code, 50, seed=3) == generator_sampled(code, 50, 3)
        assert bool(calls) == table
    # so does a code whose one pair's two rows and their sort temporary
    # would hold more than _ORACLE_BYTES (a k = 30 pair over GF(2)^60: 19 GB)
    code = multiblock_parallel_mrd(2, 2, 1, 2)
    pair_bytes = 2 * 2 ** code.dim * (np.min_scalar_type(2 ** code.ambient_dim - 1).itemsize + 1)
    for allowance, table in ((pair_bytes, True), (pair_bytes - 1, False)):
        monkeypatch.setattr(verify, "_ORACLE_BYTES", allowance)
        calls.clear()
        assert min_distance_sampled(code, 500, seed=3) == generator_sampled(code, 500, 3)
        assert bool(calls) == table


def test_a_wide_member_builds_its_vectors_in_chunks():
    # the 2^16 vectors of one 16-dim member are built a chunk of them at a
    # time: the build holds little more than the 512 KB table of uint32 codes
    code = lifted_pair(2, 16, 8, 16)  # (I | 0) and (I | diag(1^8, 0)) in GF(2)^32
    tracemalloc.start()
    try:
        table = membership_masks(code)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 2 * 2 ** 16 * 4 and peak < table.nbytes + 2 * verify._CHUNK_BYTES
    combos = np.arange(2 ** 16, dtype=np.uint64)  # coefficient c gives c, then c + (c mod 2^8) 2^16
    assert sorted(np.sort(table, axis=1).tolist()) == [
        combos.tolist(), np.sort(combos + (combos % 256 << np.uint64(16))).tolist()]


@pytest.mark.parametrize("build, args", [(multiblock_parallel_mrd, (2, 2, 1, 2)),
                                         (lifted_mrd_code, (3, 2, 1)), (lifted_mrd_code, (2, 2, 1))])
def test_sampled_masks_per_chunk_of_pairs_agree_with_stacked_ranks(build, args, monkeypatch):
    # above _ORACLE_BYTES for the whole code's table, each chunk of drawn pairs
    # builds the rows of its own members
    code = build(*args)
    whole = min_distance_sampled(code, 3000, seed=11)
    assert whole == generator_sampled(code, 3000, 11)
    built = []
    vector_table = verify._vector_table
    monkeypatch.setattr(verify, "_vector_table", lambda *a: built.append(len(a[2])) or vector_table(*a))
    table_bytes = verify._table_bytes(code.q, code.ambient_dim, len(code), code.dim)
    monkeypatch.setattr(verify, "_ORACLE_BYTES", table_bytes)
    assert min_distance_sampled(code, 3000, seed=11) == whole and built == [len(code)]
    monkeypatch.setattr(verify, "_ORACLE_BYTES", table_bytes - 1)
    # the chunk allowance for one pair's two rows and their boolean temporary
    pair_bytes = 2 * code.q ** code.dim * (np.min_scalar_type(code.q ** code.ambient_dim - 1).itemsize + 1)
    for pairs_per_chunk in (1, 5, 7):
        built.clear()
        monkeypatch.setattr(verify, "_CHUNK_BYTES", pairs_per_chunk * pair_bytes)
        assert min_distance_sampled(code, 3000, seed=11) == whole
        assert built == [2 * pairs_per_chunk] * (3000 // pairs_per_chunk) + (
            [2 * (3000 % pairs_per_chunk)] if 3000 % pairs_per_chunk else [])


# Primes whose products overflow int64: the least above 2^32, the least above
# 2^63, the greatest below 2^64 (bases held as uint64) and the least above 2^64
# (bases held as Python ints).
BIG = 4_294_967_311
HUGE = (2**63 + 29, 2**64 - 59, 2**64 + 13)


def large_prime_field(p, monkeypatch):
    """GF(p) for one of the known primes above; is_prime is trial division and
    would take about 2^31 steps to confirm one near 2^64."""
    monkeypatch.setattr(gf, "is_prime", lambda n: n == p)
    return gf.GF(p)


def big_prime_code(field, n, k, seed):
    """A code of k-dim subspaces of GF(p)^n, p a large prime: random members,
    and members holding one of a few shared lines, each spanned by a scaled
    copy of it."""
    p = field.order
    rng = random.Random(seed)
    vector = lambda: [rng.randrange(p) for _ in range(n)]  # noqa: E731
    lines = [vector() for _ in range(3)]
    matrices = [[vector() for _ in range(k)] for _ in range(8)]
    for _ in range(8):
        line, c = rng.choice(lines), rng.randrange(1, p)
        matrices.append([[c * x % p for x in line]] + [vector() for _ in range(k - 1)])
    members = [subspace_from_rows(MatrixGF(field, m)) for m in matrices]
    return code_of(field, n, k, 2, [s for s in members if s.dim == k])


def per_pair_rank_scan(code, pairs):
    """Minimum distance and smallest (min, max) witness over the index pairs of
    sorted members, each pair's intersection from one MatrixGF rank."""
    members = sorted(code.members)
    d, i, j = min((2 * code.dim - 2 * (2 * code.dim - MatrixGF(
        code.field, members[i].basis + members[j].basis).rank()), min(i, j), max(i, j))
        for i, j in pairs)
    return d, [[list(row) for row in members[x].basis] for x in (i, j)]


# In GF(p)^3 distinct planes always meet in a line and distinct lines only in
# 0, so only equal members lower a rank there; in GF(p)^4 two planes meet in a
# line or only in 0, and a wrong elimination changes the distance.
@pytest.mark.parametrize("p", (BIG,) + HUGE)
@pytest.mark.parametrize("n, k, seed, dist", [(3, 1, 1, 0), (3, 1, 2, 0), (3, 2, 3, 2),
                                              (3, 2, 4, 2), (4, 2, 5, 2)])
def test_codes_beyond_int64_over_a_large_prime_agree_with_per_pair_ranks(
        p, n, k, seed, dist, monkeypatch):
    code = big_prime_code(large_prime_field(p, monkeypatch), n, k, seed)
    assert code.q ** code.ambient_dim > 1 << 63
    m = len(code.members)
    expected = {"exhaustive": per_pair_rank_scan(code, itertools.combinations(range(m), 2)),
                "sampled": per_pair_rank_scan(code, generator_pairs(seed, m, 300))}
    assert expected["exhaustive"][0] == dist
    for mode, how in (("exhaustive", "exhaustive"), ("sampled", f"sampled(300,seed={seed})")):
        report = validate_codeset(code, sampled_pairs=300, seed=seed, mode=mode)
        check = next(c for c in report["checks"] if c["check"] == "min_distance")
        assert (check["actual"], check["witness"]) == (f"{expected[mode][0]} ({how})",
                                                       expected[mode][1])


def test_empirical_rank_distribution():
    mats = list(enumerate_mrd(2, 2, 1))
    assert empirical_rank_distribution(mats) == {0: 1, 1: 9, 2: 6}
    mats32 = list(enumerate_mrd(2, 3, 2))
    hist = empirical_rank_distribution(mats32)
    assert sum(hist.values()) == 512
    expected = {r: c for r, c in enumerate(delsarte_distribution(2, 3, 1).counts) if c}
    assert hist == expected


def test_validate_codeset_passes_on_fresh_build():
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    report = validate_codeset(code)
    assert report["pass"]
    names = [c["check"] for c in report["checks"]]
    assert names == ["member_dimensions", "distinct_members", "cardinality", "min_distance"]


def test_validate_codeset_flags_overclaimed_distance():
    base = multiblock_parallel_mrd(2, 2, 1, 1)
    bragging = CodeSet(base.field, base.ambient_dim, base.dim, base.claimed_distance + 2,
                       base.bases, dict(base.provenance))
    report = validate_codeset(bragging)
    assert not report["pass"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert failing == {"min_distance"}
    dist_check = next(c for c in report["checks"] if c["check"] == "min_distance")
    assert dist_check["witness"] is not None


def test_validate_codeset_flags_wrong_cardinality():
    base = lifted_mrd_code(2, 2, 1)
    trimmed = CodeSet(base.field, base.ambient_dim, base.dim, base.claimed_distance,
                      base.bases[:-1], dict(base.provenance))  # still predicts 16
    report = validate_codeset(trimmed)
    assert not report["pass"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert failing == {"cardinality"}


def test_validate_codeset_reports_a_code_without_members():
    field = field_of_order(2)
    report = validate_codeset(CodeSet(field, 3, 1, 2, np.zeros((0, 1, 3), np.uint8)))
    assert report["pass"] and min_distance_check(report)["actual"] == "no pairs"


def test_validate_report_is_json_serializable():
    import json

    code = multiblock_parallel_mrd(2, 2, 1, 1)
    report = validate_codeset(code)
    json.dumps(report)
