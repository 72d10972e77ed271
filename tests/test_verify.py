import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdcodes.construct import (
    CodeSet,
    grassmannian_code,
    lifted_mrd_code,
    multiblock_parallel_mrd,
    rect_lifted_mrd_code,
)
from cdcodes.gf import field_of_order
from cdcodes.linalg import MatrixGF, Subspace, rref_batch, subspace_distance, subspace_from_rows
from cdcodes.qpoly import enumerate_mrd
from cdcodes.rankdist import delsarte_distribution
from cdcodes.verify import (
    SplitMix64,
    empirical_rank_distribution,
    membership_masks,
    min_distance_exhaustive,
    min_distance_sampled,
    validate_codeset,
)
import cdcodes.verify as verify
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
    single = CodeSet(
        field=field, ambient_dim=2, dim=2, claimed_distance=2,
        members=(subspace_from_rows(MatrixGF.identity(field, 2)),),
    )
    dist, witness = min_distance_exhaustive(single)
    assert dist == math.inf and witness is None


def test_exhaustive_cap():
    code = lifted_mrd_code(2, 2, 1)
    with pytest.raises(ValueError):
        min_distance_exhaustive(code, cap=10)


def masked_pair_scan(code, masks=membership_masks):
    """Reference oracle: popcount every packed-mask pair, one member row at a time.

    dim(U cap V) is read off the q^dim common vectors of U and V; the
    witness is the first pair, in sorted-member order, with the most.
    """
    members, arr = sorted(code.members), masks(code)[1]
    assert len(members) == len(arr)
    best_count, witness = -1, None
    for i in range(len(members) - 1):
        counts = verify._popcount_rows(arr[i] & arr[i + 1:])
        if int(counts.max()) > best_count:
            best_count = int(counts.max())
            witness = (members[i], members[i + 1 + int(np.argmax(counts))])
    return 2 * code.dim - 2 * verify._dim_from_count(best_count, code.q), witness


def sorted_bases(code):
    """The code's members sorted as Subspace values, and their CodeSet bases array."""
    members = sorted(code.members)
    return members, CodeSet(code.field, code.ambient_dim, code.dim, 0, members).bases


def stacked_rank_scan(code):
    """Reference oracle: _min_distance_pairs_generic over all pairs."""
    members, bases = sorted_bases(code)
    dist, (i, j) = verify._min_distance_pairs_generic(
        code.field, bases, itertools.combinations(range(len(members)), 2), code.dim)
    return dist, (members[i], members[j])


def oracle_variants(code, monkeypatch):
    """min_distance_exhaustive as shipped, and its sub-subspace scan forced:
    plain, with one-member chunks and with a constant key hash."""
    def run(**patches):
        for name, value in patches.items():
            monkeypatch.setattr(verify, name, value)
        out = min_distance_exhaustive(code, cap=len(code.members))
        monkeypatch.undo()
        return out

    # every key collides on its hash, so only the exact row comparison can decide
    constant = lambda codes: np.zeros(codes.shape, np.uint64)  # noqa: E731
    return [run(), run(_PAIR_COST=math.inf), run(_PAIR_COST=math.inf, _CHUNK_BYTES=1),
            run(_PAIR_COST=math.inf, _vector_hash=constant)]


def test_generic_path_agrees_with_masked():
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    assert min_distance_exhaustive(code) == masked_pair_scan(code) == stacked_rank_scan(code)


def reference_masks(code, bit_budget=verify.MASK_BIT_BUDGET):
    """The per-member mask builder: expand each member with subspace_vectors."""
    members, bases = sorted_bases(code)
    points = code.q ** code.ambient_dim
    if not members or points * len(members) > bit_budget:
        return bases, None
    words = (points + 63) // 64
    arr = np.zeros((len(members), words), dtype=np.uint64)
    for idx, s in enumerate(members):
        mask = 0
        for v in subspace_vectors(s):
            mask |= 1 << v
        arr[idx] = np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")
    return bases, arr


def mask_test_codes(q):
    """Lifted, rect-lifted, multiblock and Grassmannian codes over GF(q), and a
    code mixing members of dimension 0, 1 and 2, sorted and in reverse order."""
    field = field_of_order(q)
    lines = grassmannian_code(q, 3, 1)
    planes = grassmannian_code(q, 3, 2)
    zero = subspace_from_rows(MatrixGF.zeros(field, 1, 3))
    mixed = CodeSet(field, 3, 1, 2, (zero,) + lines.members + planes.members)
    return [lifted_mrd_code(q, 2, 0), rect_lifted_mrd_code(q, 2, 1, 0),
            multiblock_parallel_mrd(q, 2, 1, 1), lines, mixed,
            CodeSet(field, 3, 1, 2, mixed.members[::-1])]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_masks_match_the_vectors_reference(q, monkeypatch):
    for code in mask_test_codes(q):
        members, masks = membership_masks(code)
        ref_members, ref_masks = reference_masks(code)
        assert np.array_equal(members, ref_members)
        assert masks.dtype == np.uint64 and np.array_equal(masks, ref_masks)
        if len(members) > 400:  # the default chunks already split these codes
            continue
        # one member per chunk, then a few: boundaries fall inside the code
        for chunk_bytes in (1, 3000):
            monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
            assert np.array_equal(membership_masks(code)[1], ref_masks)
        monkeypatch.undo()
        fast = (min_distance_exhaustive(code, cap=len(members)),
                min_distance_sampled(code, 2000, seed=q))
        monkeypatch.setattr(verify, "membership_masks", reference_masks)
        slow = (masked_pair_scan(code, reference_masks),
                min_distance_sampled(code, 2000, seed=q))
        monkeypatch.undo()
        assert fast == slow  # distances and witnesses


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
        assert oracle_variants(code, monkeypatch) == [expected] * 4, code
        if len(code.members) <= 200:
            assert stacked_rank_scan(code) == expected, code


@st.composite
def random_codes(draw):
    """Row spaces of drawn k x n matrices over GF(q), q in {2, 3, 4}, some repeated.

    Half the draws keep only the k-dimensional row spaces (a
    constant-dimension code); the others mix every dimension up to k.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    field = field_of_order(q)
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    matrices = draw(st.lists(st.lists(row, min_size=k, max_size=k), min_size=2, max_size=14))
    members = [subspace_from_rows(MatrixGF(field, m)) for m in matrices]
    if draw(st.booleans()):
        members = [s for s in members if s.dim == k]
    copies = draw(st.lists(st.integers(0, 13), max_size=3)) if members else []
    members += [members[i % len(members)] for i in copies]
    return CodeSet(field, n, k, draw(st.integers(0, 2 * k + 2)), tuple(members))


@given(random_codes())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_oracle_agrees_with_the_pair_scans_on_random_codes(monkeypatch, code):
    if len(code.members) < 2:
        assert min_distance_exhaustive(code) == (math.inf, None)
        return
    expected = masked_pair_scan(code)
    assert stacked_rank_scan(code) == expected
    assert oracle_variants(code, monkeypatch) == [expected] * 4
    checks = {c["check"]: c for c in validate_codeset(code, mode="exhaustive")["checks"]}
    assert checks["distinct_members"]["actual"] == len(set(code.members))
    assert checks["member_dimensions"]["actual"] == (
        f"{sum(s.dim != code.dim for s in code.members)} offending members")


def record_vector_builds(monkeypatch):
    calls = []
    vectors = verify._member_vectors
    monkeypatch.setattr(verify, "_member_vectors", lambda *a: calls.append(a) or vectors(*a))
    return calls


def test_codes_beyond_int64_vector_codes_take_the_stacked_rank_path(monkeypatch):
    monkeypatch.setattr(verify, "_PAIR_COST", math.inf)  # only the int64 check decides
    calls = record_vector_builds(monkeypatch)
    field = field_of_order(2)
    for n, oracle in ((63, True), (64, False)):  # codes reach 2^63 - 1, then 2^64 - 1
        rows = ([1] + [0] * (n - 1), [0] * (n - 1) + [1], [1] + [0] * (n - 2) + [1])
        code = CodeSet(field, n, 1, 2, tuple(subspace_from_rows(MatrixGF(field, [r])) for r in rows))
        calls.clear()
        assert min_distance_exhaustive(code) == stacked_rank_scan(code)
        assert stacked_rank_scan(code)[0] == 2
        assert bool(calls) == oracle


def lifted_pair(q, k, rank, claimed):
    """The row spaces of (I_k | 0) and (I_k | diag(1^rank, 0)): distance 2 rank."""
    field = field_of_order(q)
    rows = [[int(r == c) for c in range(2 * k)] for r in range(k)]
    other = [row[:k] + [int(r == c < rank) for c in range(k)] for r, row in enumerate(rows)]
    members = tuple(subspace_from_rows(MatrixGF(field, m)) for m in (rows, other))
    return CodeSet(field, 2 * k, k, claimed, members)


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
    level_bytes = verify._level_cost(2, {3: 64}, 2)[1]
    assert level_bytes > 64 * 2 ** 3 * 8  # more than the vector tables
    for allowance, oracle in ((level_bytes, True), (level_bytes - 1, False)):
        monkeypatch.setattr(verify, "_ORACLE_BYTES", allowance)
        calls.clear()
        assert min_distance_exhaustive(code) == expected
        assert bool(calls) == oracle
    # claiming more than 2k starts the scan at level 0, which needs no keys:
    # only the vector tables' bytes decide whether they are built
    low = CodeSet(code.field, code.ambient_dim, code.dim, 2 * code.dim + 2, code.members)
    for allowance, oracle in ((64 * 2 ** 3 * 8, True), (64 * 2 ** 3 * 8 - 1, False)):
        monkeypatch.setattr(verify, "_ORACLE_BYTES", allowance)
        calls.clear()
        assert min_distance_exhaustive(low) == expected
        assert bool(calls) == oracle


def test_subspace_index_cache_stays_within_its_bytes(monkeypatch):
    monkeypatch.setattr(verify, "_INDEX_CACHE", {})
    monkeypatch.setattr(verify, "_INDEX_CACHE_BYTES", 15 * 7 * 8)  # [4, 3]_2 x 7 codes
    field = field_of_order(2)
    big = verify._subspace_indices(field, 4, 3)
    assert big.shape == (15, 7) and list(verify._INDEX_CACHE) == [(field, 4, 3)]
    assert verify._subspace_indices(field, 4, 3) is big
    verify._subspace_indices(field, 3, 1)  # 7 x 1 more would overflow: the cache starts over
    assert list(verify._INDEX_CACHE) == [(field, 3, 1)]
    assert verify._subspace_indices(field, 5, 2).shape == (155, 3)  # too large to keep
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
    monkeypatch.setattr(verify, "_level_pair", lambda f, s, j: seen.append(j) or level_pair(f, s, j))
    brute = min_pair_difference_rank(q, mats)
    assert verify.pairwise_min_rank_distance(mats) == brute == n - t
    assert seen == levels
    seen.clear()  # a repeated matrix moves the scan up to level n
    assert verify.pairwise_min_rank_distance(mats + mats[:1]) == 0
    assert seen[-1] == n


def test_masks_respect_the_bit_budget():
    code = lifted_mrd_code(3, 2, 0)
    points = 3 ** 4
    assert membership_masks(code, bit_budget=points * 9)[1] is not None
    assert membership_masks(code, bit_budget=points * 9 - 1)[1] is None


def test_popcount_fallback_without_bitwise_count(monkeypatch):
    # numpy < 2 has no np.bitwise_count; the byte-table path must agree with it
    rows = np.random.default_rng(5).integers(0, 1 << 64, size=(40, 3), dtype=np.uint64)
    expected = [sum(bin(x).count("1") for x in row) for row in rows.tolist()]
    code = multiblock_parallel_mrd(2, 3, 2, 1)
    fast = (min_distance_sampled(code, 5000, seed=5), masked_pair_scan(code))
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert np.array_equal(verify._popcount_rows(rows), expected)
    assert (min_distance_sampled(code, 5000, seed=5), masked_pair_scan(code)) == fast


def test_dim_from_count_rejects_a_count_that_is_not_a_power_of_q():
    assert verify._dim_from_count(27, 3) == 3
    assert verify._dim_from_count(1, 3) == 0
    with pytest.raises(ArithmeticError, match="not a power of q=3"):
        verify._dim_from_count(18, 3)


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
    members = sorted(code.members, key=Subspace.sort_key)
    d, i, j = min((subspace_distance(members[i], members[j]), min(i, j), max(i, j))
                  for i, j in generator_pairs(7, len(members), 2000))
    assert min_distance_sampled(code, 2000, seed=7) == (d, (members[i], members[j]))


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
    code = lifted_mrd_code(2, 2, 1)
    masked = min_distance_sampled(code, 500, seed=3)
    monkeypatch.setattr(verify, "MASK_BIT_BUDGET", 2 * 2 ** 4 - 1)  # below one pair's two masks
    monkeypatch.setattr(verify, "_masks", None)  # no mask is built
    assert min_distance_sampled(code, 500, seed=3) == masked  # distance and witness


@pytest.mark.parametrize("build, args", [(multiblock_parallel_mrd, (2, 2, 1, 2)),
                                         (lifted_mrd_code, (3, 2, 1)), (lifted_mrd_code, (2, 2, 1))])
def test_sampled_masks_per_chunk_of_pairs_agree_with_stacked_ranks(build, args, monkeypatch):
    # over the budget for the whole code, masks are built per chunk of drawn pairs
    code = build(*args)
    points = code.q ** code.ambient_dim
    whole = min_distance_sampled(code, 3000, seed=11)
    monkeypatch.setattr(verify, "MASK_BIT_BUDGET", 2 * points - 1)
    generic = min_distance_sampled(code, 3000, seed=11)
    built = []
    masks = verify._masks
    monkeypatch.setattr(verify, "_masks", lambda *a: built.append(len(a[2])) or masks(*a))
    for pairs_per_chunk in (1, 5, 7):  # fewer than half the members: the whole code's masks do not fit
        built.clear()
        monkeypatch.setattr(verify, "MASK_BIT_BUDGET", 2 * points * pairs_per_chunk)
        assert min_distance_sampled(code, 3000, seed=11) == generic == whole
        assert built == [2 * pairs_per_chunk] * (3000 // pairs_per_chunk) + (
            [2 * (3000 % pairs_per_chunk)] if 3000 % pairs_per_chunk else [])


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
    bragging = CodeSet(
        field=base.field, ambient_dim=base.ambient_dim, dim=base.dim,
        claimed_distance=base.claimed_distance + 2, members=base.members,
        provenance=dict(base.provenance),
    )
    report = validate_codeset(bragging)
    assert not report["pass"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert failing == {"min_distance"}
    dist_check = next(c for c in report["checks"] if c["check"] == "min_distance")
    assert dist_check["witness"] is not None


def test_validate_codeset_flags_wrong_cardinality():
    base = lifted_mrd_code(2, 2, 1)
    trimmed = CodeSet(
        field=base.field, ambient_dim=base.ambient_dim, dim=base.dim,
        claimed_distance=base.claimed_distance, members=base.members[:-1],
        provenance=dict(base.provenance),  # still predicts 16
    )
    report = validate_codeset(trimmed)
    assert not report["pass"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert failing == {"cardinality"}


def test_validate_codeset_flags_mixed_dimensions():
    base = lifted_mrd_code(2, 2, 1)
    field = base.field
    rogue = subspace_from_rows(MatrixGF(field, [[1, 0, 0, 0]]))
    mixed = CodeSet(
        field=field, ambient_dim=4, dim=2, claimed_distance=2,
        members=base.members + (rogue,),
    )
    report = validate_codeset(mixed)
    assert not report["pass"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert "member_dimensions" in failing


def test_validate_report_is_json_serializable():
    import json

    code = multiblock_parallel_mrd(2, 2, 1, 1)
    report = validate_codeset(code)
    json.dumps(report)
