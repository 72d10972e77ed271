import itertools
import math

import numpy as np
import pytest

from cdcodes.construct import (
    CodeSet,
    grassmannian_code,
    lifted_mrd_code,
    multiblock_parallel_mrd,
    rect_lifted_mrd_code,
)
from cdcodes.gf import field_of_order
from cdcodes.linalg import MatrixGF, subspace_distance, subspace_from_rows
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


def test_generic_path_agrees_with_masked():
    # shrink the mask budget to force the rank-formula fallback
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    masked = min_distance_exhaustive(code)
    members, none_masks = membership_masks(code, bit_budget=1)
    assert none_masks is None
    generic = verify._min_distance_pairs_generic(
        members, itertools.combinations(range(len(members)), 2))
    assert masked == generic


def reference_masks(code, bit_budget=verify.MASK_BIT_BUDGET):
    """The per-member mask builder: expand each member with Subspace.vectors()."""
    members = sorted(code.members)
    points = code.q ** code.ambient_dim
    if not members or points * len(members) > bit_budget:
        return members, None
    words = (points + 63) // 64
    arr = np.zeros((len(members), words), dtype=np.uint64)
    for idx, s in enumerate(members):
        mask = 0
        for v in s.vectors():
            mask |= 1 << v
        arr[idx] = np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")
    return members, arr


def mask_test_codes(q):
    """Lifted, rect-lifted, multiblock and Grassmannian codes over GF(q), and a
    code mixing members of dimension 0, 1 and 2."""
    field = field_of_order(q)
    lines = grassmannian_code(q, 3, 1)
    planes = grassmannian_code(q, 3, 2)
    zero = subspace_from_rows(MatrixGF.zeros(field, 1, 3))
    mixed = CodeSet(field, 3, 1, 2, (zero,) + lines.members + planes.members)
    return [lifted_mrd_code(q, 2, 0), rect_lifted_mrd_code(q, 2, 1, 0),
            multiblock_parallel_mrd(q, 2, 1, 1), lines, mixed]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_masks_match_the_vectors_reference(q, monkeypatch):
    for code in mask_test_codes(q):
        members, masks = membership_masks(code)
        ref_members, ref_masks = reference_masks(code)
        assert members == ref_members
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
        slow = (min_distance_exhaustive(code, cap=len(members)),
                min_distance_sampled(code, 2000, seed=q))
        monkeypatch.undo()
        assert fast == slow  # distances and witnesses


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
    fast = min_distance_exhaustive(code)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert np.array_equal(verify._popcount_rows(rows), expected)
    assert min_distance_exhaustive(code) == fast


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


def test_sampled_generic_path():
    code = lifted_mrd_code(2, 2, 1)
    masked = min_distance_sampled(code, 500, seed=3)
    orig = verify.MASK_BIT_BUDGET
    try:
        verify.MASK_BIT_BUDGET = 1

        def patched_masks(c, bit_budget=1):
            return verify._sorted_members(c), None

        saved = verify.membership_masks
        verify.membership_masks = patched_masks
        generic = min_distance_sampled(code, 500, seed=3)
        verify.membership_masks = saved
    finally:
        verify.MASK_BIT_BUDGET = orig
    assert masked == generic  # distance and witness


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
