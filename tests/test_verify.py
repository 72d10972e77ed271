import itertools
import math

import pytest

from cdcodes.construct import CodeSet, grassmannian_code, lifted_mrd_code, multiblock_parallel_mrd
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
    import cdcodes.verify as verify

    code = multiblock_parallel_mrd(2, 2, 1, 1)
    masked = min_distance_exhaustive(code)
    members, none_masks = membership_masks(code, bit_budget=1)
    assert none_masks is None
    generic = verify._min_distance_pairs_generic(
        members, itertools.combinations(range(len(members)), 2))
    assert masked == generic


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
    import cdcodes.verify as verify

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
    mats = [f.to_matrix() for f in enumerate_mrd(2, 2, 1)]
    assert empirical_rank_distribution(mats) == {0: 1, 1: 9, 2: 6}
    mats32 = [f.to_matrix() for f in enumerate_mrd(2, 3, 2)]
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
