"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints `ACCEPTANCE <id>: PASS (<elapsed>s) - <summary>` after its
assertions; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines as they complete.  All arithmetic is over finite fields
and integers, so every comparison below is exact equality (the only stated
non-value targets are generous wall-clock ceilings, asserted as given).
"""

import itertools
import time

import pytest

from cdcodes import tables
from cdcodes.bounds import (
    anticode_upper,
    bound_johnson_halving,
    bound_multiblock,
    bound_parallel_linkage,
)
from cdcodes.construct import (
    grassmannian_code,
    lifted_mrd_code,
    multiblock_generators,
    multiblock_parallel_mrd,
    parallel_linkage,
)
from cdcodes.gf import extension_field, field_of_order
from cdcodes.linalg import (
    MatrixGF,
    intersection_dim,
    subspace_from_rows,
)
from cdcodes.qpoly import enumerate_mrd
from cdcodes.rankdist import delsarte_distribution, gaussian_binomial
from cdcodes.verify import (
    empirical_rank_distribution,
    min_distance_exhaustive,
    min_distance_sampled,
    pairwise_min_rank_distance,
)
from block_bound import intersection_bound_pairwise
from vector_oracle import subspace_vectors


def report(criterion, started, summary):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) - {summary}")


def _check_multiblock_table(table_rows, s):
    for q, n, t, new, _old in table_rows:
        assert str(bound_multiblock(q, n, t, s).value) == new


def test_acceptance_01_table2():
    started = time.perf_counter()
    _check_multiblock_table(tables.TABLE2, 1)
    assert bound_multiblock(2, 6, 3, 1).value == 16865101
    assert bound_multiblock(2, 7, 4, 1).value == 34532238023
    assert time.perf_counter() - started < 1.0
    report(1, started, f"all {len(tables.TABLE2)} two-block rows reproduce exactly")


def test_acceptance_02_table4():
    started = time.perf_counter()
    _check_multiblock_table(tables.TABLE4, 2)
    assert bound_multiblock(2, 6, 3, 2).value == 282957166112041
    assert bound_multiblock(2, 5, 3, 2).value == 1252379805361
    assert time.perf_counter() - started < 1.0
    report(2, started, f"all {len(tables.TABLE4)} three-block rows reproduce exactly")


def test_acceptance_03_table5():
    started = time.perf_counter()
    assert len(tables.TABLE5) == 14
    _check_multiblock_table(tables.TABLE5, 3)
    assert bound_multiblock(2, 5, 3, 3).value == 1315398998655356311
    report(3, started, "all 14 four-block rows reproduce exactly")


def test_acceptance_04_table3():
    started = time.perf_counter()
    assert len(tables.TABLE3) == 7
    for q, n, t, new, _old in tables.TABLE3:
        assert (n, t) == (9, 6)
        assert str(bound_johnson_halving(q, n, t).value) == new
    assert bound_johnson_halving(2, 9, 6).value == 18073187439672244
    report(4, started, "all 7 halved rows reproduce exactly")


def test_acceptance_05_parallel_linkage_anchors():
    started = time.perf_counter()
    assert bound_parallel_linkage(2, 6, 0, 6, 16813481).value == 282952629488341
    assert bound_parallel_linkage(2, 6, 0, 6, 16865101).value == 282957166112041
    assert bound_parallel_linkage(2, 6, 1, 6, 269057345).value == 4527245732135821
    # the formula is affine in its input: bound(x + 1) - bound(x) equals the
    # bounded-rank subset size, exactly
    for q, k, h, d in [(2, 6, 0, 6), (3, 5, 2, 4), (5, 4, 1, 2)]:
        step = (
            bound_parallel_linkage(q, k, h, d, 1001).value
            - bound_parallel_linkage(q, k, h, d, 1000).value
        )
        from cdcodes.rankdist import filtration_size

        assert step == filtration_size(q, k, k - d // 2, d // 2)
    report(5, started, "three anchored rows and the input-recurrence hold exactly")


def test_acceptance_06_delsarte_oracle_equivalence():
    started = time.perf_counter()
    for q, n, t in [(2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 2, 1)]:
        hist = empirical_rank_distribution(enumerate_mrd(q, n, t))
        dist = delsarte_distribution(q, n, n - t)
        assert hist == {r: c for r, c in enumerate(dist.counts) if c}
        assert sum(hist.values()) == q ** (n * (t + 1))
        assert dist.total() == q ** (n * (t + 1))
    assert time.perf_counter() - started < 30.0
    report(6, started, "five enumerated rank histograms equal the closed-form distribution")


def test_acceptance_07_multiblock_end_to_end():
    started = time.perf_counter()
    code = multiblock_parallel_mrd(2, 4, 2, 1)
    assert len(code) == 4621
    assert code.ambient_dim == 8 and code.dim == 4
    assert len(code) == bound_multiblock(2, 4, 2, 1).value == 2 ** 12 + 525
    dist, witness = min_distance_exhaustive(code)
    assert dist == 4
    assert witness is not None
    assert time.perf_counter() - started < 120.0
    report(7, started, "4621 distinct members, exhaustive minimum distance exactly 4")


def test_acceptance_08_parallel_linkage_end_to_end():
    started = time.perf_counter()
    v = grassmannian_code(2, 4, 2)
    assert len(v) == 35
    code = parallel_linkage(2, 2, 0, 2, v)
    assert len(code) == 571
    assert code.ambient_dim == 6 and code.dim == 2
    dist, _ = min_distance_exhaustive(code)
    assert dist >= 2
    ceiling = anticode_upper(2, 6, 1, 2).value
    assert ceiling == 651
    assert len(code) <= ceiling
    assert time.perf_counter() - started < 10.0
    report(8, started, f"571 members, exhaustive distance {dist} >= 2, below the ceiling 651")


def test_acceptance_09_mrd_distance_property():
    started = time.perf_counter()
    mats = list(enumerate_mrd(2, 4, 2))
    assert pairwise_min_rank_distance(mats) == 2
    lifted = lifted_mrd_code(2, 4, 2)
    sampled, _ = min_distance_sampled(lifted, 1_000_000, seed=0x5EED)
    assert sampled >= 4  # zero violations of the claimed distance
    assert sampled == 4  # and the sample does hit a closest pair
    assert time.perf_counter() - started < 60.0
    report(9, started, "exact rank distance 2; 10^6 sampled lifted pairs, zero violations")


def test_acceptance_10a_gaussian_binomial_properties():
    started = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 13):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                if 1 <= k <= n - 1:
                    assert gaussian_binomial(n, k, q) == (
                        gaussian_binomial(n - 1, k - 1, q)
                        + q ** k * gaussian_binomial(n - 1, k, q)
                    )
    report("10a", started, "Gaussian-binomial symmetry and recurrence over the full grid")


def test_acceptance_10b_field_axioms():
    """Field axioms on every supported base field and extensions up to 2^12.

    Unary laws (identities, inverses, n-fold Frobenius) are exhausted on all
    elements up to order 4096; commutativity on all pairs up to order 1024;
    associativity and distributivity on all triples up to order 64 (the
    triple count grows cubically, 2^36 checks at order 4096 are infeasible).
    """
    started = time.perf_counter()
    fields = [field_of_order(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    fields += [
        extension_field(2, 6),   # 64
        extension_field(3, 4),   # 81
        extension_field(2, 10),  # 1024
        extension_field(9, 2),   # 81
        extension_field(2, 12),  # 4096
    ]
    for f in fields:
        order = f.order
        assert f.add(0, 1) == 1 and f.mul(1, 1) == 1
        for a in f.elements():
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        if hasattr(f, "frobenius"):
            for a in f.elements():
                assert f.frobenius(a, f.n) == a
        if order <= 1024:
            for a, b in itertools.product(f.elements(), repeat=2):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
        if order <= 64:
            for a, b, c in itertools.product(f.elements(), repeat=3):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    report("10b", started, "field axioms exhausted (unaries to 4096, pairs to 1024, triples to 64)")


def test_acceptance_10c_rref_canonicality():
    started = time.perf_counter()
    import random

    rng = random.Random(99)
    for field in (field_of_order(2), field_of_order(3), field_of_order(4)):
        q = field.order
        for _ in range(60):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
            m = MatrixGF(field, rows)
            # random invertible row operations preserve the canonical form
            t_rows = None
            while t_rows is None:
                cand = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
                if MatrixGF(field, cand).rank() == 3:
                    t_rows = cand
            transformed = MatrixGF(field, t_rows) @ m
            assert subspace_from_rows(transformed) == subspace_from_rows(m)
    report("10c", started, "row-equivalent matrices collapse to one canonical subspace")


def test_acceptance_10d_intersection_oracle():
    started = time.perf_counter()
    import random

    rng = random.Random(4)
    for q in (2, 3):
        field = field_of_order(q)
        for _ in range(60):
            u = subspace_from_rows(
                MatrixGF(field, [[rng.randrange(q) for _ in range(5)] for _ in range(3)])
            )
            v = subspace_from_rows(
                MatrixGF(field, [[rng.randrange(q) for _ in range(5)] for _ in range(2)])
            )
            counted = len(set(subspace_vectors(u)) & set(subspace_vectors(v)))
            assert counted == q ** intersection_dim(u, v)
    report("10d", started, "rank-formula intersections equal the vector-count oracle")


def test_acceptance_10e_block_bound_dominance():
    started = time.perf_counter()
    gens = list(multiblock_generators(2, 2, 1, 2))
    assert len(gens) == 481
    spaces = {g: g.subspace() for g in gens}
    pairs = 0
    for g1, g2 in itertools.combinations(gens, 2):
        if g1.position == g2.position:
            continue
        bound = intersection_bound_pairwise(g1, g2)
        assert intersection_dim(spaces[g1], spaces[g2]) <= bound
        pairs += 1
    assert pairs == 256 * 144 + 256 * 81 + 144 * 81
    report("10e", started, f"intersection bound dominates on all {pairs} cross-position pairs")
