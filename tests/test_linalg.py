import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdcodes.gf as gf
import cdcodes.linalg as linalg
from cdcodes.construct import bases_dtype
from cdcodes.gf import GF, extension_field, factor_prime_power, field_of_order
from cdcodes.linalg import (
    _rref_generic,
    MatrixGF,
    Subspace,
    canonical_batch,
    enumerate_bases,
    enumerate_subspaces,
    intersection_dim,
    is_canonical_basis,
    rref_batch,
    rref_chunk,
    span_blocks,
    span_into,
    subspace_distance,
    subspace_from_rows,
)
from rref_reference import rref_reference
from span_reference import span_budget, span_product
from vector_oracle import encode_vector, subspace_vectors

F2 = GF(2)
F3 = GF(3)
BIG = 4_294_967_311  # the least prime above 2^32: a product of two entries overflows int64


def field_of(q):
    """GF(q); past m = 4, where field_of_order stops, GF(p^m) over GF(p)."""
    p, m = factor_prime_power(q)
    return field_of_order(q) if m <= 4 else extension_field(p, m)


def all_matrices(field, nrows, ncols):
    q = field.order
    for flat in itertools.product(range(q), repeat=nrows * ncols):
        yield MatrixGF(field, [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def test_rref_identity_and_zero():
    ident = MatrixGF.identity(F2, 3)
    assert ident.rref() == ident
    z = MatrixGF.zeros(F3, 2, 4)
    assert z.rref() == z


def test_rref_hand_example():
    m = MatrixGF(F2, [[1, 1], [1, 0]])
    assert m.rref().rows == ((1, 0), (0, 1))


def test_rank_counts_f2_2x2():
    ranks = [m.rank() for m in all_matrices(F2, 2, 2)]
    assert ranks.count(0) == 1
    assert ranks.count(1) == 9
    assert ranks.count(2) == 6


def test_rank_rank_nullity():
    assert MatrixGF.identity(F3, 4).rank() == 4
    assert MatrixGF.zeros(F2, 5, 5).rank() == 0
    for m in all_matrices(F3, 2, 2):
        # left kernel {x : x M = 0} has q^(nrows - rank) vectors
        kernel = [x for x in itertools.product(range(3), repeat=2)
                  if not any((MatrixGF(F3, [x]) @ m).rows[0])]
        assert len(kernel) == 3 ** (m.nrows - m.rank())


def test_rank_invariant_under_permutations():
    rng = random.Random(11)
    for field in (F2, F3):
        for _ in range(50):
            rows = [[rng.randrange(field.order) for _ in range(4)] for _ in range(3)]
            m = MatrixGF(field, rows)
            rp = list(range(3))
            cp = list(range(4))
            rng.shuffle(rp)
            rng.shuffle(cp)
            permuted = MatrixGF(field, [[rows[i][j] for j in cp] for i in rp])
            assert m.rank() == permuted.rank()


def test_matmul_against_direct():
    a = MatrixGF(F3, [[1, 2], [0, 1]])
    b = MatrixGF(F3, [[2, 1], [1, 1]])
    c = a @ b
    assert c.rows == ((1, 0), (1, 1))  # entries mod 3
    ident = MatrixGF.identity(F3, 2)
    assert (a @ ident) == a


def test_subspace_canonical_and_equality():
    m1 = MatrixGF(F2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    m2 = MatrixGF(F2, [[1, 1, 1, 1], [0, 1, 0, 1]])  # row-equivalent
    s1 = subspace_from_rows(m1)
    s2 = subspace_from_rows(m2)
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.dim == 2 and s1.ambient_dim == 4


def test_subspace_rank_drop_recorded():
    m = MatrixGF(F2, [[1, 0, 1], [1, 0, 1]])
    s = subspace_from_rows(m)
    assert s.dim == 1


def test_intersection_and_distance_examples():
    u = subspace_from_rows(MatrixGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    v = subspace_from_rows(MatrixGF(F2, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert intersection_dim(u, v) == 0
    assert subspace_distance(u, v) == 4
    assert intersection_dim(u, u) == 2
    assert subspace_distance(u, u) == 0
    w = subspace_from_rows(MatrixGF(F2, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    assert intersection_dim(u, w) == 1
    assert subspace_distance(u, w) == 2
    tall = subspace_from_rows(MatrixGF(F2, [[1, 0]]))
    with pytest.raises(ValueError):
        intersection_dim(u, tall)


def test_intersection_dim_matches_vector_count_oracle():
    rng = random.Random(3)
    for field in (F2, F3):
        q = field.order
        for _ in range(40):
            rows_u = [[rng.randrange(q) for _ in range(4)] for _ in range(2)]
            rows_v = [[rng.randrange(q) for _ in range(4)] for _ in range(2)]
            u = subspace_from_rows(MatrixGF(field, rows_u))
            v = subspace_from_rows(MatrixGF(field, rows_v))
            common = set(subspace_vectors(u)) & set(subspace_vectors(v))
            count = len(common)
            d = intersection_dim(u, v)
            assert count == q ** d


def test_metric_axioms_random_triples():
    spaces = list(enumerate_subspaces(F2, 4, 2))
    rng = random.Random(5)
    for _ in range(200):
        u, v, w = (rng.choice(spaces) for _ in range(3))
        duv = subspace_distance(u, v)
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)


def test_enumerate_subspaces_counts():
    assert len(list(enumerate_subspaces(F2, 4, 2))) == 35
    assert len(list(enumerate_subspaces(F3, 3, 1))) == 13
    assert len(list(enumerate_subspaces(F2, 4, 0))) == 1
    # all distinct and correctly sized
    seen = set(enumerate_subspaces(F2, 5, 2))
    assert len(seen) == 155


def test_vector_encoding_roundtrip():
    for q in (2, 3, 4):
        field = field_of_order(q)
        codes = [encode_vector(coords, q) for coords in itertools.product(range(q), repeat=3)]
        assert sorted(codes) == list(range(q ** 3))
        s = subspace_from_rows(MatrixGF(field, [[1, 0, 2 % q], [0, 1, 1]]))
        vecs = subspace_vectors(s)
        assert len(vecs) == q ** 2
        assert len(set(vecs)) == q ** 2
        assert 0 in vecs


DEFECTS = ("none", "scale", "add_row", "zero_row", "repeat_row", "swap", "out_of_range")


@st.composite
def bases_with_defects(draw):
    """Rows over GF(2), GF(3), GF(4) or GF(9): an RREF basis or a random matrix,
    then at most one defect (unnormalised pivot, unreduced column, zero or
    repeated row, swapped rows, entry outside [0, q))."""
    field = field_of_order(draw(st.sampled_from([2, 3, 4, 9])))
    q = field.order
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
        rows = [[0] * n for _ in range(k)]
        for r, p in enumerate(pivots):
            rows[r][p] = 1
            for c in range(p + 1, n):
                if c not in pivots:
                    rows[r][c] = draw(st.integers(0, q - 1))
    else:
        row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=k, max_size=k))
    defect = draw(st.sampled_from(DEFECTS))
    if rows and defect != "none":
        i = draw(st.integers(0, k - 1))
        j = (i + draw(st.integers(1, max(1, k - 1)))) % k  # another row when k > 1
        c = draw(st.integers(1, q - 1))
        if defect == "scale":
            rows[i] = [field.mul(c, x) for x in rows[i]]
        elif defect == "add_row":
            rows[i] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])]
        elif defect == "zero_row":
            rows[i] = [0] * n
        elif defect == "repeat_row":
            rows.append(list(rows[i]))
        elif defect == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, q, q + 5]))
    return field, n, rows


@settings(max_examples=400, deadline=None, database=None)
@given(bases_with_defects())
@example((F3, 3, [[1, 0, 2], [0, 1, 1]]))  # canonical
@example((F3, 3, [[0, 1, 1], [1, 0, 2]]))  # pivots out of order
@example((F3, 3, [[2, 0, 1], [0, 1, 1]]))  # unnormalised pivot
@example((F3, 3, [[1, 1, 2], [0, 1, 1]]))  # pivot column not reduced
@example((F3, 3, [[1, 0, 2], [1, 0, 2]]))  # rank-deficient
@example((F3, 3, [[1, 0, 2], [0, 0, 0]]))  # zero row
@example((F3, 3, [[1, 0, 3], [0, 1, 1]]))  # entry outside [0, q)
@example((F3, 3, [[1, 0, -1], [0, 1, 1]]))  # negative entry
@example((F3, 3, [[1, 2, 0], [0, 0, 1]]))  # canonical, a free column before the last pivot
@example((F3, 3, [[1, 0, 1], [0, 0, 1]]))  # an earlier row nonzero in a later pivot column
def test_canonical_basis_check_matches_elimination(case):
    field, n, rows = case
    in_range = all(0 <= x < field.order for r in rows for x in r)
    eliminated = None
    if in_range:  # nonzero rows of the elimination kernel's RREF
        eliminated = tuple(r for r in MatrixGF(field, rows).rref().rows if any(r))
    basis = tuple(map(tuple, rows))
    assert is_canonical_basis(rows, field.order) == (eliminated == basis)
    if in_range and rows:  # the fast path of subspace_from_rows agrees with elimination
        assert subspace_from_rows(MatrixGF(field, rows)) == Subspace(field, n, eliminated)


@st.composite
def basis_batches(draw, field=None):
    """A batch of k x N arrays over GF(q), k in 0..3 and N in 0..5: each member a random
    matrix or a canonical basis (its pivots and free entries drawn), then at most one
    entry of one member changed; entries are held as a CodeSet holds them.  The field is
    GF(2), GF(3), GF(4), GF(5) or GF(9) unless one is given."""
    field = field or field_of_order(draw(st.sampled_from([2, 3, 4, 5, 9])))
    q = field.order
    k, n = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    entry = st.integers(0, q - 1) | st.sampled_from([0, 1, q - 1])
    mats = []
    for _ in range(draw(st.integers(0, 6))):
        if 0 < k <= n and draw(st.booleans()):
            pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                          unique=True)))
            mats.append([[int(c == p) if c in pivots or c < p else draw(entry) for c in range(n)]
                         for p in pivots])
        else:
            mats.append([[draw(entry) for _ in range(n)] for _ in range(k)])
    if mats and k and n and draw(st.booleans()):
        draw(st.sampled_from(mats))[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = (
            draw(entry))
    return field, np.array(mats, dtype=bases_dtype(field)).reshape(len(mats), k, n)


@settings(max_examples=400, deadline=None, database=None)
@given(basis_batches())
@example((F3, np.array([[[1, 0, 2], [0, 1, 1]], [[0, 1, 1], [1, 0, 2]], [[2, 0, 1], [0, 1, 1]],
                        [[1, 1, 2], [0, 1, 1]], [[1, 0, 2], [1, 0, 2]], [[1, 0, 2], [0, 0, 0]],
                        [[1, 2, 0], [0, 0, 1]], [[1, 0, 1], [0, 0, 1]]], dtype=np.uint8)))
def test_canonical_batch_matches_the_per_matrix_check(case):
    field, bases = case
    assert canonical_batch(bases).tolist() == [is_canonical_basis(b, field.order)
                                               for b in bases.tolist()]


@pytest.mark.parametrize("q, k, n", [(2, 2, 4), (3, 2, 3), (4, 1, 4), (5, 2, 2), (2, 3, 3),
                                     (9, 1, 3), (2, 0, 3), (3, 2, 0), (2, 0, 0), (3, 3, 2)])
def test_canonical_batch_finds_exactly_the_grassmannian(q, k, n):
    # every k x n array over GF(q): the canonical ones are the bases enumerate_bases walks
    field = field_of_order(q)
    everything = np.array(list(itertools.product(range(q), repeat=k * n)),
                          dtype=bases_dtype(field)).reshape(q ** (k * n), k, n)
    mask = canonical_batch(everything)
    assert mask.tolist() == [is_canonical_basis(b, q) for b in everything.tolist()]
    assert sorted(everything[mask].tolist()) == sorted(enumerate_bases(field, n, k))
    assert canonical_batch(everything[:0]).shape == (0,)


@pytest.mark.parametrize("p", [2**64 - 59, 2**64 + 13])
def test_canonical_batch_matches_the_per_matrix_check_beyond_int64(p, monkeypatch):
    # entries held as uint64 below 2^64 and as Python ints in an object array above
    monkeypatch.setattr(gf, "is_prime", lambda n: n == p)
    field = gf.GF(p)

    @settings(max_examples=100, deadline=None, database=None)
    @given(basis_batches(field))
    def check(case):
        _, bases = case
        assert bases.dtype == (object if p > 2**64 else np.uint64)
        assert canonical_batch(bases).tolist() == [is_canonical_basis(b, p) for b in bases.tolist()]

    check()


SPAN_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25])
def test_span_matches_a_fold_through_the_field(q):
    # sum_i c_i row_i with c_i base-q digit i of the index, against field.add/mul
    field = field_of_order(q)
    rng = np.random.default_rng(q)
    for r in (0, 1, 3):
        rows = rng.integers(0, q, size=(2, r, 5))  # a batch of two row sets
        out = span_into(field, rows, np.empty((2, q ** r, 5), np.min_scalar_type(q - 1)))
        idx = rng.permutation(q ** r)[:7]
        for b, i in itertools.product(range(2), idx.tolist()):
            acc = [0] * 5
            for digit, row in enumerate(rows[b].tolist()):
                c = i // q ** digit % q
                acc = [field.add(a, field.mul(c, x)) for a, x in zip(acc, row)]
            assert out[b, i].tolist() == acc


def check_span_kernel(field, rows, block):
    """span_into and span_blocks against the product reference: element codes,
    codes of coordinate groups, and whole-vector codes, under the budget of
    blocks of block combinations."""
    q, (*batch, r, length) = field.order, rows.shape
    expected = span_product(field, rows, np.arange(q ** r))
    dtype = np.min_scalar_type(q - 1)
    budget, n = span_budget(field, rows.shape, block, length, dtype, True)
    with mock.patch.object(linalg, "_CHUNK_BYTES", budget):
        out = np.empty((*batch, q ** r, length), dtype)
        assert span_into(field, rows, out) is out and np.array_equal(out, expected)
        blocks = list(span_blocks(field, rows))
        assert all(b.dtype == dtype and b.shape[-2] == n for b in blocks)
        assert np.array_equal(np.concatenate(blocks, axis=-2), expected)
        for width in [w for w in (1, 2) if length % w == 0]:
            g = length // width
            place = q ** np.arange(g, dtype=np.int64)
            codes = expected.reshape(*batch, q ** r, width, g) @ place
            out = np.empty((*batch, q ** r, width), np.min_scalar_type(q ** g - 1))
            assert np.array_equal(span_into(field, rows, out), codes)


@pytest.mark.parametrize("q", SPAN_QS)
def test_span_kernel_matches_the_product_reference(q):
    field = field_of_order(q)
    rng = np.random.default_rng(100 + q)
    for r in (0, 1, 3):
        for batch in ((), (3,), (2, 2)):
            rows = rng.integers(0, q, size=(*batch, r, 4))
            if r == 3:  # a repeated row, and zero rows in some row sets
                rows[..., 1, :] = rows[..., 0, :]
                rows.reshape(-1, r, 4)[::2, 2] = 0
            for block in (1, field.p, 10, q ** r):  # one-combination blocks up to 4096 combinations
                if block > 1 or q ** r <= 4096:
                    check_span_kernel(field, rows, block)


@st.composite
def row_sets(draw):
    """A batch of row sets over GF(q), q in SPAN_QS, with zeros often, and a block size."""
    field = field_of_order(draw(st.sampled_from(SPAN_QS)))
    q = field.order
    r = draw(st.integers(0, 3 if q < 16 else 2))
    length, count = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    entry = st.integers(0, q - 1) | st.just(0)
    rows = draw(st.lists(st.lists(st.lists(entry, min_size=length, max_size=length),
                                  min_size=r, max_size=r), min_size=count, max_size=count))
    return field, np.array(rows, dtype=np.int64).reshape(count, r, length), draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None, database=None)
@given(row_sets())
def test_span_kernel_agrees_with_the_reference_on_random_row_sets(case):
    check_span_kernel(*case)


@st.composite
def matrix_batches(draw):
    """A batch of matrices over GF(q), q in {2, 3, 4, 5, 8, 9, 16, BIG}: zero rows
    or columns, tall and wide shapes, rows past one packed word (q = 2), and rows
    copied or scaled from other rows."""
    field = field_of_order(draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, BIG])))
    q = field.order
    width = st.integers(0, 6) | st.integers(60, 130) if q == 2 else st.integers(0, 6)
    r, c, count = draw(st.integers(0, 5)), draw(width), draw(st.integers(0, 4))
    entry = st.integers(0, q - 1) | st.just(0)  # zeros often, so pivots move around
    mats = draw(st.lists(st.lists(st.lists(entry, min_size=c, max_size=c),
                                  min_size=r, max_size=r), min_size=count, max_size=count))
    for rows in mats:
        if r > 1 and draw(st.booleans()):  # rank-deficient: a multiple of another row
            i, j = draw(st.permutations(range(r)))[:2]
            factor = draw(st.integers(0, q - 1))
            rows[i] = [field.mul(factor, x) for x in rows[j]]
    return field, np.array(mats, dtype=np.int64).reshape(count, r, c)


@settings(max_examples=300, deadline=None, database=None)
@given(matrix_batches())
@example((field_of_order(BIG), np.array([[[BIG - 1, BIG - 2], [3, BIG - 5]]])))  # invertible
@example((field_of_order(BIG), np.array([[[BIG - 2, 7, BIG - 1], [4, BIG - 14, 2]]])))  # rank 1
def test_batched_rref_matches_the_per_matrix_kernels(case):
    field, mats = case
    reduced, rank = rref_batch(field, mats)
    assert reduced.shape == mats.shape and rank.shape == mats.shape[:1]
    for i, rows in enumerate(mats.tolist()):
        m = MatrixGF(field, rows)
        assert reduced[i].tolist() == [list(row) for row in m.rref().rows]
        assert rank[i] == m.rank()


@pytest.mark.parametrize("p", [2**63 + 29, 2**64 - 59, 2**64 + 13])
def test_batched_rref_matches_the_per_matrix_kernels_beyond_uint64_products(p, monkeypatch):
    """Known primes near 2^64 (is_prime, trial division, would take about 2^31
    steps on each), with entries held as a CodeSet holds them: uint64 below
    2^64 and Python ints above."""
    monkeypatch.setattr(gf, "is_prime", lambda n: n == p)
    field = gf.GF(p)
    rng = random.Random(p)
    mats = [[[rng.randrange(p) for _ in range(4)] for _ in range(3)] for _ in range(40)]
    for rows in mats[::2]:  # rank-deficient: the last row a multiple of the first
        c = rng.randrange(p)
        rows[2] = [c * x % p for x in rows[0]]
    mats.append([[p - 1, p - 2, 0, 1], [3, p - 5, 1, 0], [p - 1, p - 1, p - 1, 1]])  # entries near p
    reduced, rank = rref_batch(field, np.array(mats, dtype=bases_dtype(field)))
    for i, rows in enumerate(mats):
        m = MatrixGF(field, rows)
        assert reduced[i].tolist() == [list(row) for row in m.rref().rows]
        assert rank[i] == m.rank()
    assert sorted(set(rank.tolist())) == [2, 3]


def ranked_matrices(field, r, c, rng, per_rank=2):
    """(per_rank, min(r, c) + 1, r, c) element codes over field: [i, k] a random
    r x k matrix times a random k x c one, drawn again until its rank is k."""
    q = field.order
    out = np.zeros((per_rank, min(r, c) + 1, r, c), dtype=np.int64)
    for i, k in itertools.product(range(per_rank), range(min(r, c) + 1)):
        while True:
            left = [[rng.randrange(q) for _ in range(k)] for _ in range(r)]
            right = [[rng.randrange(q) for _ in range(c)] for _ in range(k)]
            rows = [[0] * c for _ in range(r)]
            for a, b in itertools.product(range(r), range(c)):
                for j in range(k):
                    rows[a][b] = field.add(rows[a][b], field.mul(left[a][j], right[j][b]))
            if _rref_generic(field, rows, c)[1] == k:
                break
        out[i, k] = np.reshape(rows, (r, c))
    return out


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (3, 7), (7, 3), (2, 9), (9, 2)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 32, 251, 256, 257])
def test_batched_rref_agrees_with_the_reference_and_the_per_matrix_kernel(q):
    """Every rank from 0 to full, empty, tall and wide shapes, q = 2 rows on the
    packed-word boundaries, and two leading batch axes."""
    field, rng = field_of(q), random.Random(q)
    for r, c in SHAPES + ([(3, 63), (4, 64), (4, 65), (3, 130)] if q == 2 else []):
        mats = ranked_matrices(field, r, c, rng)
        reduced, rank = rref_batch(field, mats)
        expected, expected_rank = rref_reference(field, mats)
        assert reduced.dtype == expected.dtype == np.int64 and reduced.shape == mats.shape
        assert (reduced == expected).all() and (rank == expected_rank).all()
        assert rank.tolist() == [list(range(min(r, c) + 1))] * len(mats)
        count = rank.size
        for m, red, k in zip(mats.reshape(count, r, c).tolist(),
                             reduced.reshape(count, r, c).tolist(), rank.ravel().tolist()):
            assert (red, k) == ([list(row) for row in _rref_generic(field, m, c)[0]], k)


@pytest.mark.parametrize("q, r, c", [(2, 6, 6), (2, 4, 130), (3, 6, 12), (16, 4, 8), (32, 6, 12),
                                     (256, 3, 6), (257, 3, 6), (BIG, 3, 6)])
def test_elimination_peaks_within_its_chunk_allowance(q, r, c, monkeypatch):
    """One call on an rref_chunk of matrices holds at most the chunk's bytes and a
    fixed slack: no copy of the batch per column."""
    field, allowance, slack = field_of(q), 1 << 20, 1 << 16
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", allowance)
    count = rref_chunk(field, r, c)
    mats = np.random.default_rng(5).integers(0, q, size=(count, r, c)).astype(bases_dtype(field))
    tracemalloc.start()
    rref_batch(field, mats)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= allowance + slack


def test_batched_rref_keeps_leading_batch_axes():
    field = field_of_order(3)
    mats = np.random.default_rng(3).integers(0, 3, size=(2, 3, 2, 4))
    reduced, rank = rref_batch(field, mats)
    flat_reduced, flat_rank = rref_batch(field, mats.reshape(6, 2, 4))
    assert (reduced.reshape(6, 2, 4) == flat_reduced).all() and (rank.ravel() == flat_rank).all()


def test_matrix_rejects_entries_outside_the_field():
    for rows in ([[0, 2]], [[-1, 0]], [[1, 0], [0, 5]]):
        with pytest.raises(ValueError, match="outside field of order 2"):
            MatrixGF(F2, rows)
