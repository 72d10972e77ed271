import itertools
import math
import random

import numpy as np
import pytest

from cdcodes import qpoly
from cdcodes.gf import extension_field, field_of_order
from cdcodes.linalg import MatrixGF
from cdcodes.qpoly import (
    BudgetError,
    QPolynomial,
    enumerate_filtration,
    enumerate_mrd,
    enumerate_rect_mrd,
    mrd_array,
)
from cdcodes.rankdist import filtration_size


def test_evaluate_identity_and_zero():
    ext = extension_field(2, 3)
    ident = QPolynomial(ext, (1,))
    zero = QPolynomial(ext, (0, 0))
    for x in ext.elements():
        assert ident.evaluate(x) == x
        assert zero.evaluate(x) == 0


def test_evaluate_frobenius_f4():
    ext = extension_field(2, 2)
    frob = QPolynomial(ext, (0, 1))  # x -> x^q
    assert frob.evaluate(2) == 3  # alpha -> alpha + 1


def test_evaluate_is_linear_over_base():
    rng = random.Random(1)
    for q, n, t in [(2, 4, 2), (3, 2, 1), (4, 2, 1)]:
        ext = extension_field(q, n)
        for _ in range(20):
            f = QPolynomial(ext, [rng.randrange(ext.order) for _ in range(t + 1)])
            for a, b in itertools.product(range(q), repeat=2):
                for x, y in [(1, 2), (rng.randrange(ext.order), rng.randrange(ext.order))]:
                    lhs = f.evaluate(ext.add(ext.mul(a, x), ext.mul(b, y)))
                    rhs = ext.add(ext.mul(a, f.evaluate(x)), ext.mul(b, f.evaluate(y)))
                    assert lhs == rhs


def test_to_matrix_convention():
    ext = extension_field(2, 2)
    assert QPolynomial(ext, (1,)).to_matrix().rows == ((1, 0), (0, 1))
    assert QPolynomial(ext, (0,)).to_matrix().rows == ((0, 0), (0, 0))
    frob = QPolynomial(ext, (0, 1))
    m = frob.to_matrix()
    assert m.rank() == 2
    # coords(f(x)) = coords(x) @ M, checked exhaustively
    for x in ext.elements():
        row = MatrixGF(ext.base, [ext.to_vector(x)])
        assert (row @ m).rows[0] == ext.to_vector(frob.evaluate(x))


def test_matrix_additivity_random_pairs():
    rng = random.Random(2)
    ext = extension_field(2, 4)
    for _ in range(30):
        f = QPolynomial(ext, [rng.randrange(16) for _ in range(3)])
        g = QPolynomial(ext, [rng.randrange(16) for _ in range(3)])
        total = QPolynomial(ext, [ext.add(a, b) for a, b in zip(f.coeffs, g.coeffs)])
        diff = QPolynomial(ext, [ext.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)])
        assert diff.to_matrix() == f.to_matrix().sub(g.to_matrix())
        assert total.to_matrix().sub(g.to_matrix()) == f.to_matrix()


def test_enumerate_mrd_counts_and_order():
    ext = extension_field(2, 2)
    mats = list(enumerate_mrd(2, 2, 1))
    assert len(mats) == 16
    assert len(set(mats)) == 16
    # odometer order: a_0 varies fastest
    for idx, coeffs in [(0, (0, 0)), (1, (1, 0)), (4, (0, 1))]:
        assert mats[idx] == QPolynomial(ext, coeffs).to_matrix()
    assert len(list(enumerate_mrd(2, 4, 2))) == 4096


@pytest.mark.parametrize("q,n,t,h", [(2, 3, 2, 0), (3, 3, 1, 0), (4, 2, 1, 0), (5, 2, 1, 0),
                                     (8, 2, 1, 0), (9, 2, 1, 0), (2, 2, 1, 1), (3, 2, 1, 2),
                                     (4, 2, 0, 1)])
def test_enumerate_mrd_matches_per_map_matrices(q, n, t, h, monkeypatch):
    # the span stream agrees with evaluating every map of the odometer
    ext, big = extension_field(q, n), extension_field(q, n + h)
    whole = list(enumerate_mrd(q, n, t, h=h))
    assert len(whole) == big.order ** (t + 1)
    for idx, m in enumerate(whole):
        coeffs = [idx // big.order ** i % big.order for i in range(t + 1)]
        assert m == QPolynomial(ext, coeffs, big).to_matrix()
    # a chunk size that divides no code's length: the last chunk is short
    monkeypatch.setattr(qpoly, "_CHUNK", 7)
    assert list(enumerate_mrd(q, n, t, h=h)) == whole


@pytest.mark.parametrize("q,n,t,h", [(2, 3, 2, 0), (3, 2, 1, 1), (4, 2, 1, 0), (16, 2, 0, 1)])
def test_mrd_array_is_the_enumerate_mrd_stream(q, n, t, h, monkeypatch):
    whole = mrd_array(q, n, t, h=h)
    assert whole.dtype == np.uint8 and whole.shape == (q ** ((n + h) * (t + 1)), n, n + h)
    assert [MatrixGF(field_of_order(q), m) for m in whole.tolist()] == list(
        enumerate_mrd(q, n, t, h=h))
    monkeypatch.setattr(qpoly, "_CHUNK", 5)  # divides no code's length: the last chunk is short
    assert (mrd_array(q, n, t, h=h) == whole).all()


def test_enumerate_mrd_skips_the_entry_checks(monkeypatch):
    # span's entries are in range by construction; MatrixGF(field, rows) still checks
    def checked(self, field, rows):
        raise AssertionError("codeword entries re-checked")

    monkeypatch.setattr(MatrixGF, "__init__", checked)
    assert len(list(enumerate_mrd(3, 2, 1))) == 81


def test_enumerate_budget():
    # 2^24 elements: over a tight budget the call itself refuses
    with pytest.raises(BudgetError):
        enumerate_mrd(2, 6, 3, budget=1 << 20)
    with pytest.raises(BudgetError):
        mrd_array(2, 6, 3, budget=1 << 20)
    # exactly at the default limit the stream starts normally
    gen = enumerate_mrd(2, 6, 3, budget=1 << 24)
    assert next(gen) == MatrixGF.zeros(field_of_order(2), 6, 6)


def test_enumerate_refuses_codes_beyond_int64_indices():
    # 2^64 codewords: refused at call time, before any index is formed
    with pytest.raises(ValueError, match="2\\^62"):
        enumerate_mrd(2, 8, 7, budget=None)


def test_kernel_dims_exhaustive_small():
    ext = extension_field(2, 2)
    for coeffs in itertools.product(range(ext.order), repeat=2):
        kernel_dim = 2 - QPolynomial(ext, coeffs).to_matrix().rank()
        assert kernel_dim == 2 if not any(coeffs) else kernel_dim <= 1


def test_root_count_matches_kernel_dim():
    for q, n, t in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)]:
        ext = extension_field(q, n)
        for coeffs in itertools.product(range(ext.order), repeat=t + 1):
            f = QPolynomial(ext, coeffs)
            roots = sum(1 for x in ext.elements() if f.evaluate(x) == 0)
            assert roots == q ** (n - f.to_matrix().rank())


def min_rank_distance(mats):
    best = None
    for a, b in itertools.combinations(mats, 2):
        r = a.sub(b).rank()
        if best is None or r < best:
            best = r
    return best


def test_mrd_distance_exhaustive():
    # fully exhaustive pairwise minimum rank distance equals n - t
    for q, n, t in [(2, 2, 1), (2, 3, 1), (3, 2, 1)]:
        mats = list(enumerate_mrd(q, n, t))
        assert min_rank_distance(mats) == n - t


def test_mrd_distance_exhaustive_2_4_2_packed():
    # 4096 matrices -> 8.4M pairs through the lifted-subspace scan
    from cdcodes.verify import pairwise_min_rank_distance

    mats = list(enumerate_mrd(2, 4, 2))
    assert pairwise_min_rank_distance(mats) == 2


def test_pairwise_min_rank_distance_matches_brute():
    # the brute-force pair loop stays the reference for the lifted-subspace scan
    from cdcodes.verify import pairwise_min_rank_distance

    for q, n, t, h, expect in [(2, 2, 1, 0, 1), (3, 2, 1, 0, 1), (3, 3, 1, 0, 2),
                               (2, 2, 0, 1, 2), (2, 3, 1, 1, 2), (2, 2, 1, 2, 1)]:
        mats = list(enumerate_mrd(q, n, t, h=h))
        assert pairwise_min_rank_distance(mats) == min_rank_distance(mats) == expect
    mats = list(enumerate_mrd(2, 2, 1))
    assert pairwise_min_rank_distance(mats + mats[3:4]) == min_rank_distance(mats + mats[3:4]) == 0
    assert pairwise_min_rank_distance(mats[:1]) == pairwise_min_rank_distance([]) == math.inf
    rect = next(enumerate_mrd(2, 2, 1, h=1))
    with pytest.raises(ValueError):
        pairwise_min_rank_distance(mats + [rect])
    with pytest.raises(ValueError):
        pairwise_min_rank_distance(mats + [next(enumerate_mrd(3, 2, 1))])


def test_filtration_counts():
    assert sum(1 for _ in enumerate_filtration(2, 2, 1, 1)) == 9
    assert sum(1 for _ in enumerate_filtration(2, 4, 2, 2)) == 525
    assert filtration_size(2, 4, 2, 2) == 525
    # j = 0: everything but the zero map
    assert sum(1 for _ in enumerate_filtration(2, 2, 1, 0)) == 15


def test_filtration_matches_formula_grid(monkeypatch):
    monkeypatch.setattr(qpoly, "_CHUNK", 7)  # ranks taken across chunk boundaries
    for q, n, t in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)]:
        mats = list(enumerate_mrd(q, n, t))
        for j in range(t + 1):
            got = list(enumerate_filtration(q, n, t, j))
            assert len(got) == filtration_size(q, n, t, j)
            assert got == [m for m in mats if 0 < m.rank() <= n - j]  # nonzero, kernel dim >= j


def test_rect_mrd_h0_matches_square():
    assert list(enumerate_rect_mrd(2, 2, 0, 1)) == list(enumerate_mrd(2, 2, 1))


def test_rect_mrd_counts_and_distance():
    mats = list(enumerate_rect_mrd(2, 2, 1, 1))
    assert len(mats) == 64
    assert all(m.nrows == 2 and m.ncols == 3 for m in mats)
    assert len(set(mats)) == 64
    assert min_rank_distance(mats) == 1  # k - t = 2 - 1


def test_rect_mrd_distance_more_cases():
    from cdcodes.verify import pairwise_min_rank_distance

    for q, k, h, t, expect in [(2, 2, 1, 0, 2), (2, 3, 1, 1, 2), (3, 2, 1, 1, 1), (2, 3, 2, 1, 2)]:
        mats = list(enumerate_rect_mrd(q, k, h, t))
        assert len(mats) == q ** ((k + h) * (t + 1))
        assert pairwise_min_rank_distance(mats) == expect
        for m in mats:
            if any(map(any, m.rows)):
                assert m.nrows - m.rank() <= t  # nonzero maps: kernel dimension at most t


def test_rect_embedding_is_linear_and_injective():
    # phi pads coordinates with zeros: a small code is the same code in big,
    # and big arithmetic restricted to small codes adds as small does
    for q, k, h in [(2, 2, 1), (3, 2, 2), (2, 3, 2)]:
        small = extension_field(q, k)
        big = extension_field(q, k + h)
        for x in small.elements():
            assert big.to_vector(x) == small.to_vector(x) + (0,) * h
        for x, y in itertools.product(small.elements(), repeat=2):
            assert small.add(x, y) == big.add(x, y)
        ident = QPolynomial(small, (1,), big)
        assert [ident.evaluate(x) for x in small.elements()] == list(small.elements())


def test_rect_rejects_bad_parameters():
    with pytest.raises(ValueError):
        list(enumerate_rect_mrd(2, 2, 0, 2))  # t must stay below k
    with pytest.raises(ValueError):
        list(enumerate_rect_mrd(2, 2, -1, 1))
