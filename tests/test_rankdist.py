import pytest

from cdcodes.gf import GF, field_of_order
from cdcodes.linalg import enumerate_subspaces
from cdcodes.rankdist import (
    closed_form_first_three,
    delsarte_distribution,
    filtration_size,
    gaussian_binomial,
    lifted_mrd_size,
)


def count_subspaces_brute(q, n, k):
    field = field_of_order(q)
    return sum(1 for _ in enumerate_subspaces(field, n, k))


def test_gaussian_binomial_base_cases():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0


def test_gaussian_binomial_vs_enumeration():
    # frozen from the subspace-enumeration oracle
    assert count_subspaces_brute(2, 4, 2) == 35
    assert gaussian_binomial(4, 2, 2) == 35
    assert count_subspaces_brute(2, 6, 3) == 1395
    assert gaussian_binomial(6, 3, 2) == 1395
    assert count_subspaces_brute(3, 4, 2) == 130
    assert gaussian_binomial(4, 2, 3) == 130


def test_gaussian_binomial_symmetry_and_recurrence():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 13):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                if 1 <= k <= n - 1:
                    assert gaussian_binomial(n, k, q) == (
                        gaussian_binomial(n - 1, k - 1, q)
                        + q ** k * gaussian_binomial(n - 1, k, q)
                    )


def q_pascal_rows(q, n_max):
    """Rows [n 0..n]_q for n = 0..n_max by [n k] = [n-1 k-1] + q^k [n-1 k]."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + q ** k * prev[k] for k in range(1, n)] + [1])
    return rows


def test_gaussian_binomial_matches_q_pascal_rows():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n, row in enumerate(q_pascal_rows(q, 40)):
            assert [gaussian_binomial(n, k, q) for k in range(n + 1)] == row


def rank_histogram_brute(q, n, t):
    """Histogram of ranks over all matrices of the maps x -> sum a_i x^(q^i)."""
    from cdcodes.qpoly import enumerate_mrd

    hist = {}
    for m in enumerate_mrd(q, n, t):
        r = m.rank()
        hist[r] = hist.get(r, 0) + 1
    return hist


def test_delsarte_small_values():
    d221 = delsarte_distribution(2, 2, 1)
    assert d221.counts == (1, 9, 6)
    assert d221.total() == 16

    d242 = delsarte_distribution(2, 4, 2)
    assert d242[2] == 525
    assert d242[3] == 2250
    assert d242[4] == 1320
    assert d242.total() == 4096

    assert delsarte_distribution(2, 6, 3)[3] == 87885


def test_delsarte_rejects_bad_parameters():
    with pytest.raises(ValueError):
        delsarte_distribution(2, 3, 0)
    with pytest.raises(ValueError):
        delsarte_distribution(2, 3, 4)


@pytest.mark.parametrize("q", [-3, 0, 1, 6, 10, 12, 36])
def test_delsarte_refuses_q_not_a_prime_power(q):
    # no field GF(q) exists, so no MRD code either
    with pytest.raises(ValueError, match=f"^not a prime power: {q}$"):
        delsarte_distribution(q, 3, 2)
    with pytest.raises(ValueError, match="^not a prime power"):
        filtration_size(q, 4, 2, 2)


def delsarte_per_term(q, n, d):
    """The distribution's formula evaluated term by term, as a reference."""
    counts = [1] + [0] * n
    for r in range(d, n + 1):
        acc = 0
        for i in range(r - d + 1):
            term = gaussian_binomial(r, i, q) * (q ** (n * (r - i - d + 1)) - 1)
            term *= q ** (i * (i - 1) // 2)
            acc += -term if i % 2 else term
        counts[r] = gaussian_binomial(n, r, q) * acc
    return tuple(counts)


def test_delsarte_matches_per_term_formula():
    # every q and n of the bound grids, every rank distance
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 33):
            for d in range(1, n + 1):
                assert delsarte_distribution(q, n, d).counts == delsarte_per_term(q, n, d)


def test_delsarte_normalization_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 13):
            for d in range(1, n + 1):
                dist = delsarte_distribution(q, n, d)
                assert dist.counts[0] == 1
                assert all(dist.counts[r] == 0 for r in range(1, d))
                assert dist.total() == q ** (n * (n - d + 1))


def test_closed_forms_match_distribution():
    for q in (2, 3, 5, 9):
        for n in range(1, 10):
            for d in range(1, n + 1):
                dist = delsarte_distribution(q, n, d)
                a_d, a_d1, a_d2 = closed_form_first_three(q, n, d)
                assert a_d == dist[d]
                if d + 1 <= n:
                    assert a_d1 == dist[d + 1]
                if d + 2 <= n:
                    assert a_d2 == dist[d + 2]


def test_closed_form_values():
    assert closed_form_first_three(2, 4, 2)[0] == 525
    assert closed_form_first_three(2, 7, 3)[0] == 127 * 11811 == 1499997


def test_filtration_sizes():
    assert filtration_size(2, 6, 3, 3) == 87885
    assert filtration_size(2, 4, 2, 2) == 525
    assert filtration_size(2, 5, 3, 2) == 4805 + 124930 == 129735
    # j = 0 counts everything except the zero map
    assert filtration_size(2, 4, 2, 0) == 2 ** 12 - 1
    with pytest.raises(ValueError):
        filtration_size(2, 4, 2, 3)
    with pytest.raises(ValueError):
        filtration_size(2, 4, 4, 1)


def test_lifted_mrd_size():
    assert lifted_mrd_size(2, 4, 2) == 4096
    assert lifted_mrd_size(3, 5, 5) == 3 ** 5
    assert lifted_mrd_size(2, 6, 3) == 2 ** 24 == 16777216


def test_empirical_histogram_matches_delsarte():
    # exhaustive enumeration cross-check across base fields and shapes
    grid = [
        (2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2), (2, 5, 1),
        (2, 5, 2), (2, 6, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1), (5, 2, 1),
        (7, 2, 1), (8, 2, 1), (9, 2, 1),
    ]
    for q, n, t in grid:
        hist = rank_histogram_brute(q, n, t)
        dist = delsarte_distribution(q, n, n - t)
        expected = {r: c for r, c in enumerate(dist.counts) if c}
        assert hist == expected
