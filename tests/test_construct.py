import functools
import io
import itertools
import re

import numpy as np
import pytest

from cdcodes import construct, linalg, qpoly
from cdcodes.cli import read_codeset, write_codeset
from cdcodes.construct import (
    BlockGenerator,
    CodeSet,
    ConstructionError,
    grassmannian_code,
    lifted_mrd_code,
    linkage,
    multiblock_generators,
    multiblock_parallel_mrd,
    parallel_linkage,
    rect_lifted_mrd_code,
)
from cdcodes.gf import field_of_order
from cdcodes.linalg import (MatrixGF, Subspace, intersection_dim, subspace_distance,
                            subspace_from_rows)
from cdcodes.qpoly import BudgetError, enumerate_filtration, enumerate_mrd
from cdcodes.bounds import bound_multiblock, bound_parallel_linkage
from block_bound import intersection_bound_pairwise


def exhaustive_min_distance(code):
    return min(
        subspace_distance(u, v) for u, v in itertools.combinations(code.members, 2)
    )


def test_lifted_221():
    code = lifted_mrd_code(2, 2, 1)
    assert len(code) == 16
    assert code.ambient_dim == 4 and code.dim == 2
    assert exhaustive_min_distance(code) == 2
    assert code.claimed_distance == 2


def test_lifted_members_distinct_per_matrix():
    # distinct MRD matrices give distinct lifted subspaces
    code = lifted_mrd_code(2, 3, 1)
    assert len(code) == 64
    assert len(set(code.members)) == 64


def test_lifted_intersection_bound_against_rank():
    # dim(U_A cap U_B) <= n - rank(A - B), exhaustively on the smallest code
    from cdcodes.linalg import subspace_from_rows

    field = field_of_order(2)
    ident = MatrixGF.identity(field, 2)
    mats = list(enumerate_mrd(2, 2, 1))
    spaces = [subspace_from_rows(ident.hstack(m)) for m in mats]
    for (ma, ua), (mb, ub) in itertools.combinations(zip(mats, spaces), 2):
        assert intersection_dim(ua, ub) <= 2 - ma.sub(mb).rank()


def test_lifted_242_exhaustive_distance():
    code = lifted_mrd_code(2, 4, 2)
    assert len(code) == 4096
    assert code.claimed_distance == 4
    from cdcodes.verify import min_distance_exhaustive

    dist, _ = min_distance_exhaustive(code)
    assert dist == 4


def test_budget_errors():
    with pytest.raises(BudgetError):
        lifted_mrd_code(2, 4, 2, budget=100)
    with pytest.raises(BudgetError):
        multiblock_parallel_mrd(2, 4, 2, 1, budget=4000)


def test_grassmannian_code():
    code = grassmannian_code(2, 4, 2)
    assert len(code) == 35
    assert code.claimed_distance == 2


def test_rect_lifted_code():
    # h = 0 collapses to the square lifted code
    square = lifted_mrd_code(2, 2, 1)
    rect0 = rect_lifted_mrd_code(2, 2, 0, 1)
    assert set(rect0.members) == set(square.members)
    # h = 1: 2-dim subspaces of F_2^5, one per rectangular codeword
    rect1 = rect_lifted_mrd_code(2, 2, 1, 1)
    assert len(rect1) == 2 ** (3 * 2) == 64
    assert rect1.ambient_dim == 5 and rect1.dim == 2
    assert rect1.claimed_distance == 2
    assert exhaustive_min_distance(rect1) >= 2


def test_linkage_reduces_to_lifted():
    # U = {I_2} as a 1-member code on ambient 2
    u = CodeSet(field_of_order(2), 2, 2, 4, np.eye(2, dtype=np.uint8)[None])
    q_mats = list(enumerate_mrd(2, 2, 1))
    linked = linkage(u, q_mats, d1=4, d2=1, )
    assert len(linked) == 16
    assert linked.ambient_dim == 4
    lifted = lifted_mrd_code(2, 2, 1)
    assert set(linked.members) == set(lifted.members)


def test_linkage_product_size_and_distance():
    u = lifted_mrd_code(2, 2, 1)  # 16 members on ambient 4, distance 2
    q_mats = list(enumerate_mrd(2, 2, 1))
    linked = linkage(u, q_mats, d1=2, d2=1)
    assert len(linked) == 256
    assert linked.ambient_dim == 6
    assert linked.claimed_distance == 2
    assert exhaustive_min_distance(linked) >= 2


def test_codeset_refuses_bases_that_are_not_canonical_in_one_line():
    # one subspace under two bases would pass validate_codeset's distinct_members twice,
    # and the writer would write a file the reader refuses
    code = lifted_mrd_code(2, 2, 1)
    first = code.members[0]
    swapped = code.bases[:1, ::-1]
    assert subspace_from_rows(MatrixGF(first.field, swapped[0].tolist())) == first
    with pytest.raises(ValueError, match="^member 16: basis is not a canonical full-rank RREF$"):
        CodeSet(code.field, 4, 2, 2, np.concatenate([code.bases, swapped]))
    deficient = np.array([[[1, 0, 1, 1], [1, 0, 1, 1]]])
    with pytest.raises(ValueError, match="^member 0: basis is not a canonical full-rank RREF$"):
        CodeSet(code.field, 4, 2, 2, np.concatenate([deficient, code.bases]))
    # a line as a plane with a zero row, and the two bases of one plane: members are named
    # in input order, before the sort
    field = field_of_order(2)
    for bases, bad in [([[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1]]], 0),
                       ([[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1]], [[1, 1, 1], [0, 1, 1]],
                         [[1, 1, 0], [0, 0, 1]]], 2)]:
        with pytest.raises(ValueError,
                           match=f"^member {bad}: basis is not a canonical full-rank RREF$"):
            CodeSet(field, 3, 2, 2, np.array(bases))
    with pytest.raises(TypeError, match="^a CodeSet takes an \\(M, k, N\\) bases array, not tuple$"):
        CodeSet(code.field, 4, 2, 2, code.members)


@pytest.mark.parametrize("q", [2, 3])
def test_any_codeset_that_constructs_survives_a_write_and_a_read(q):
    # every 2 x 3 array over GF(q) as a one-member code: what CodeSet accepts, the reader does
    field = field_of_order(q)
    accepted = 0
    for bases in np.array(list(itertools.product(range(q), repeat=6))).reshape(-1, 1, 2, 3):
        try:
            code = CodeSet(field, 3, 2, 2, bases)
        except ValueError:
            continue
        buf = io.StringIO()
        write_codeset(code, buf)
        assert read_codeset(io.StringIO(buf.getvalue())).members == code.members
        accepted += 1
    assert accepted == len(grassmannian_code(q, 3, 2))


def test_codeset_refuses_entries_outside_the_field_in_one_line():
    # an entry of q or more used to pass validate_codeset and reach a file the reader refuses
    field = field_of_order(2)
    for members, message in [
        (np.array([[[1, 0, 0]], [[0, 1, 7]]]), "member entry 7 is not below q=2"),
        (np.array([[[1, 0, 0]], [[0, 1, -1]]]), "member entry -1 is not a non-negative int"),
        (np.array([[[1, 0, 0]], [[0, 1, 0]]], dtype=float),
         "member entry 1.0 is not a non-negative int"),
        (np.array([[[True, False, False]]]), "member entry True is not a non-negative int"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CodeSet(field, 3, 1, 2, members)
    code = CodeSet(field, 3, 1, 2, np.array([[[1, 0, 0]], [[0, 1, 0]]], dtype=np.int64))
    assert code.bases.dtype == np.uint8 and code.bases.tolist() == [[[0, 1, 0]], [[1, 0, 0]]]


def test_linkage_rejects_bad_inputs():
    u = lifted_mrd_code(2, 2, 1)
    with pytest.raises(ValueError):
        linkage(u, [], d1=2, d2=1)
    wrong_shape = [MatrixGF.zeros(field_of_order(2), 3, 2)]
    with pytest.raises(ValueError):
        linkage(u, wrong_shape, d1=2, d2=1)
    # a rank-deficient SC-representation: CodeSet refuses it before linkage could see it
    deficient = np.array([[[1, 0, 1, 1], [1, 0, 1, 1]]], dtype=u.bases.dtype)
    with pytest.raises(ValueError, match="^member 15: basis is not a canonical full-rank RREF$"):
        CodeSet(u.field, 4, 2, 2, np.concatenate([u.bases[1:], deficient]))


def test_codeset_refuses_members_of_another_dimension_in_one_line():
    u = lifted_mrd_code(2, 2, 1)
    line = np.array([[[0, 0, 0, 1], [0, 0, 0, 0]]], dtype=u.bases.dtype)  # a zero row
    with pytest.raises(ValueError, match="^member 15: basis is not a canonical full-rank RREF$"):
        CodeSet(u.field, 4, 2, 2, np.concatenate([u.bases[1:], line]))
    padded = np.concatenate([u.bases, np.zeros((16, 1, 4), u.bases.dtype)], axis=1)  # a zero row
    for bases in (padded, u.bases[:, :1], u.bases[:, :, :3], u.bases[0], u.bases[None]):
        shape = re.escape(str(bases.shape))
        with pytest.raises(ValueError, match=rf"^bases array of shape {shape}, not \(M, 2, 4\)$"):
            CodeSet(u.field, 4, 2, 2, bases)


def test_codeset_sorts_its_bases_once_made():
    # arrays in any order, and duplicates, which stay
    code = lifted_mrd_code(3, 2, 1)
    order = np.random.default_rng(5).permutation(len(code))
    twice = np.concatenate([code.bases, code.bases[:3]])
    expected = sorted(code.members + code.members[:3])
    for bases in (code.bases[::-1], code.bases[order]):
        assert CodeSet(code.field, 4, 2, 2, bases).members == code.members
    for bases in (twice[::-1], twice[np.random.default_rng(6).permutation(len(twice))]):
        assert list(CodeSet(code.field, 4, 2, 2, bases).members) == expected


@pytest.mark.parametrize("chunk_bytes", [linalg._CHUNK_BYTES, 1], ids=["chunks", "single"])
def test_sorted_bases_finds_every_out_of_order_pair(chunk_bytes, monkeypatch):
    # the order is checked 64 neighbours first, then a chunk at a time: an unsorted build
    # and one out-of-order pair, the last, in the last chunk are both sorted
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    field = field_of_order(2)
    restricted = qpoly._bounded_rank(field, qpoly.mrd_array(2, 3, 2), 2)
    built = construct._block_product(field, [  # the bench's 855-member (6, 855, 2, 3) terms
        [np.eye(3, dtype=np.uint8)[None], qpoly.mrd_array(2, 3, 2)],
        [restricted, np.eye(3, dtype=np.uint8)[None]]])
    flat = built.reshape(len(built), -1)
    expected = built[np.lexsort(flat.T[::-1])]
    assert len(built) == 855 and (construct.sorted_bases(built) != built).any()
    assert (construct.sorted_bases(built) == expected).all()
    assert construct.sorted_bases(expected) is expected  # sorted input is kept as it is
    last_swapped = expected[np.r_[:853, 854, 853]]
    assert (construct.sorted_bases(last_swapped) == expected).all()


def test_parallel_linkage_acceptance_shape():
    v = grassmannian_code(2, 4, 2)
    code = parallel_linkage(2, 2, 0, 2, v)
    assert len(code) == 571
    assert code.ambient_dim == 6 and code.dim == 2
    assert code.provenance["predicted_size"] == 2 ** 8 + 9 * 35


def test_parallel_linkage_defaults():
    # d = 2 defaults to the full Grassmannian
    code = parallel_linkage(2, 2, 0, 2)
    assert len(code) == 571
    # counting with a lifted-MRD v_code of 16 members
    v = lifted_mrd_code(2, 2, 1)
    code16 = parallel_linkage(2, 2, 0, 2, v)
    assert len(code16) == 256 + 9 * 16 == 400


def test_parallel_linkage_first_family_leading_block_nonsingular():
    # every family-one generator starts with I_k by construction; verify on
    # the canonical bases that the leading k x k block stays nonsingular
    code = parallel_linkage(2, 2, 0, 2)
    k = code.dim
    count_nonsingular = 0
    for s in code.members:
        lead = MatrixGF(code.field, [row[:k] for row in s.basis])
        if lead.rank() == k:
            count_nonsingular += 1
    # exactly the 256 family-one members have an invertible leading block
    assert count_nonsingular == 256


def test_parallel_linkage_validates_v_code():
    v_bad_dim = grassmannian_code(2, 4, 1)
    with pytest.raises(ValueError):
        parallel_linkage(2, 2, 0, 2, v_bad_dim)
    # a code that claims k = 2 holds no member of another dimension
    planes = grassmannian_code(2, 4, 2).bases
    line = np.array([[[1, 0, 0, 0], [0, 0, 0, 0]]], dtype=planes.dtype)
    with pytest.raises(ValueError, match="^member 34: basis is not a canonical full-rank RREF$"):
        CodeSet(field_of_order(2), 4, 2, 2, np.concatenate([planes[1:], line]))
    with pytest.raises(ValueError, match=r"^bases array of shape \(1, 3, 4\), not \(M, 2, 4\)$"):
        CodeSet(field_of_order(2), 4, 2, 2, grassmannian_code(2, 4, 3).bases[:1])
    v_bad_ambient = grassmannian_code(2, 5, 2)
    with pytest.raises(ValueError):
        parallel_linkage(2, 2, 0, 2, v_bad_ambient)
    with pytest.raises(ValueError):
        parallel_linkage(2, 2, 0, 3)  # odd distance
    with pytest.raises(ValueError):
        parallel_linkage(2, 2, 0, 4)  # d > k


def test_parallel_linkage_h1():
    # rectangular variant: k=2, h=1, d=2 over the default Grassmannian of F_2^5
    code = parallel_linkage(2, 2, 1, 2)
    from cdcodes.rankdist import gaussian_binomial

    expected = 2 ** (5 * 2) + 9 * gaussian_binomial(5, 2, 2)
    assert len(code) == expected
    assert code.ambient_dim == 7


@pytest.mark.parametrize("h", [0, 1])
def test_parallel_linkage_size_is_the_bound(h):
    v = grassmannian_code(2, 4 + h, 2)
    assert len(parallel_linkage(2, 2, h, 2, v)) == bound_parallel_linkage(2, 2, h, 2, len(v)).value


@pytest.mark.parametrize("q, k, h, d", [
    (2, 2, 0, 3), (2, 2, 0, 4), (2, 2, 0, 0), (2, 2, 0, -2), (2, 2, -1, 2), (6, 2, 0, 2),
])
def test_parallel_linkage_construct_and_bound_reject_alike(q, k, h, d):
    with pytest.raises(ValueError) as built:
        parallel_linkage(q, k, h, d)
    with pytest.raises(ValueError) as bounded:
        bound_parallel_linkage(q, k, h, d, 35)
    assert str(built.value) == str(bounded.value)


def test_multiblock_2211():
    code = multiblock_parallel_mrd(2, 2, 1, 1)
    assert len(code) == 25
    assert code.ambient_dim == 4
    assert exhaustive_min_distance(code) >= 2
    assert len(code) == bound_multiblock(2, 2, 1, 1).value


def test_multiblock_2212():
    code = multiblock_parallel_mrd(2, 2, 1, 2)
    assert len(code) == 2 ** 8 + 16 * 9 + 81 == 481
    assert code.ambient_dim == 6
    assert exhaustive_min_distance(code) >= 2
    assert len(code) == bound_multiblock(2, 2, 1, 2).value


def test_multiblock_rejects_bad_parameters():
    # the construction and the bound share one size formula and its checks
    for n, t, s, message in [(4, 1, 1, "2t >= n"), (2, 2, 1, "t < n"), (2, 1, 0, "s = 1")]:
        with pytest.raises(ValueError, match=message):
            multiblock_parallel_mrd(2, n, t, s)
        with pytest.raises(ValueError, match=message):
            bound_multiblock(2, n, t, s)


def test_multiblock_restricted_blocks_are_the_filtration_stream():
    # s = 1, identity last: one member per restricted block, in enumeration order
    for q, n, t in [(2, 2, 1), (2, 3, 2), (3, 2, 1)]:
        gens = multiblock_generators(q, n, t, 1)
        restricted = [g.blocks[0] for g in gens if g.position == 1]
        per_map = [m for m in enumerate_mrd(q, n, t) if 0 < m.rank() <= t]
        assert restricted == list(enumerate_filtration(q, n, t, n - t)) == per_map


def test_multiblock_generator_layout():
    gens = list(multiblock_generators(2, 2, 1, 1))
    assert len(gens) == 25
    ident = MatrixGF.identity(field_of_order(2), 2)
    by_pos = {}
    for g in gens:
        assert g.blocks[g.position] == ident
        by_pos.setdefault(g.position, 0)
        by_pos[g.position] += 1
    assert by_pos == {0: 16, 1: 9}
    # restricted blocks sit before the identity and have rank <= t
    for g in gens:
        for b in g.blocks[:g.position]:
            assert 1 <= b.rank() <= 1


def test_multiblock_cross_position_intersections():
    # two members with different identity positions intersect in dim <= t
    gens = list(multiblock_generators(2, 2, 1, 2))
    cross = [
        (g1, g2) for g1, g2 in itertools.combinations(gens, 2)
        if g1.position != g2.position
    ]
    for g1, g2 in cross:
        assert intersection_dim(g1.subspace(), g2.subspace()) <= 1


def test_intersection_bound_pairwise():
    gens = list(multiblock_generators(2, 2, 1, 1))
    g_first = [g for g in gens if g.position == 0]
    g_second = [g for g in gens if g.position == 1]
    spaces = {g: g.subspace() for g in gens}
    for g1 in g_first:
        for g2 in g_second:
            bound = intersection_bound_pairwise(g1, g2)
            assert 0 <= bound <= 2
            assert intersection_dim(spaces[g1], spaces[g2]) <= bound
    # zero block forces a trivial intersection bound
    field = field_of_order(2)
    ident = MatrixGF.identity(field, 2)
    zero = MatrixGF.zeros(field, 2, 2)
    g1 = BlockGenerator(0, (ident, zero))
    g2 = BlockGenerator(1, (zero, ident))
    assert intersection_bound_pairwise(g1, g2) == 0
    # identity product gives the vacuous bound n
    g3 = BlockGenerator(0, (ident, ident))
    g4 = BlockGenerator(1, (ident, ident))
    assert intersection_bound_pairwise(g3, g4) == 2
    with pytest.raises(ValueError):
        intersection_bound_pairwise(g1, g1)


def test_codeset_count_check_catches_duplicates():
    # feeding a duplicate-generating stream must fail the cardinality check
    from cdcodes.construct import _collect
    from cdcodes.linalg import subspace_from_rows

    field = field_of_order(2)
    s = subspace_from_rows(MatrixGF.identity(field, 2))
    with pytest.raises(ConstructionError):
        _collect(field, 2, 2, 2, [s.basis, s.basis], {}, 2)


# Every construction whose code files and verify reports stay byte-identical.
LIFTED = [(2, 2, 1), (3, 3, 1), (4, 2, 1), (8, 2, 1), (9, 2, 1), (5, 2, 0), (2, 4, 2)]
MULTIBLOCK = [(2, 3, 2, 1), (2, 2, 1, 2), (3, 2, 1, 1), (4, 2, 1, 1), (2, 4, 2, 1)]


def lifted_reference(q, k, t, h=0):
    """Sorted row spaces of (I | M), M over the enumerate_mrd stream."""
    ident = MatrixGF.identity(field_of_order(q), k)
    return sorted({Subspace(ident.field, 2 * k + h, ident.hstack(m).rows)
                   for m in enumerate_mrd(q, k, t, h=h)}, key=Subspace.sort_key)


def multiblock_reference(q, n, t, s):
    """Sorted canonical row spaces of the per-member generator tuples."""
    return sorted({g.subspace() for g in multiblock_generators(q, n, t, s)},
                  key=Subspace.sort_key)


def linkage_reference(u_code, q_matrices):
    """Sorted row spaces of (U | Q), one subspace_from_rows per member."""
    gens = [MatrixGF(s.field, s.basis) for s in u_code.members]
    return sorted({subspace_from_rows(g.hstack(m)) for g in gens for m in q_matrices},
                  key=Subspace.sort_key)


def parallel_linkage_reference(q, k, h, d, v_code=None):
    """Sorted row spaces of the two families, one matrix and one basis per member."""
    t = k - d // 2
    if v_code is None:
        v_code = grassmannian_code(q, 2 * k + h, k) if d == 2 else rect_lifted_mrd_code(q, k, h, t)
    ident = MatrixGF.identity(field_of_order(q), k)
    square = list(enumerate_mrd(q, k, t))
    one = [Subspace(ident.field, 3 * k + h, ident.hstack(rect).hstack(m).rows)
           for rect in enumerate_mrd(q, k, t, h=h) for m in square]
    v_gens = [MatrixGF(s.field, s.basis) for s in v_code.members]
    two = [subspace_from_rows(m.hstack(g)) for m in square if 0 < m.rank() <= t for g in v_gens]
    return sorted(set(one + two), key=Subspace.sort_key)


LINKAGE = {
    "q2-n2": lambda: (lifted_mrd_code(2, 2, 1), list(enumerate_mrd(2, 2, 1))),
    "q2-n3": lambda: (lifted_mrd_code(2, 3, 1), list(enumerate_mrd(2, 3, 1))),
    "q3-rect": lambda: (lifted_mrd_code(3, 2, 1), list(enumerate_mrd(3, 2, 0, h=1))),
}
PARALLEL_LINKAGE = {
    "2-2-0-2": (2, 2, 0, 2), "2-2-1-2": (2, 2, 1, 2), "3-2-0-2": (3, 2, 0, 2),
    "4-2-0-2": (4, 2, 0, 2), "lifted-v": (2, 2, 0, 2, lifted_mrd_code(2, 2, 1)),
}


@pytest.mark.parametrize("chunk_bytes", [linalg._CHUNK_BYTES, 1], ids=["chunks", "single"])
@pytest.mark.parametrize("case", LINKAGE)
def test_linkage_array_build_matches_the_per_member_reference(case, chunk_bytes, monkeypatch):
    u_code, q_matrices = LINKAGE[case]()
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    assert list(linkage(u_code, q_matrices, 2, 1).members) == linkage_reference(u_code, q_matrices)


@functools.cache
def cached_parallel_linkage_reference(case):
    return parallel_linkage_reference(*PARALLEL_LINKAGE[case])


@pytest.mark.parametrize("chunk_bytes", [linalg._CHUNK_BYTES, 1], ids=["chunks", "single"])
@pytest.mark.parametrize("case", PARALLEL_LINKAGE)
def test_parallel_linkage_array_build_matches_the_per_member_reference(case, chunk_bytes,
                                                                      monkeypatch):
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    built = parallel_linkage(*PARALLEL_LINKAGE[case])
    assert list(built.members) == cached_parallel_linkage_reference(case)


@pytest.mark.parametrize("q, n, t", LIFTED)
def test_lifted_array_build_matches_the_per_member_reference(q, n, t):
    assert list(lifted_mrd_code(q, n, t).members) == lifted_reference(q, n, t)


@pytest.mark.parametrize("q, k, h, t", [(2, 2, 1, 1), (3, 2, 2, 1), (4, 2, 1, 1), (2, 3, 1, 0)])
def test_rect_lifted_array_build_matches_the_per_member_reference(q, k, h, t):
    assert list(rect_lifted_mrd_code(q, k, h, t).members) == lifted_reference(q, k, t, h)


@pytest.mark.parametrize("q, n, t, s", MULTIBLOCK)
def test_multiblock_array_build_matches_the_generator_tuples(q, n, t, s):
    assert list(multiblock_parallel_mrd(q, n, t, s).members) == multiblock_reference(q, n, t, s)


def test_array_builds_with_one_matrix_per_chunk(monkeypatch):
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 1)
    assert list(multiblock_parallel_mrd(2, 2, 1, 2).members) == multiblock_reference(2, 2, 1, 2)
    assert list(multiblock_parallel_mrd(3, 2, 1, 1).members) == multiblock_reference(3, 2, 1, 1)
    assert list(lifted_mrd_code(16, 2, 0).members) == lifted_reference(16, 2, 0)


def test_array_members_come_out_sorted():
    # one entry sort orders the block products as Subspace.sort_key, and equal neighbours go
    field = field_of_order(3)
    right = np.random.default_rng(7).integers(0, 3, size=(120, 2, 3))
    right[80:85] = right[:5]  # five duplicates
    bases = construct._block_product(field, [[np.eye(2, dtype=np.uint8)[None], right]])
    assert bases.dtype == np.uint8 and bases.shape == (120, 2, 5)
    products = [((1, 0, *r0), (0, 1, *r1)) for r0, r1 in right.tolist()]
    assert [tuple(map(tuple, b)) for b in bases.tolist()] == products
    expected = sorted(set(products))
    code = construct._collect(field, 5, 2, 0, bases, {}, len(expected))
    assert [tuple(map(tuple, b)) for b in code.bases.tolist()] == expected


@pytest.mark.parametrize("chunk_bytes", [linalg._CHUNK_BYTES, 1], ids=["chunks", "single"])
def test_block_product_fills_one_array_term_after_term(chunk_bytes, monkeypatch):
    # the first term's first block is canonical, the second's is not
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    u_code, q_matrices = LINKAGE["q3-rect"]()
    shuffled = u_code.bases[:, ::-1]  # basis rows reversed: not in RREF
    right = np.array([m.rows for m in q_matrices], dtype=np.uint8)
    bases = construct._block_product(u_code.field, [[u_code.bases, right], [shuffled, right]])
    assert bases.dtype == np.uint8 and bases.shape == (2 * 81 * 27, 2, 7)
    per_member = [subspace_from_rows(MatrixGF(u_code.field, u).hstack(m)).basis
                  for first in (u_code.bases, shuffled) for u in first.tolist() for m in q_matrices]
    assert bases.tolist() == [[list(row) for row in basis] for basis in per_member]
    unshuffled = CodeSet(u_code.field, 7, 2, 2, bases[:len(bases) // 2])
    assert list(unshuffled.members) == linkage_reference(u_code, q_matrices)
    built = CodeSet(u_code.field, 7, 2, 2, bases[len(bases) // 2:])
    expected = {Subspace(u_code.field, 7, basis) for basis in per_member[len(bases) // 2:]}
    assert list(built.members) == sorted(expected)


def test_array_builds_drop_duplicates_before_the_count_check(monkeypatch):
    # every block product built twice: still the same members, so the count check passes
    product = construct._block_product
    monkeypatch.setattr(construct, "_block_product",
                        lambda field, sources: np.concatenate([product(field, sources)] * 2))
    assert list(multiblock_parallel_mrd(2, 2, 1, 1).members) == multiblock_reference(2, 2, 1, 1)
    built = parallel_linkage(2, 2, 0, 2)
    assert list(built.members) == cached_parallel_linkage_reference("2-2-0-2")


def test_linkage_builds_make_no_per_member_matrix(monkeypatch):
    u_code, q_matrices = LINKAGE["q3-rect"]()
    v_code = grassmannian_code(2, 4, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("per-member matrix or stream in an array build")

    for owner, name in [(construct, "subspace_from_rows"), (construct, "enumerate_mrd"),
                        (construct, "enumerate_filtration"), (qpoly, "enumerate_mrd"),
                        (MatrixGF, "rank"), (MatrixGF, "hstack")]:
        monkeypatch.setattr(owner, name, refuse)
    calls = []
    rref = construct.rref_batch
    monkeypatch.setattr(construct, "rref_batch", lambda *args: calls.append(1) or rref(*args))
    assert len(linkage(u_code, q_matrices, 2, 1)) == 81 * 27 and not calls  # (I | A | Q)
    # terms whose first block is a bounded-rank map, not canonical, go through rref_batch
    assert len(parallel_linkage(2, 2, 0, 2, v_code)) == 571 and calls
    calls.clear()
    assert len(multiblock_parallel_mrd(3, 2, 1, 1)) == 81 + 32 and calls  # 32: (R | I), R bounded


def test_budget_errors_come_before_any_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("array built before the budget check")

    u_code, q_matrices = LINKAGE["q2-n2"]()
    v_code = grassmannian_code(2, 4, 2)
    for owner, name in [(construct, "mrd_array"), (construct, "rref_batch"), (qpoly, "span_into"),
                        (qpoly, "span_blocks"), (qpoly, "rref_batch"), (linalg, "span_blocks"), (np, "empty"),
                        (np, "concatenate"), (np, "array"), (construct, "enumerate_bases")]:
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(BudgetError, match="construction would produce 4096 members"):
        lifted_mrd_code(2, 4, 2, budget=4095)
    for build in (multiblock_parallel_mrd, multiblock_generators):  # like every other build
        with pytest.raises(BudgetError, match="^construction would produce 855 members, above"):
            build(2, 3, 2, 1, budget=854)
    with pytest.raises(BudgetError, match="construction would produce 256 members"):
        linkage(u_code, q_matrices, 2, 1, budget=255)
    with pytest.raises(BudgetError, match="construction would produce 571 members"):
        parallel_linkage(2, 2, 0, 2, v_code, budget=570)
    with pytest.raises(BudgetError, match="construction would produce 35 members"):
        grassmannian_code(2, 4, 2, budget=34)


def test_construction_parameters_are_checked_by_name():
    for args, message in [((2, -1, 0), "got k=0, N=-1"), ((2, 3, -1), "got k=-1, N=3"),
                          ((2, 3, 5), "got k=5, N=3")]:
        with pytest.raises(ValueError, match=message):
            grassmannian_code(*args)
    for args, message in [((2, 3, 5), "got t=5, n=3"), ((2, 3, -1), "got t=-1, n=3"),
                          ((2, -1, 0), "got t=0, n=-1")]:
        with pytest.raises(ValueError, match=message):
            lifted_mrd_code(*args)
    with pytest.raises(ValueError, match="h must be non-negative"):
        rect_lifted_mrd_code(2, 2, -1, 1)
