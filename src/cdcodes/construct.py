"""Build constant-dimension subspace codes explicitly at desk scale.

Four constructions, all returning a CodeSet of canonical subspaces:

* lifted_mrd_code / rect_lifted_mrd_code: row spaces of (I | A) with A
  running over a square or rectangular MRD code; one builder serves both,
  which differ only in the provenance they record.
* linkage: append rank-metric codewords to the generator matrices of an
  existing code, multiplying the sizes while the distance stays at least
  min(d1, 2*d2).
* parallel_linkage: two linked families on ambient 3k+h, the second one
  prefixed by bounded-rank k x k maps so the families stay far apart.
* multiblock_parallel_mrd: s+1 blocks with the identity at every possible
  position; blocks before the identity are restricted to maps of kernel
  dimension at least n-t (zero map excluded), blocks after it are free.

A CodeSet holds its members as one sorted (M, k, N) array of bases, and
refuses a basis that linalg.canonical_batch finds not canonical.  Every build
but the Grassmannian fills one such array in one _block_product call: the
bases of all (S_0[i_0] | S_1[i_1] | ...) of each of its terms, blocks drawn
from (count, k, n_j) arrays: MRD codewords from qpoly.mrd_array, an
identity, or the bases of a smaller code.  (A | B) is canonical when A is,
so only terms whose first block is not go through linalg.rref_batch, whose
swap-free elimination packs GF(2) rows into words and holds other fields'
entries as small unsigned digits; its chunks and CodeSet's come from one
budget, linalg._CHUNK_BYTES.  multiblock_generators and enumerate_mrd
remain the per-member reference.  _collect hands the array to CodeSet, whose
sorted_bases call is the build's only sort, drops equal neighbours (copying
only if any) and checks the count against the formula, so a silent collision
surfaces as a count mismatch.  Every build checks its budget before it builds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._numpy import np
from .gf import GF, field_of_order
from .linalg import (MatrixGF, Subspace, canonical_batch, enumerate_bases, per_chunk,
                     rref_batch, rref_chunk, subspace_from_rows)
from .qpoly import (DEFAULT_BUDGET, BudgetError, _bounded_rank, check_degree,
                    enumerate_filtration, enumerate_mrd, mrd_array)
from .rankdist import gaussian_binomial, lifted_mrd_size, multiblock_size, parallel_linkage_size


class ConstructionError(ValueError):
    """A build violated one of its own invariants (count, rank, shape)."""


def bases_dtype(field) -> np.dtype:
    """Entry type of CodeSet.bases: the smallest unsigned type holding q - 1."""
    return np.min_scalar_type(field.order - 1)


def sorted_bases(bases: np.ndarray) -> np.ndarray:
    """bases in the order of their flattened entries, sorted only if out of
    it: Subspace.sort_key order for members of one dimension.  The order is
    checked a chunk of neighbours at a time, the first 64 of them, then as
    many as linalg.per_chunk allows, so unsorted input, as every multi-term
    build hands in, is found out early and no temporary outgrows a chunk."""
    flat = bases.reshape(len(bases), math.prod(bases.shape[1:]))
    # a neighbour pair holds its entries' inequality mask and the int64 argmax (tracemalloc)
    before, after, most = flat[:-1], flat[1:], per_chunk(flat.shape[1] + 12)
    lo, step = 0, min(64, most)
    while lo < (len(before) if flat.shape[1] else 0):  # else all are 0-dimensional
        b, a = before[lo:lo + step], after[lo:lo + step]
        at = (b != a).argmax(axis=1)[:, None]  # first differing entry, 0 if none
        if (np.take_along_axis(b, at, 1) > np.take_along_axis(a, at, 1)).any():
            return bases[np.lexsort(flat.T[::-1])]
        lo, step = lo + step, most
    return bases


def distinct_neighbours(bases: np.ndarray) -> np.ndarray:
    """Mask of the members unequal to the one before them (member 0 always is), each
    compared as one byte string where entries are not objects: no temporary outgrows it."""
    flat = np.ascontiguousarray(bases).reshape(len(bases), math.prod(bases.shape[1:]))
    if flat.shape[1] and not flat.dtype.hasobject:
        flat = flat.view(f"V{flat.shape[1] * flat.itemsize}")
    return np.concatenate([[True], (flat[1:] != flat[:-1]).any(axis=1)])[:len(flat)]


class CodeSet:
    """A finite set of dim-dimensional subspaces of GF(q)^N, with provenance.

    `bases` is one (M, dim, N) array of the members' canonical bases, of
    bases_dtype (one byte per entry for q <= 256), in sorted_bases order,
    which is Subspace.sort_key order; duplicates stay.  It is made here from
    such an integer array and nothing else; another shape, an entry outside
    [0, q) and a basis that linalg.canonical_batch finds not canonical are
    each refused in one line, so no subspace is held under two bases.
    `members` makes Subspace values anew on each access.
    """

    __slots__ = ("field", "ambient_dim", "dim", "claimed_distance", "bases", "provenance")

    def __init__(self, field: GF, ambient_dim: int, dim: int, claimed_distance: int,
                 bases: np.ndarray, provenance: dict | None = None):
        self.field, self.ambient_dim, self.dim = field, ambient_dim, dim
        self.claimed_distance = claimed_distance
        if not isinstance(bases, np.ndarray):
            raise TypeError(f"a CodeSet takes an (M, k, N) bases array, not {type(bases).__name__}")
        if bases.shape[1:] != (dim, ambient_dim):
            raise ValueError(f"bases array of shape {bases.shape}, not (M, {dim}, {ambient_dim})")
        # an object array is an integer array where q - 1 needs more than 64 bits
        integer = bases.dtype.kind in "iu" or bases.dtype == bases_dtype(field)
        if bases.size and (not integer or bases.min() < 0):
            bad = int(bases.min()) if integer else bases.flat[:1].tolist()[0]
            raise ValueError(f"member entry {bad!r} is not a non-negative int")
        if bases.size and bases.max() >= field.order:
            raise ValueError(f"member entry {bases.max()} is not below q={field.order}")
        bases = bases.astype(bases_dtype(field), copy=False)
        step = per_chunk(dim * ambient_dim + 8 * dim + 8)  # a nonzero mask, k int64 pivots
        for lo in range(0, len(bases), step):
            if not (canonical := canonical_batch(bases[lo:lo + step])).all():
                raise ValueError(f"member {lo + int(canonical.argmin())}: "
                                 "basis is not a canonical full-rank RREF")
        self.bases = sorted_bases(bases)
        self.provenance = {} if provenance is None else provenance

    @property
    def members(self) -> tuple[Subspace, ...]:
        return tuple(Subspace(self.field, self.ambient_dim, b) for b in self.bases.tolist())

    @property
    def q(self) -> int:
        return self.field.order

    def __len__(self) -> int:
        return len(self.bases)

    def __repr__(self):
        return (f"CodeSet(q={self.q}, ambient={self.ambient_dim}, dim={self.dim}, "
                f"d>={self.claimed_distance}, size={len(self)})")


def _check_budget(predicted: int, budget: int | None) -> None:
    if budget is not None and predicted > budget:
        raise BudgetError(
            f"construction would produce {predicted} members, above the budget {budget}"
        )


def _collect(field, ambient_dim, dim, distance, bases, provenance, predicted):
    """The CodeSet of the distinct bases once their count is the predicted one; bases is a
    (count, dim, ambient_dim) array, or an iterable of bases.  Callers check the budget."""
    if not isinstance(bases, np.ndarray):
        bases = np.array(list(bases), dtype=bases_dtype(field))
        bases = bases.reshape(len(bases), dim, ambient_dim)
    code = CodeSet(field, ambient_dim, dim, distance, bases,
                   dict(provenance, predicted_size=predicted))
    keep = distinct_neighbours(code.bases)
    code.bases = code.bases if keep.all() else code.bases[keep]  # a copy only to drop some
    if len(code) != predicted:
        raise ConstructionError(
            f"built {len(code)} distinct members but the formula predicts {predicted}"
        )
    return code


def _block_product(field, terms) -> np.ndarray:
    """The canonical bases of every (S_0[i_0] | S_1[i_1] | ...) of each term, a list of
    (count, k, n_j) arrays S_j, in one bases_dtype array: term after term, each in odometer
    order, the last block fastest.  (A | B) is canonical when A is, so chunks of
    linalg.rref_chunk members go through rref_batch only in terms whose S_0 is
    not.
    """
    k, width = terms[0][0].shape[1], sum(s.shape[2] for s in terms[0])
    sizes = [math.prod(map(len, sources)) for sources in terms]
    out = np.empty((sum(sizes), k, width), dtype=bases_dtype(field))
    step = rref_chunk(field, k, width)
    for sources, part in zip(terms, np.split(out, np.cumsum(sizes[:-1]))):
        canonical = canonical_batch(sources[0]).all()
        for lo in range(0, len(part), step):
            idx = np.arange(lo, min(lo + step, len(part)))
            blocks = [None] * len(sources)
            for j in reversed(range(len(sources))):
                idx, digit = np.divmod(idx, len(sources[j]))
                blocks[j] = sources[j][digit]
            mats = np.concatenate(blocks, axis=2)
            part[lo:lo + len(mats)] = mats if canonical else rref_batch(field, mats)[0]
    return out


def _lifted(q: int, k: int, h: int, t: int, provenance: dict, budget: int | None) -> CodeSet:
    """Row spaces of (I_k | M), M in the k x (k+h) MRD code of q-degree <= t maps."""
    check_degree(k, t, h)
    field = field_of_order(q)
    predicted = lifted_mrd_size(q, k, k - t) * q ** (h * (t + 1))
    _check_budget(predicted, budget)
    bases = _block_product(field, [[np.eye(k, dtype=bases_dtype(field))[None],
                                    mrd_array(q, k, t, h=h, budget=budget)]])
    return _collect(field, 2 * k + h, k, 2 * (k - t), bases, provenance, predicted)


def lifted_mrd_code(q: int, n: int, t: int, *, budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """Row spaces of (I_n | M_f), f of q-degree <= t: a (2n, q^(n(t+1)), 2(n-t), n) code."""
    return _lifted(q, n, 0, t, {"construction": "lifted", "q": q, "n": n, "t": t}, budget)


def rect_lifted_mrd_code(q: int, k: int, h: int, t: int, *,
                         budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """Row spaces of (I_k | M), M in the k x (k+h) MRD code of q-degree <= t maps.

    A (2k+h, q^((k+h)(t+1)), 2(k-t), k) code; h = 0 builds the members of
    lifted_mrd_code, under the provenance "rect-lifted".
    """
    return _lifted(q, k, h, t,
                   {"construction": "rect-lifted", "q": q, "k": k, "h": h, "t": t}, budget)


def grassmannian_code(q: int, ambient_dim: int, dim: int, *,
                      budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """Every dim-dimensional subspace of GF(q)^ambient_dim; distance 2 when nontrivial."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"need 0 <= k <= N, got k={dim}, N={ambient_dim}")
    field = field_of_order(q)
    predicted = gaussian_binomial(ambient_dim, dim, q)
    _check_budget(predicted, budget)
    return _collect(
        field, ambient_dim, dim, 2, enumerate_bases(field, ambient_dim, dim),
        {"construction": "grassmannian", "q": q, "N": ambient_dim, "k": dim}, predicted)


def linkage(u_code: CodeSet, q_matrices, d1: int, d2: int, *,
            budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """Row spaces of (U | Q): a (n1+n2, N1*N2, min(d1, 2*d2), k) code.

    U runs over u_code's bases, canonical and of rank k like every CodeSet's (the
    SC-representation), Q over q_matrices, k x n2 matrices of rank distance >= d2.
    """
    q_matrices = list(q_matrices)
    if not q_matrices:
        raise ValueError("the rank-metric code must be nonempty")
    k, field = u_code.dim, u_code.field
    n2 = q_matrices[0].ncols
    for m in q_matrices:
        if m.nrows != k or m.ncols != n2 or m.field != field:
            raise ValueError("rank-metric codewords must be k x n2 over the same field")
    predicted = len(u_code) * len(q_matrices)
    _check_budget(predicted, budget)
    q_array = np.array([m.rows for m in q_matrices], dtype=bases_dtype(field))
    return _collect(
        field, u_code.ambient_dim + n2, k, min(d1, 2 * d2),
        _block_product(field, [[u_code.bases, q_array]]),
        {"construction": "linkage", "q": u_code.q, "n1": u_code.ambient_dim,
         "n2": n2, "d1": d1, "d2": d2}, predicted)


def parallel_linkage(q: int, k: int, h: int, d: int, v_code: CodeSet | None = None, *,
                     budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """Two linked families on ambient 3k+h with distance d (d even, d <= k).

    Family one: (I_k | Q | R) with Q over the rectangular MRD code on k x (k+h)
    and R over the square MRD code, both of q-degree <= k - d/2.  Family two:
    (Q' | V) with Q' a k x k map of rank between d/2 and k - d/2 and V a
    generator matrix of v_code, any (2k+h, d, k) code.  By default v_code is
    the full Grassmannian for d = 2 and the lifted rectangular MRD code
    otherwise.
    """
    parallel_linkage_size(q, k, h, d, 0)  # validates d and h before v_code is built
    t = k - d // 2
    field = field_of_order(q)
    if v_code is None:
        if d == 2:
            v_code = grassmannian_code(q, 2 * k + h, k, budget=budget)
        else:
            v_code = rect_lifted_mrd_code(q, k, h, t, budget=budget)
    predicted = parallel_linkage_size(q, k, h, d, len(v_code))
    _check_budget(predicted, budget)
    if v_code.dim != k or v_code.ambient_dim != 2 * k + h or v_code.field != field:
        raise ValueError("v_code must consist of k-dim subspaces of GF(q)^(2k+h)")
    if v_code.claimed_distance < d:
        raise ValueError(f"v_code distance {v_code.claimed_distance} is below {d}")

    square = mrd_array(q, k, t, budget=budget)
    bases = _block_product(field, [
        [np.eye(k, dtype=square.dtype)[None], mrd_array(q, k, t, h=h, budget=budget), square],
        # nonzero maps have rank >= k - t = d/2
        [_bounded_rank(field, square, t), v_code.bases],
    ])
    return _collect(
        field, 3 * k + h, k, d, bases,
        {"construction": "parallel-linkage", "q": q, "k": k, "h": h, "d": d,
         "v_code": v_code.provenance.get("construction", "custom"),
         "v_size": len(v_code)}, predicted)


@dataclass(frozen=True)
class BlockGenerator:
    """Generator tuple of a multi-block member: n x n blocks, identity at `position`."""

    position: int  # 0-based block index of the identity
    blocks: tuple[MatrixGF, ...]

    def matrix(self) -> MatrixGF:
        m = self.blocks[0]
        for b in self.blocks[1:]:
            m = m.hstack(b)
        return m

    def subspace(self) -> Subspace:
        return subspace_from_rows(self.matrix())


def multiblock_generators(q: int, n: int, t: int, s: int, *,
                          budget: int | None = DEFAULT_BUDGET):
    """Generator tuples of the (s+1)-block construction, one per member.

    For identity position p (0-based), the p blocks before the identity run
    over the maps with kernel dimension >= n-t (zero map excluded) and the
    s-p blocks after it run over the whole MRD code.
    """
    _check_budget(multiblock_size(q, n, t, s), budget)
    ident = MatrixGF.identity(field_of_order(q), n)
    full = list(enumerate_mrd(q, n, t, budget=budget))
    restricted = list(enumerate_filtration(q, n, t, n - t, budget=budget))

    def gen():
        for pos in range(s + 1):
            before = itertools.product(restricted, repeat=pos)
            for pre in before:
                for post in itertools.product(full, repeat=s - pos):
                    yield BlockGenerator(pos, pre + (ident,) + post)

    return gen()


def multiblock_parallel_mrd(q: int, n: int, t: int, s: int, *,
                            budget: int | None = DEFAULT_BUDGET) -> CodeSet:
    """The (s+1)-block parallel code: ((s+1)n, sum_j q^((s-j)n(t+1)) F^j, 2(n-t), n).

    Built as one block product with a term per identity position, of
    multiblock_generators' members.
    """
    predicted = multiblock_size(q, n, t, s)
    _check_budget(predicted, budget)
    field = field_of_order(q)
    full = mrd_array(q, n, t, budget=budget)
    restricted = _bounded_rank(field, full, t)  # kernel dim >= n - t, nonzero
    bases = _block_product(field, [[restricted] * pos + [np.eye(n, dtype=full.dtype)[None]]
                                   + [full] * (s - pos) for pos in range(s + 1)])
    del full, restricted  # before the sort
    return _collect(
        field, (s + 1) * n, n, 2 * (n - t), bases,
        {"construction": "multiblock", "q": q, "n": n, "t": t, "s": s}, predicted)

