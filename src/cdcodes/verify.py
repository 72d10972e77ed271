"""Independent verification of built subspace codes.

The distance oracles here deliberately avoid the constructions' own
reasoning: a code's minimum distance is recomputed from pairwise subspace
intersections, where dim(U cap V) is read off the number q^dim of common
member vectors (Koetter and Kschischang 2008).  Each member is stored once
as a bitmask over all q^N ambient vector codes, and pairs are intersected
with vectorized popcounts.  The masks are built in numpy, the same way for
every q: the canonical bases of a chunk of members are stacked into one
(members, k, N) array, and the q^k vectors of each row space are its
combinations sum_i c_i row_i, computed by linalg.span, the kernel that
also enumerates MRD codewords.  Each vector is encoded as its base-q code
(linalg.encode_vector), and the bits are set in a boolean hit matrix that
np.packbits packs into the mask words.  A chunk holds about 256 KB of
temporaries, so the mask array itself is the build's only large
allocation.  Codes whose mask table would be too large fall back to the
stacked-rank formula pair by pair.

Rank distance between k x m matrices goes through the same oracle via the
lifting of Silva, Kschischang and Koetter (2008): the row spaces of
(I_k | A) and (I_k | B) are at subspace distance 2 rank(A - B).

Sampling uses SplitMix64, fixed here by its constants so independent
implementations can reproduce reports bit for bit: the state advances by
0x9E3779B97F4A7C15 per draw and the output mix is
z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64).  Pair draws take two
indices via next() % size, redrawing the second until it differs.

Verification never mutates its inputs, and pairwise scans reduce by min,
so splitting pair ranges across workers cannot change any result.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .construct import CodeSet
from .linalg import MatrixGF, Subspace, span, subspace_distance

_chain = itertools.chain.from_iterable

MASK_BIT_BUDGET = 1 << 28
EXHAUSTIVE_CAP = 5000  # members; larger codes are sampled in mode "auto"
SAMPLED_PAIRS = 1_000_000
SAMPLED_SEED = 0x5EED

_U64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator (see module docstring for the constants)."""

    def __init__(self, seed: int):
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        return self.next_u64() % n


def _popcount_rows(arr: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).sum(axis=1, dtype=np.int64)
    bytes_view = arr.view(np.uint8)
    table = _POPCOUNT8
    return table[bytes_view].sum(axis=1, dtype=np.int64)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _sorted_members(code):
    return sorted(code.members)


# Bytes of temporaries one chunk of the mask build may hold (at least one
# member per chunk).
_CHUNK_BYTES = 1 << 18


def membership_masks(code, bit_budget: int = MASK_BIT_BUDGET):
    """(members_sorted, mask array) or (members_sorted, None) if too large.

    Row i of the array is the characteristic bitmask of member i's vector
    set over the q^N ambient vector codes, packed into uint64 words (code
    v is bit v % 64 of word v // 64).
    """
    members = _sorted_members(code)
    q, n = code.q, code.ambient_dim
    points = q ** n
    if not members or points * len(members) > bit_budget:
        return members, None
    place = q ** np.arange(n, dtype=np.int64)  # linalg.encode_vector, base-q digits
    words = (points + 63) // 64
    arr = np.zeros((len(members), words), dtype=np.uint64)
    start = 0
    for dim, group in itertools.groupby(members, key=lambda s: s.dim):
        group = list(group)
        size = len(group)
        basis = np.fromiter(_chain(_chain(s.basis for s in group)), dtype=np.int64,
                            count=size * dim * n).reshape(size, dim, n)
        combos = np.arange(q ** dim)
        per_member = q ** dim * 8 * (2 * n * code.field.m + n + 1) + words * 72
        step = max(1, _CHUNK_BYTES // per_member)
        for lo in range(0, size, step):
            rows = basis[lo:lo + step]
            codes = span(code.field, rows, combos) @ place  # (chunk, q^dim)
            hit = np.zeros((len(rows), words * 64), dtype=bool)
            hit[np.arange(len(rows))[:, None], codes] = True
            arr[start + lo:start + lo + len(rows)] = np.packbits(
                hit, axis=1, bitorder="little").view("<u8")
        start += size
    return members, arr


def _dim_from_count(count: int, q: int) -> int:
    d = 0
    c = count
    while c > 1:
        if c % q:
            raise ArithmeticError(f"intersection count {count} is not a power of q={q}")
        c //= q
        d += 1
    return d


def min_distance_exhaustive(code, cap: int = EXHAUSTIVE_CAP):
    """(exact minimum distance, lexicographically smallest witnessing pair).

    Scans all unordered pairs; raises if the code is larger than cap.
    A singleton or empty code has no pairs: distance math.inf, witness None.
    """
    m = len(code.members)
    if m > cap:
        raise ValueError(f"code has {m} members, above the exhaustive cap {cap}")
    if m < 2:
        return math.inf, None
    members, masks = membership_masks(code)
    if masks is None:
        return _min_distance_pairs_generic(members, itertools.combinations(range(m), 2))
    k2 = 2 * code.dim
    best_count = -1
    witness = None
    for i in range(m - 1):
        inter = masks[i] & masks[i + 1:]
        counts = _popcount_rows(inter)
        row_max = int(counts.max())
        if row_max > best_count:
            best_count = row_max
            j = i + 1 + int(np.argmax(counts))
            witness = (members[i], members[j])
    dist = k2 - 2 * _dim_from_count(best_count, code.q)
    return dist, witness


def _min_distance_pairs_generic(members, pairs):
    """(minimum stacked-rank distance, witness) over index pairs i < j.

    Ties go to the smallest index pair, which is the smallest subspace pair
    because members are sorted.
    """
    best = witness = None
    for i, j in pairs:
        d = subspace_distance(members[i], members[j])
        if best is None or d < best or (d == best and (i, j) < witness):
            best, witness = d, (i, j)
    return best, (members[witness[0]], members[witness[1]])


def min_distance_sampled(code, pairs: int, seed: int):
    """Minimum distance over `pairs` fixed-seed uniform pair draws.

    An upper bound on the true minimum: violations of a claimed distance
    show up immediately, agreement proves nothing.  Deterministic given the
    seed; the witness is the lexicographically smallest sampled minimizer.
    """
    if pairs < 1:
        raise ValueError("need at least one sampled pair")
    m = len(code.members)
    if m < 2:
        return math.inf, None
    rng = SplitMix64(seed)
    left = np.empty(pairs, dtype=np.int64)
    right = np.empty(pairs, dtype=np.int64)
    for idx in range(pairs):
        i = rng.randbelow(m)
        j = rng.randbelow(m)
        while j == i:
            j = rng.randbelow(m)
        left[idx] = i
        right[idx] = j
    members, masks = membership_masks(code)
    k2 = 2 * code.dim
    if masks is None:
        return _min_distance_pairs_generic(
            members, zip(np.minimum(left, right).tolist(), np.maximum(left, right).tolist()))
    counts = np.empty(pairs, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, pairs, chunk):
        hi = min(lo + chunk, pairs)
        inter = masks[left[lo:hi]] & masks[right[lo:hi]]
        counts[lo:hi] = _popcount_rows(inter)
    best_count = int(counts.max())
    where = np.nonzero(counts == best_count)[0]
    pair_ids = sorted(
        (min(int(left[w]), int(right[w])), max(int(left[w]), int(right[w]))) for w in where
    )
    i, j = pair_ids[0]
    dist = k2 - 2 * _dim_from_count(best_count, code.q)
    return dist, (members[i], members[j])


def empirical_rank_distribution(matrices) -> dict[int, int]:
    """Exact rank histogram of a finite stream of matrices."""
    hist: dict[int, int] = {}
    for m in matrices:
        r = m.rank()
        hist[r] = hist.get(r, 0) + 1
    return dict(sorted(hist.items()))


def pairwise_min_rank_distance(matrices) -> int:
    """Exact minimum of rank(A - B) over all unordered pairs of the list.

    Each k x m matrix A is lifted to the row space of (I_k | A); two lifts
    are at subspace distance 2 rank(A - B), so the exhaustive subspace
    oracle does the scan and the answer is half its distance.  A repeated
    matrix gives 0; fewer than two matrices give math.inf.
    """
    matrices = list(matrices)
    if len(matrices) < 2:
        return math.inf
    first = matrices[0]
    if any(m.field != first.field or m.nrows != first.nrows or m.ncols != first.ncols
           for m in matrices):
        raise ValueError("matrices differ in shape or field")
    ident = MatrixGF.identity(first.field, first.nrows)
    lifts = tuple(  # (I | A) is already the canonical RREF basis
        Subspace(first.field, first.nrows + first.ncols, ident.hstack(m).rows)
        for m in matrices)
    code = CodeSet(first.field, first.nrows + first.ncols, first.nrows, 0, lifts)
    dist, _witness = min_distance_exhaustive(code, cap=len(matrices))
    return dist // 2


def _subspace_payload(s) -> list[list[int]]:
    return [list(row) for row in s.basis]


def validate_codeset(code, exhaustive_cap: int = EXHAUSTIVE_CAP,
                     sampled_pairs: int = SAMPLED_PAIRS, seed: int = SAMPLED_SEED,
                     mode: str = "auto") -> dict:
    """Machine-readable pass/fail report on a CodeSet's own claims.

    Checks membership invariants, cardinality against the construction's
    predicted size, duplicate-freeness, and the claimed minimum distance.
    mode "auto" scans exhaustively up to exhaustive_cap members and samples
    beyond; "exhaustive" and "sampled" force one path.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    checks = []

    def add(check, ok, expected, actual, witness=None):
        entry = {"check": check, "pass": bool(ok), "expected": expected, "actual": actual}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    bad_members = sum(
        1 for s in code.members
        if s.dim != code.dim or s.ambient_dim != code.ambient_dim
    )
    add("member_dimensions", bad_members == 0,
        f"all members {code.dim}-dim in ambient {code.ambient_dim}",
        f"{bad_members} offending members")

    distinct = len(set(code.members))
    add("distinct_members", distinct == len(code.members), len(code.members), distinct)

    predicted = code.provenance.get("predicted_size")
    if predicted is not None:
        add("cardinality", len(code.members) == predicted, predicted, len(code.members))

    if len(code.members) < 2:
        add("min_distance", True, f">= {code.claimed_distance}", "no pairs")
    elif bad_members == 0:
        exhaustively = mode == "exhaustive" or (
            mode == "auto" and len(code.members) <= exhaustive_cap
        )
        if exhaustively:
            dist, witness = min_distance_exhaustive(code, cap=exhaustive_cap)
            how = "exhaustive"
        else:
            dist, witness = min_distance_sampled(code, sampled_pairs, seed)
            how = f"sampled({sampled_pairs},seed={seed})"
        add("min_distance", dist >= code.claimed_distance,
            f">= {code.claimed_distance}", f"{dist} ({how})",
            witness=[_subspace_payload(w) for w in witness] if witness else None)
    else:
        add("min_distance", False, f">= {code.claimed_distance}",
            "skipped: malformed members")

    return {"pass": all(c["pass"] for c in checks), "checks": checks}
