"""Independent verification of built subspace codes.

The distance oracles here deliberately avoid the constructions' own
reasoning: a code's minimum distance is recomputed from subspace
intersections, d(U, V) = 2k - 2 dim(U cap V) (Koetter and Kschischang
2008), which is defined for k-dimensional U and V, the only members a
CodeSet holds.  They read the code's sorted array of canonical bases
(CodeSet.bases), and make Subspace values only for a witness.  Both read
one table of each member's q^k vector codes, built in numpy the same way
for every q: for a chunk of members, the vectors of each row space are its
combinations sum_i c_i row_i, each encoded as its base-q code (coordinate
c is digit c).  linalg.span_into, the kernel that also builds MRD
codewords, writes them into the table by doubling, one row at a time:
vector c q^l + i is vector i plus c row_l, added carry-free (XOR of whole
codes for p = 2, digit-wise mod p for odd p).  Its entries take the
smallest unsigned dtype that holds q^N - 1.  Every chunk here comes from
one budget, linalg._CHUNK_BYTES: each loop states its bytes an item to
linalg.per_chunk, or leaves the sizing to span_into and rref_chunk.

The exhaustive oracle looks at sub-subspaces, not at pairs.  Two members
meet in dimension at least j exactly when some j-subspace lies in both, so
the minimum distance is 2(k - j*) for the largest level j* at which two
members share a j-subspace.  Each j-subspace of a member is keyed by its
canonical basis, whose rows are member vectors (_subspace_indices), so a
key is j gathers from the vector table and equal keys are equal subspaces;
one sort brings them together (_level_pair).  The scan starts one level
above the claimed distance d = 2 delta, at j = k - delta + 1, moves down
while no two members share a key and up past every level where two do, so
a code that meets its claim exactly costs two levels.  A level costs
M [k, j]_q keys, against the M^2/2 pair intersections of a pair scan.
Before it builds the vector table and before each level, the oracle
prices them, and stops when its work would exceed the budget, the
stacked-rank pair scan's price (_PAIR_COST m^2 k^2 N units a pair, its
2k x N stack of m-digit entries) for at most _BUDGET_MEMBERS members, or
the table or one level's keys would hold more than _ORACLE_BYTES.  Then
the stacked-rank formula decides, a chunk of stacked pairs per
linalg.rref_batch call, as for codes whose vector codes overflow int64
(q^N > 2^63), up to _BUDGET_MEMBERS members; a larger code is refused in
one line.  Both paths score a pair 2k - 2 dim(U cap V), so they agree.

The sampled oracle sorts each drawn pair's two table rows side by side and
counts the vector codes that appear twice: a pair sharing q^j codes meets
in dimension j.  When the whole code's table would hold more than
_ORACLE_BYTES, each chunk of drawn pairs builds the rows of its own
members.  Codes whose vector codes overflow int64, and codes with one
pair's rows above _ORACLE_BYTES, take the stacked-rank formula, a chunk of
stacked pairs per rref_batch call.

Sampling uses SplitMix64, fixed here by its constants so independent
implementations can reproduce reports bit for bit: the state advances by
0x9E3779B97F4A7C15 per draw and the output mix is
z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64).  Pair draws take two
indices via next() % size, redrawing the second until it differs.  The
state after draw i is seed + (i + 1) 0x9E3779B97F4A7C15, so the draws are
computed all at once in numpy.

Verification never mutates its inputs, and every oracle reduces by min
over an order-free set of candidates, so no schedule can change a result.
"""

from __future__ import annotations

import math

from ._numpy import np
from .construct import CodeSet, bases_dtype, distinct_neighbours
from .linalg import (MatrixGF, Subspace, enumerate_bases, per_chunk, rref_batch, rref_chunk,
                     span_into)
from .rankdist import gaussian_binomial

SAMPLED_PAIRS = 1_000_000
SAMPLED_SEED = 0x5EED

_U64 = (1 << 64) - 1


def _witness(field, bases, pair):
    """The Subspace values of the two members of bases that pair indexes."""
    return tuple(Subspace(field, bases.shape[2], bases[i].tolist()) for i in pair)


def _table_bytes(q, ambient_dim, members, dim):
    """Bytes of the _vector_table of that many dim-dimensional members (q^N <= 2^63)."""
    return members * q ** dim * np.min_scalar_type(q ** ambient_dim - 1).itemsize


def _vector_table(field, ambient_dim, bases):
    """Row i: the q^k vector codes of member i of the (M, k, N) bases, in the
    smallest unsigned dtype holding q^N - 1.  Entry c is the base-q code of
    sum_l c_l row_l, c_l being base-q digit l of c (entry 0 is the zero
    vector).  linalg.span_into writes them into the table, in chunks it sizes."""
    q, n, k = field.order, ambient_dim, bases.shape[1]
    table = np.empty((len(bases), q ** k), dtype=np.min_scalar_type(q ** n - 1))
    span_into(field, bases, table[:, :, None])
    return table


def membership_masks(code):
    """(bases, table): the code's bases and their _vector_table, or None for
    the table when it would hold more than _ORACLE_BYTES or vector codes
    overflow int64 (q^N > 2^63)."""
    bases = code.bases
    if (code.q ** code.ambient_dim > 1 << 63
            or _table_bytes(code.q, code.ambient_dim, *bases.shape[:2]) > _ORACLE_BYTES):
        return bases, None
    return bases, _vector_table(code.field, code.ambient_dim, bases)


def _dim_from_count(count: int, q: int) -> int:
    d = 0
    c = count
    while c > 1:
        if c % q:
            raise ArithmeticError(f"intersection count {count} is not a power of q={q}")
        c //= q
        d += 1
    return d


# Index sets kept between calls, keyed by (field, dim, j); their bytes
# together stay within _INDEX_CACHE_BYTES.
_INDEX_CACHE: dict = {}
_INDEX_CACHE_BYTES = 1 << 24


def _subspace_indices(field, dim: int, j: int) -> np.ndarray:
    """([dim, j]_q, j) array: row s holds the base-q codes of the rows of the
    s-th canonical j x dim basis C, in enumerate_bases order.

    Read as coefficient indices into a member's vector codes (see
    _vector_table), they pick the rows of C B, B the member's canonical
    basis; B's pivot columns carry C, so C B is canonical too.
    """
    out = _INDEX_CACHE.get((field, dim, j))
    if out is not None:
        return out
    bases = np.array(list(enumerate_bases(field, dim, j)), dtype=np.int64).reshape(-1, j, dim)
    out = bases @ field.order ** np.arange(dim, dtype=np.int64)
    out.flags.writeable = False
    if out.nbytes <= _INDEX_CACHE_BYTES:
        if out.nbytes + sum(t.nbytes for t in _INDEX_CACHE.values()) > _INDEX_CACHE_BYTES:
            _INDEX_CACHE.clear()
        _INDEX_CACHE[field, dim, j] = out
    return out


def _key_bits(q, ambient_dim, j, members):
    """Bits that number the members, or None when a key of j vector codes,
    read in base q^N, and a member number do not fit one uint64 word."""
    bits = max(1, (members - 1).bit_length())
    return bits if q ** (ambient_dim * j) << bits <= 1 << 64 else None


def _level_pair(field, ambient_dim, table, dim, j):
    """Smallest member pair (a, b), a < b, sharing a j-subspace, or None.

    table is the _vector_table of dim-dimensional members.  A key, the codes
    of a canonical basis (_subspace_indices), names one subspace, and no
    member holds it twice.  When _key_bits allows, keys are packed in base
    q^N above their member's number and sorted as words; else their rows are
    lexsorted, which is stable.  So a run of equal keys lists its members
    ascending, and its first two keys name the run's smallest pair.
    """
    if j == 0:
        return 0, 1  # every member holds the zero subspace
    idx = _subspace_indices(field, dim, j)
    members = len(table)
    count = members * len(idx)
    bits = _key_bits(field.order, ambient_dim, j, members)
    if bits is None:  # j rows of key codes, then each key's member
        keys = np.empty((j + 1, count), np.min_scalar_type(max(field.order ** ambient_dim, members)))
    else:
        words = np.empty(count, dtype=np.uint64)
        place = np.array([field.order ** (ambient_dim * r) for r in range(j)], dtype=np.uint64)
    step = per_chunk(len(idx) * (2 * j * table.itemsize + 24))  # codes twice, 3 words a key
    for lo in range(0, members, step):
        chunk = table[lo:lo + step]
        owner = np.arange(lo, lo + len(chunk), dtype=np.uint64)
        at, end = lo * len(idx), (lo + len(chunk)) * len(idx)
        if bits is None:
            keys[:j, at:end] = chunk[:, idx.T].swapaxes(0, 1).reshape(j, -1)
            keys[j, at:end] = owner.repeat(len(idx))
        else:
            key = sum(chunk[:, idx[:, r]] * place[r:r + 1] for r in range(j))  # base q^N
            words[at:end] = (key << np.uint64(bits) | owner[:, None]).ravel()
    if bits is None:
        order = np.lexsort(keys[:j])
        joined = np.ones(count - 1, dtype=bool)  # key order[i + 1] equals key order[i]
        for row in keys[:j]:
            row = row[order]
            joined &= row[1:] == row[:-1]
        owners = keys[j][order]
        del keys, order, row
    else:
        words.sort()
        low = np.uint64((1 << bits) - 1)
        joined = words[1:] ^ words[:-1] <= low
        words &= low
        owners = words
    starts = np.flatnonzero(joined & ~np.r_[False, joined][:-1])  # the runs' first keys
    if not starts.size:
        return None
    a, b = owners[starts], owners[starts + 1]
    least = a.min()
    return int(least), int(b[a == least].min())


# What the exact check may spend (module docstring).  Costs count key units
# (one vector code of one key gathered and packed, about 4 ns); the weights
# were measured on a 2-vCPU host on lifted, multiblock and Grassmannian codes
# over q <= 4, a stacked-rank pair at 20-61 units per m^2 k^2 N.
_ORACLE_BYTES = 1 << 28  # the vector table, or one level's keys and index sets
_KEY_COST = 4  # sort, run detection and bookkeeping of one key
_SUBSPACE_COST = 1200  # enumerating one j-subspace into an index set
_PAIR_COST = 32  # one pair of the stacked-rank scan, per m^2 k^2 N
_BUDGET_MEMBERS = 5000  # the budget: the pair scan of this many members


class _OverBudget(ValueError):
    """The exact check would outspend its budget or outgrow _ORACLE_BYTES."""


def _level_cost(q, ambient_dim, members, dim, j):
    """(cost, bytes) of level j's keys, for that many dim-dimensional members."""
    if j == 0:
        return 0, 0  # decided without keys
    subspaces = gaussian_binomial(dim, j, q)
    keys = members * subspaces
    if _key_bits(q, ambient_dim, j, members) is None:
        # key and member rows, lexsort's order and its sort buffer
        per_key = (j + 1) * np.min_scalar_type(max(q ** ambient_dim, members)).itemsize + 16
    else:
        per_key = 17  # key words, their xor and run flags
    return _SUBSPACE_COST * subspaces + (j + _KEY_COST) * keys, 8 * j * subspaces + per_key * keys


def _shared_level(field, ambient_dim, bases, j, budget):
    """(j*, (a, b)): the largest dimension in which two members of the sorted
    (M, k, N) bases meet, and the smallest pair of member indices meeting in it.

    The scan starts at level j (module docstring).  Raises _OverBudget as
    soon as the vector table and the levels to visit would cost more than
    budget, or one of them would hold more than _ORACLE_BYTES, before
    building it.
    """
    q, (members, dim) = field.order, bases.shape[:2]
    spent = 8 * ambient_dim * field.m * members * q ** dim
    if _table_bytes(q, ambient_dim, members, dim) > _ORACLE_BYTES:
        raise _OverBudget

    def charge(j):
        nonlocal spent
        cost, nbytes = _level_cost(q, ambient_dim, members, dim, j)
        spent += cost
        if spent > budget or nbytes > _ORACLE_BYTES:
            raise _OverBudget

    charge(j)
    table = _vector_table(field, ambient_dim, bases)

    def level(j):
        charge(j)
        return _level_pair(field, ambient_dim, table, dim, j)

    pair = _level_pair(field, ambient_dim, table, dim, j)
    if pair is None:
        while pair is None:  # level 0 always has a collision
            j -= 1
            pair = level(j)
    else:
        while j < dim and (above := level(j + 1)) is not None:
            j, pair = j + 1, above
    return j, pair


def min_distance_exhaustive(code):
    """(exact minimum distance, lexicographically smallest witnessing pair).

    Finds the largest dimension j* in which two members meet, through
    shared j-subspaces (module docstring): the distance is 2k - 2 j*, and
    the witness is the smallest pair of sorted members meeting in j*.
    Codes for which that would cost more than scanning all pairs, or need
    too much memory, take the stacked-rank pair scan, with the same answer.
    Above _BUDGET_MEMBERS members the scan too is over the budget: raises
    _OverBudget, a one-line ValueError.  A code of under two members gives
    (math.inf, None).
    """
    bases = code.bases
    m, k, n = bases.shape
    if m < 2:
        return math.inf, None
    paid = min(m, _BUDGET_MEMBERS)  # the oracle may cost the pair scan of this many members
    budget = _PAIR_COST * (code.field.m * k) ** 2 * n * (paid * (paid - 1) // 2)
    if code.q ** code.ambient_dim <= 1 << 63:  # vector codes fit int64
        j = min(max(k - (code.claimed_distance + 1) // 2 + 1, 0), k)
        try:
            j, pair = _shared_level(code.field, code.ambient_dim, bases, j, budget)
            return 2 * k - 2 * j, _witness(code.field, bases, pair)
        except _OverBudget:
            pass
    if m > _BUDGET_MEMBERS:  # the pair scan of m members costs more than the budget
        raise _OverBudget(f"exact distance of {m} members priced over the budget; sample it")
    dist, pair = _min_distance_pairs_generic(code.field, bases)
    return dist, _witness(code.field, bases, pair)


def _min_distance_pairs_generic(field, bases, pairs=None):
    """(minimum of 2k - 2 dim(U cap V), (i, j)) over index pairs i < j of the
    (M, k, N) bases: every pair, or the pairs (left[t], right[t]) of
    pairs = (left, right).

    dim(U cap V) is 2k less the rank of the stacked bases, so a pair scores
    2 rank - 2k; the ranks are taken for a chunk of stacked pairs per
    linalg.rref_batch call, its rows packed into words over GF(2) and its
    entries small unsigned digits over other fields.  linalg.rref_chunk
    sizes a chunk from the one budget, linalg._CHUNK_BYTES, so memory does
    not grow with the pairs.  Ties go to the smallest index pair, the
    smallest subspace pair of sorted bases.
    """
    m, k, n = bases.shape
    if pairs is None:  # pair t is (i, t - before[i] + i + 1), before[i] the pairs of rows < i
        before = np.r_[0, np.cumsum(np.arange(m - 1, 0, -1))]
        count = m * (m - 1) // 2
    else:
        count = len(pairs[0])
    step = rref_chunk(field, 2 * k, n)
    best = (math.inf,)
    for lo in range(0, count, step):
        if pairs is None:
            t = np.arange(lo, min(lo + step, count))
            i = np.searchsorted(before, t, side="right") - 1
            j = t - before[i] + i + 1
        else:
            i, j = pairs[0][lo:lo + step], pairs[1][lo:lo + step]
        rank = rref_batch(field, np.concatenate([bases[i], bases[j]], axis=1))[1]
        d = 2 * rank - 2 * k
        at = np.lexsort((j, i, d))[0]
        best = min(best, (int(d[at]), int(i[at]), int(j[at])))
    return best[0], best[1:]


_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _vector_hash(codes: np.ndarray) -> np.ndarray:
    """SplitMix64's step and output mix of every entry of codes, as uint64."""
    z = codes.astype(np.uint64) + np.uint64(_MIX[0])
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX[1])
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX[2])
    z ^= z >> np.uint64(31)
    return z


def _draws(seed: int, count: int, size: int) -> np.ndarray:
    """The first count values of SplitMix64(seed).randbelow(size), as int64.

    Draw i is the output mix of the state seed + (i + 1) * gamma:
    _vector_hash takes SplitMix64's step from seed + i * gamma and mixes, a
    chunk of states at once, and uint64 arithmetic wraps mod 2^64 as the
    generator does.
    """
    out, step = np.empty(count, dtype=np.int64), per_chunk(32)  # four uint64 a draw (tracemalloc)
    for lo in range(0, count, step):
        i = np.arange(lo, min(lo + step, count), dtype=np.uint64)
        states = np.uint64(seed & _U64) + i * np.uint64(_MIX[0])
        out[lo:lo + len(i)] = _vector_hash(states) % np.uint64(size)
    return out


def _sample_pairs(seed: int, size: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) that `pairs` draws of SplitMix64(seed) give, in order.

    Each pair takes i = randbelow(size), then j = randbelow(size), redrawing
    j while it equals i (size >= 2).  So pair t starts at draw start[t] and
    takes j gap[t] draws later, where gap[t] is 1 unless draw start[t] + 1
    repeats draw start[t], and start[t + 1] = start[t] + gap[t] + 1.  Only
    those repeats are walked in Python; the draws needed are counted from
    their expectation and doubled if the pairs run past them.
    """
    count = 2 * pairs + 2 * pairs // (size - 1) + 64
    while True:
        v = _draws(seed, count, size)
        repeats = np.flatnonzero(v[:-1] == v[1:]).tolist()  # draw s + 1 equals draw s
        repeated = set(repeats)
        gap = np.ones(pairs, dtype=np.int64)
        start = done = 0  # the next pair's first draw, and the pairs before it
        for s in repeats:
            if s < start or (s - start) & 1:  # inside a run, or the j of a pair
                continue
            done += (s - start) // 2
            if done >= pairs:
                break
            r = s + 1
            while r in repeated:
                r += 1
            gap[done] = r + 1 - s
            done += 1
            start = r + 2
        left = np.zeros(pairs, dtype=np.int64)
        np.cumsum(gap[:-1] + 1, out=left[1:])
        right = left + gap
        if right[-1] < count:
            return v[left], v[right]
        count *= 2


def min_distance_sampled(code, pairs: int, seed: int):
    """Minimum distance over `pairs` fixed-seed uniform pair draws.

    An upper bound on the true minimum: violations of a claimed distance
    show up immediately, agreement proves nothing.  Deterministic given the
    seed; the witness is the lexicographically smallest sampled minimizer.
    A code of under two members gives (math.inf, None).
    """
    if pairs < 1:
        raise ValueError("need at least one sampled pair")
    bases = code.bases
    m, k = bases.shape[:2]
    if m < 2:
        return math.inf, None
    left, right = _sample_pairs(seed, m, pairs)
    low, high = np.minimum(left, right), np.maximum(left, right)
    # a pair's two rows, sorted in place, and a boolean temporary of their length
    pair_bytes = _table_bytes(code.q, code.ambient_dim, 2, k) + 2 * code.q ** k
    if code.q ** code.ambient_dim > 1 << 63 or pair_bytes > _ORACLE_BYTES:  # stacked ranks
        dist, pair = _min_distance_pairs_generic(code.field, bases, (low, high))
        return dist, _witness(code.field, bases, pair)
    table = membership_masks(code)[1]
    chunk = per_chunk(pair_bytes + 24)  # and its two int64 indices and count (tracemalloc)
    counts = np.empty(pairs, dtype=np.int64)
    for lo in range(0, pairs, chunk):
        rows = np.stack([left[lo:lo + chunk], right[lo:lo + chunk]], axis=1).ravel()
        both = (table[rows] if table is not None  # else this chunk's members only
                else _vector_table(code.field, code.ambient_dim, bases[rows]))
        both = both.reshape(len(rows) // 2, -1)
        both.sort(axis=1)
        counts[lo:lo + len(both)] = (both[:, 1:] == both[:, :-1]).sum(axis=1)
    best = int(counts.max())
    low, high = low[counts == best], high[counts == best]
    pair = int(low.min()), int(high[low == low.min()].min())
    return 2 * k - 2 * _dim_from_count(best, code.q), _witness(code.field, bases, pair)


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
    are at subspace distance 2 rank(A - B) (Silva, Kschischang and Koetter
    2008), so the exhaustive subspace oracle does the scan, or raises its
    ValueError, and the answer is half its distance.  A repeated matrix
    gives 0; fewer than two matrices give math.inf.
    """
    matrices = list(matrices)
    if len(matrices) < 2:
        return math.inf
    first = matrices[0]
    if any(m.field != first.field or m.nrows != first.nrows or m.ncols != first.ncols
           for m in matrices):
        raise ValueError("matrices differ in shape or field")
    ident = MatrixGF.identity(first.field, first.nrows)
    lifts = np.array(  # (I | A) is already the canonical RREF basis
        [ident.hstack(m).rows for m in matrices], dtype=bases_dtype(first.field))
    # The Singleton bound |C| <= q^(max(k, m) (min(k, m) - delta + 1)) caps
    # delta; claiming the cap starts the scan where an MRD code costs two levels.
    span_size = first.field.order ** max(first.nrows, first.ncols)
    t = 0
    while span_size ** t < len(matrices):
        t += 1
    claim = 2 * max(0, min(first.nrows, first.ncols) - t + 1)
    code = CodeSet(first.field, first.nrows + first.ncols, first.nrows, claim, lifts)
    return min_distance_exhaustive(code)[0] // 2


def validate_codeset(code, sampled_pairs: int = SAMPLED_PAIRS, seed: int = SAMPLED_SEED,
                     mode: str = "auto") -> dict:
    """Machine-readable pass/fail report on a CodeSet's own claims.

    Checks membership invariants, cardinality against the construction's
    predicted size, duplicate-freeness, and the claimed minimum distance.
    mode "auto" finds the exact distance when min_distance_exhaustive fits
    its budget (always up to _BUDGET_MEMBERS members) and else samples;
    "exhaustive" raises its one-line ValueError there; "sampled" samples.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    checks = []

    def add(check, ok, expected, actual, witness=None):
        entry = {"check": check, "pass": bool(ok), "expected": expected, "actual": actual}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    bases = code.bases
    m = len(bases)
    add("member_dimensions", True,  # a CodeSet holds no other members
        f"all members {code.dim}-dim in ambient {code.ambient_dim}", "0 offending members")

    distinct = int(distinct_neighbours(bases).sum())
    add("distinct_members", distinct == m, m, distinct)

    predicted = code.provenance.get("predicted_size")
    if predicted is not None:
        add("cardinality", m == predicted, predicted, m)

    if m < 2:
        add("min_distance", True, f">= {code.claimed_distance}", "no pairs")
    else:
        try:
            exact = mode != "sampled" and min_distance_exhaustive(code)
        except _OverBudget:
            if mode == "exhaustive":
                raise
            exact = None
        dist, witness = exact or min_distance_sampled(code, sampled_pairs, seed)
        how = "exhaustive" if exact else f"sampled({sampled_pairs},seed={seed})"
        add("min_distance", dist >= code.claimed_distance,
            f">= {code.claimed_distance}", f"{dist} ({how})",
            witness=[[list(row) for row in w.basis] for w in witness] if witness else None)

    return {"pass": all(c["pass"] for c in checks), "checks": checks}
