"""Rank distributions of MRD codes: enumeration versus closed form.

The maps x -> a_0 x + a_1 x^q + ... + a_t x^(q^t) on GF(q^n) form an MRD
code with rank distance n - t; the number of codewords of each rank is
given exactly by the classical rank-distribution theorem.  Here we count
by brute force and compare.  Run: python demos/02_rank_distributions.py
"""

from cdcodes import (
    delsarte_distribution,
    empirical_rank_distribution,
    enumerate_filtration,
    enumerate_mrd,
    filtration_size,
)

q, n, t = 2, 4, 2
print(f"Enumerating all q-degree <= {t} maps on GF({q}^{n}): {q ** (n * (t + 1))} of them")
hist = empirical_rank_distribution(enumerate_mrd(q, n, t))
print(f"empirical rank histogram: {hist}")

dist = delsarte_distribution(q, n, n - t)
print(f"closed-form counts:       { {r: c for r, c in enumerate(dist.counts) if c} }")
assert hist == {r: c for r, c in enumerate(dist.counts) if c}
print(f"total {dist.total()} = q^(n(t+1)) = {q ** (n * (t + 1))}")

# The block constructions need the subset of maps with kernel dimension
# >= j (equivalently rank <= n - j), zero map excluded.
for j in range(t + 1):
    counted = sum(1 for _ in enumerate_filtration(q, n, t, j))
    formula = filtration_size(q, n, t, j)
    print(f"kernel dim >= {j}: counted {counted}, formula {formula}")
    assert counted == formula

# The same machinery at the parameters behind the two-block bound on
# A_2(12,6,6): the key count is the 87885 rank-3 maps on GF(2^6).
print(f"\nrank-3 count of the distance-3 code on GF(2^6): "
      f"{delsarte_distribution(2, 6, 3)[3]}")
