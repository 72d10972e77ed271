"""A CodeSet takes only the (M, k, N) array of its members' bases; code_of stacks
Subspace values into that array for tests that build codes member by member."""

import numpy as np

from cdcodes.construct import CodeSet, bases_dtype


def code_of(field, ambient_dim, dim, claimed_distance, members, provenance=None) -> CodeSet:
    """The CodeSet of the dim-dimensional Subspace values members."""
    bases = np.array([s.basis for s in members], dtype=bases_dtype(field))
    return CodeSet(field, ambient_dim, dim, claimed_distance,
                   bases.reshape(len(members), dim, ambient_dim), provenance)
