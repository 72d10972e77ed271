"""The per-member vector oracle that the numpy vector and mask builds are
tested against: every vector of a subspace, as its base-q integer code."""


def encode_vector(coords, q: int) -> int:
    """Ambient vector -> integer code: base-q digits, coordinate 0 least significant."""
    out = 0
    for c in reversed(coords):
        out = out * q + c
    return out


def subspace_vectors(s) -> list[int]:
    """All q^dim vector codes of the Subspace s, one combination of its rows at a time."""
    f, q = s.field, s.field.order
    vecs = [(0,) * s.ambient_dim]
    for row in s.basis:
        scaled = [tuple(f.mul(c, x) for x in row) for c in range(q)]
        vecs = [tuple(f.add(a, b) for a, b in zip(v, w)) for v in vecs for w in scaled]
    return [encode_vector(v, q) for v in vecs]
