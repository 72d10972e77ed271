"""The intersection-dimension bound of the multi-block construction, which the
tests hold against exact intersection dimensions of multiblock_generators' members."""

from cdcodes.linalg import MatrixGF


def intersection_bound_pairwise(g1, g2) -> int:
    """Intersection-dimension bound n - rank(I - A_j B_i) for the BlockGenerator members
    g1 and g2 whose identity blocks sit at different positions, i in g1 and j in g2."""
    if len(g1.blocks) != len(g2.blocks):
        raise ValueError("generator tuples have different block counts")
    i, j = g1.position, g2.position
    if i == j:
        raise ValueError("the bound applies to distinct identity positions only")
    a_j = g1.blocks[j]
    b_i = g2.blocks[i]
    ident = MatrixGF.identity(a_j.field, a_j.nrows)
    return a_j.nrows - ident.sub(a_j @ b_i).rank()
