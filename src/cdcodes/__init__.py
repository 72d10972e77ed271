"""Constant-dimension subspace codes from subsets of MRD codes.

The package splits into exact-arithmetic layers (gf, linalg, rankdist),
the rank-metric code machinery (qpoly), the code constructions and their
independent verification (construct, verify), and the bound formulas with
their published reference tables (bounds, tables).  The `cdc` command-line
tool (cli) exposes construction, verification, bound evaluation and table
regeneration.
"""

from .gf import GF, GFExtension, extension_field, field_of_order
from .linalg import (
    MatrixGF,
    Subspace,
    enumerate_subspaces,
    intersection_dim,
    subspace_distance,
    subspace_from_rows,
)
from .qpoly import (
    BudgetError,
    QPolynomial,
    RectQPolynomial,
    enumerate_filtration,
    enumerate_mrd,
    enumerate_rect_mrd,
)
from .rankdist import (
    RankDistribution,
    closed_form_first_three,
    delsarte_distribution,
    filtration_size,
    gaussian_binomial,
    lifted_mrd_size,
    multiblock_size,
    parallel_linkage_size,
)
from .construct import (
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
from .verify import (
    empirical_rank_distribution,
    min_distance_exhaustive,
    min_distance_sampled,
    pairwise_min_rank_distance,
    validate_codeset,
)
from .bounds import (
    BoundRecord,
    anticode_upper,
    bound_johnson_halving,
    bound_multiblock,
    bound_parallel_linkage,
    compare,
    default_best_known,
    generate_table,
    generate_table1,
    load_best_known,
)

__version__ = "0.1.0"

__all__ = [
    "GF", "GFExtension", "extension_field", "field_of_order",
    "MatrixGF", "Subspace", "enumerate_subspaces", "intersection_dim",
    "subspace_distance", "subspace_from_rows",
    "BudgetError", "QPolynomial", "RectQPolynomial", "enumerate_filtration",
    "enumerate_mrd", "enumerate_rect_mrd",
    "RankDistribution", "closed_form_first_three", "delsarte_distribution",
    "filtration_size", "gaussian_binomial", "lifted_mrd_size", "multiblock_size",
    "parallel_linkage_size",
    "BlockGenerator", "CodeSet", "ConstructionError", "grassmannian_code",
    "lifted_mrd_code", "linkage", "multiblock_generators", "multiblock_parallel_mrd",
    "parallel_linkage", "rect_lifted_mrd_code",
    "empirical_rank_distribution", "min_distance_exhaustive", "min_distance_sampled",
    "pairwise_min_rank_distance", "validate_codeset",
    "BoundRecord", "anticode_upper", "bound_johnson_halving",
    "bound_multiblock", "bound_parallel_linkage", "compare",
    "default_best_known", "generate_table", "generate_table1", "load_best_known",
]
