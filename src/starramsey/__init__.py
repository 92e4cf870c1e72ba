"""Star Ramsey numbers under color budgets.

Exact values of R(n, t, s) for s = t-1 and s = t-2, general-l bounds,
verified lower-bound certificate colorings, and an exhaustive oracle
for small instances.
"""

from .coloring import (
    Edge,
    EdgeColoring,
    OrderedMatching,
    all_edges,
    canonical_edge,
    color_degree_profile,
    near_one_factorization,
    one_factorization,
)
from .constructions import (
    ClassLayout,
    build_recipe,
    cyclic_matching_coloring,
    matching_class_coloring,
    near_regular_coloring,
    near_regular_layout,
    partitioned_factorization_coloring,
    regular_coloring,
    regular_layout,
    three_color_balanced_coloring,
    witness_coloring,
)
from .errors import (
    ColoringFormatError,
    ConstructionFailedError,
    InfeasibleInstanceError,
    InvalidParameterError,
    StarRamseyError,
    UnsupportedParametersError,
)
from .fileio import parse_coloring, read_coloring, serialize_coloring, write_coloring
from .formulas import (
    BoundsInterval,
    CaseVerdict,
    WitnessRecipe,
    balanced_class_sizes,
    classify,
    general_bounds,
    ramsey_star_t_minus_1,
    ramsey_star_t_minus_2,
    threshold_predicate,
)
from .verify import (
    Certificate,
    SampleCheckResult,
    check_certificate,
    min_star_colors,
    sample_upper_check,
    validate,
)
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgeColoring",
    "OrderedMatching",
    "all_edges",
    "canonical_edge",
    "color_degree_profile",
    "near_one_factorization",
    "one_factorization",
    "ClassLayout",
    "balanced_class_sizes",
    "build_recipe",
    "cyclic_matching_coloring",
    "matching_class_coloring",
    "near_regular_coloring",
    "near_regular_layout",
    "partitioned_factorization_coloring",
    "regular_coloring",
    "regular_layout",
    "three_color_balanced_coloring",
    "witness_coloring",
    "ColoringFormatError",
    "ConstructionFailedError",
    "InfeasibleInstanceError",
    "InvalidParameterError",
    "StarRamseyError",
    "UnsupportedParametersError",
    "parse_coloring",
    "read_coloring",
    "serialize_coloring",
    "write_coloring",
    "BoundsInterval",
    "CaseVerdict",
    "WitnessRecipe",
    "classify",
    "general_bounds",
    "ramsey_star_t_minus_1",
    "ramsey_star_t_minus_2",
    "threshold_predicate",
    "Certificate",
    "SampleCheckResult",
    "check_certificate",
    "min_star_colors",
    "sample_upper_check",
    "validate",
    "oracle",
]
