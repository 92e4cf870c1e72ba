"""Star Ramsey numbers under color budgets.

Exact values of R(n, t, s) for s = t-1 and s = t-2, general-l bounds,
verified lower-bound certificate colorings, and an exhaustive oracle
for small instances.

Names are loaded from their modules on first use, so importing the
package (or running ``python -m starramsey compute``) does not import
numpy; the coloring, construction, verification and file modules do.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coloring": (
        "Edge",
        "EdgeColoring",
        "OrderedMatching",
        "all_edges",
        "canonical_edge",
        "color_degree_profile",
        "near_one_factorization",
        "one_factorization",
    ),
    "constructions": (
        "ClassLayout",
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
    ),
    "errors": (
        "ColoringFormatError",
        "ConstructionFailedError",
        "InfeasibleInstanceError",
        "InvalidParameterError",
        "StarRamseyError",
        "UnsupportedParametersError",
    ),
    "fileio": ("parse_coloring", "read_coloring", "serialize_coloring", "write_coloring"),
    "formulas": (
        "BoundsInterval",
        "CaseVerdict",
        "WitnessRecipe",
        "balanced_class_sizes",
        "classify",
        "general_bounds",
        "ramsey_star_t_minus_1",
        "ramsey_star_t_minus_2",
        "threshold_predicate",
    ),
    "verify": (
        "Certificate",
        "SampleCheckResult",
        "check_certificate",
        "min_star_colors",
        "sample_upper_check",
        "validate",
    ),
}
_SUBMODULES = ("cli", "coloring", "constructions", "errors", "fileio", "formulas",
               "oracle", "verify")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "oracle"]


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
