"""Star Ramsey numbers under color budgets.

Exact values of R(n, t, s) for s = t-1 and s = t-2, general-l bounds,
lower-bound certificate colorings for every budget from three builders
(partitioned factorization, cyclic, near-regular), each checked before
it is returned, and an exhaustive oracle for small instances.
``__all__`` is the public surface; README lists it.

Names are loaded from their modules on first use, so importing the
package loads none of them.  No module imports numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coloring": (
        "Edge",
        "EdgeColoring",
        "canonical_edge",
        "color_degree_profile",
    ),
    "constructions": (
        "build_recipe",
        "cyclic_matching_coloring",
        "near_regular_coloring",
        "partitioned_factorization_coloring",
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
    "exact": ("WitnessRecipe", "balanced_class_sizes"),
    "fileio": ("parse_coloring", "read_coloring", "serialize_coloring", "write_coloring"),
    "formulas": ("BoundsInterval", "CaseVerdict", "classify", "general_bounds"),
    "verify": (
        "Certificate",
        "SampleCheckResult",
        "check_certificate",
        "min_star_colors",
        "sample_upper_check",
        "validate",
    ),
}
_SUBMODULES = ("bulkparser", "cli", "cliparser", "coloring", "constructions", "errors", "exact",
               "fileio", "formulas", "lineparser", "oracle", "verify")
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
