"""Numerical companion for strong Gevrey asymptotics on polysectors.

Builds holomorphic functions with prescribed (multi-)Gevrey expansions via
truncated Laplace transforms, evaluates subset-indexed approximants of total
families, extracts coefficient families from functions, and computes and
empirically verifies every explicit direction-dependent type formula.

The public names and the submodules load on first access (PEP 562), so
``import polygevrey`` itself imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "errors": "CoherenceError ConfigError DimensionMismatchError DomainError FamilyError"
        " GeometryError PolygevreyError ProbeError QuadratureError SeriesError TailError"
        " UnknownEntryError",
        "geometry": "Polysector Sector distinguished_boundary_points geometric_radii ray_points",
        "series": "MultiIndexSeries fit_gevrey_type gamma1_norm",
        "families": "CoherenceReport ExtractResult ProbeSpec TotalFamily app_n_many check_coherence"
        " check_first_order_coherence extract_element family_from_series fit_type_from_remainders"
        " remainder_constants",
        "transforms": "SampledFunction brg_function brg_type interpolate_first_order"
        " truncated_laplace_nd",
        "typecalc": "TypeProfile circle_type final_type fz_type g_of_delta gamma_constant r_tilde"
        " sine_type",
        "flatness_bounds": "BoundReport FlatFit NullFitEntry fit_flat_type gevrey_envelope_log h_aux"
        " null_expansion_check pl_check wedge_bound",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("catalogue", "errors", "families", "flatness_bounds", "geometry", "series", "testbed",
               "transforms", "typecalc")
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
