"""Numerical companion for strong Gevrey asymptotics on polysectors.

Builds holomorphic functions with prescribed (multi-)Gevrey expansions via
truncated Laplace transforms, evaluates subset-indexed approximants of total
families, extracts coefficient families from functions, and computes and
empirically verifies every explicit direction-dependent type formula.
"""

from .errors import (
    CoherenceError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    FamilyError,
    GeometryError,
    PolygevreyError,
    ProbeError,
    QuadratureError,
    SeriesError,
    TailError,
    UnknownEntryError,
)
from .geometry import (
    Multidirection,
    Polysector,
    RayGrid,
    Sector,
    distinguished_boundary_points,
    geometric_radii,
    is_subpolysector,
    ray_points,
)
from .series import (
    GevreyFit,
    MultiIndexSeries,
    borel_transform,
    evaluate_partial,
    fit_gevrey_type,
    gamma1_norm,
    inverse_borel_transform,
)
from .families import (
    CoherenceReport,
    ExtractResult,
    FirstOrderFamily,
    ProbeSpec,
    TotalFamily,
    app_n,
    check_coherence,
    check_first_order_coherence,
    extract_element,
    family_from_series,
    first_order_of,
    fit_type_from_remainders,
    remainder_constants,
)
from .transforms import (
    LaplaceSpec,
    SampledFunction,
    brg_function,
    brg_type,
    interpolate_first_order,
    truncated_laplace,
    truncated_laplace_nd,
)
from .typecalc import (
    TypeProfile,
    circle_type,
    final_type,
    fz_type,
    g_of_delta,
    gamma_constant,
    r_tilde,
    sine_type,
)
from .flatness_bounds import (
    BoundReport,
    FlatFit,
    NullFitEntry,
    fit_flat_type,
    gevrey_envelope,
    gevrey_envelope_log,
    h_aux,
    fit_wedge_constant,
    null_expansion_check,
    pl_check,
    wedge_bound,
    wedge_shift_search,
)
from . import testbed

__version__ = "0.1.0"
