"""Registry of closed-form functions with analytically known asymptotics.

These entries back the verification suites: each ``known`` field carries a
provenance note saying whether it is exact by construction or derived and
cross-checked against an independent route (remainder fits, Taylor
expansion).  The registry is code, not data files: closed forms need exact
evaluation.  No entry integrates numerically: euler is ``brg_function`` of its
own series, the closed-form transform of its degree-45 Borel polynomial.
Each entry's notes live in ``catalogue``, which needs no numpy; its ``dim`` is its function's.
Only the ``euler`` and ``brg_const`` builders load ``typecalc``, and only the family builders ``families``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .catalogue import CATALOGUE
from .errors import Record, UnknownEntryError
from .geometry import Polysector, Sector
from .series import MultiIndexSeries, evaluate_many
from .transforms import SampledFunction, brg_function, brg_type, half_plane_polysector


class RegistryEntry(Record):
    id: str
    fn: SampledFunction
    known: dict
    notes: dict

    def __init__(self, id: str, fn: SampledFunction, known: dict, notes: dict):
        super().__init__(id, fn, known, notes)
        if set(self.known) != set(self.notes):
            raise ValueError(f"known fields {sorted(self.known)} != noted {sorted(self.notes)}")

    @property
    def dim(self) -> int:
        return self.fn.domain.dim


def _entry(entry_id: str, fn: SampledFunction, known: dict) -> RegistryEntry:
    return RegistryEntry(entry_id, fn, known, CATALOGUE[entry_id][1])


def polynomial_family(series: MultiIndexSeries, host: Polysector) -> TotalFamily:
    """Exact total family of a polynomial: elements are its partial coefficient slices."""
    from .families import slice_family

    def element(sub: MultiIndexSeries, rest: tuple[int, ...]) -> SampledFunction:
        return SampledFunction(host.axes_subset(rest), lambda pts: evaluate_many(sub, pts))

    return slice_family(series, host, element, "closed-form")


# ---------------------------------------------------------------------------
# entry builders


def flat1_entry() -> RegistryEntry:
    rate = 2.0
    domain = Polysector([Sector(-0.25 * math.pi, 0.25 * math.pi, math.inf)])

    def fn(pts: np.ndarray) -> np.ndarray:
        return np.exp(-rate / pts[:, 0])

    return _entry("flat1", SampledFunction(domain, fn), {
        "flat_rates": (rate,),
        "gevrey_null_types": (rate,),
        "direction": (0.0,),
    })


def euler_entry() -> RegistryEntry:
    from .typecalc import TypeProfile

    z0, degree = 0.5, 45
    series = MultiIndexSeries(
        1, {(n,): (-1.0) ** n * math.factorial(n) for n in range(degree + 1)}, (degree,)
    )
    # the Borel sum 1/(1+t) as its degree-45 polynomial; brg_function bounds the dropped tail
    fn = brg_function(series, (z0,), tol=1e-12)
    sector = fn.domain.sectors[0]
    profile = TypeProfile(sector.alpha, sector.beta, lambda th: brg_type((z0,), (th,))[0])
    return _entry("euler", fn, {
        "series": series,
        "type_profile": (profile,),
        "z0": (complex(z0),),
        "borel_sum": "1/(1+t)",
    })


def rat2_sector(opening: float = 1.2) -> Sector:
    return Sector(-opening, opening, math.inf)


def rat2_entry() -> RegistryEntry:
    domain = Polysector([rat2_sector()] * 2)

    def fn(pts: np.ndarray) -> np.ndarray:
        return 1.0 / ((1.0 + pts[:, 0]) * (1.0 + pts[:, 1]))

    return _entry("rat2", SampledFunction(domain, fn), {
        "total_family": rat2_total_family(),
        "series": rat2_series(),
        "gevrey_types": (math.inf, math.inf),
        "flat_rates": (0.0, 0.0),
    })


def rat2_series(cap: int = 8) -> MultiIndexSeries:
    return MultiIndexSeries(
        2,
        {(h, k): (-1.0) ** (h + k) for h in range(cap + 1) for k in range(cap + 1)},
        (cap, cap),
    )


def _rat2_slice(domain: Polysector, sign: float) -> SampledFunction:
    def fn(pts: np.ndarray, _s=sign) -> np.ndarray:
        return _s / (1.0 + pts[:, 0])

    return SampledFunction(domain, fn, provenance="closed-form")


def rat2_total_family(opening: float = 1.2, cap: int = 8) -> TotalFamily:
    """f_{j,h} = (-1)^h / (1 + z_other) and f_{(0,1),(h,k)} = (-1)^(h+k), for h, k <= cap."""
    from .families import TotalFamily

    host = Polysector([rat2_sector(opening)] * 2)
    ax0, ax1 = host.axes_subset((1,)), host.axes_subset((0,))
    joint = {sign: SampledFunction.constant(sign) for sign in (1.0, -1.0)}  # shared by all (cap+1)^2 keys
    elements = {}
    for h in range(cap + 1):
        elements[((0,), (h,))] = _rat2_slice(ax0, (-1.0) ** h)
        elements[((1,), (h,))] = _rat2_slice(ax1, (-1.0) ** h)
        for k in range(cap + 1):
            elements[((0, 1), (h, k))] = joint[(-1.0) ** (h + k)]
    return TotalFamily(host, elements)


def poly_series() -> MultiIndexSeries:
    return MultiIndexSeries(
        2,
        {(0, 0): 2.0, (1, 1): 1.0, (2, 1): -0.5, (0, 3): 0.25},
        (2, 3),
    )


def poly_entry() -> RegistryEntry:
    host = Polysector([Sector(-math.pi / 3, math.pi / 3, 1.0)] * 2)
    series = poly_series()

    def fn(pts: np.ndarray) -> np.ndarray:
        z1, z2 = pts[:, 0], pts[:, 1]
        return 2.0 + z1 * z2 - 0.5 * z1**2 * z2 + 0.25 * z2**3

    return _entry("poly", SampledFunction(host, fn), {
        "series": series,
        "total_family": polynomial_family(series, host),
        "gevrey_types": (math.inf, math.inf),
        "flat_rates": (0.0, 0.0),
    })


def brg_const_entry() -> RegistryEntry:
    from .typecalc import TypeProfile

    z0 = 0.5
    domain = half_plane_polysector((z0,))

    def fn(pts: np.ndarray) -> np.ndarray:
        return 1.0 - np.exp(-z0 / pts[:, 0])

    sector = domain.sectors[0]
    profile = TypeProfile(sector.alpha, sector.beta, lambda th: brg_type((z0,), (th,))[0])
    return _entry("brg_const", SampledFunction(domain, fn), {
        "series": MultiIndexSeries(1, {(0,): 1.0}, (0,)),
        "type_profile": (profile,),
        "z0": (complex(z0),),
    })


def brg_const2_entry() -> RegistryEntry:
    z0 = (0.5 + 0j, 0.5 + 0j)
    domain = half_plane_polysector(z0)

    def fn(pts: np.ndarray) -> np.ndarray:
        return (1.0 - np.exp(-z0[0] / pts[:, 0])) * (1.0 - np.exp(-z0[1] / pts[:, 1]))

    return _entry("brg_const2", SampledFunction(domain, fn), {
        "series": MultiIndexSeries(2, {(0, 0): 1.0}, (0, 0)),
        "z0": z0,
        "first_order_closed": "f_{j,0}(z_other) = 1 - e^{-z0_other/z_other}, higher indices 0",
    })


_BUILDERS: dict[str, Callable[[], RegistryEntry]] = {
    "flat1": flat1_entry,
    "euler": euler_entry,
    "rat2": rat2_entry,
    "poly": poly_entry,
    "brg_const": brg_const_entry,
    "brg_const2": brg_const2_entry,
}


def ids() -> list[str]:
    return sorted(CATALOGUE)


def get(entry_id: str) -> RegistryEntry:
    try:
        builder = _BUILDERS[entry_id]
    except KeyError:
        raise UnknownEntryError(f"no testbed entry named {entry_id!r}; have {ids()}") from None
    return builder()
