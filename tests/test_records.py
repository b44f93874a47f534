"""The package's value types: immutable, compared and hashed by their fields,
and checked on construction."""

import math

import pytest

from polygevrey import (
    BoundReport,
    CoherenceReport,
    DomainError,
    ExtractResult,
    FlatFit,
    GeometryError,
    MultiIndexSeries,
    NullFitEntry,
    Polysector,
    ProbeSpec,
    SampledFunction,
    Sector,
    SeriesError,
    TotalFamily,
    TypeProfile,
)
from polygevrey.testbed import RegistryEntry


def _one(pts):
    return [1.0] * len(pts)


def _profile(theta):
    return 1.0 + 0.25 * math.cos(theta)


HOST = Polysector([Sector(-1.0, 1.0)])
CONST = SampledFunction.constant(2.0)

MAKERS = {
    "Sector": lambda: Sector(0.0, 1.0, 2.0),
    "Polysector": lambda: Polysector([Sector(0.0, 1.0)]),
    "MultiIndexSeries": lambda: MultiIndexSeries(1, {(0,): 1.0, (2,): 0.5}),
    "SampledFunction": lambda: SampledFunction(HOST, _one),
    "TotalFamily": lambda: TotalFamily(1, HOST, {((0,), (0,)): CONST}, (0,)),
    "ProbeSpec": lambda: ProbeSpec(tol=1e-6),
    "ExtractResult": lambda: ExtractResult(1.0 + 0j, 1e-9, True, 0.1),
    "CoherenceReport": lambda: CoherenceReport(3, 1e-9, (), (), 1e-6),
    "TypeProfile": lambda: TypeProfile(-1.0, 1.0, _profile),
    "RegistryEntry": lambda: RegistryEntry("x", 1, CONST, {"a": 1}, {"a": "note"}),
    "FlatFit": lambda: FlatFit((0.5,), 0.1),
    "BoundReport": lambda: BoundReport(1.0, 0.5, (), 1e-9),
    "NullFitEntry": lambda: NullFitEntry((1,), 1.0, True),
}

# fields that hold a dict make an instance unhashable
UNHASHABLE = {"MultiIndexSeries", "TotalFamily", "RegistryEntry"}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_immutable_and_compared_by_fields(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    fields = list(type(a).__annotations__)
    field = fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{name}({', '.join(f'{k}={getattr(a, k)!r}' for k in fields)})"


def test_unequal_fields_and_types():
    assert Sector(0.0, 1.0) != Sector(0.0, 1.5)
    assert Sector(0.0, 1.0) == Sector(0.0, 1.0, math.inf)
    assert Sector(0.0, 1.0) != (0.0, 1.0, math.inf)
    assert ProbeSpec() != ProbeSpec(direction=(0.0,))


def test_cached_sup_is_not_a_field():
    prof, fresh = TypeProfile(-1.0, 1.0, _profile), TypeProfile(-1.0, 1.0, _profile)
    assert prof.sup == pytest.approx(1.25)
    assert prof == fresh and hash(prof) == hash(fresh)


@pytest.mark.parametrize(
    "make, exc, message",
    [
        (lambda: Sector(1.0, 0.0), GeometryError, "sector needs alpha < beta, got (1.0, 0.0)"),
        (lambda: Sector(0.0, 1.0, 0.0), GeometryError, "sector radius must be positive, got 0.0"),
        (lambda: ProbeSpec(r0=-1.0, tol=0.0), DomainError,
         "invalid probe ProbeSpec(r0=-1.0, ratio=0.7, tol=0.0, circle_nodes=64, direction=None): "
         "need r0 > 0, tol > 0"),
        (lambda: TypeProfile(1.0, 0.0, _profile), GeometryError, "profile domain needs alpha < beta"),
        (lambda: RegistryEntry("x", 1, CONST, {"a": 1}, {"b": ""}), ValueError, "known fields ['a'] != noted ['b']"),
        (lambda: FlatFit((-0.5,), 0.1), SeriesError, "flat rates must be nonnegative"),
        (lambda: FlatFit((0.5,), -0.1), SeriesError, "negative residual"),
    ],
)
def test_construction_checks(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert info.value.args == (message,)


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("r0", 0.0, "r0 > 0"),
        ("ratio", 1.5, "0 < ratio < 1"),
        ("ratio", 0.0, "0 < ratio < 1"),
        ("tol", 0.0, "tol > 0"),
        ("circle_nodes", 1, "circle_nodes >= 2"),
    ],
    ids=["r0", "ratio-above", "ratio-zero", "tol", "circle_nodes"],
)
def test_probe_rules(field, value, rule):
    # each rule a ProbeSpec checks, broken alone, is named alone
    with pytest.raises(DomainError) as info:
        ProbeSpec(**{field: value})
    assert str(info.value).endswith(f"direction=None): need {rule}")
