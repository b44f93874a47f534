"""Batch driver: JSON experiment configs in, CSV/JSON reports out.

Subcommands: transform, type-fit, predict-type, verify, interpolate,
list-testbed.  Reports are byte-identical across runs with the same config:
no wall-clock stamps, sorted keys, fixed float formatting, deterministic
orderings.  Exit codes: 0 success (and verification verdicts that pass),
1 completed verification with a failing verdict, 2 config/schema violation,
3 numerical non-convergence (a partial report is written), 64 unknown
subcommand, 70 internal error (a bug in the program: ``error.json`` names the
exception).

Each subcommand, ``verify`` suite and ``type-fit`` mode declares its config
keys in one table of ``_TABLES``: key -> parser, default, bound.  ``main``
reads the config through it, so a key outside the table exits 2 before numpy
loads, anything runs or any report is written.  This module alone reads
configs (a nested object before its library module loads) and writes reports.

Importing this module loads only the standard library and ``errors``; each
subcommand imports what it runs.  ``predict-type`` loads ``typecalc`` alone,
``list-testbed`` the static ``catalogue`` alone, and neither loads numpy.  The
other subcommands load numpy, ``transforms``, ``series`` and ``geometry``,
``families`` for the ladders and App_N, and ``testbed`` when the config names
an entry; ``typecalc`` and ``flatness_bounds`` load only where used.
The CLI process runs numpy's BLAS on one thread: importing this module sets
``OPENBLAS_NUM_THREADS=1``, before numpy can load, unless the caller already
set it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

# Before numpy loads: an OpenBLAS worker thread only spins on arrays this small.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CoherenceError,
    ConfigError,
    DomainError,
    PolygevreyError,
    ProbeError,
    TailError,
)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_INTERNAL = 70


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g} {x.imag:.17g}"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    # a NaN or an infinity in a report is a bug: ValueError, exit 70
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# config tables

_REQUIRED = object()


def _read(raw, table: dict, where: str = "config") -> dict:
    """Every key of ``table`` (key -> (parser, default[, (lo, hi)])), parsed from ``raw``.

    A key outside the table, a missing required key, a value its parser
    rejects or overflows, or one outside its bound is a ConfigError (a nested
    table's passes unchanged).  An absent key reads its default (a callable
    one gets the keys read so far), parsed as if written; None reads None.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; allowed: {sorted(table)}")
    out = {}
    for key, (parse, default, *bound) in table.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"{where} key {key!r} is required")
        val = raw.get(key, default(out) if callable(default) else default)
        try:
            out[key] = None if val is None and key not in raw else parse(val)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where} key {key!r} has a bad value {val!r}: {exc}") from None
        for lo, hi in bound:
            if not lo <= out[key] <= hi:
                raise ConfigError(f"{where} key {key!r} must lie in [{lo}, {hi}], got {out[key]}")
    return out


def _is(kind):
    """The parser that passes a value of type ``kind`` unchanged and rejects any other."""
    def parse(val):
        if not isinstance(val, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(val).__name__}")
        return val
    return parse


_text, _list = _is(str), _is(list)


def _real(val) -> float:
    """A JSON number as a float, never a bool or a string (finite: the loader refuses NaN and infinities)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"expected a number, got {type(val).__name__}")
    return float(val)


def _int(val) -> int:
    """A JSON integer; a bool or a float, integral or not, is not one."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise TypeError(f"expected an integer, got {type(val).__name__}")
    return val


def _floats(val) -> list[float]:
    vals = [_real(v) for v in _list(val)]
    if not vals:
        raise ValueError("lists no value")
    return vals


def _ints(val) -> tuple[int, ...]:
    return tuple(_int(v) for v in _list(val))


def _int_pair(val) -> tuple[int, int]:
    lo, hi = _ints(val)
    return lo, hi


def _z0(val) -> tuple[complex, ...]:
    """Numbers or [re, im] pairs."""
    out = []
    for item in _list(val):
        parts = item if isinstance(item, list) and len(item) == 2 else [item, 0]
        try:
            out.append(complex(*map(_real, parts)))
        except TypeError:
            raise ValueError(f"z0 entries must be numbers or [re, im] pairs, got {item!r}") from None
    return tuple(out)


def _directions(val) -> list[tuple[float, ...]]:
    """One angle tuple per direction; a verdict over no direction is a config error."""
    if not _list(val):
        raise ValueError("lists no direction")
    return [tuple(map(_real, th)) if isinstance(th, list) else (_real(th),) for th in val]


def _rho(val) -> float:  # "inf" or null: an unbounded sector
    return math.inf if val in ("inf", None) else _real(val)


_GRID = {"r0": (_real, _REQUIRED), "ratio": (_real, _REQUIRED), "count": (_int, _REQUIRED)}
_COEFFICIENT = {"index": (_ints, _REQUIRED), "re": (_real, _REQUIRED), "im": (_real, 0.0)}
_SECTOR = {"alpha": (_real, _REQUIRED), "beta": (_real, _REQUIRED), "rho": (_rho, _REQUIRED)}


def _each(table: dict, where: str):
    """The parser of a list of objects, each read through ``table``."""
    return lambda val: [_read(obj, table, where) for obj in _list(val)]


_SERIES = {"dim": (_int, _REQUIRED), "coeffs": (_each(_COEFFICIENT, "coefficient"), _REQUIRED),
           "degree_bound": (_ints, None)}
_POLYSECTOR = {"sectors": (_each(_SECTOR, "sector"), _REQUIRED)}


def _radii(val) -> list[float]:
    """A strictly decreasing list, or a geometric grid {r0, ratio, count}."""
    if isinstance(val, dict):
        grid = _read(val, _GRID, "radii")
        from .geometry import geometric_radii

        return list(geometric_radii(**grid))
    vals = _floats(val)
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError("explicit radii must be strictly decreasing")
    return vals


def _series(val):
    ser = _read(val, _SERIES, "series")
    from .series import MultiIndexSeries

    coeffs = {c["index"]: complex(c["re"], c["im"]) for c in ser["coeffs"]}
    return MultiIndexSeries(ser["dim"], coeffs, ser["degree_bound"])  # None: the largest index per axis


def _polysector(val):
    sectors = _read(val, _POLYSECTOR, "polysector")["sectors"]
    if not sectors:
        raise ConfigError("polysector key 'sectors' lists no sector")
    from .geometry import Polysector, Sector

    return Polysector(Sector(**sec) for sec in sectors)


_AT_LEAST_0, _AT_LEAST_2 = (0, math.inf), (2, math.inf)
_RAYS = {"testbed": (_text, _REQUIRED), "directions": (_directions, _REQUIRED), "radii": (_radii, _REQUIRED)}
_FIT = {  # the remainder fit of type-fit gevrey and verify remainder
    **_RAYS, "n_max": (_int, 20), "window": (_int_pair, lambda c: [4, max(6, c["n_max"] - 4)]),
    "noise_floor": (_real, 1e-9),
}
_TABLES = {
    "transform": {
        "testbed": (_text, None), "series": (_series, None), "z0": (_z0, _REQUIRED),
        "tol": (_real, 1e-10), "direction": (_floats, _REQUIRED), "radii": (_radii, _REQUIRED),
    },
    "type-fit gevrey": _FIT,
    "type-fit flat": _RAYS,
    "predict-type": {
        "alpha": (_real, _REQUIRED), "beta": (_real, _REQUIRED), "theta0": (_real, _REQUIRED),
        "R0": (_real, _REQUIRED), "R_alpha": (_real, lambda c: c["R0"]),
        "R_beta": (_real, lambda c: c["R0"]), "z0_mod": (_real, lambda c: c["R0"]),
        "points": (_int, 181, _AT_LEAST_2),
    },
    "verify coherence": {
        "testbed": (_text, None), "series": (_series, None), "z0": (_z0, None),
        "tol": (_real, 1e-6), "max_order": (_int, 3, _AT_LEAST_0),
    },
    "verify pl": {
        "testbed": (_text, _REQUIRED), "polysector": (_polysector, _REQUIRED), "tol": (_real, 1e-9),
        "growth_attestation": (_text, None),
    },
    "verify remainder": {**_FIT, "rel_tol": (_real, 0.15)},
    "verify first-order": {
        "testbed": (_text, _REQUIRED), "tol": (_real, 1e-6), "max_order": (_int, 2, _AT_LEAST_0),
    },
    "interpolate": {
        "testbed": (_text, _REQUIRED), "opening": (_real, 1.2),
        # 45: the largest degree at which laplace_monomials' tail term count is tested
        "cap": (_int, 16, (-math.inf, 45)), "z0": (_z0, [0.92, 0.92]),
        "samples": (_floats, [0.02 * 1.13**k for k in range(10)]), "orders": (_int, 3, _AT_LEAST_0),
        "tol": (_real, 1e-4), "coeff_cap": (_int, 10),
    },
    "list-testbed": {},
}
# the key that picks a verify or a type-fit table, and its default
_VARIANTS = {"verify": ("suite", None), "type-fit": ("mode", "gevrey")}


def _table(command: str, raw: dict) -> dict:
    """The key table of ``command``, or of the verify suite or type-fit mode ``raw`` names, with that key."""
    if command not in _VARIANTS:
        return _TABLES[command]
    key, default = _VARIANTS[command]
    name = raw.get(key, default)
    names = [t.partition(" ")[2] for t in _TABLES if t.startswith(command + " ")]
    if name not in names:
        raise ConfigError(f"config key {key!r} must be one of {names}, got {name!r}")
    return {key: (_text, default), **_TABLES[f"{command} {name}"]}


def _finite(literal: str) -> float:
    """A JSON number literal as a float; NaN, Infinity or one that overflows is a ConfigError."""
    if not math.isfinite(val := float(literal)):
        raise ConfigError(f"config holds the non-finite number {literal}")
    return val


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _entry(cfg: dict):
    """The testbed entry named under ``testbed``; the registry loads on first use."""
    from . import testbed

    if cfg["testbed"] is None:
        raise ConfigError("config needs either 'series' or 'testbed'")
    return testbed.get(cfg["testbed"])


def _series_from(cfg):
    """The inline ``series`` or the series of the ``testbed`` entry; naming both is a ConfigError."""
    if cfg["series"] is not None:
        if cfg["testbed"] is not None:
            raise ConfigError("config names both 'series' and 'testbed'; give one")
        return cfg["series"]
    entry = _entry(cfg)
    ser = entry.known.get("series")
    if ser is None:
        raise ConfigError(f"testbed entry {entry.id!r} carries no series")
    return ser


def _total_family(cfg):
    entry = _entry(cfg)
    fam = entry.known.get("total_family")
    if fam is None:
        raise ConfigError(f"entry {entry.id!r} has no total family")
    return fam


def _write_coherence(path: Path, rep) -> int:
    """Write a coherence or first-order report with its ``ok()`` verdict."""
    ok = rep.ok()
    report = {key: getattr(rep, key) for key in ("checked_pairs", "max_residual", "tolerance", "missing")}
    for key, last in (("failures", "residual"), ("probe_failures", "note")):
        report[key] = [{"J": list(j), "L": list(l), "N_J": list(nj), "N_L": list(nl), last: v}
                       for j, l, nj, nl, v in getattr(rep, key)]
    _write_json(path, {"ok": ok, "report": report})
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def _remainder_fits(cfg: dict, entry) -> list[tuple]:
    """(direction, rates, rms) of the Gevrey fit to the constants of f - App_(n,...,n), n <= n_max.

    The family is the one ``family_from_series`` builds from the entry's series and z0.
    """
    from .families import family_from_series, fit_type_from_remainders, remainder_constants

    ser, z0 = entry.known.get("series"), entry.known.get("z0")
    if ser is None or z0 is None:
        raise ConfigError(f"entry {entry.id!r} has no series and z0 to build its family from")
    fam = family_from_series(ser, z0)
    fits = []
    for theta_t in cfg["directions"]:
        cons = remainder_constants(
            entry.fn, fam, theta_t, [cfg["radii"]] * entry.dim,
            [(n,) * entry.dim for n in range(cfg["n_max"] + 1)], noise_floor=cfg["noise_floor"],
        )
        rates, rms = fit_type_from_remainders(cons, window=cfg["window"])
        fits.append((theta_t, rates, rms))
    return fits


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(cfg: dict, out: Path) -> int:
    import numpy as np

    from .transforms import LaplaceSpec, brg_function, laplace_bound

    z0, direction = cfg["z0"], cfg["direction"]
    if len(direction) != len(z0):
        raise ConfigError(f"direction has {len(direction)} angles, z0 has {len(z0)} components")
    ser = _series_from(cfg)
    spec = LaplaceSpec(z0, tol=cfg["tol"])
    func = brg_function(ser, spec)  # rejects z0 outside the Borel disc or an uncontrolled tail
    pts = np.asarray(
        [[r * complex(math.cos(t), math.sin(t)) for t in direction] for r in cfg["radii"]],
        dtype=complex,
    )
    vals = func.eval_many(pts)
    errs = laplace_bound(ser, spec, pts)  # the dropped Borel tail is <= tol
    header = []
    for j in range(len(z0)):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    header += ["re_F", "im_F", "est_err"]
    rows = []
    for p, v, e in zip(pts, vals, errs):
        row = []
        for w in p:
            row += [w.real, w.imag]
        row += [v.real, v.imag, float(e)]
        rows.append(row)
    _write_csv(out / "transform.csv", header, rows)
    coeff_rows = []
    for ix, c in ser.items():  # |f_N| / N! in log space: N! overflows past N ~ 170
        ratio = math.exp(math.log(abs(c)) - sum(math.lgamma(n + 1) for n in ix))
        coeff_rows.append([" ".join(str(n) for n in ix), abs(c), ratio])
    _write_csv(out / "series.csv", ["N", "abs_coeff", "abs_coeff_over_factorial"], coeff_rows)
    _write_json(out / "transform.json", {
        "command": "transform", "dim": len(z0), "points": len(rows), "method": "closed-form",
        "z0": [[w.real, w.imag] for w in spec.z0], "tol": spec.tol,
    })
    return EXIT_OK


def _cmd_type_fit(cfg: dict, out: Path) -> int:
    mode = cfg["mode"]
    entry = _entry(cfg)
    rows = []
    report = {"command": "type-fit", "mode": mode, "testbed": entry.id, "directions": []}
    if mode == "gevrey":
        for theta_t, rates, rms in _remainder_fits(cfg, entry):
            law = None
            profile = entry.known.get("type_profile")
            if profile is not None:
                law = [p.fn(t) for p, t in zip(profile, theta_t)]
            rows.append(list(theta_t) + list(rates) + [rms] + (law or []))
            report["directions"].append(
                {"theta": list(theta_t), "fitted": list(rates), "rms": rms, "law": law}
            )
        header = [f"theta{j + 1}" for j in range(entry.dim)]
        header += [f"R{j + 1}_fit" for j in range(entry.dim)] + ["rms"]
        if report["directions"][0]["law"] is not None:
            header += [f"R{j + 1}_law" for j in range(entry.dim)]
    else:  # flat
        from .flatness_bounds import fit_flat_type
        from .geometry import ray_points

        for theta_t in cfg["directions"]:
            pts = ray_points(entry.fn.domain, theta_t, [cfg["radii"]] * entry.dim)
            mags = abs(entry.fn.eval_many(pts)).tolist()
            samples = [(tuple(abs(w) for w in pt), mag) for pt, mag in zip(pts, mags)]
            fit = fit_flat_type(samples)
            rows.append(list(theta_t) + list(fit.rates) + [fit.residual])
            report["directions"].append(
                {"theta": list(theta_t), "rates": list(fit.rates), "residual": fit.residual}
            )
        header = [f"theta{j + 1}" for j in range(entry.dim)]
        header += [f"flat_rate{j + 1}" for j in range(entry.dim)] + ["residual"]
    _write_csv(out / "type_fit.csv", header, rows)
    _write_json(out / "type_fit.json", report)
    return EXIT_OK


def _cmd_predict_type(cfg: dict, out: Path) -> int:
    from .typecalc import TypeProfile, circle_type, final_type, fz_type, r_tilde, sine_type

    alpha, beta, theta0, r0, points = cfg["alpha"], cfg["beta"], cfg["theta0"], cfg["R0"], cfg["points"]
    if not alpha < theta0 < beta:
        raise ConfigError("need alpha < theta0 < beta")
    profile = TypeProfile.constant(alpha, beta, r0)
    margin = (beta - alpha) * 1e-9
    rows = []
    for k in range(points):
        theta = alpha + (beta - alpha) * k / (points - 1)
        theta_in = min(max(theta, alpha + margin), beta - margin)
        fz = fz_type(theta, alpha, beta, theta0, r0)
        sine = sine_type(theta, alpha, beta, theta0, r0) if beta - alpha < math.pi else float("nan")
        circ = circle_type(cfg["R_alpha"], cfg["R_beta"], alpha, beta, theta)
        if abs(theta - theta0) < 0.5 * math.pi:
            rt = r_tilde(cfg["z0_mod"], theta, theta0)[0]
        else:
            rt = float("nan")
        try:
            fin = final_type((theta_in,), (theta0,), (r0,), (profile,))[0]
        except DomainError:
            fin = float("nan")
        rows.append([theta, fz, sine, circ, rt, fin])
    header = ["theta", "fz_type", "sine_type", "circle_type", "r_tilde", "final_type"]
    _write_csv(out / "predict_type.csv", header, rows)
    _write_json(out / "predict_type.json", {
        "command": "predict-type", "alpha": alpha, "beta": beta, "theta0": theta0, "R0": r0, "points": points,
    })
    return EXIT_OK


def _cmd_verify(cfg: dict, out: Path) -> int:
    suite = cfg["suite"]
    if suite == "coherence":
        from .families import check_coherence, family_from_series

        if cfg["series"] is None and cfg["z0"] is None:
            fam = _total_family(cfg)
        else:
            ser = _series_from(cfg)
            if cfg["z0"] is None:
                raise ConfigError("config key 'z0' is required with 'series'")
            fam = family_from_series(ser, cfg["z0"])
        rep = check_coherence(fam, cfg["tol"], max_order=cfg["max_order"])
        return _write_coherence(out / "coherence.json", rep)
    if suite == "pl":
        from .flatness_bounds import pl_check

        rep = pl_check(_entry(cfg).fn, cfg["polysector"], tol=cfg["tol"])
        report = {k: getattr(rep, k) for k in ("boundary_max", "interior_max", "tolerance", "eval_failures")}
        report["violations"] = [{"z": [[w.real, w.imag] for w in pt], "abs": v} for pt, v in rep.violations]
        report["growth_attestation"] = cfg["growth_attestation"]
        _write_json(out / "pl.json", {"ok": rep.ok(), "report": report})
        return EXIT_OK if rep.ok() else EXIT_VERDICT_FAIL
    if suite == "remainder":
        entry = _entry(cfg)
        profile = entry.known.get("type_profile")
        if profile is None:
            raise ConfigError(f"entry {entry.id!r} has no type law to compare with")
        rel_tol = cfg["rel_tol"]
        results = []
        ok = True
        for theta_t, rates, _ in _remainder_fits(cfg, entry):
            law = [p.fn(t) for p, t in zip(profile, theta_t)]
            rel = max(abs(r - l) / l for r, l in zip(rates, law))
            ok = ok and rel <= rel_tol
            results.append({"theta": list(theta_t), "fitted": list(rates), "law": law, "rel_err": rel})
        _write_json(out / "remainder.json", {"ok": ok, "rel_tol": rel_tol, "directions": results})
        return EXIT_OK if ok else EXIT_VERDICT_FAIL
    # first-order
    from .families import check_first_order_coherence

    rep = check_first_order_coherence(_total_family(cfg), cfg["tol"], max_order=cfg["max_order"])
    return _write_coherence(out / "first_order.json", rep)


def _cmd_interpolate(cfg: dict, out: Path) -> int:
    from . import testbed
    from .families import ProbeSpec, element_coefficients
    from .transforms import interpolate_first_order
    from .typecalc import TypeProfile

    if cfg["testbed"] != "rat2":
        raise ConfigError("interpolate currently drives the rat2 first-order family")
    opening, samples, orders = cfg["opening"], cfg["samples"], cfg["orders"]
    fam = testbed.rat2_first_order_family(opening=opening, cap=cfg["cap"])
    outside = [sv for sv in samples if not all(sec.contains(sv) for sec in fam.host.sectors)]
    if outside:
        raise ConfigError(f"config key 'samples' lists points outside the sector: {outside}")
    profiles = [TypeProfile.constant(-opening, opening, 1.0)] * 2
    outer = ProbeSpec(r0=0.2, ratio=0.75, steps=16, tol=1e-5, circle_frac=0.75, circle_nodes=128)
    func = interpolate_first_order(fam, profiles, cfg["z0"], coeff_cap=cfg["coeff_cap"])
    if orders > cfg["cap"]:
        raise ConfigError(f"config key 'orders' ({orders}) exceeds 'cap' ({cfg['cap']}), the family's last order")
    rows = []
    worst = 0.0
    points = [(sv,) for sv in samples]
    for axis in (0, 1):
        # one ladder per axis: every order, every sample point a batch column
        vals, errs, _, _ = element_coefficients([func], (axis,), [(k,) for k in range(orders + 1)], outer, points)
        for k, elem in enumerate(fam.sequence(axis)[: orders + 1]):
            for i, (sv, true) in enumerate(zip(samples, elem.eval_many(points).real.tolist())):
                value = complex(vals[k, 0, i])
                err = abs(value - true)
                worst = max(worst, err)
                rows.append([axis + 1, k, sv, value.real, value.imag, true, err, float(errs[k, 0, i])])
    _write_csv(
        out / "interpolate.csv",
        ["axis", "order", "z", "re_extracted", "im_extracted", "true", "abs_err", "probe_err"],
        rows,
    )
    tol = cfg["tol"]
    _write_json(
        out / "interpolate.json",
        {"command": "interpolate", "worst_abs_err": worst, "tol": tol, "ok": worst <= tol,
         "provenance": func.provenance},
    )
    return EXIT_OK if worst <= tol else EXIT_VERDICT_FAIL


def _cmd_list_testbed(cfg: dict, out: Path | None) -> int:
    from .catalogue import CATALOGUE

    lines = []
    payload = []
    for entry_id, (dim, notes) in sorted(CATALOGUE.items()):
        fields = {key: notes[key] for key in sorted(notes)}
        payload.append({"id": entry_id, "dim": dim, "known": fields})
        lines.append(f"{entry_id} (dim {dim})")
        for key, note in fields.items():
            lines.append(f"    {key}: {note}")
    print("\n".join(lines))
    if out is not None:
        _write_json(out / "testbed.json", {"entries": payload})
    return EXIT_OK


_COMMANDS = {
    "transform": _cmd_transform,
    "type-fit": _cmd_type_fit,
    "predict-type": _cmd_predict_type,
    "verify": _cmd_verify,
    "interpolate": _cmd_interpolate,
    "list-testbed": _cmd_list_testbed,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: polygevrey <command> [--config PATH] [--out DIR]")
        print("commands:", ", ".join(sorted(_COMMANDS)))
        return EXIT_UNKNOWN_COMMAND
    command = argv[0]
    if command in ("-h", "--help"):
        print(__doc__)
        print("commands:", ", ".join(sorted(_COMMANDS)))
        return EXIT_OK
    if command not in _COMMANDS:
        print(f"unknown subcommand {command!r}", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    parser = argparse.ArgumentParser(prog=f"polygevrey {command}", add_help=True)
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument(
        "--out", help="output directory for reports (default: .; list-testbed writes none without it)"
    )
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code not in (0, None) else EXIT_OK
    # list-testbed only prints unless given --out; the other commands default to "."
    out = None if args.out is None and command == "list-testbed" else Path(args.out or ".")
    try:
        if not args.config and command != "list-testbed":
            raise ConfigError(f"{command} requires --config")
        raw = _load_config(args.config) if args.config else {}
        cfg = _read(raw, _table(command, raw))
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (TailError, ProbeError, CoherenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _write_json(out / "error.json", {"error": str(exc), "command": command})
        return EXIT_NUMERICAL
    except PolygevreyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:
        # a bug, not a verdict or a config problem: keep it out of exit codes 1 and 2
        import traceback  # only on this path, to keep start-up imports unchanged

        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        if out is not None:
            with contextlib.suppress(OSError):
                _write_json(out / "error.json", {"error": message, "command": command, "internal": True})
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
