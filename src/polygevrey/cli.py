"""Batch driver: JSON experiment configs in, CSV/JSON reports out.

Subcommands: transform, type-fit, predict-type, verify, interpolate,
list-testbed.  Reports are byte-identical across runs with the same config:
no wall-clock stamps, sorted keys, fixed float formatting, deterministic
orderings.  Exit codes: 0 success (and verification verdicts that pass),
1 completed verification with a failing verdict, 2 config/schema violation,
3 numerical non-convergence (a partial report is written), 64 unknown
subcommand, 70 internal error (a bug in the program: ``error.json`` names the
exception).

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


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config key {key!r} must be {kind}, got {type(val).__name__}")
    return val


_REQUIRED = object()


def _get(cfg: dict, key: str, kind=float, default=_REQUIRED):
    """``kind(cfg[key])``, or ``default`` when the key is absent; a bad value is a ConfigError."""
    if key not in cfg and default is not _REQUIRED:
        return default
    val = _require(cfg, key)
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has a bad value {val!r}: {exc}") from None


def _floats(val) -> list[float]:
    return [float(v) for v in val]


def _int_pair(val) -> tuple[int, int]:
    lo, hi = (int(v) for v in val)
    return lo, hi


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _z0_from(cfg) -> tuple[complex, ...]:
    raw = _require(cfg, "z0", list)
    out = []
    for item in raw:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        elif isinstance(item, list) and len(item) == 2 and all(
            isinstance(v, (int, float)) for v in item
        ):
            out.append(complex(item[0], item[1]))
        else:
            raise ConfigError(f"z0 entries must be numbers or [re, im] pairs, got {item!r}")
    return tuple(out)


def _entry(cfg: dict):
    """The testbed entry named under ``testbed``; the registry loads on first use."""
    from . import testbed

    return testbed.get(_require(cfg, "testbed", str))


def _series_from(cfg):
    if "series" in cfg:
        from .series import MultiIndexSeries

        return MultiIndexSeries.from_json(_require(cfg, "series", dict))
    if "testbed" in cfg:
        entry = _entry(cfg)
        ser = entry.known.get("series")
        if ser is None:
            raise ConfigError(f"testbed entry {entry.id!r} carries no series")
        return ser
    raise ConfigError("config needs either 'series' or 'testbed'")


def _radii_from(cfg, key="radii") -> list[float]:
    raw = _require(cfg, key)
    if isinstance(raw, dict):
        from .geometry import geometric_radii

        return list(geometric_radii(_get(raw, "r0"), _get(raw, "ratio"), _get(raw, "count", int)))
    if isinstance(raw, list):
        vals = _get(cfg, key, _floats)
        if not vals:
            raise ConfigError(f"{key} must not be empty")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("explicit radii must be strictly decreasing")
        return vals
    raise ConfigError(f"{key} must be a list or a geometric-grid object")


_PROBE_FIELDS = {
    "r0": float, "ratio": float, "steps": int, "window": int, "agree": int,
    "tol": float, "circle_frac": float, "circle_nodes": int,
}


def _probe_from(cfg, key="probe", **defaults):
    """The ProbeSpec under ``key``, its fields over ``defaults`` over ProbeSpec's own."""
    from .families import ProbeSpec

    raw = cfg.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object")
    bad = set(raw) - set(_PROBE_FIELDS)
    if bad:
        raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
    return ProbeSpec(**{**defaults, **{k: _get(raw, k, _PROBE_FIELDS[k]) for k in raw}})


def _directions(cfg: dict) -> list[tuple[float, ...]]:
    """The ``directions`` key, one angle tuple each; a verdict over no direction is a config error."""
    directions = _require(cfg, "directions", list)
    if not directions:
        raise ConfigError("config key 'directions' lists no direction")
    try:
        return [tuple(float(t) for t in th) if isinstance(th, list) else (float(th),) for th in directions]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad direction in {directions!r}: {exc}") from None


def _remainder_fits(cfg: dict, entry, radii: list[float]) -> list[tuple]:
    """(direction, rates, rms) of the Gevrey fit to the constants of f - App_(n,...,n), n <= n_max.

    The family is the one ``family_from_series`` builds from the entry's
    series and z0; the fit window defaults to (4, max(6, n_max - 4)).
    """
    from .families import family_from_series, fit_type_from_remainders, remainder_constants

    directions = _directions(cfg)
    ser, z0 = entry.known.get("series"), entry.known.get("z0")
    if ser is None or z0 is None:
        raise ConfigError(f"entry {entry.id!r} has no series and z0 to build its family from")
    fam = family_from_series(ser, z0)
    n_max = _get(cfg, "n_max", int, 20)
    window = _get(cfg, "window", _int_pair, (4, max(6, n_max - 4)))
    floor = _get(cfg, "noise_floor", float, 1e-9)
    fits = []
    for theta_t in directions:
        cons = remainder_constants(
            entry.fn, fam, theta_t, [radii] * entry.dim,
            [(n,) * entry.dim for n in range(n_max + 1)], noise_floor=floor,
        )
        rates, _, rms = fit_type_from_remainders(cons, window=window)
        fits.append((theta_t, rates, rms))
    return fits


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(cfg: dict, out: Path) -> int:
    import numpy as np

    from .transforms import LaplaceSpec, brg_function, laplace_bound

    ser = _series_from(cfg)
    z0 = _z0_from(cfg)
    spec = LaplaceSpec(z0, tol=_get(cfg, "tol", float, 1e-10))
    func = brg_function(ser, spec)  # rejects z0 outside the Borel disc or an uncontrolled tail
    direction = _get(cfg, "direction", _floats)
    if len(direction) != len(z0):
        raise ConfigError(f"direction has {len(direction)} angles, z0 has {len(z0)} components")
    radii = _radii_from(cfg)
    pts = np.asarray(
        [[r * complex(math.cos(t), math.sin(t)) for t in direction] for r in radii],
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
    _write_csv(
        out / "series.csv",
        ["N", "abs_coeff", "abs_coeff_over_factorial"],
        [list(row) for row in ser.csv_rows()],
    )
    _write_json(
        out / "transform.json",
        {
            "command": "transform",
            "dim": len(z0),
            "points": len(rows),
            "method": "closed-form",
            "z0": [[w.real, w.imag] for w in spec.z0],
            "tol": spec.tol,
        },
    )
    return EXIT_OK


def _cmd_type_fit(cfg: dict, out: Path) -> int:
    mode = cfg.get("mode", "gevrey")
    entry = _entry(cfg)
    radii = _radii_from(cfg)
    rows = []
    report = {"command": "type-fit", "mode": mode, "testbed": entry.id, "directions": []}
    if mode == "gevrey":
        for theta_t, rates, rms in _remainder_fits(cfg, entry, radii):
            law = None
            profile = entry.known.get("type_profile")
            if profile is not None:
                law = [p.fn(t) for p, t in zip(profile, theta_t)]
            rows.append(list(theta_t) + list(rates) + [rms] + (law or []))
            report["directions"].append(
                {
                    "theta": list(theta_t),
                    "fitted": list(rates),
                    "rms": rms,
                    "law": law,
                }
            )
        header = [f"theta{j + 1}" for j in range(entry.dim)]
        header += [f"R{j + 1}_fit" for j in range(entry.dim)] + ["rms"]
        if report["directions"][0]["law"] is not None:
            header += [f"R{j + 1}_law" for j in range(entry.dim)]
    elif mode == "flat":
        from .flatness_bounds import fit_flat_type
        from .geometry import ray_points

        for theta_t in _directions(cfg):
            pts = ray_points(entry.fn.domain, theta_t, [radii] * entry.dim)
            samples = [
                (tuple(abs(w) for w in pt), abs(entry.fn(pt)))
                for pt in pts
            ]
            fit = fit_flat_type(samples)
            rows.append(list(theta_t) + list(fit.rates) + [fit.residual])
            report["directions"].append(
                {"theta": list(theta_t), "rates": list(fit.rates), "residual": fit.residual}
            )
        header = [f"theta{j + 1}" for j in range(entry.dim)]
        header += [f"flat_rate{j + 1}" for j in range(entry.dim)] + ["residual"]
    else:
        raise ConfigError(f"unknown type-fit mode {mode!r}")
    _write_csv(out / "type_fit.csv", header, rows)
    _write_json(out / "type_fit.json", report)
    return EXIT_OK


def _cmd_predict_type(cfg: dict, out: Path) -> int:
    from .typecalc import TypeProfile, circle_type, final_type, fz_type, r_tilde, sine_type

    alpha = _get(cfg, "alpha")
    beta = _get(cfg, "beta")
    theta0 = _get(cfg, "theta0")
    r0 = _get(cfg, "R0")
    r_alpha = _get(cfg, "R_alpha", float, r0)
    r_beta = _get(cfg, "R_beta", float, r0)
    z0_mod = _get(cfg, "z0_mod", float, r0)
    points = _get(cfg, "points", int, 181)
    if points < 2:
        raise ConfigError("points must be >= 2")
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
        circ = circle_type(r_alpha, r_beta, alpha, beta, theta)
        if abs(theta - theta0) < 0.5 * math.pi:
            rt = r_tilde(z0_mod, theta, theta0)[0]
        else:
            rt = float("nan")
        try:
            fin = final_type((theta_in,), (theta0,), (r0,), (profile,))[0]
        except DomainError:
            fin = float("nan")
        rows.append([theta, fz, sine, circ, rt, fin])
    _write_csv(
        out / "predict_type.csv",
        ["theta", "fz_type", "sine_type", "circle_type", "r_tilde", "final_type"],
        rows,
    )
    _write_json(
        out / "predict_type.json",
        {
            "command": "predict-type",
            "alpha": alpha,
            "beta": beta,
            "theta0": theta0,
            "R0": r0,
            "points": points,
        },
    )
    return EXIT_OK


def _max_order(cfg: dict, default: int) -> int:
    max_order = _get(cfg, "max_order", int, default)
    if max_order < 0:
        raise ConfigError(f"max_order must be >= 0, got {max_order}")
    return max_order


def _cmd_verify(cfg: dict, out: Path) -> int:
    suite = _require(cfg, "suite", str)
    if suite == "coherence":
        from .families import check_coherence, family_from_series

        tol = _get(cfg, "tol", float, 1e-6)
        if "series" in cfg or "z0" in cfg:
            ser = _series_from(cfg)
            fam = family_from_series(ser, _z0_from(cfg))
        else:
            entry = _entry(cfg)
            fam = entry.known.get("total_family")
            if fam is None:
                raise ConfigError(f"entry {entry.id!r} has no total family")
        rep = check_coherence(
            fam,
            tol,
            probe=_probe_from(cfg) if "probe" in cfg else None,
            max_order=_max_order(cfg, 3),
        )
        ok = rep.ok() and not rep.probe_failures and rep.checked_pairs > 0
        _write_json(out / "coherence.json", {"ok": ok, "report": rep.to_json()})
        return EXIT_OK if ok else EXIT_VERDICT_FAIL
    if suite == "pl":
        from .flatness_bounds import pl_check
        from .geometry import Polysector

        entry = _entry(cfg)
        poly = Polysector.from_json(_require(cfg, "polysector", dict))
        rep = pl_check(
            entry.fn,
            poly,
            boundary_density=_get(cfg, "boundary_density", int, 6),
            interior_samples=_get(cfg, "interior_samples", int, 6),
            tol=_get(cfg, "tol", float, 1e-9),
            growth_attestation=cfg.get("growth_attestation"),
        )
        _write_json(out / "pl.json", {"ok": rep.ok(), "report": rep.to_json()})
        return EXIT_OK if rep.ok() else EXIT_VERDICT_FAIL
    if suite == "remainder":
        entry = _entry(cfg)
        profile = entry.known.get("type_profile")
        if profile is None:
            raise ConfigError(f"entry {entry.id!r} has no type law to compare with")
        rel_tol = _get(cfg, "rel_tol", float, 0.15)
        results = []
        ok = True
        for theta_t, rates, _ in _remainder_fits(cfg, entry, _radii_from(cfg)):
            law = [p.fn(t) for p, t in zip(profile, theta_t)]
            rel = max(abs(r - l) / l for r, l in zip(rates, law))
            ok = ok and rel <= rel_tol
            results.append(
                {"theta": list(theta_t), "fitted": list(rates), "law": law, "rel_err": rel}
            )
        _write_json(out / "remainder.json", {"ok": ok, "rel_tol": rel_tol, "directions": results})
        return EXIT_OK if ok else EXIT_VERDICT_FAIL
    if suite == "first-order":
        from .families import check_first_order_coherence

        entry = _entry(cfg)
        fam = entry.known.get("total_family")
        if fam is None:
            raise ConfigError(f"entry {entry.id!r} has no total family")
        rep = check_first_order_coherence(
            fam, _get(cfg, "tol", float, 1e-6), max_order=_max_order(cfg, 2)
        )
        ok = rep.ok() and not rep.probe_failures and rep.checked_pairs > 0
        _write_json(out / "first_order.json", {"ok": ok, "report": rep.to_json()})
        return EXIT_OK if ok else EXIT_VERDICT_FAIL
    raise ConfigError(f"unknown verify suite {suite!r}")


def _cmd_interpolate(cfg: dict, out: Path) -> int:
    from . import testbed
    from .families import element_coefficients
    from .transforms import interpolate_first_order
    from .typecalc import TypeProfile

    name = _require(cfg, "testbed", str)
    if name != "rat2":
        raise ConfigError("interpolate currently drives the rat2 first-order family")
    opening = _get(cfg, "opening", float, 1.2)
    cap = _get(cfg, "cap", int, 16)
    z0 = _z0_from(cfg) if "z0" in cfg else (0.92, 0.92)
    fam = testbed.rat2_total_family(opening=opening, cap=cap)
    profiles = [TypeProfile.constant(-opening, opening, 1.0)] * 2
    inner = _probe_from(
        cfg, "inner_probe", r0=0.3, ratio=0.7, steps=20, tol=1e-11, circle_frac=0.75, circle_nodes=128
    )
    samples = _get(cfg, "samples", _floats, [0.02 * 1.13**k for k in range(10)])
    orders = _get(cfg, "orders", int, 3)
    if not samples or orders < 0:
        raise ConfigError("interpolate needs at least one sample and orders >= 0")
    probe = _probe_from(
        cfg, "probe", r0=0.2, ratio=0.75, steps=16, tol=1e-5, circle_frac=0.75, circle_nodes=128
    )
    tol = _get(cfg, "tol", float, 1e-4)
    func = interpolate_first_order(
        fam,
        profiles,
        z0,
        probe=inner,
        coeff_cap=_get(cfg, "coeff_cap", int, 10),
        precheck_tol=_get(cfg, "precheck_tol", lambda v: None if v is None else float(v), 1e-3),
    )
    rows = []
    worst = 0.0
    for axis in (0, 1):
        # one ladder per axis: every order, every sample point a batch column
        vals, errs, _, _ = element_coefficients(
            [func], (axis,), [(k,) for k in range(orders + 1)], probe, [(sv,) for sv in samples]
        )
        for k in range(orders + 1):
            for i, sv in enumerate(samples):
                value = complex(vals[k, 0, i])
                true = (-1.0) ** k / (1.0 + sv)
                err = abs(value - true)
                worst = max(worst, err)
                rows.append([axis + 1, k, sv, value.real, value.imag, true, err, float(errs[k, 0, i])])
    _write_csv(
        out / "interpolate.csv",
        ["axis", "order", "z", "re_extracted", "im_extracted", "true", "abs_err", "probe_err"],
        rows,
    )
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
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        if command == "list-testbed":
            cfg = _load_config(args.config) if args.config else {}
        else:
            if not args.config:
                raise ConfigError(f"{command} requires --config")
            cfg = _load_config(args.config)
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
