"""The subcommand bodies and report writers of ``cli``, which imports this module once a config has passed.

Each handler imports the library modules it runs and returns its verdict.  Nothing here imports
``cli``: under ``python -m polygevrey.cli`` that would compile and run ``cli`` a second time.
"""

import json
import math
from pathlib import Path

from .errors import ConfigError, DomainError


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    # a NaN or an infinity in a report is a bug: ValueError, exit 70
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


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


def _write_coherence(path: Path, rep) -> bool:
    """Write a coherence or first-order report and return its ``ok()`` verdict."""
    ok = rep.ok()
    report = {key: getattr(rep, key) for key in ("checked_pairs", "max_residual", "tolerance", "missing")}
    for key, last in (("failures", "residual"), ("probe_failures", "note")):
        report[key] = [{"J": list(j), "L": list(l), "N_J": list(nj), "N_L": list(nl), last: v}
                       for j, l, nj, nl, v in getattr(rep, key)]
    write_json(path, {"ok": ok, "report": report})
    return ok


def _remainder_fits(cfg: dict, entry) -> list[tuple]:
    """(direction, rates, rms, law) of the Gevrey fit to the constants of f - App_(n,...,n), n <= n_max.

    The family is the one ``family_from_series`` builds from the entry's series and z0.  ``law``
    is the entry's ``type_profile`` at the direction, never None: an entry with no type law is a
    ConfigError, and every entry with one has a series and z0.
    """
    from .families import family_from_series, fit_type_from_remainders, remainder_constants

    profile = entry.known.get("type_profile")
    if profile is None:
        raise ConfigError(f"entry {entry.id!r} has no type law to compare with")
    fam = family_from_series(entry.known["series"], entry.known["z0"])
    fits = []
    for theta_t in cfg["directions"]:
        cons = remainder_constants(
            entry.fn, fam, theta_t, [cfg["radii"]] * entry.dim,
            [(n,) * entry.dim for n in range(cfg["n_max"] + 1)], noise_floor=cfg["noise_floor"],
        )
        rates, rms = fit_type_from_remainders(cons, window=cfg["window"])
        fits.append((theta_t, rates, rms, [p.fn(t) for p, t in zip(profile, theta_t)]))
    return fits


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(cfg: dict, out: Path) -> bool:
    import numpy as np

    from .series import _lgamma_sum
    from .transforms import brg_function, laplace_bound

    z0, direction = cfg["z0"], cfg["direction"]
    if len(direction) != len(z0):
        raise ConfigError(f"direction has {len(direction)} angles, z0 has {len(z0)} components")
    ser = _series_from(cfg)
    func = brg_function(ser, z0, cfg["tol"])  # rejects z0 outside the Borel disc or an uncontrolled tail
    pts = np.asarray(
        [[r * complex(math.cos(t), math.sin(t)) for t in direction] for r in cfg["radii"]],
        dtype=complex,
    )
    vals = func.eval_many(pts)
    errs = laplace_bound(ser, z0, pts)  # the dropped Borel tail is <= tol
    header = [f"{part}_z{j + 1}" for j in range(len(z0)) for part in ("re", "im")]
    header += ["re_F", "im_F", "est_err"]
    rows = [[x for w in p for x in (w.real, w.imag)] + [v.real, v.imag, float(e)]
            for p, v, e in zip(pts, vals, errs)]
    _write_csv(out / "transform.csv", header, rows)
    coeff_rows = []
    for ix, c in ser.items():  # |f_N| / N! in log space: N! overflows past N ~ 170
        ratio = math.exp(math.log(abs(c)) - _lgamma_sum(ix))
        coeff_rows.append([" ".join(str(n) for n in ix), abs(c), ratio])
    _write_csv(out / "series.csv", ["N", "abs_coeff", "abs_coeff_over_factorial"], coeff_rows)
    write_json(out / "transform.json", {
        "command": "transform", "dim": len(z0), "points": len(rows), "method": "closed-form",
        "z0": [[w.real, w.imag] for w in z0], "tol": cfg["tol"],
    })
    return True


def _cmd_type_fit(cfg: dict, out: Path) -> bool:
    mode = cfg["mode"]
    entry = _entry(cfg)
    rows = []
    report = {"command": "type-fit", "mode": mode, "testbed": entry.id, "directions": []}
    if mode == "gevrey":
        for theta_t, rates, rms, law in _remainder_fits(cfg, entry):
            rows.append(list(theta_t) + list(rates) + [rms] + law)
            report["directions"].append(
                {"theta": list(theta_t), "fitted": list(rates), "rms": rms, "law": law}
            )
        header = [f"theta{j + 1}" for j in range(entry.dim)]
        header += [f"R{j + 1}_fit" for j in range(entry.dim)] + ["rms"]
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
    write_json(out / "type_fit.json", report)
    return True


def _cmd_predict_type(cfg: dict, out: Path) -> bool:
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
        sine = sine_type(theta, alpha, beta, theta0, r0)
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
    write_json(out / "predict_type.json", {
        "command": "predict-type", "alpha": alpha, "beta": beta, "theta0": theta0, "R0": r0, "points": points,
    })
    return True


def _cmd_verify(cfg: dict, out: Path) -> bool:
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
        write_json(out / "pl.json", {"ok": rep.ok(), "report": report})
        return rep.ok()
    if suite == "remainder":
        rel_tol = cfg["rel_tol"]
        results, ok = [], True
        for theta_t, rates, _, law in _remainder_fits(cfg, _entry(cfg)):
            rel = max(abs(r - l) / l for r, l in zip(rates, law))
            ok = ok and rel <= rel_tol
            results.append({"theta": list(theta_t), "fitted": list(rates), "law": law, "rel_err": rel})
        write_json(out / "remainder.json", {"ok": ok, "rel_tol": rel_tol, "directions": results})
        return ok
    # first-order
    from .families import check_coherence

    rep = check_coherence(_total_family(cfg).first_order(cfg["max_order"]), cfg["tol"], cfg["max_order"])
    return _write_coherence(out / "first_order.json", rep)


def _cmd_interpolate(cfg: dict, out: Path) -> bool:
    from . import testbed
    from .families import ProbeSpec, element_coefficients
    from .transforms import interpolate_first_order

    if cfg["testbed"] != "rat2":
        raise ConfigError("interpolate currently drives the rat2 first-order family")
    samples, orders = cfg["samples"], cfg["orders"]
    fam = testbed.rat2_total_family(opening=cfg["opening"], cap=cfg["cap"])
    outside = [sv for sv in samples if not all(sec.contains(sv) for sec in fam.host.sectors)]
    if outside:
        raise ConfigError(f"config key 'samples' lists points outside the sector: {outside}")
    if orders > cfg["cap"] >= 0:  # a negative cap stores no element, which interpolate_first_order reports
        raise ConfigError(f"config key 'orders' ({orders}) exceeds 'cap' ({cfg['cap']}), the family's last order")
    outer = ProbeSpec(r0=0.2, ratio=0.75, circle_nodes=128)
    func = interpolate_first_order(fam, cfg["z0"], cfg["coeff_cap"])
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
    write_json(
        out / "interpolate.json",
        {"command": "interpolate", "worst_abs_err": worst, "tol": tol, "ok": worst <= tol,
         "provenance": func.provenance},
    )
    return worst <= tol


def _cmd_list_testbed(cfg: dict, out: Path | None) -> bool:
    from .catalogue import CATALOGUE

    lines, payload = [], []
    for entry_id, (dim, notes) in sorted(CATALOGUE.items()):
        fields = {key: notes[key] for key in sorted(notes)}
        payload.append({"id": entry_id, "dim": dim, "known": fields})
        lines.append(f"{entry_id} (dim {dim})")
        for key, note in fields.items():
            lines.append(f"    {key}: {note}")
    print("\n".join(lines))
    if out is not None:
        write_json(out / "testbed.json", {"entries": payload})
    return True


HANDLERS = {"transform": _cmd_transform, "type-fit": _cmd_type_fit, "predict-type": _cmd_predict_type,
            "verify": _cmd_verify, "interpolate": _cmd_interpolate, "list-testbed": _cmd_list_testbed}
