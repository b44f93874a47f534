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
configs (a nested object before its library module loads) and the command line
(``--config PATH``, ``--out DIR`` or ``--opt=VALUE``; any other argument exits
2).  Importing it loads only the standard library and ``errors``; ``commands``,
the subcommand bodies and the report writers, loads after the config has been
read.  Each subcommand imports what it runs: ``predict-type`` loads only
``typecalc``, ``list-testbed`` only the static ``catalogue``, neither numpy.  The
other subcommands load numpy, ``transforms``, ``series`` and ``geometry``,
``families`` for the ladders and App_N, and ``testbed`` when the config names
an entry; ``typecalc`` and ``flatness_bounds`` load only where used.
The CLI process runs numpy's BLAS on one thread: importing this module sets
``OPENBLAS_NUM_THREADS=1``, before numpy can load, unless the caller already
set it.
"""

import contextlib
import json
import math
import os
import sys
from pathlib import Path

# Before numpy loads: an OpenBLAS worker thread only spins on arrays this small.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CoherenceError, ConfigError, PolygevreyError, ProbeError, TailError

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_INTERNAL = 70


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


def _positive(val) -> float:
    """A JSON number above 0: a tolerance."""
    if not (val := _real(val)) > 0:
        raise ValueError("must be positive")
    return val


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


_AT_LEAST_0 = (0, math.inf)
_RAYS = {"testbed": (_text, _REQUIRED), "directions": (_directions, _REQUIRED), "radii": (_radii, _REQUIRED)}
_FIT = {  # the remainder fit of type-fit gevrey and verify remainder
    **_RAYS, "n_max": (_int, 20), "window": (_int_pair, lambda c: [4, max(6, c["n_max"] - 4)]),
    "noise_floor": (_real, 1e-9, _AT_LEAST_0),
}
_TABLES = {
    "transform": {
        "testbed": (_text, None), "series": (_series, None), "z0": (_z0, _REQUIRED),
        "tol": (_positive, 1e-10), "direction": (_floats, _REQUIRED), "radii": (_radii, _REQUIRED),
    },
    "type-fit gevrey": _FIT,
    "type-fit flat": _RAYS,
    "predict-type": {
        "alpha": (_real, _REQUIRED), "beta": (_real, _REQUIRED), "theta0": (_real, _REQUIRED),
        "R0": (_real, _REQUIRED), "R_alpha": (_real, lambda c: c["R0"]),
        "R_beta": (_real, lambda c: c["R0"]), "z0_mod": (_real, lambda c: c["R0"]),
        # 10,000: each angle costs about 50 us, so the largest grid runs in about half a second
        "points": (_int, 181, (2, 10_000)),
    },
    "verify coherence": {
        "testbed": (_text, None), "series": (_series, None), "z0": (_z0, None),
        "tol": (_positive, 1e-6), "max_order": (_int, 3, _AT_LEAST_0),
    },
    "verify pl": {
        "testbed": (_text, _REQUIRED), "polysector": (_polysector, _REQUIRED), "tol": (_positive, 1e-9),
        "growth_attestation": (_text, None),
    },
    "verify remainder": {**_FIT, "rel_tol": (_positive, 0.15)},
    "verify first-order": {
        "testbed": (_text, _REQUIRED), "tol": (_positive, 1e-6), "max_order": (_int, 2, _AT_LEAST_0),
    },
    "interpolate": {
        "testbed": (_text, _REQUIRED), "opening": (_real, 1.2),
        # 45: the largest degree at which laplace_monomials' tail term count is tested
        "cap": (_int, 16, (-math.inf, 45)), "z0": (_z0, [0.92, 0.92]),
        "samples": (_floats, [0.02 * 1.13**k for k in range(10)]), "orders": (_int, 3, _AT_LEAST_0),
        "tol": (_positive, 1e-4), "coeff_cap": (_int, 10, _AT_LEAST_0),
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


_COMMANDS = sorted({name.partition(" ")[0] for name in _TABLES})


def _options(args: list[str]) -> dict[str, str]:
    """``--config PATH`` and ``--out DIR`` (or ``--opt=VALUE``; a repeat overrides), or ``{"help": ""}`` for -h.

    Any other argument, or a value missing or starting with ``-`` (write ``--out=-x``), is a ValueError.
    """
    opts, rest = {}, iter(args)
    for arg in rest:
        if arg in ("-h", "--help"):
            return {"help": ""}
        name, eq, value = arg.partition("=")
        if name not in ("--config", "--out"):
            raise ValueError(f"unrecognized argument {arg!r}")
        if not eq and (value := next(rest, "-")).startswith("-"):
            raise ValueError(f"option {name} expects a value")
        opts[name[2:]] = value
    return opts


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: polygevrey <command> [--config PATH] [--out DIR]")
        print("commands:", ", ".join(_COMMANDS))
        return EXIT_UNKNOWN_COMMAND
    command = argv[0]
    if command in ("-h", "--help"):
        print(__doc__)
        print("commands:", ", ".join(_COMMANDS))
        return EXIT_OK
    if command not in _COMMANDS:
        print(f"unknown subcommand {command!r}", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    usage = f"usage: polygevrey {command} [--config PATH] [--out DIR]"
    try:
        opts = _options(argv[1:])
    except ValueError as exc:
        print(f"{usage}\npolygevrey {command}: error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if "help" in opts:
        print(usage)
        return EXIT_OK
    # list-testbed only prints unless given --out; the other commands default to "."
    out = None if "out" not in opts and command == "list-testbed" else Path(opts.get("out") or ".")
    try:
        if not opts.get("config") and command != "list-testbed":
            raise ConfigError(f"{command} requires --config")
        raw = _load_config(opts["config"]) if opts.get("config") else {}
        cfg = _read(raw, _table(command, raw))
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # an --out that is, or lies under, a file is a usage error, not a bug
                raise ConfigError(f"--out {out}: {exc.strerror}") from None
        from . import commands  # the command bodies compile only for a config that passed

        return EXIT_OK if commands.HANDLERS[command](cfg, out) else EXIT_VERDICT_FAIL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (TailError, ProbeError, CoherenceError) as exc:
        from .commands import write_json

        print(f"numerical failure: {exc}", file=sys.stderr)
        write_json(out / "error.json", {"error": str(exc), "command": command})
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
            from .commands import write_json

            with contextlib.suppress(OSError):
                write_json(out / "error.json", {"error": message, "command": command, "internal": True})
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
