import ast
import cmath
import copy
import functools
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polygevrey

from polygevrey import cli
from polygevrey.cli import (
    EXIT_INTERNAL,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNKNOWN_COMMAND,
    EXIT_VERDICT_FAIL,
    main,
)

PI = math.pi


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def with_fn(entry, fn):
    """A testbed entry with the fields of ``entry`` but the function ``fn``."""
    from polygevrey.testbed import RegistryEntry

    return RegistryEntry(entry.id, fn, entry.known, entry.notes)


# (command, config, a text its config error must contain)
_BAD_VALUES = [
    ("transform", {"testbed": "euler", "z0": [0.5], "tol": "tight", "direction": [0.0], "radii": [0.4]},
     "config key 'tol'"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": ["east"], "radii": [0.4]},
     "config key 'direction'"),
    ("transform", {"testbed": "euler", "z0": [["a", 0]], "direction": [0.0], "radii": [0.4]},
     "config key 'z0'"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": {"r0": "x", "ratio": 0.7, "count": 3}},
     "radii key 'r0'"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": [0.4, None]},
     "config key 'radii'"),
    ("transform", {"series": {"dim": "two", "coeffs": []}, "z0": [0.5], "direction": [0.0], "radii": [0.4]},
     "series key 'dim'"),
    ("transform", {"series": {"dim": 1, "coeffs": [{"index": ["a"], "re": 1.0}]}, "z0": [0.5], "direction": [0.0], "radii": [0.4]},
     "coefficient key 'index'"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0, 0.1], "radii": [0.4]},
     "direction has 2 angles, z0 has 1"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": []},
     "config key 'radii' has a bad value []: lists no value"),
    ("verify", {"suite": "coherence", "testbed": "rat2", "tol": "tight"},
     "config key 'tol'"),
    ("verify", {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [{"alpha": "x", "beta": 1.0, "rho": 1.0}]}},
     "sector key 'alpha'"),
    ("verify", {"suite": "pl", "testbed": "poly", "tol": [1e-9], "polysector": {"sectors": [{"alpha": -1.0, "beta": 1.0, "rho": 1.0}] * 2}},
     "config key 'tol'"),
    ("interpolate", {"testbed": "rat2", "opening": "wide"},
     "config key 'opening'"),
    ("interpolate", {"testbed": "rat2", "z0": [0.92, ["a", 0]]},
     "config key 'z0'"),
    ("interpolate", {"testbed": "rat2", "tol": "loose"},
     "config key 'tol'"),
    ("interpolate", {"testbed": "rat2", "coeff_cap": -1},
     "config key 'coeff_cap' must lie in [0, inf]"),
    ("verify", {"suite": "remainder", "testbed": "euler", "directions": [0.0], "radii": [0.4, 0.3], "window": [4]},
     "config key 'window'"),
    ("type-fit", {"testbed": "euler", "directions": [[0.0, "x"]], "mode": "flat", "radii": [0.4]},
     "config key 'directions'"),
    ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": 0.0, "R0": 1.0, "points": "many"},
     "config key 'points'"),
    # a verdict or a fit over no direction
    ("verify", {"suite": "remainder", "testbed": "euler", "directions": [], "radii": [0.4, 0.3]},
     "config key 'directions' has a bad value []: lists no direction"),
    ("type-fit", {"testbed": "euler", "mode": "gevrey", "directions": [], "radii": [0.4, 0.3]},
     "config key 'directions' has a bad value []: lists no direction"),
    ("type-fit", {"testbed": "flat1", "mode": "flat", "directions": [], "radii": [0.4, 0.3]},
     "config key 'directions' has a bad value []: lists no direction"),
    # a misspelt top-level key, an unknown grid key, a cap past the tested degree 45
    ("interpolate", {"testbed": "rat2", "cpa": 3, "tol": 1e-4, "samples": [0.03]},
     "unknown config key(s) ['cpa']"),
    ("verify", {"suite": "coherence", "testbed": "rat2", "max_ordr": 1},
     "unknown config key(s) ['max_ordr']"),
    ("interpolate", {"testbed": "rat2", "cap": 300},
     "config key 'cap' must lie in"),
    ("interpolate", {"testbed": "rat2", "cap": 46},
     "config key 'cap' must lie in"),
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0],
                   "radii": {"r0": 0.4, "ratio": 0.7, "count": 3, "cuont": 4}},
     "unknown radii key(s) ['cuont']"),
    ("verify", {"suite": "pl", "testbed": "poly", "growth_attestation": 5,
                "polysector": {"sectors": [{"alpha": -1.0, "beta": 1.0, "rho": 1.0}] * 2}},
     "config key 'growth_attestation'"),
    # a tolerance of 0 or below, and a negative noise floor
    ("transform", {"testbed": "euler", "z0": [0.5], "tol": -1, "direction": [0.0], "radii": [0.4]},
     "config key 'tol' has a bad value -1: must be positive"),
    ("verify", {"suite": "coherence", "testbed": "rat2", "tol": 0},
     "config key 'tol' has a bad value 0: must be positive"),
    ("verify", {"suite": "pl", "testbed": "poly", "tol": -1,
                "polysector": {"sectors": [{"alpha": -1.0, "beta": 1.0, "rho": 1.0}] * 2}},
     "config key 'tol' has a bad value -1: must be positive"),
    ("verify", {"suite": "remainder", "testbed": "euler", "directions": [0.0], "radii": [0.4, 0.3], "rel_tol": -0.1},
     "config key 'rel_tol' has a bad value -0.1: must be positive"),
    ("verify", {"suite": "first-order", "testbed": "rat2", "tol": 0},
     "config key 'tol' has a bad value 0: must be positive"),
    ("interpolate", {"testbed": "rat2", "tol": -1},
     "config key 'tol' has a bad value -1: must be positive"),
    ("verify", {"suite": "remainder", "testbed": "euler", "directions": [0.0], "radii": [0.4, 0.3], "noise_floor": -1e-9},
     "config key 'noise_floor' must lie in [0, inf]"),
    # a grid too long to run
    ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": 0.0, "R0": 1.0, "points": 10_001},
     "config key 'points' must lie in [2, 10000]"),
    # explicit radii out of order, a config that is not an object, a plateau outside the sector
    ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": [0.3, 0.4]},
     "config key 'radii' has a bad value [0.3, 0.4]: explicit radii must be strictly decreasing"),
    ("transform", [{"testbed": "euler"}],
     "config root must be a JSON object"),
    ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": 1.5, "R0": 1.0},
     "need alpha < theta0 < beta"),
    # no function to run, or a testbed entry without the part the command reads
    ("verify", {"suite": "coherence"},
     "config needs either 'series' or 'testbed'"),
    ("transform", {"testbed": "flat1", "z0": [0.5], "direction": [0.0], "radii": [0.4]},
     "testbed entry 'flat1' carries no series"),
    ("verify", {"suite": "coherence", "testbed": "euler"},
     "entry 'euler' has no total family"),
    ("type-fit", {"testbed": "flat1", "mode": "gevrey", "directions": [0.0], "radii": [0.4, 0.3]},
     "entry 'flat1' has no type law to compare with"),
    ("verify", {"suite": "coherence", "series": {"dim": 1, "coeffs": [{"index": [0], "re": 1.0}]}},
     "config key 'z0' is required with 'series'"),
    ("verify", {"suite": "remainder", "testbed": "rat2", "directions": [[0.0, 0.0]], "radii": [0.4, 0.3]},
     "entry 'rat2' has no type law to compare with"),
    # a nested table that is not an object
    ("transform", {"series": 5, "z0": [0.5], "direction": [0.0], "radii": [0.4]},
     "series must be a JSON object"),
    # a z0 list of three numbers, theta0 below alpha, an opening of pi or more (the sine and
    # circle laws need less), and an entry with a series and z0 but no type law
    ("transform", {"testbed": "euler", "z0": [[0.5, 0.0, 0.0]], "direction": [0.0], "radii": [0.4]},
     "config key 'z0' has a bad value [[0.5, 0.0, 0.0]]: z0 entries must be numbers or [re, im] pairs"),
    ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": -1.5, "R0": 1.0},
     "need alpha < theta0 < beta"),
    ("predict-type", {"alpha": 0.0, "beta": 3.5, "theta0": 1.0, "R0": 1.0},
     "sine law needs opening < pi"),
    ("type-fit", {"testbed": "brg_const2", "mode": "gevrey", "directions": [[0.0, 0.0]], "radii": [0.4, 0.3]},
     "entry 'brg_const2' has no type law to compare with"),
]


# the parsers of number keys: a scalar or a list of them, and whether the numbers are integers
_SCALARS = {cli._real: False, cli._positive: False, cli._rho: False, cli._int: True}
_LISTS = {cli._floats: False, cli._radii: False, cli._z0: False, cli._directions: False,
          cli._ints: True, cli._int_pair: True}
_NUMBERS = {**_SCALARS, **_LISTS}
_SECTOR_OK = {"alpha": -1.0, "beta": 1.0, "rho": 1.0}
_PL_OK = {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [_SECTOR_OK] * 2}}
_SERIES_OK = {"series": {"dim": 1, "coeffs": [{"index": [0], "re": 1.0}]}, "z0": [0.5],
              "direction": [0.0], "radii": [0.4]}
_RAYS_OK = {"testbed": "euler", "directions": [0.0], "radii": [0.4]}
# (name, table, key prefix of its messages, command, a config it accepts, path to the table's object)
_MOUNTS = [
    *[(name.replace(" ", "-"), cli._TABLES[name], "config", name.partition(" ")[0], cfg, ()) for name, cfg in [
        ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": [0.4]}),
        ("type-fit gevrey", {"mode": "gevrey", **_RAYS_OK}),
        ("type-fit flat", {"mode": "flat", **_RAYS_OK}),
        ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": 0.0, "R0": 1.0}),
        ("verify coherence", {"suite": "coherence", "testbed": "rat2"}),
        ("verify pl", _PL_OK),
        ("verify remainder", {"suite": "remainder", **_RAYS_OK}),
        ("verify first-order", {"suite": "first-order", "testbed": "rat2"}),
        ("interpolate", {"testbed": "rat2"}),
    ]],
    ("series", cli._SERIES, "series", "transform", _SERIES_OK, ("series",)),
    ("coefficient", cli._COEFFICIENT, "coefficient", "transform", _SERIES_OK, ("series", "coeffs", 0)),
    ("grid", cli._GRID, "radii", "transform", {**_SERIES_OK, "radii": {"r0": 0.4, "ratio": 0.7, "count": 3}},
     ("radii",)),
    ("sector", cli._SECTOR, "sector", "verify", _PL_OK, ("polysector", "sectors", 0)),
]


def _number_key_cases():
    """A string, a bool and, for an integer key, 2.5 in place of each number of every key table."""
    cases = []
    for name, table, where, command, base, path in _MOUNTS:
        for key, (parse, *_) in table.items():
            if parse not in _NUMBERS:
                continue
            for bad in ["2", True] + [2.5] * _NUMBERS[parse]:
                value = bad if parse in _SCALARS else [bad, 9][: 1 + (parse is cli._int_pair)]
                cfg = copy.deepcopy(base)
                obj = cfg
                for step in path:
                    obj = obj[step]
                obj[key] = value
                cases.append(pytest.param(command, cfg, f"{where} key {key!r}", id=f"{name}-{key}-{bad!r}"))
    return cases


class TestDispatch:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_UNKNOWN_COMMAND

    def test_no_args_usage(self):
        assert main([]) == EXIT_UNKNOWN_COMMAND

    def test_help_lists_commands(self, capsys):
        # --help in place of a subcommand prints the module docstring and the subcommands
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == f"{cli.__doc__}\ncommands: {', '.join(cli._COMMANDS)}\n"

    def test_missing_config(self, tmp_path):
        assert main(["transform", "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_bad_config_types(self, tmp_path):
        cfg = write(tmp_path, "bad.json", {"alpha": "x"})
        assert main(["predict-type", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_unreadable_config(self, tmp_path):
        assert main(["transform", "--config", str(tmp_path / "none.json")]) == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "command, args, code",
        [
            ("predict-type", ["--config={cfg}", "--out={out}"], EXIT_OK),
            ("predict-type", ["--out", "{out}", "--config", "{cfg}"], EXIT_OK),
            ("predict-type", ["--out", "{tmp}/first", "--config", "{cfg}", "--out", "{out}"], EXIT_OK),
            ("predict-type", ["-h"], EXIT_OK),
            ("predict-type", ["--config", "{cfg}", "--help", "--out", "{out}"], EXIT_OK),
            ("predict-type", ["--config", "{cfg}", "--out", "{out}", "--points", "5"], EXIT_SCHEMA),
            ("predict-type", ["--config", "{cfg}", "--out"], EXIT_SCHEMA),
            ("predict-type", ["--out", "--config", "{cfg}"], EXIT_SCHEMA),
            ("predict-type", ["--config", "{cfg}", "--out", "{out}", "extra"], EXIT_SCHEMA),
            ("predict-type", ["--conf", "{cfg}", "--out", "{out}"], EXIT_SCHEMA),
            ("list-testbed", ["--out", "{file}"], EXIT_SCHEMA),
            ("predict-type", ["--config", "{cfg}", "--out", "{file}/sub"], EXIT_SCHEMA),
        ],
        ids=["equals-forms", "out-first", "last-repeat-wins", "h", "help", "unknown-option",
             "missing-value", "option-as-value", "stray-positional", "abbreviation",
             "out-is-a-file", "out-under-a-file"],
    )
    def test_options(self, tmp_path, capsys, command, args, code):
        # --config and --out, spelt out in full, in either order and either
        # form; -h and --help print the usage; any other argument exits 2
        # before a directory is made or a report written, and so does an
        # --out that names a file or lies under one
        cfg = write(tmp_path, "cfg.json", {"alpha": 0.0, "beta": 1.5708, "theta0": 0.7854, "R0": 1.0, "points": 5})
        out = tmp_path / "out"
        argv = [command] + [a.format(cfg=cfg, out=out, tmp=tmp_path, file=cfg) for a in args]
        assert main(argv) == code
        captured = capsys.readouterr()
        helped = "-h" in args or "--help" in args
        assert (out / "predict_type.json").exists() == (code == EXIT_OK and not helped)
        assert not (tmp_path / "first").exists()
        if helped:
            assert captured.out.startswith("usage: polygevrey predict-type [--config PATH] [--out DIR]")
        elif "{file}" in args[-1]:
            assert captured.err.startswith(f"config error: --out {cfg}")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        elif code == EXIT_SCHEMA:
            assert "polygevrey predict-type: error: " in captured.err
            assert not out.exists()

    def test_run_as_module_imports_cli_once(self, tmp_path):
        # under -m the running module is __main__; a command module that
        # imported polygevrey.cli would compile and run it a second time
        src = str(Path(polygevrey.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "polygevrey.cli", "list-testbed", "--out", str(tmp_path)],
            env=env, timeout=60, capture_output=True, text=True,
        )
        assert res.returncode == EXIT_OK, res.stderr
        imported = [line.rpartition("|")[2].strip() for line in res.stderr.splitlines() if "|" in line]
        assert "polygevrey.commands" in imported
        assert "polygevrey.cli" not in imported

    @pytest.mark.parametrize(
        "command, cfg, must", _BAD_VALUES, ids=[f"{case[0]}-cfg{i}" for i, case in enumerate(_BAD_VALUES)]
    )
    def test_bad_config_values(self, tmp_path, capsys, command, cfg, must):
        # each case exits 2 for its own reason: the message names its key or rule
        path = write(tmp_path, "bad.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert f"config error: {must}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, must",
        [
            ("verify", '{"suite": "pl", "testbed": "poly", "tol": NaN, "polysector": {"sectors": %s}}'
             % json.dumps([{"alpha": -1.0, "beta": 1.0, "rho": 1.0}] * 2), "non-finite number NaN"),
            ("transform", '{"testbed": "euler", "z0": [0.5], "tol": Infinity, "direction": [0.0], "radii": [0.4]}',
             "non-finite number Infinity"),
            ("predict-type", '{"alpha": -1.0, "beta": 1.0, "theta0": 0.0, "R0": NaN}', "non-finite number NaN"),
            ("verify", '{"suite": "coherence", "testbed": "rat2", "tol": 1e400}', "non-finite number 1e400"),
            ("interpolate", '{"testbed": "rat2", "z0": [-Infinity, 0.92]}', "non-finite number -Infinity"),
            ("verify", '{"suite": "coherence", "testbed": "rat2", "tol": 1%s}' % ("0" * 400),
             "config key 'tol' has a bad value 1000"),
        ],
        ids=["nan", "infinity", "predict-nan", "overflow", "minus-infinity", "huge-int"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, command, text, must):
        # json reads NaN, Infinity and 1e400 as floats, and a float() of a
        # 401-digit integer overflows: each is a config error before anything runs
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and must in err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, must", _number_key_cases())
    def test_number_keys_take_json_numbers(self, tmp_path, capsys, command, cfg, must):
        # a number written as a string, a bool, or a fraction where an integer
        # is declared is a config error naming its key, before anything runs
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "bad.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        assert f"config error: {must} has a bad value" in capsys.readouterr().err
        assert not out.exists()

    def test_every_key_parser_is_classified(self):
        # a key table's parser is a number parser, or reads text or nested objects
        tables = [table for _, table, *_ in _MOUNTS] + [cli._POLYSECTOR]
        others = {cli._text, cli._series, cli._polysector}
        unknown = [key for table in tables for key, (parse, *_) in table.items()
                   if parse not in _NUMBERS and parse not in others and key not in ("coeffs", "sectors")]
        assert not unknown
        assert {id(t) for t in cli._TABLES.values() if t} <= {id(table) for _, table, *_ in _MOUNTS}

    @pytest.mark.parametrize(
        "module, blas, want",
        [
            ("polygevrey", None, {"numpy": False, "scipy": False, "blas": None}),
            ("polygevrey.cli", None, {"numpy": False, "scipy": False, "blas": "1", "deferred": []}),
            ("polygevrey.cli", "3", {"blas": "3"}),
            ("polygevrey.cli, numpy", None, {"numpy": True, "threads": 1}),
        ],
        ids=["package", "cli", "cli-caller-value", "cli-threads"],
    )
    def test_import_boundary(self, module, blas, want):
        # a fresh interpreter: the package and the CLI imports stay light (no
        # numpy, no argparse, no library module but errors, not the command
        # module), and only the CLI pins BLAS to one thread, keeping a value
        # the caller already set; numpy imported after the CLI starts no BLAS
        # worker thread
        if "threads" in want and not sys.platform.startswith("linux"):
            pytest.skip("thread count is read from /proc/self/task")
        src = str(Path(polygevrey.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        code = (
            f"import json, os, sys, {module}\n"
            "task = '/proc/self/task'\n"
            "deferred = ('argparse', 'polygevrey.catalogue', 'polygevrey.commands', 'polygevrey.families',\n"
            "    'polygevrey.flatness_bounds', 'polygevrey.geometry', 'polygevrey.series', 'polygevrey.testbed',\n"
            "    'polygevrey.transforms', 'polygevrey.typecalc')\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules, 'scipy': 'scipy' in sys.modules,\n"
            "    'deferred': [m for m in deferred if m in sys.modules],\n"
            "    'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "    'threads': len(os.listdir(task)) if os.path.isdir(task) else None}))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        facts = json.loads(res.stdout)
        assert {key: facts[key] for key in want} == want

    def test_lazy_exports(self):
        for name in polygevrey.__all__:
            home = importlib.import_module(polygevrey.__name__ + "." + polygevrey._EXPORTS[name])
            assert getattr(polygevrey, name) is getattr(home, name)
        assert polygevrey.testbed is importlib.import_module("polygevrey.testbed")
        assert set(polygevrey.__all__) <= set(dir(polygevrey))
        with pytest.raises(AttributeError):
            polygevrey.no_such_name

    def test_every_exported_function_has_a_caller(self):
        # each exported function and class, and each public method, property
        # and classmethod of an exported class, is used by the library, bound
        # by the benchmark or reached by an acceptance criterion; tests of its
        # own do not count
        root = Path(__file__).resolve().parents[1]
        src = root / "src" / "polygevrey"
        used = set()
        for path in src.glob("*.py"):
            if path.name == "__init__.py":  # the export table only
                continue
            tree = ast.parse(path.read_text())
            own = {}  # id of each node inside a def -> the def's name
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    for inner in ast.walk(node):
                        own.setdefault(id(inner), node.name)
            for node in ast.walk(tree):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and own.get(id(node)) != name:
                    used.add(name)
        named = "\n".join(p.read_text() for p in [*root.glob("bench/*.py"), root / "tests" / "test_acceptance.py"])
        members = (types.FunctionType, property, classmethod, staticmethod, functools.cached_property)
        names = list(polygevrey.__all__)
        for name in polygevrey.__all__:
            obj = getattr(polygevrey, name)
            if isinstance(obj, type) and not issubclass(obj, BaseException):
                names += [
                    f"{name}.{attr}" for attr, member in vars(obj).items()
                    if not attr.startswith("_") and isinstance(member, members)
                ]
        unreached = [
            n for n in names
            if (word := n.rpartition(".")[2]) not in used and not re.search(rf"\b{word}\b", named)
        ]
        assert not unreached, f"exported names that nothing reaches: {unreached}"

    # the paper's single multidirection, which a family read off a function will set (ROADMAP item 8)
    _UNSET_DEFAULTS = {"ProbeSpec.direction"}

    def test_every_default_is_set_by_a_caller(self):
        # each parameter with a default, of each exported callable that a call in
        # src/ or bench/ reaches by name, is set by one of those calls: by
        # keyword, by position, or through * or **; a default no caller moves is
        # a constant
        root = Path(__file__).resolve().parents[1]
        calls = {}
        for path in [*(root / "src" / "polygevrey").glob("*.py"), *root.glob("bench/*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)

        def sets(call, pos, param):
            if any(kw.arg in (None, param.name) for kw in call.keywords):
                return True
            starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
            return param.kind != param.KEYWORD_ONLY and (len(call.args) > pos or any(i <= pos for i in starred))

        unset = set()
        for name in polygevrey.__all__:
            obj = getattr(polygevrey, name)
            if name not in calls or isinstance(obj, type) and "__init__" not in vars(obj):
                continue  # no caller, or the exception types' own (*args) constructor
            for pos, param in enumerate(inspect.signature(obj).parameters.values()):
                if param.default is not param.empty and not any(sets(c, pos, param) for c in calls[name]):
                    unset.add(f"{name}.{param.name}")
        assert self._UNSET_DEFAULTS <= unset, "an allowlisted default now has a caller: unlist it"
        unset = sorted(unset - self._UNSET_DEFAULTS)
        assert not unset, f"defaults that no call in src/ or bench/ sets: {unset}"

    def test_every_config_key_is_set_by_an_example(self):
        # each key a config table declares, nested tables included, is set in a
        # README example or a benchmark config; a setting that only tests change
        # is a constant
        from polygevrey.cli import _COEFFICIENT, _GRID, _POLYSECTOR, _SECTOR, _SERIES, _TABLES

        root = Path(__file__).resolve().parents[1]
        examples = re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(), re.S)
        text = "\n".join(examples) + (root / "bench" / "workloads.py").read_text()
        tables = [*_TABLES.values(), _GRID, _SERIES, _COEFFICIENT, _POLYSECTOR, _SECTOR]
        keys = {key for table in tables for key in table}
        unset = sorted(key for key in keys if not re.search(rf'"{key}"\s*:', text))
        assert not unset, f"config keys that no README example or benchmark config sets: {unset}"

    def test_only_the_cli_knows_the_file_formats(self):
        # cli reads every config and its command module writes every report:
        # no other module imports json or defines a reader or writer of a file format
        src = Path(polygevrey.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            if path.name in ("cli.py", "commands.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found += [f"{path.name}: import {a.name}" for a in node.names if a.name == "json"]
                elif isinstance(node, ast.ImportFrom) and node.module == "json":
                    found.append(f"{path.name}: from json import")
                elif isinstance(node, ast.FunctionDef) and node.name in ("from_json", "to_json", "csv_rows"):
                    found.append(f"{path.name}: def {node.name}")
        assert not found, f"file formats outside cli: {found}"

    @staticmethod
    def src_nodes_outside(allowed):
        """(file name, node) for every AST node of src/polygevrey outside the (file, function) pairs ``allowed``."""
        src = Path(polygevrey.__file__).resolve().parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            exempt = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed
                for node in ast.walk(func)
            }
            yield from ((path.name, node) for node in ast.walk(tree) if id(node) not in exempt)

    def test_no_blas_ordered_sum(self):
        # a BLAS product adds in an order that changes with the number of
        # points, so a point's value would depend on the points that share its
        # call; only the reference quadrature's panel and rate_fit's least
        # squares, which evaluate no function, may use one
        found = []
        for name, node in self.src_nodes_outside({("transforms.py", "_gl_panel"), ("series.py", "rate_fit")}):
            if isinstance(node, ast.Attribute) and node.attr in ("tensordot", "dot", "matmul"):
                found.append(f"{name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno}: @")
        assert not found, f"BLAS-ordered sums: {found}"

    def test_one_fit_and_one_log_factorial_table(self):
        # every least-squares fit is series.rate_fit, and every table of log k! is
        # series._log_factorials: no polyfit, lstsq or vectorized lgamma elsewhere
        found = [
            f"{name}:{node.lineno}: .{node.attr}"
            for name, node in self.src_nodes_outside({("series.py", "rate_fit")})
            if isinstance(node, ast.Attribute) and node.attr in ("polyfit", "vectorize", "lstsq")
        ]
        defs = [
            name for name, node in self.src_nodes_outside(set())
            if isinstance(node, ast.FunctionDef) and node.name == "_log_factorials"
        ]
        assert not found, f"a second fit or lgamma path: {found}"
        assert defs == ["series.py"], f"_log_factorials defined in {defs}"

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("verify", {"suite": "coherence", "testbed": "rat2", "probe": {"steps": 20}}),
            ("verify", {"suite": "pl", "testbed": "poly", "boundary_density": 6}),
            ("verify", {"suite": "pl", "testbed": "poly", "interior_samples": 6}),
            ("interpolate", {"testbed": "rat2", "inner_probe": {"steps": 20}}),
            ("interpolate", {"testbed": "rat2", "probe": {"steps": 16}}),
            ("interpolate", {"testbed": "rat2", "precheck_tol": 1e-3}),
        ],
        ids=["coherence-probe", "pl-boundary_density", "pl-interior_samples", "interpolate-inner_probe",
             "interpolate-probe", "interpolate-precheck_tol"],
    )
    def test_fixed_settings_are_not_keys(self, tmp_path, capsys, command, cfg):
        # the ladder probes, the precheck tolerance and the pl densities are
        # constants: naming one is an unknown key, and no report is written
        key = list(cfg)[-1]
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        assert f"config error: unknown config key(s) [{key!r}]" in capsys.readouterr().err
        assert not out.exists()


class TestPredictType:
    def test_circle_row(self, tmp_path):
        cfg = write(
            tmp_path,
            "pt.json",
            {
                "alpha": 0.0,
                "beta": PI / 2,
                "theta0": PI / 4,
                "R0": 1.0,
                "R_alpha": 1.0,
                "R_beta": 1.0,
                "points": 9,
            },
        )
        out = tmp_path / "out"
        assert main(["predict-type", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "predict_type.csv").read_text().splitlines()
        assert lines[0] == "theta,fz_type,sine_type,circle_type,r_tilde,final_type"
        mid = [l for l in lines if l.startswith("0.78539816")]
        assert mid, "expected a row at theta = pi/4"
        cols = mid[0].split(",")
        assert float(cols[3]) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_deterministic_output(self, tmp_path):
        cfg = write(
            tmp_path,
            "pt.json",
            {"alpha": -0.5, "beta": 0.5, "theta0": 0.0, "R0": 2.0, "points": 33},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["predict-type", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["predict-type", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "predict_type.csv").read_bytes() == (out2 / "predict_type.csv").read_bytes()
        assert (out1 / "predict_type.json").read_bytes() == (out2 / "predict_type.json").read_bytes()

    def test_nan_where_a_law_is_undefined(self, tmp_path):
        # r_tilde needs |theta - theta0| < pi/2, and final_type needs beta < theta0 + pi/2,
        # which an opening of 3 breaks at every angle: those cells read nan, and the command still exits 0
        cfg = write(tmp_path, "pt.json", {"alpha": 0, "beta": 3.0, "theta0": 0.5, "R0": 1})
        out = tmp_path / "out"
        assert main(["predict-type", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, *lines = (out / "predict_type.csv").read_text().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert header.split(",")[4:] == ["r_tilde", "final_type"]
        assert all(math.isnan(row[5]) for row in rows)
        far = [abs(row[0] - 0.5) >= 0.5 * PI for row in rows]
        assert any(far) and not all(far)
        assert all(math.isnan(row[4]) == f for row, f in zip(rows, far))


class TestTransform:
    def test_euler_grid(self, tmp_path):
        cfg = write(
            tmp_path,
            "tr.json",
            {
                "testbed": "euler",
                "z0": [0.5],
                "tol": 1e-12,
                "direction": [0.0],
                "radii": {"r0": 0.4, "ratio": 0.7, "count": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "transform.csv").read_text().splitlines()
        assert lines[0] == "re_z1,im_z1,re_F,im_F,est_err"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(0.4)
        # value against the 30-digit integral (1/z) int_0^0.5 e^{-t/z}/(1+t) dt at z=0.4
        import mpmath

        with mpmath.workdps(30):
            want = float(mpmath.quad(lambda t: mpmath.exp(-t / 0.4) / (1 + t), [0, 0.5]) / 0.4)
        assert first[2] == pytest.approx(want, rel=1e-9)

    def test_report_names_the_closed_form(self, tmp_path):
        cfg = write(
            tmp_path,
            "trj.json",
            {"testbed": "euler", "z0": [0.5], "tol": 1e-12, "direction": [0.0], "radii": [0.4, 0.2]},
        )
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "transform.json").read_text())
        assert report == {
            "command": "transform",
            "dim": 1,
            "points": 2,
            "method": "closed-form",
            "z0": [[0.5, 0.0]],
            "tol": 1e-12,
        }

    def test_inline_series(self, tmp_path):
        cfg = write(
            tmp_path,
            "tr2.json",
            {
                "series": {"dim": 1, "coeffs": [{"index": [0], "re": 1.0, "im": 0.0}]},
                "z0": [[0.5, 0.0]],
                "direction": [0.0],
                "radii": [0.2, 0.1],
            },
        )
        out = tmp_path / "out2"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "transform.csv").read_text().splitlines()
        val = float(lines[1].split(",")[2])
        assert val == pytest.approx(1 - math.exp(-0.5 / 0.2), rel=1e-9)

    def test_two_axis_error_column_is_computed(self, tmp_path):
        cfg = write(
            tmp_path,
            "tr3.json",
            {
                "testbed": "brg_const2",
                "z0": [0.5, 0.5],
                "tol": 1e-10,
                "direction": [0.0, 0.7],
                "radii": [0.4, 0.1, 0.02],
            },
        )
        out = tmp_path / "out3"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "transform.csv").read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        errs = [row[-1] for row in rows]
        assert len(rows) == 3
        assert all(0 < e < 1e-14 for e in errs)
        assert len(set(errs)) > 1
        for row in rows:
            z1, z2 = complex(row[0], row[1]), complex(row[2], row[3])
            want = (1 - cmath.exp(-0.5 / z1)) * (1 - cmath.exp(-0.5 / z2))
            assert abs(complex(row[4], row[5]) - want) <= 1e-14

    def test_tail_error_exit_code(self, tmp_path):
        # z0 inside the Borel disc but beyond the 0.9 R evaluation guard
        coeffs = [
            {"index": [n], "re": ((-1.0) ** n) * math.factorial(n), "im": 0.0}
            for n in range(21)
        ]
        cfg = write(
            tmp_path,
            "tr3.json",
            {
                "series": {"dim": 1, "coeffs": coeffs},
                "z0": [0.95],
                "direction": [0.0],
                "radii": [0.2, 0.1],
            },
        )
        out = tmp_path / "out3"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert (out / "error.json").exists()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("transform", {"series": {"dim": 1, "coeffs": [{"index": [0], "re": 1e-300}, {"index": [1], "re": 1e300}]},
                           "z0": [0.5], "direction": [0.0], "radii": [0.4]}),
            ("verify", {"suite": "coherence", "z0": [0.5, 0.5], "max_order": 1, "series": {"dim": 2, "coeffs": [
                {"index": [0, 0], "re": 1e-300}, {"index": [1, 0], "re": 1e300}, {"index": [0, 1], "re": 1e300}]}}),
        ],
        ids=["transform", "verify-coherence"],
    )
    def test_underflowed_type_has_no_borel_disc(self, tmp_path, capsys, command, cfg):
        # the fitted rate exp(-1381) underflows to 0: no z0 lies inside the Borel disc
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "uf.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        assert "z0 outside the Borel disc on axis 0: |z0|=0.5, type=0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("transform", {"direction": [0.0, 0.0], "radii": [0.04]}),
            ("verify", {"suite": "coherence", "max_order": 1}),
        ],
        ids=["transform", "verify-coherence"],
    )
    def test_convex_series_has_no_borel_disc(self, tmp_path, capsys, command, cfg):
        # (h! k!)^2 grows faster than any 1-Gevrey series: its fitted type is 0.0, so z0 is a config
        # error, not a Borel-sum tail that fails its bound (exit 3) or incoherent limits (exit 1)
        coeffs = [{"index": [h, k], "re": float(math.factorial(h) * math.factorial(k)) ** 2}
                  for h in range(7) for k in range(7)]
        cfg = {**cfg, "z0": [0.05, 0.05], "series": {"dim": 2, "coeffs": coeffs}}
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "cv.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        assert "z0 outside the Borel disc on axis 0: |z0|=0.05, type=0" in capsys.readouterr().err

    def test_direction_length_checked_before_the_tail(self, tmp_path, capsys):
        # at tol 1e-30 euler's dropped Borel tail fails its bound (exit 3), but
        # a direction with one angle too many is a config error first
        cfg = {"testbed": "euler", "z0": [0.5], "tol": 1e-30, "direction": [0.0], "radii": [0.3, 0.2]}
        out = tmp_path / "out"
        assert main(["transform", "--config", write(tmp_path, "t1.json", cfg), "--out", str(out)]) == EXIT_NUMERICAL
        bad = tmp_path / "bad"
        path = write(tmp_path, "t2.json", {**cfg, "direction": [0.0, 0.1]})
        assert main(["transform", "--config", path, "--out", str(bad)]) == EXIT_SCHEMA
        assert "direction has 2 angles, z0 has 1 components" in capsys.readouterr().err
        assert list(bad.iterdir()) == []


class TestTypeFit:
    def test_euler_within_ten_percent(self, tmp_path):
        cfg = write(
            tmp_path,
            "tf.json",
            {
                "testbed": "euler",
                "mode": "gevrey",
                "directions": [0.0, PI / 6],
                "radii": {"r0": 0.5, "ratio": 0.82, "count": 22},
                "n_max": 22,
                "window": [4, 16],
                "noise_floor": 1e-9,
            },
        )
        out = tmp_path / "out"
        assert main(["type-fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "type_fit.json").read_text())
        for entry in report["directions"]:
            fitted, law = entry["fitted"][0], entry["law"][0]
            assert abs(fitted - law) / law < 0.1

    def test_every_remainder_below_noise_floor(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "tf3.json",
            {
                "testbed": "euler",
                "mode": "gevrey",
                "directions": [0.0],
                "radii": {"r0": 0.5, "ratio": 0.82, "count": 8},
                "n_max": 6,
                "noise_floor": 1e300,
            },
        )
        assert main(["type-fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert "too few remainder constants" in capsys.readouterr().err

    def test_index_bound_message_unquoted(self, tmp_path, capsys):
        # FamilyError is a KeyError, whose own str() would print the message's repr
        cfg = write(
            tmp_path,
            "tf4.json",
            {
                "testbed": "euler",
                "mode": "gevrey",
                "directions": [0.0],
                "radii": {"r0": 0.5, "ratio": 0.82, "count": 8},
                "n_max": 60,
            },
        )
        assert main(["type-fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert capsys.readouterr().err == "config error: truncation (47,) exceeds index bound (45,) + 1\n"

    def test_flat_mode(self, tmp_path):
        cfg = write(
            tmp_path,
            "tf2.json",
            {
                "testbed": "flat1",
                "mode": "flat",
                "directions": [0.0],
                "radii": {"r0": 0.5, "ratio": 0.7, "count": 10},
            },
        )
        out = tmp_path / "out"
        assert main(["type-fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "type_fit.json").read_text())
        assert report["directions"][0]["rates"][0] == pytest.approx(2.0, rel=1e-9)


class TestVerify:
    def test_coherence_rat2(self, tmp_path):
        cfg = write(
            tmp_path,
            "vc.json",
            {"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "max_order": 2},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "coherence.json").read_text())
        assert report["ok"]
        assert report["report"]["max_residual"] < 1e-6

    def test_pl_dimension_mismatch(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "vd.json",
            {
                "suite": "pl",
                "testbed": "poly",
                "polysector": {"sectors": [{"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0}]},
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert "polysector has 1 axes, the function's domain has 2" in capsys.readouterr().err

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a bug in a callback must not read as a failed verdict (1) or a config error (2)
        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")

        def broken(p):
            raise RuntimeError("bug in the callback")

        fake = with_fn(entry, SampledFunction(entry.fn.domain, broken))
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        cfg = write(
            tmp_path,
            "vb.json",
            {
                "suite": "pl",
                "testbed": "poly",
                "polysector": {"sectors": [{"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0}] * 2},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INTERNAL
        err = json.loads((out / "error.json").read_text())
        assert err["internal"] is True
        assert err["error"] == "RuntimeError: bug in the callback"
        assert "RuntimeError" in capsys.readouterr().err

    def test_nan_in_a_report_is_internal(self, tmp_path, monkeypatch):
        # a function that evaluates to NaN puts NaN into pl.json's maxima;
        # strict JSON refuses it, so no report is written and the run exits 70
        import numpy as np

        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")
        fake = with_fn(entry, SampledFunction(entry.fn.domain, lambda p: np.full(len(p), np.nan, dtype=complex)))
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        cfg = write(
            tmp_path,
            "vn.json",
            {
                "suite": "pl",
                "testbed": "poly",
                "polysector": {"sectors": [{"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0}] * 2},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INTERNAL
        assert not (out / "pl.json").exists()
        err = json.loads((out / "error.json").read_text())
        assert err["internal"] is True
        assert err["error"].startswith("ValueError: Out of range float values")

    @pytest.mark.parametrize("exc", [TypeError, ValueError, KeyError])
    def test_common_callback_bugs_are_internal(self, tmp_path, monkeypatch, exc):
        # the commonest callback bugs are not config errors (2) either
        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")

        def broken(p):
            raise exc("bug in the callback")

        fake = with_fn(entry, SampledFunction(entry.fn.domain, broken))
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        cfg = write(
            tmp_path,
            "vb.json",
            {
                "suite": "pl",
                "testbed": "poly",
                "polysector": {"sectors": [{"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0}] * 2},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INTERNAL
        assert json.loads((out / "error.json").read_text())["error"].startswith(exc.__name__)

    def test_probe_failures_fail_the_verdict(self, tmp_path):
        # at tol 1e-14 no ladder of rat2 settles: each pair is a probe failure, and the verdict exits 1
        cfg = write(tmp_path, "vc.json", {"suite": "coherence", "testbed": "rat2", "tol": 1e-14})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        report = json.loads((out / "coherence.json").read_text())
        assert report["ok"] is False
        assert report["report"]["failures"] == []
        failures = report["report"]["probe_failures"]
        assert len(failures) == 54
        assert all(set(f) == {"J", "L", "N_J", "N_L", "note"} for f in failures)

    def test_residual_failure_fails_the_verdict(self, tmp_path, monkeypatch):
        # rat2's family with the joint constant f_{(0,1),(0,0)} = 2 in place of 1: the limits of
        # f_{0,0} and f_{1,0} at the vertex read 1, so that pair fails by |2 - 1| / max(1, 2)
        from polygevrey import SampledFunction, TotalFamily, testbed
        from polygevrey.testbed import RegistryEntry

        entry = testbed.get("rat2")
        fam = entry.known["total_family"]
        elements = {**fam.elements, ((0, 1), (0, 0)): SampledFunction.constant(2.0)}
        known = {**entry.known, "total_family": TotalFamily(fam.host, elements)}
        fake = RegistryEntry(entry.id, entry.fn, known, entry.notes)
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        cfg = write(tmp_path, "vc.json", {"suite": "coherence", "testbed": "rat2", "max_order": 1})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        report = json.loads((out / "coherence.json").read_text())["report"]
        assert report["probe_failures"] == []
        assert report["failures"]
        for failure in report["failures"]:
            assert (failure["N_J"], failure["N_L"]) == ([0], [0])
            assert failure["residual"] == pytest.approx(0.5, rel=1e-6)

    def test_coherence_on_a_testbed_series_with_z0(self, tmp_path):
        # an entry's series with a z0 is the same family as that series written inline
        coeffs = [{"index": [0, 0], "re": 2.0}, {"index": [1, 1], "re": 1.0}, {"index": [2, 1], "re": -0.5},
                  {"index": [0, 3], "re": 0.25}]
        base = {"suite": "coherence", "z0": [0.5, 0.45], "max_order": 1}
        reports = []
        for name, cfg in [("entry", {**base, "testbed": "poly"}),
                          ("inline", {**base, "series": {"dim": 2, "coeffs": coeffs, "degree_bound": [2, 3]}})]:
            out = tmp_path / name
            assert main(["verify", "--config", write(tmp_path, f"{name}.json", cfg), "--out", str(out)]) == EXIT_OK
            reports.append((out / "coherence.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["report"]["checked_pairs"] > 0

    def test_pl_violations_fail_the_verdict(self, tmp_path, monkeypatch):
        # e^{1/z1^2} has modulus 1 on the edges of |arg z1| < pi/4 and grows on its bisector
        import numpy as np

        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")
        fake = with_fn(entry, SampledFunction(entry.fn.domain, lambda p: np.exp(1.0 / p[:, 0] ** 2)))
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        sector = {"alpha": -PI / 4, "beta": PI / 4, "rho": 1.0}
        cfg = write(tmp_path, "vp.json", {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [sector] * 2}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        pl = json.loads((out / "pl.json").read_text())
        assert pl["ok"] is False
        violations = pl["report"]["violations"]
        assert violations and all(v["abs"] > pl["report"]["boundary_max"] for v in violations)
        assert all(len(v["z"]) == 2 and all(len(w) == 2 for w in v["z"]) for v in violations)

    def test_pl_poly(self, tmp_path):
        cfg = write(
            tmp_path,
            "vp.json",
            {
                "suite": "pl",
                "testbed": "poly",
                "polysector": {
                    "sectors": [
                        {"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0},
                        {"alpha": -PI / 3, "beta": PI / 3, "rho": 1.0},
                    ]
                },
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "pl.json").read_text())["ok"]

    def test_remainder_euler(self, tmp_path):
        cfg = write(
            tmp_path,
            "vr.json",
            {
                "suite": "remainder",
                "testbed": "euler",
                "directions": [0.0, PI / 6],
                "radii": {"r0": 0.5, "ratio": 0.82, "count": 22},
                "n_max": 22,
                "window": [4, 16],
                "rel_tol": 0.15,
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "remainder.json").read_text())
        assert report["ok"]
        assert all(d["rel_err"] < 0.15 for d in report["directions"])

    def test_remainder_against_a_wrong_law_fails(self, tmp_path, monkeypatch):
        # euler's fitted types against twice its law: every direction is off by about a half
        from polygevrey import TypeProfile, testbed
        from polygevrey.testbed import RegistryEntry

        entry = testbed.get("euler")
        (law,) = entry.known["type_profile"]
        doubled = TypeProfile(law.alpha, law.beta, lambda theta: 2.0 * law.fn(theta))
        fake = RegistryEntry(entry.id, entry.fn, {**entry.known, "type_profile": (doubled,)}, entry.notes)
        monkeypatch.setattr(testbed, "get", lambda entry_id: fake)
        cfg = write(
            tmp_path,
            "vr.json",
            {
                "suite": "remainder",
                "testbed": "euler",
                "directions": [0.0, PI / 6],
                "radii": {"r0": 0.5, "ratio": 0.82, "count": 22},
                "n_max": 22,
                "window": [4, 16],
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        report = json.loads((out / "remainder.json").read_text())
        assert report["ok"] is False
        assert [d["theta"] for d in report["directions"]] == [[0.0], [PI / 6]]
        assert all(0.4 < d["rel_err"] < 0.6 for d in report["directions"])

    def test_first_order_rat2(self, tmp_path):
        cfg = write(
            tmp_path,
            "vf.json",
            {"suite": "first-order", "testbed": "rat2", "tol": 1e-6, "max_order": 1},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_first_order_poly(self, tmp_path):
        # any entry with a total family has a first-order family: its #J = 1 elements
        cfg = write(tmp_path, "vp.json", {"suite": "first-order", "testbed": "poly", "tol": 1e-6})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "first_order.json").read_text())["report"]
        assert report["checked_pairs"] == 9
        assert report["max_residual"] < 1e-9

    @pytest.mark.parametrize("suite", ["coherence", "first-order"])
    def test_negative_max_order_rejected(self, tmp_path, capsys, suite):
        cfg = write(tmp_path, "vn.json", {"suite": suite, "testbed": "rat2", "max_order": -1})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert "max_order" in capsys.readouterr().err

    def test_zero_pairs_is_not_a_pass(self, tmp_path):
        # a one-variable family has no disjoint (J, L) pair to check
        series = {"dim": 1, "coeffs": [{"index": [n], "re": 1.0} for n in range(3)]}
        cfg = write(tmp_path, "v1.json", {"suite": "coherence", "series": series, "z0": [0.5]})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        report = json.loads((out / "coherence.json").read_text())
        assert report["ok"] is False
        assert report["report"]["checked_pairs"] == 0

    def test_zero_endpoint_rejected_before_any_ladder(self, tmp_path, capsys, monkeypatch):
        # a series' family checks its endpoints as brg_function does: no ladder starts
        from polygevrey import families

        ladders = []
        monkeypatch.setattr(families, "axis_coefficient_ladder", lambda *args: ladders.append(args))
        cfg = write(tmp_path, "vz.json", {**_SERIES_RUN, "z0": [0.0, 0.3]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert capsys.readouterr().err == "config error: integration endpoints must be nonzero\n"
        assert ladders == []

    def test_unknown_testbed_message_unquoted(self, tmp_path, capsys):
        # UnknownEntryError is a KeyError, whose own str() would print the message's repr
        from polygevrey import testbed

        cfg = write(tmp_path, "vt.json", {"suite": "coherence", "testbed": "nope"})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        want = f"config error: no testbed entry named 'nope'; have {testbed.ids()}\n"
        assert capsys.readouterr().err == want

    def test_unknown_suite(self, tmp_path):
        cfg = write(tmp_path, "vu.json", {"suite": "nope"})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA


class TestTracer:
    """The benchmark's tracer counts each coherence report once."""

    @pytest.mark.parametrize(
        "cfg, report",
        [
            ({"suite": "first-order", "testbed": "rat2", "tol": 1e-6}, "first_order.json"),
            ({"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "max_order": 1}, "coherence.json"),
        ],
        ids=["first-order", "coherence"],
    )
    def test_one_call_per_report(self, tmp_path, cfg, report):
        root = Path(__file__).resolve().parents[1]
        stats, out = tmp_path / "stats.json", tmp_path / "out"
        argv = ["verify", "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run(
            [sys.executable, str(root / "bench" / "tracer.py"), str(stats), str(tmp_path / "spans.jsonl"), "--", *argv],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert res.returncode == EXIT_OK, res.stderr
        counts = json.loads(stats.read_text())
        checked = json.loads((out / report).read_text())["report"]["checked_pairs"]
        assert counts["families.coherence.calls"] == 1
        assert counts["families.coherence.pairs_checked"] == checked > 0


class TestInterpolate:
    def test_smoke(self, tmp_path):
        cfg = write(
            tmp_path,
            "ip.json",
            {
                "testbed": "rat2",
                "cap": 10,
                "coeff_cap": 6,
                "orders": 1,
                "samples": [0.04, 0.06, 0.09],
                "tol": 1e-3,
            },
        )
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "interpolate.json").read_text())
        assert report["ok"]
        assert report["worst_abs_err"] < 1e-3
        assert report["provenance"].startswith("closed-form; ")
        assert "of 77 constants a_(m,n) unconverged" in report["provenance"]

    def test_narrow_opening_builds_from_converged_constants(self, tmp_path):
        # at opening 0.03 the ladder leaves orders m >= 2 of the a_{m,n} unconverged
        # (probe errors up to 1.8e13) and the weights L_2[m] no longer damp them:
        # built from every constant, the interpolant was off by 9.95 at z = 0.06
        cfg = write(tmp_path, "narrow.json", {"testbed": "rat2", "opening": 0.03})
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "interpolate.json").read_text())
        assert report["ok"] and report["worst_abs_err"] <= report["tol"]
        assert report["provenance"].endswith("; corrected orders m <= 1 used")

    def test_non_rat2_rejected(self, tmp_path):
        cfg = write(tmp_path, "ip2.json", {"testbed": "euler"})
        assert main(["interpolate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA

    # orders 9 > cap 8: the family stores no element to compare order 9 with
    @pytest.mark.parametrize("bad", [{"samples": [-0.03]}, {"samples": []}, {"orders": -1}, {"orders": 9}])
    def test_bad_samples_or_orders_rejected(self, tmp_path, capsys, monkeypatch, bad):
        # each is rejected before the interpolant is built: no radius ladder runs
        from polygevrey import families

        ladders = []
        monkeypatch.setattr(families, "axis_coefficient_ladder", lambda *args: ladders.append(args))
        cfg = {"testbed": "rat2", "cap": 8, "coeff_cap": 4}
        path = write(tmp_path, "ip4.json", {**cfg, **bad})
        assert main(["interpolate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert f"config key {next(iter(bad))!r}" in capsys.readouterr().err
        assert ladders == []

    def test_zero_endpoint_rejected_before_any_ladder(self, tmp_path, capsys, monkeypatch):
        # the interpolant checks its endpoints as brg_function does: no ladder starts
        from polygevrey import families

        ladders = []
        monkeypatch.setattr(families, "axis_coefficient_ladder", lambda *args: ladders.append(args))
        path = write(tmp_path, "ip6.json", {"testbed": "rat2", "cap": 8, "coeff_cap": 4, "z0": [0.0, 0.92]})
        assert main(["interpolate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert capsys.readouterr().err == "config error: integration endpoints must be nonzero\n"
        assert ladders == []

    def test_empty_family_rejected(self, tmp_path, capsys):
        # cap -1 stores no first-order element: a config error, not an internal one
        path = write(tmp_path, "ip5.json", {"testbed": "rat2", "cap": -1})
        assert main(["interpolate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert "interpolation needs at least one first-order element per axis" in capsys.readouterr().err

    def test_endpoints_beyond_one(self, tmp_path):
        # the README config from z0 = (1.5, 1.5): a finite family puts no bound on |z0|
        cfg = {**_README_RUNS[_README_IDS.index("interpolate")][1], "z0": [1.5, 1.5]}
        out = tmp_path / "out"
        assert main(["interpolate", "--config", write(tmp_path, "ip7.json", cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "interpolate.json").read_text())
        assert report["ok"] and report["worst_abs_err"] <= report["tol"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: from z0 = (0.5, 0.5) the exactly coherent rat2 "
                       "family reads worst_abs_err 1.391e-4 > tol 1e-4 and exits 1")
    def test_exact_family_passes_from_small_z0(self, tmp_path):
        cfg = write(tmp_path, "ip8.json", {"testbed": "rat2", "z0": [0.5, 0.5]})
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_failing_verdict_exit_code(self, tmp_path):
        cfg = write(
            tmp_path,
            "ip3.json",
            {
                "testbed": "rat2",
                "cap": 8,
                "coeff_cap": 4,
                "orders": 0,
                "samples": [0.05, 0.08],
                "tol": 1e-15,
            },
        )
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        assert not json.loads((out / "interpolate.json").read_text())["ok"]


_RADII_TYPE = {"r0": 0.5, "ratio": 0.82, "count": 22}
_PL_SECTOR = {"alpha": -1.0472, "beta": 1.0472, "rho": 1.0}
_STACK = {"commands", "numpy", "families", "transforms", "series", "geometry"}
_ENTRY = _STACK | {"testbed"}
_TYPE_LAW = _ENTRY | {"typecalc"}  # the euler entry's type profile


# the README config of each subcommand, verify suite and type-fit mode, and
# the numpy and library modules that running it loads
_README_RUNS = [
    (["transform"], {"testbed": "euler", "z0": [0.5], "tol": 1e-12, "direction": [0.0],
                     "radii": {"r0": 0.4, "ratio": 0.7, "count": 12}}, _TYPE_LAW - {"families"}),
    (["type-fit"], {"testbed": "euler", "mode": "gevrey", "directions": [0.0, 0.5236],
                    "radii": _RADII_TYPE, "n_max": 22, "window": [4, 16], "noise_floor": 1e-9},
     _TYPE_LAW),
    (["predict-type"], {"alpha": 0.0, "beta": 1.5708, "theta0": 0.7854, "R0": 1.0,
                        "R_alpha": 1.0, "R_beta": 1.0, "z0_mod": 1.0, "points": 181},
     {"commands", "typecalc"}),
    (["verify"], {"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "max_order": 3}, _ENTRY),
    (["verify"], {"suite": "coherence", "z0": [0.5, 0.45], "tol": 1e-6, "max_order": 1,
                  "series": {"dim": 2, "coeffs": [{"index": [h, k], "re": 1.0, "im": 0.0}
                                                  for h in range(2) for k in range(2)]}},
     _STACK),
    (["verify"], {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [_PL_SECTOR] * 2},
                  "growth_attestation": "a polynomial: bounded on the polysector"},
     _ENTRY | {"flatness_bounds"}),
    (["verify"], {"suite": "remainder", "testbed": "euler", "directions": [0.0, 0.5236],
                  "radii": _RADII_TYPE, "rel_tol": 0.15}, _TYPE_LAW),
    (["verify"], {"suite": "first-order", "testbed": "rat2", "tol": 1e-6}, _ENTRY),
    (["interpolate"], {"testbed": "rat2", "opening": 1.2, "cap": 16, "z0": [0.92, 0.92],
                       "coeff_cap": 10, "orders": 3, "samples": [0.02, 0.026, 0.034],
                       "tol": 1e-4}, _ENTRY),
    (["list-testbed"], None, {"commands"}),
]
_README_IDS = ["transform", "type-fit", "predict-type", "verify-coherence", "verify-coherence-series",
               "verify-pl", "verify-remainder", "verify-first-order", "interpolate", "list-testbed"]


def run_fresh(tmp_path, argv, cfg):
    """``cli.main(argv)`` on ``cfg`` in a fresh interpreter: the completed process and its
    exit code and loaded modules."""
    if cfg is not None:
        argv = argv + ["--config", write(tmp_path, "cfg.json", cfg)]
    argv = argv + ["--out", str(tmp_path / "out")]
    src = str(Path(polygevrey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        "from polygevrey import cli\n"
        f"code = cli.main({argv!r})\n"
        "names = ['numpy', 'dataclasses', 'argparse'] + ['polygevrey.' + m for m in ('commands',\n"
        "    'families', 'transforms', 'series', 'geometry', 'testbed', 'typecalc', 'flatness_bounds')]\n"
        "print(json.dumps({'exit': code, 'loaded': [m for m in names if m in sys.modules]}))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res, json.loads(res.stdout.splitlines()[-1])


class TestImportFootprint:
    """Each subcommand, run on its README config in a fresh interpreter, loads
    exactly these of numpy, the command module and the library's numeric
    modules, and never ``dataclasses`` (generating a class's methods at import
    costs ~1 ms each) or ``argparse``."""

    @pytest.mark.parametrize("argv, cfg, want", _README_RUNS, ids=_README_IDS)
    def test_loaded_modules(self, tmp_path, argv, cfg, want):
        _, facts = run_fresh(tmp_path, argv, cfg)
        assert facts["exit"] == EXIT_OK
        assert {m.removeprefix("polygevrey.") for m in facts["loaded"]} == want

    @pytest.mark.parametrize("argv, cfg, want", _README_RUNS, ids=_README_IDS)
    def test_misspelt_key(self, tmp_path, argv, cfg, want):
        # the same config with its last key misspelt (list-testbed takes no key at
        # all) stops with exit 2 before numpy or the command module loads, and
        # writes no report
        cfg = dict(cfg or {"testbed": "rat2"})
        key = list(cfg)[-1]
        cfg[key[:-1]] = cfg.pop(key)
        res, facts = run_fresh(tmp_path, argv, cfg)
        assert facts["exit"] == EXIT_SCHEMA
        assert f"config error: unknown config key(s) [{key[:-1]!r}]" in res.stderr
        assert facts["loaded"] == []
        assert not (tmp_path / "out").exists()


_PL_RUN = _README_RUNS[_README_IDS.index("verify-pl")][1]
_SERIES_RUN = _README_RUNS[_README_IDS.index("verify-coherence-series")][1]


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({**_PL_RUN, "polysector": {"sectors": [_PL_SECTOR, {**_PL_SECTOR, "rh0": 2.0}]}},
         "unknown sector key(s) ['rh0']; allowed: ['alpha', 'beta', 'rho']"),
        ({**_PL_RUN, "polysector": {"sectors": [_PL_SECTOR] * 2, "sectros": []}},
         "unknown polysector key(s) ['sectros']; allowed: ['sectors']"),
        ({**_SERIES_RUN, "series": {**_SERIES_RUN["series"], "coeffs": [{"index": [0, 0], "re": 1.0, "imag": 3.0}]}},
         "unknown coefficient key(s) ['imag']; allowed: ['im', 'index', 're']"),
        ({**_SERIES_RUN, "series": {**_SERIES_RUN["series"], "degre_bound": [1, 1]}},
         "unknown series key(s) ['degre_bound']; allowed: ['coeffs', 'degree_bound', 'dim']"),
    ],
    ids=["sector", "polysector", "coefficient", "series"],
)
def test_misspelt_nested_key(tmp_path, capsys, cfg, message):
    # a key outside the schema of a nested object is a config error naming the
    # key and the allowed keys, and no report is written
    out = tmp_path / "out"
    assert main(["verify", "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({**_SERIES_RUN, "series": {**_SERIES_RUN["series"], "degre_bound": [1, 1]}}, "degre_bound"),
        ({**_SERIES_RUN, "series": {**_SERIES_RUN["series"], "coeffs": [{"index": [0, 0], "re": 1.0, "imag": 3.0}]}},
         "imag"),
        ({**_PL_RUN, "polysector": {"sectors": [_PL_SECTOR] * 2, "sectros": []}}, "sectros"),
        ({**_PL_RUN, "polysector": {"sectors": [_PL_SECTOR, {**_PL_SECTOR, "rh0": 2.0}]}}, "rh0"),
    ],
    ids=["series", "coefficient", "polysector", "sector"],
)
def test_misspelt_nested_key_loads_nothing(tmp_path, cfg, key):
    # a nested object is read before its library module (and numpy) loads
    res, facts = run_fresh(tmp_path, ["verify"], cfg)
    assert facts["exit"] == EXIT_SCHEMA
    assert f"key(s) [{key!r}]" in res.stderr
    assert facts["loaded"] == []
    assert not (tmp_path / "out").exists()


_CONST_SERIES = {"dim": 1, "coeffs": [{"index": [0], "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("transform", {"testbed": "euler", "series": _CONST_SERIES, "z0": [0.5], "direction": [0.0],
                       "radii": [0.2, 0.1]}),
        ("verify", {**_SERIES_RUN, "testbed": "rat2"}),
        ("verify", {"suite": "coherence", "testbed": "rat2", "series": _SERIES_RUN["series"]}),
    ],
    ids=["transform", "verify-coherence", "verify-coherence-no-z0"],
)
def test_series_and_testbed_rejected(tmp_path, capsys, command, cfg):
    # a series comes inline or from a testbed entry, not both: exit 2 naming
    # both keys, and no report
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert "config names both 'series' and 'testbed'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestListTestbed:
    def test_prints_and_writes(self, tmp_path, capsys):
        assert main(["list-testbed", "--out", str(tmp_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "rat2" in captured.out
        payload = json.loads((tmp_path / "testbed.json").read_text())
        assert any(e["id"] == "euler" for e in payload["entries"])

    def test_matches_built_entries(self, tmp_path, capsys):
        # the static table prints what building every registry entry would
        from polygevrey import testbed

        payload, lines = [], []
        for entry_id in testbed.ids():
            entry = testbed.get(entry_id)
            fields = {key: entry.notes[key] for key in sorted(entry.known)}
            payload.append({"id": entry.id, "dim": entry.dim, "known": fields})
            lines.append(f"{entry.id} (dim {entry.dim})")
            lines += [f"    {key}: {note}" for key, note in fields.items()]
        capsys.readouterr()
        assert main(["list-testbed", "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        want = json.dumps({"entries": payload}, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "testbed.json").read_text() == want

    def test_no_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["list-testbed"]) == EXIT_OK
        assert "rat2" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_internal_error_without_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # a bug exits 70 with its traceback; with no --out there is no error.json to write
        from polygevrey import commands

        def broken(cfg, out):
            raise RuntimeError("bug in the handler")

        monkeypatch.setitem(commands.HANDLERS, "list-testbed", broken)
        monkeypatch.chdir(tmp_path)
        assert main(["list-testbed"]) == EXIT_INTERNAL
        assert "RuntimeError: bug in the handler" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        # the console script calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["polygevrey", "list-testbed"])
        assert main() == EXIT_OK
        assert "rat2 (dim 2)" in capsys.readouterr().out
