import cmath
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polygevrey

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


class TestDispatch:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_UNKNOWN_COMMAND

    def test_no_args_usage(self):
        assert main([]) == EXIT_UNKNOWN_COMMAND

    def test_missing_config(self, tmp_path):
        assert main(["transform", "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_bad_config_types(self, tmp_path):
        cfg = write(tmp_path, "bad.json", {"alpha": "x"})
        assert main(["predict-type", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_unreadable_config(self, tmp_path):
        assert main(["transform", "--config", str(tmp_path / "none.json")]) == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("transform", {"testbed": "euler", "z0": [0.5], "tol": "tight", "direction": [0.0], "radii": [0.4]}),
            ("transform", {"testbed": "euler", "z0": [0.5], "direction": ["east"], "radii": [0.4]}),
            ("transform", {"testbed": "euler", "z0": [["a", 0]], "direction": [0.0], "radii": [0.4]}),
            ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": {"r0": "x", "ratio": 0.7, "count": 3}}),
            ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": [0.4, None]}),
            ("transform", {"series": {"dim": "two", "coeffs": []}, "z0": [0.5], "direction": [0.0], "radii": [0.4]}),
            ("transform", {"series": {"dim": 1, "coeffs": [{"index": ["a"], "re": 1.0}]}, "z0": [0.5], "direction": [0.0], "radii": [0.4]}),
            ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0, 0.1], "radii": [0.4]}),
            ("transform", {"testbed": "euler", "z0": [0.5], "direction": [0.0], "radii": []}),
            ("verify", {"suite": "coherence", "testbed": "rat2", "probe": {"steps": "many"}}),
            ("verify", {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [{"alpha": "x", "beta": 1.0, "rho": 1.0}]}}),
            ("verify", {"suite": "pl", "testbed": "poly", "boundary_density": [6], "polysector": {"sectors": [{"alpha": -1.0, "beta": 1.0, "rho": 1.0}] * 2}}),
            ("interpolate", {"testbed": "rat2", "inner_probe": {"bogus": 1}}),
            ("interpolate", {"testbed": "rat2", "probe": {"r0": "far"}}),
            ("interpolate", {"testbed": "rat2", "precheck_tol": "loose"}),
            ("interpolate", {"testbed": "rat2", "coeff_cap": -1}),
            ("verify", {"suite": "remainder", "testbed": "euler", "directions": [0.0], "radii": [0.4, 0.3], "window": [4]}),
            ("type-fit", {"testbed": "euler", "directions": [[0.0, "x"]], "mode": "flat", "radii": [0.4]}),
            ("predict-type", {"alpha": -1.0, "beta": 1.0, "theta0": 0.0, "R0": 1.0, "points": "many"}),
        ],
    )
    def test_bad_config_values(self, tmp_path, capsys, command, cfg):
        path = write(tmp_path, "bad.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        assert "config error" in capsys.readouterr().err

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
        # numpy, no library module but errors), and only the CLI pins BLAS to
        # one thread, keeping a value the caller already set; numpy imported
        # after the CLI starts no BLAS worker thread
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
            "deferred = ('polygevrey.catalogue', 'polygevrey.families', 'polygevrey.flatness_bounds',\n"
            "    'polygevrey.geometry', 'polygevrey.series', 'polygevrey.testbed', 'polygevrey.transforms',\n"
            "    'polygevrey.typecalc')\n"
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

    @pytest.mark.parametrize(
        "probe",
        [
            {"r0": 0.0},
            {"ratio": 1.5},
            {"ratio": 0.0},
            {"window": 1},
            {"steps": 0},
            {"agree": 0},
            {"tol": 0.0},
            {"circle_frac": 1.0},
            {"circle_nodes": 1},
        ],
    )
    def test_bad_probe_rejected(self, tmp_path, probe):
        cfg = write(
            tmp_path,
            "vb.json",
            {"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "probe": probe},
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

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
        import dataclasses

        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")

        def broken(p):
            raise RuntimeError("bug in the callback")

        fake = dataclasses.replace(entry, fn=SampledFunction(entry.fn.domain, broken))
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
        import dataclasses

        import numpy as np

        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")
        fake = dataclasses.replace(
            entry, fn=SampledFunction(entry.fn.domain, lambda p: np.full(len(p), np.nan, dtype=complex))
        )
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
        import dataclasses

        from polygevrey import SampledFunction, testbed

        entry = testbed.get("poly")

        def broken(p):
            raise exc("bug in the callback")

        fake = dataclasses.replace(entry, fn=SampledFunction(entry.fn.domain, broken))
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
                "boundary_density": 4,
                "interior_samples": 4,
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

    def test_first_order_rat2(self, tmp_path):
        cfg = write(
            tmp_path,
            "vf.json",
            {"suite": "first-order", "testbed": "rat2", "tol": 1e-6, "max_order": 1},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK

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

    def test_unknown_suite(self, tmp_path):
        cfg = write(tmp_path, "vu.json", {"suite": "nope"})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA


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
                "precheck_tol": None,
                "inner_probe": {"steps": 16, "tol": 1e-10},
                "probe": {"steps": 13},
            },
        )
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "interpolate.json").read_text())
        assert report["ok"]
        assert report["worst_abs_err"] < 1e-3
        assert report["provenance"].startswith("closed-form; ")
        assert "of 77 constants a_(m,n) unconverged" in report["provenance"]

    def test_non_rat2_rejected(self, tmp_path):
        cfg = write(tmp_path, "ip2.json", {"testbed": "euler"})
        assert main(["interpolate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("bad", [{"samples": [-0.03]}, {"samples": []}, {"orders": -1}])
    def test_bad_samples_or_orders_rejected(self, tmp_path, bad):
        cfg = {
            "testbed": "rat2", "cap": 8, "coeff_cap": 4, "precheck_tol": None,
            "inner_probe": {"steps": 16, "tol": 1e-10}, "probe": {"steps": 13},
        }
        path = write(tmp_path, "ip4.json", {**cfg, **bad})
        assert main(["interpolate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

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
                "tol": 1e-12,
                "precheck_tol": None,
                "inner_probe": {"steps": 16, "tol": 1e-10},
                "probe": {"steps": 13},
            },
        )
        out = tmp_path / "out"
        assert main(["interpolate", "--config", cfg, "--out", str(out)]) == EXIT_VERDICT_FAIL
        assert not json.loads((out / "interpolate.json").read_text())["ok"]


_RADII_TYPE = {"r0": 0.5, "ratio": 0.82, "count": 22}
_PL_SECTOR = {"alpha": -1.0472, "beta": 1.0472, "rho": 1.0}
_STACK = {"numpy", "families", "transforms", "series", "geometry"}
_ENTRY = _STACK | {"testbed", "typecalc"}  # testbed imports TypeProfile


class TestImportFootprint:
    """Each subcommand, run on its README config in a fresh interpreter, loads
    exactly these of numpy and the library's numeric modules."""

    @pytest.mark.parametrize(
        "argv, cfg, want",
        [
            (["transform"], {"testbed": "euler", "z0": [0.5], "tol": 1e-12, "direction": [0.0],
                             "radii": {"r0": 0.4, "ratio": 0.7, "count": 12}}, _ENTRY),
            (["type-fit"], {"testbed": "euler", "mode": "gevrey", "directions": [0.0, 0.5236],
                            "radii": _RADII_TYPE, "n_max": 22, "window": [4, 16], "noise_floor": 1e-9},
             _ENTRY),
            (["predict-type"], {"alpha": 0.0, "beta": 1.5708, "theta0": 0.7854, "R0": 1.0,
                                "R_alpha": 1.0, "R_beta": 1.0, "z0_mod": 1.0, "points": 181},
             {"typecalc"}),
            (["verify"], {"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "max_order": 3}, _ENTRY),
            (["verify"], {"suite": "coherence", "z0": [0.5, 0.45], "tol": 1e-6, "max_order": 1,
                          "series": {"dim": 2, "coeffs": [{"index": [h, k], "re": 1.0, "im": 0.0}
                                                          for h in range(2) for k in range(2)]}},
             _STACK),
            (["verify"], {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [_PL_SECTOR] * 2}},
             _ENTRY | {"flatness_bounds"}),
            (["verify"], {"suite": "remainder", "testbed": "euler", "directions": [0.0, 0.5236],
                          "radii": _RADII_TYPE, "rel_tol": 0.15}, _ENTRY),
            (["verify"], {"suite": "first-order", "testbed": "rat2", "tol": 1e-6}, _ENTRY),
            (["interpolate"], {"testbed": "rat2", "opening": 1.2, "cap": 16, "z0": [0.92, 0.92],
                               "coeff_cap": 10, "orders": 3, "samples": [0.02, 0.026, 0.034],
                               "tol": 1e-4}, _ENTRY),
            (["list-testbed"], None, set()),
        ],
        ids=["transform", "type-fit", "predict-type", "verify-coherence", "verify-coherence-series",
             "verify-pl", "verify-remainder", "verify-first-order", "interpolate", "list-testbed"],
    )
    def test_loaded_modules(self, tmp_path, argv, cfg, want):
        if cfg is not None:
            argv = argv + ["--config", write(tmp_path, "cfg.json", cfg)]
        argv = argv + ["--out", str(tmp_path / "out")]
        src = str(Path(polygevrey.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import json, sys\n"
            "from polygevrey import cli\n"
            f"code = cli.main({argv!r})\n"
            "names = ['numpy'] + ['polygevrey.' + m for m in ('families', 'transforms', 'series',\n"
            "    'geometry', 'testbed', 'typecalc', 'flatness_bounds')]\n"
            "print(json.dumps({'exit': code, 'loaded': [m for m in names if m in sys.modules]}))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        facts = json.loads(res.stdout.splitlines()[-1])
        assert facts["exit"] == EXIT_OK
        assert {m.removeprefix("polygevrey.") for m in facts["loaded"]} == want


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
