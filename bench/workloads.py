"""Workload definitions: seeded CLI configs and the checks on their reports.

A workload is a list of steps.  Each step is one ``polygevrey`` invocation
(subcommand arguments plus a JSON config) and the names of the report files
it must write.  ``err_ratios`` turns a step's reports into error/tolerance
ratios; every ratio must stay at or below 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20250808  # reproduces acceptance criterion 7 exactly


@dataclass
class Step:
    name: str
    args: list[str]  # subcommand and options other than --config/--out
    config: dict | None
    reports: list[str]
    kind: str = ""  # which report reader err_ratios applies


def _coherence_series(seed: int) -> dict:
    """Criterion 7's 7x7 two-variable Gevrey series, coefficients drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    r1, r2 = 1.3, 1.1
    coeffs = []
    for h in range(7):
        for k in range(7):
            u = 0.6 + 0.8 * rng.random()
            c = u * math.factorial(h) * math.factorial(k) * r1 ** (-h) * r2 ** (-k)
            coeffs.append({"index": [h, k], "re": c, "im": 0.0})
    return {"dim": 2, "degree_bound": [6, 6], "coeffs": coeffs}


def _interpolate_samples(seed: int) -> list[float]:
    rng = np.random.default_rng([seed % 2**64, 1])
    return sorted(float(s) for s in rng.uniform(0.02, 0.034, 3))


def interpolate_rat2(seed: int) -> list[Step]:
    cfg = {
        "testbed": "rat2", "opening": 1.2, "cap": 16, "z0": [0.92, 0.92],
        "coeff_cap": 10, "orders": 3, "samples": _interpolate_samples(seed), "tol": 1e-4,
    }
    return [Step("interpolate", ["interpolate"], cfg, ["interpolate.csv", "interpolate.json"],
                 "interpolate")]


def coherence_gevrey2(seed: int) -> list[Step]:
    """Criterion 7 exactly; ``seed`` is ignored (see README.md: most other
    draws of the recipe leave order-3 pairs unconverged at tol 1e-6)."""
    cfg = {
        "suite": "coherence", "series": _coherence_series(DEFAULT_SEED), "z0": [0.5, 0.45],
        "tol": 1e-6, "max_order": 3,
    }
    return [Step("coherence", ["verify"], cfg, ["coherence.json"], "coherence")]


_RADII_TYPE = {"r0": 0.5, "ratio": 0.82, "count": 22}
_PL_SECTOR = {"alpha": -1.0472, "beta": 1.0472, "rho": 1.0}


def readme_sweep(seed: int) -> list[Step]:
    """The README's short examples in README order; ``seed`` is ignored."""
    return [
        Step("transform", ["transform"],
             {"testbed": "euler", "z0": [0.5], "tol": 1e-12, "direction": [0.0],
              "radii": {"r0": 0.4, "ratio": 0.7, "count": 12}},
             ["transform.csv", "series.csv", "transform.json"]),
        Step("type-fit", ["type-fit"],
             {"testbed": "euler", "mode": "gevrey", "directions": [0.0, 0.5236],
              "radii": _RADII_TYPE, "n_max": 22, "window": [4, 16], "noise_floor": 1e-9},
             ["type_fit.csv", "type_fit.json"]),
        Step("predict-type", ["predict-type"],
             {"alpha": 0.0, "beta": 1.5708, "theta0": 0.7854, "R0": 1.0,
              "R_alpha": 1.0, "R_beta": 1.0, "z0_mod": 1.0, "points": 181},
             ["predict_type.csv", "predict_type.json"]),
        Step("verify-coherence", ["verify"],
             {"suite": "coherence", "testbed": "rat2", "tol": 1e-6, "max_order": 3},
             ["coherence.json"], "coherence"),
        Step("verify-pl", ["verify"],
             {"suite": "pl", "testbed": "poly", "polysector": {"sectors": [_PL_SECTOR] * 2}},
             ["pl.json"], "pl"),
        Step("verify-remainder", ["verify"],
             {"suite": "remainder", "testbed": "euler", "directions": [0.0, 0.5236],
              "radii": _RADII_TYPE, "rel_tol": 0.15},
             ["remainder.json"], "remainder"),
        Step("verify-first-order", ["verify"],
             {"suite": "first-order", "testbed": "rat2", "tol": 1e-6},
             ["first_order.json"], "first_order"),
        Step("list-testbed", ["list-testbed"], None, ["testbed.json"]),
    ]


WORKLOADS = {
    "interpolate-rat2": interpolate_rat2,
    "coherence-gevrey2": coherence_gevrey2,
    "readme-sweep": readme_sweep,
}


def err_ratios(step: Step, out: Path) -> list[float]:
    """Reported error over stated tolerance, for each verdict the step's reports carry.

    Raises ValueError when a report that carries a verdict says it failed.
    """
    if not step.kind:
        return []
    rep = json.loads((out / step.reports[-1]).read_text())
    if rep.get("ok") is not True:
        raise ValueError(f"{step.name}: report verdict is not ok")
    if step.kind == "interpolate":
        return [rep["worst_abs_err"] / rep["tol"]]
    if step.kind in ("coherence", "first_order"):
        inner = rep["report"]
        if inner["checked_pairs"] < 1 or inner["probe_failures"]:
            raise ValueError(f"{step.name}: no pairs checked or probe failures")
        return [inner["max_residual"] / inner["tolerance"]]
    if step.kind == "remainder":
        return [d["rel_err"] / rep["rel_tol"] for d in rep["directions"]]
    if step.kind == "pl":
        if rep["report"]["eval_failures"]:
            raise ValueError(f"{step.name}: evaluation failures")
        return []
    raise AssertionError(step.kind)


def write_configs(steps: list[Step], workdir: Path) -> list[tuple[Step, list[str], Path]]:
    """Write each step's config under ``workdir``; return (step, cli argv, out dir)."""
    plan = []
    for i, step in enumerate(steps):
        out = workdir / f"{i:02d}-{step.name}"
        argv = list(step.args)
        if step.config is not None:
            cfg_path = workdir / f"{i:02d}-{step.name}.json"
            cfg_path.write_text(json.dumps(step.config, sort_keys=True, indent=1) + "\n")
            argv += ["--config", str(cfg_path)]
        argv += ["--out", str(out)]
        plan.append((step, argv, out))
    return plan
