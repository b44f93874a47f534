"""Regenerate the pinned workload reports that tests/test_workload_reports.py checks.

Usage (from the repository root):

    python3 tests/data/regenerate_goldens.py

Writes each step of the three benchmark workloads (``bench/workloads.py``) at
seeds 20250808 and 4242: its config, with the bytes ``bench/run.py`` writes,
and the reports of one in-process ``polygevrey.cli.main`` run.  Prints every
value that changed and every number that moved against the goldens it
replaces (report, key, old value, new value, relative move), then replaces
``tests/data/workloads`` and its manifest, which records the numpy version
that wrote the reports.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(HERE.parent)]

import numpy as np  # noqa: E402
import test_workload_reports as T  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = (W.DEFAULT_SEED, 4242)


def write_goldens(data: Path) -> list[dict]:
    """Write every step's config and reports under ``data``; return the manifest's steps."""
    steps = []
    for seed in SEEDS:
        for workload, make in W.WORKLOADS.items():
            (data / str(seed) / workload).mkdir(parents=True)
            for step, argv, out in W.write_configs(make(seed), data / str(seed) / workload):
                config = Path(argv[argv.index("--config") + 1]) if step.config is not None else None
                entry = {
                    "id": out.relative_to(data).as_posix(),
                    "args": step.args,
                    "config": config and config.relative_to(data).as_posix(),
                    "reports": sorted(step.reports),
                }
                with contextlib.redirect_stdout(io.StringIO()):  # list-testbed prints its listing
                    entry["exit"] = T.run_step(entry, data, out)
                steps.append(entry)
    return steps


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "workloads"
        steps = write_goldens(data)
        changed, moved = [], []
        for step in steps:
            if (T.DATA / step["id"]).is_dir():
                c, m = T.step_differences(step, T.DATA / step["id"], data / step["id"])
                changed += [f"{step['id']}/{line}" for line in c]
                moved += [(f"{step['id']}/{move[0]}",) + move[1:] for move in m]
            else:
                changed.append(f"{step['id']}: new step")
        print(T.describe(changed, moved) or "no value changed and no number moved")
        manifest = {"numpy": np.__version__, "python": sys.version.split()[0], "steps": steps}
        (data / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
        shutil.rmtree(T.DATA, ignore_errors=True)
        shutil.copytree(data, T.DATA)
    return 0


if __name__ == "__main__":
    sys.exit(main())
