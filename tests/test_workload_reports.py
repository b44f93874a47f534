"""Pinned workload reports: each benchmark workload step, run in-process, against its golden.

``tests/data/workloads`` holds the configs and reports of the three benchmark
workloads (interpolate-rat2, coherence-gevrey2, readme-sweep) at seeds
20250808 and 4242, as ``tests/data/regenerate_goldens.py`` wrote them, and a
manifest naming each step's arguments, exit code and report files.  A run
must write the same files with the same exit code; in every report the key
sets, strings, integers, booleans and verdicts are equal and every float has
the same bits.  A change that moves a number regenerates the goldens with that
script, which prints each move.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from polygevrey.cli import main

DATA = Path(__file__).resolve().parent / "data" / "workloads"
MANIFEST = json.loads((DATA / "manifest.json").read_text())


def run_step(step: dict, data: Path, out: Path) -> int:
    """Run one manifest step through ``cli.main``, its config read under ``data``, its reports written to ``out``."""
    argv = list(step["args"])
    if step["config"] is not None:
        argv += ["--config", str(data / step["config"])]
    return main(argv + ["--out", str(out)])


def _number(text: str):
    try:
        return float(text)  # every CSV number is written with 17 significant digits
    except ValueError:
        return text


def _flatten(obj, path: str, flat: dict) -> None:
    if isinstance(obj, dict):
        flat[path or "/"] = f"<object of keys {sorted(obj)}>"
        for key, value in obj.items():
            _flatten(value, f"{path}/{key}", flat)
    elif isinstance(obj, list):
        flat[path or "/"] = f"<array of {len(obj)}>"
        for i, value in enumerate(obj):
            _flatten(value, f"{path}[{i}]", flat)
    else:
        flat[path] = obj


def report_values(path: Path) -> dict:
    """A report's scalars keyed by where they sit: a JSON path, or the row, column (and part) of a CSV cell.

    Containers and the CSV header appear as strings naming their keys or
    length, so a changed key set or row count is a changed string.
    """
    if path.suffix == ".json":
        flat: dict = {}
        _flatten(json.loads(path.read_text()), "", flat)
        return flat
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    flat = {"header": ",".join(header), "rows": len(rows)}
    for i, row in enumerate(rows, 1):
        flat[f"row {i} width"] = len(row)
        for col, cell in zip(header, row):
            parts = cell.split(" ")  # a complex cell is "re im"
            for part, text in zip(["re", "im"] if len(parts) == 2 else [""], parts):
                flat[f"row {i} {col} {part}".rstrip()] = _number(text)
    return flat


def compare_reports(old: dict, new: dict) -> tuple[list[str], list[tuple[str, float, float, float]]]:
    """(changed, moved): every key or non-float value that differs, and every float whose bits differ.

    A moved float is (key, old, new, relative move |new - old| / |old|).
    """
    changed, moved = [], []
    for key in sorted(old.keys() | new.keys(), key=str):
        if key not in old or key not in new:
            changed.append(f"{key}: only in the {'run' if key in new else 'golden'}")
            continue
        a, b = old[key], new[key]
        if type(a) is float and type(b) is float:
            if a.hex() != b.hex():
                moved.append((key, a, b, abs(b - a) / abs(a) if a else float("inf")))
        elif type(a) is not type(b) or a != b:
            changed.append(f"{key}: {a!r} -> {b!r}")
    return changed, moved


def step_differences(step: dict, golden: Path, out: Path) -> tuple[list[str], list[tuple]]:
    """Every changed value and moved float of one step's reports, each prefixed by the report's name."""
    changed, moved = [], []
    for name in step["reports"]:
        c, m = compare_reports(report_values(golden / name), report_values(out / name))
        changed += [f"{name} {line}" for line in c]
        moved += [(name,) + move for move in m]
    return changed, moved


def describe(changed: list[str], moved: list[tuple]) -> str:
    lines = [f"changed: {line}" for line in changed]
    lines += [f"moved: {name} {key}: {old!r} -> {new!r} (relative {rel:.3g})" for name, key, old, new, rel in moved]
    if moved:
        name, key, _, _, rel = max(moved, key=lambda m: m[4])
        lines.append(f"largest relative move: {rel:.3g} ({name} {key})")
    return "\n".join(lines)


@pytest.mark.parametrize("step", MANIFEST["steps"], ids=[step["id"] for step in MANIFEST["steps"]])
def test_report_matches_golden(step, tmp_path):
    out = tmp_path / "out"
    assert run_step(step, DATA, out) == step["exit"]
    golden = DATA / step["id"]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir()) == sorted(step["reports"])
    changed, moved = step_differences(step, golden, out)
    assert not changed and not moved, (
        f"{step['id']} differs from its golden (written with numpy {MANIFEST['numpy']}, this run numpy "
        f"{np.__version__}); if the change is meant, run tests/data/regenerate_goldens.py and list the moves\n"
        + describe(changed, moved)
    )


def test_compare_names_every_moved_number(tmp_path):
    golden, run = tmp_path / "golden.json", tmp_path / "run.json"
    golden.write_text(json.dumps({"ok": True, "err": 1.0, "rows": [0.5, 2.0], "note": "a"}))
    run.write_text(json.dumps({"ok": True, "err": 1.0 + 2**-52, "rows": [0.5, 2.5], "note": "b", "extra": 1}))
    changed, moved = compare_reports(report_values(golden), report_values(run))
    assert changed == ["/: \"<object of keys ['err', 'note', 'ok', 'rows']>\" -> "
                       "\"<object of keys ['err', 'extra', 'note', 'ok', 'rows']>\"",
                       "/extra: only in the run", "/note: 'a' -> 'b'"]
    assert moved == [("/err", 1.0, 1.0 + 2**-52, 2**-52), ("/rows[1]", 2.0, 2.5, 0.25)]
    text = describe([], [("run.json",) + m for m in moved])
    assert text.endswith("largest relative move: 0.25 (run.json /rows[1])")
    # every CSV number is a float, a complex cell splits in two, and other text stays text
    csv = tmp_path / "r.csv"
    csv.write_text("n,value,kind\n3,0.5 -1,gevrey\n")
    assert report_values(csv) == {"header": "n,value,kind", "rows": 1, "row 1 width": 3, "row 1 n": 3.0,
                                  "row 1 value re": 0.5, "row 1 value im": -1.0, "row 1 kind": "gevrey"}
