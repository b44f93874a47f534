"""polygevrey benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``bench/workloads.py``.  One process (this one) runs
the workload's ``polygevrey`` CLI jobs as subprocesses, one child at a time,
repeating the job until the next repetition would overrun ``--seconds``
(at least one job always runs).  Every job's outputs are checked: exit code,
the report's ``ok`` verdict, error/tolerance ratios at most 1, and a digest
of every report file equal to the first recorded digest for the same source
tree, workload and seed.  A job that fails a check contributes no timing.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is scaled to a
reference host speed measured in the same run by a fixed calibration child
(see ``CALIBRATION``).  ``--trace 1`` alternates untraced jobs with jobs run
under ``bench/tracer.py`` and prints the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records (environment, per-job samples,
metrics) are written under ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

IMPORTTIME_PROBES = 3
DEADLINE = time.perf_counter() + 165.0  # every child is killed by then; a run must end within 180 s
PER_LAYER = [
    ("transforms.quad.calls", "count"),
    ("transforms.quad.panels", "count"),
    ("transforms.quad.integrand_evals", "count"),
    ("transforms.quad.self_s", "s"),
    ("transforms.laplace.calls", "count"),
    ("transforms.laplace.points", "count"),
    ("transforms.laplace.self_s", "s"),
    ("transforms.laplace_nd.calls", "count"),
    ("transforms.laplace_nd.self_s", "s"),
    ("transforms.interpolate.build_s", "s"),
    ("series.evaluate_many.calls", "count"),
    ("series.evaluate_many.points", "count"),
    ("series.evaluate_many.self_s", "s"),
    ("families.ladder.calls", "count"),
    ("families.ladder.rungs", "count"),
    ("families.ladder.eval_points", "count"),
    ("families.ladder.limits", "count"),
    ("families.ladder.unconverged", "count"),
    ("families.ladder.converged_frac", "ratio"),
    ("families.ladder.self_s", "s"),
    ("families.extract.calls", "count"),
    ("families.extract.unconverged", "count"),
    ("families.extract.self_s", "s"),
    ("families.coherence.pairs_checked", "count"),
    ("families.coherence.probe_failures", "count"),
    ("families.coherence.self_s", "s"),
    ("families.app_n.calls", "count"),
    ("families.app_n.points", "count"),
    ("families.app_n.self_s", "s"),
    ("families.remainder.self_s", "s"),
    ("families.family_from_series.self_s", "s"),
    ("typecalc.g_of_delta.misses", "count"),
    ("typecalc.final_type.calls", "count"),
    ("typecalc.final_type.self_s", "s"),
    ("flatness_bounds.pl_check.points", "count"),
    ("flatness_bounds.pl_check.eval_failures", "count"),
    ("flatness_bounds.pl_check.self_s", "s"),
    ("cli.other_s", "s"),
    ("setup.polygevrey_self_s", "s"),
    ("setup.numpy_s", "s"),
    ("setup.scipy_special_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Default thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def environment(src_key: str) -> dict:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        git = None
    if git is not None and git.returncode == 0:
        commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_default_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": src_key,
    }


def source_key() -> str:
    """Digest of the program source and of the benchmark's inputs and tracer."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    for path in files + [HERE / "workloads.py", HERE / "tracer.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# children


def run_child(cmd: list[str], env: dict, log: Path, timeout: float) -> dict:
    """Run one child to completion; return its wall time, CPU time, max RSS and exit code."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# A fixed computation that does not touch polygevrey: interpreter start-up,
# the numpy import, a bytecode loop and small numpy/BLAS kernels.  On the
# host this benchmark was defined on, a short process runs at one of two
# speeds about 40% apart and the mix drifts over minutes.  The import time
# divided by the calibration time drifts about half as much as the import
# time, so setup_s is reported at the reference speed:
# raw seconds * CALIBRATION_REF_S / mean calibration seconds.
# (Job times are left raw: on multi-process and long jobs the placements
# already average out, and scaling them added the calibration's own noise.)
CALIBRATION = """
import numpy as np
s = 0
for k in range(400000):
    s += k * k
z = np.linspace(0.1, 1.0, 4000) * (1 + 1j)
a = np.ones((128, 11))
b = np.ones((11, 128))
for _ in range(300):
    w = np.fft.fft(np.exp(-z) * z)
    c = a @ b
"""
CALIBRATION_REF_S = 0.33  # its mean wall time on the 2-core Xeon host the bounds were set on
SETUP_PROBES = 8  # import and calibration samples per run, half before the jobs and half after


def calibrate(env: dict, workdir: Path) -> float:
    res = run_child([sys.executable, "-c", CALIBRATION], env, workdir / "calibration.log", 60.0)
    if res["code"] != 0:
        raise BenchError("calibration child failed: " + (workdir / "calibration.log").read_text())
    return res["wall_s"]


def measure_setup(env: dict, workdir: Path) -> float:
    """Wall time of a fresh ``import polygevrey.cli``."""
    res = run_child([sys.executable, "-c", "import polygevrey.cli"], env, workdir / "setup.log", 60.0)
    if res["code"] != 0:
        raise BenchError("`import polygevrey.cli` failed: " + (workdir / "setup.log").read_text())
    return res["wall_s"]


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def measure_importtime(env: dict, workdir: Path) -> dict[str, float]:
    """Median per-module import cost from ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import polygevrey.cli"]
    runs = []
    for _ in range(IMPORTTIME_PROBES):
        log = workdir / "importtime.log"
        if run_child(cmd, env, log, 60.0)["code"] != 0:
            raise BenchError("`import polygevrey.cli` failed under -X importtime")
        own, cumulative = 0, {}
        for m in _IMPORTTIME.finditer(log.read_text()):
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name.split(".")[0] == "polygevrey":
                own += self_us
            cumulative.setdefault(name, cum_us)
        runs.append({
            "setup.polygevrey_self_s": own * 1e-6,
            "setup.numpy_s": cumulative.get("numpy", 0) * 1e-6,
            "setup.scipy_special_s": cumulative.get("scipy.special", 0) * 1e-6,
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One workload repetition: every step as its own child, then the output checks."""

    def __init__(self, plan, env, workdir: Path, digest_path: Path):
        self.plan = plan
        self.env = env
        self.workdir = workdir
        self.digest_path = digest_path

    def run(self, traced: bool) -> dict:
        children, ratios, layer = [], [], {}
        problems = []
        for i, (step, argv, out) in enumerate(self.plan):
            shutil.rmtree(out, ignore_errors=True)
            if traced:
                stats = self.workdir / f"{i:02d}-stats.json"
                spans = self.workdir / f"{i:02d}-spans.jsonl"
                cmd = [sys.executable, str(HERE / "tracer.py"), str(stats), str(spans), "--"]
            else:
                cmd = [sys.executable, "-m", "polygevrey.cli"]
            timeout = max(1.0, DEADLINE - time.perf_counter())
            res = run_child(cmd + argv, self.env, self.workdir / f"{i:02d}.log", timeout)
            children.append(res)
            if res["code"] != 0:
                problems.append(f"{step.name}: exit code {res['code']}")
                continue
            try:
                step_ratios = W.err_ratios(step, out)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{step.name}: {exc}")
                continue
            ratios += step_ratios
            if any(not r <= 1.0 for r in step_ratios):
                problems.append(f"{step.name}: error over tolerance {max(step_ratios):.3g}")
            if traced:
                for key, val in json.loads(stats.read_text()).items():
                    layer[key] = layer.get(key, 0) + val
        if not problems:
            problems += self._check_digest()
        return {
            "traced": traced,
            "ok": not problems,
            "problems": problems,
            "wall_s": sum(c["wall_s"] for c in children),
            "cpu_s": sum(c["cpu_s"] for c in children),
            "rss_mb": max(c["rss_mb"] for c in children),
            "err_to_tol": max(ratios, default=0.0),
            "layer": layer,
        }

    def _check_digest(self) -> list[str]:
        h = hashlib.sha256()
        for step, _argv, out in self.plan:
            for name in step.reports:
                h.update(name.encode() + b"\0" + (out / name).read_bytes())
        digest = h.hexdigest()
        if not self.digest_path.exists():
            self.digest_path.write_text(digest + "\n")
            return []
        want = self.digest_path.read_text().strip()
        return [] if digest == want else [f"report digest {digest[:12]} != first run's {want[:12]}"]


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(name: str, values: list[float], unit: str) -> str:
    return (f"  {name:<34} median {statistics.median(values):.6g} {unit}"
            f"  IQR {quartile_spread(values):.3g}  n={len(values)}")


def run_jobs(job: Job, seconds: float, first: list[bool], cycle: list[bool]) -> list[dict]:
    """Run the jobs listed in ``first`` (True means traced), then cycle through
    ``cycle`` while the next job, taken to last as long as the previous one,
    ends within ``seconds``.  A job of ``first`` that would end past the
    run's deadline is skipped instead."""
    start = time.perf_counter()
    results = []
    for traced in first:
        if results and time.perf_counter() + results[-1]["wall_s"] > DEADLINE - 5.0:
            print("note: skipped a job that would end past the run deadline")
            continue
        results.append(job.run(traced))
    for k in itertools.count():
        end = time.perf_counter() + results[-1]["wall_s"]
        if end - start > seconds or end > DEADLINE - 5.0:
            return results
        results.append(job.run(cycle[k % len(cycle)]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polygevrey" / "cli.py").is_file():
        print(f"error: no polygevrey sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    state = WORK / "state"
    state.mkdir(exist_ok=True)
    key = source_key()
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(key)}
    print("environment: " + json.dumps(record["env"], sort_keys=True))

    plan = W.write_configs(W.WORKLOADS[args.workload](args.seed), run_dir)
    tag = f"{key[:16]}-{args.workload}-{args.seed}"
    job = Job(plan, env, run_dir, state / f"digest-{tag}.txt")
    try:
        if args.trace:
            setup = measure_importtime(env, run_dir)
            jobs = run_jobs(job, args.seconds, [False, True, True], [False, True])
        else:
            measure_setup(env, run_dir)  # warm-up: byte-compiles src/ on a fresh checkout
            setup = {"setup_s": [], "calibration_s": []}

            def probe():
                for _ in range(SETUP_PROBES // 2):
                    setup["calibration_s"].append(calibrate(env, run_dir))
                    setup["setup_s"].append(measure_setup(env, run_dir))

            probe()
            jobs = run_jobs(job, args.seconds, [False], [False])
            probe()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    good = [j for j in jobs if j["ok"]] or jobs
    failed = sum(not j["ok"] for j in jobs)
    for j in jobs:
        for p in j["problems"]:
            print(f"FAILED check: {p}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs, {failed} failed (fail_frac {failed / len(jobs):.3g})")
    if args.trace:
        try:
            correct, metrics = per_layer_metrics(good, setup, state / f"counts-{tag}.json")
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        correct = correct and failed == 0
    else:
        correct = failed == 0
        metrics = end_to_end_metrics(good, setup, len(jobs), failed)
    record.update(jobs=jobs, setup=setup, metrics=metrics, correct=correct)
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(jobs: list[dict], setup: dict, attempted: int, failed: int) -> dict:
    """Timed metrics are means, not medians: on the reference host a process
    runs at one of two speeds, a median over a run's samples flips between
    them, and the mean drifted less from run to run (see README.md)."""
    for name in ("wall_s", "cpu_s"):
        print(summarize(name + " (per job)", [j[name] for j in jobs], "s"))
    for name in ("setup_s", "calibration_s"):
        print(summarize(name + " (raw)", setup[name], "s"))
    speed = CALIBRATION_REF_S / statistics.fmean(setup["calibration_s"])
    metrics = {
        "wall_s": {"value": statistics.fmean(j["wall_s"] for j in jobs), "unit": "s"},
        "cpu_s": {"value": statistics.fmean(j["cpu_s"] for j in jobs), "unit": "s"},
        "setup_s": {"value": statistics.fmean(setup["setup_s"]) * speed, "unit": "s"},
        "peak_rss_mb": {"value": max(j["rss_mb"] for j in jobs), "unit": "MB"},
        "err_to_tol": {"value": max(j["err_to_tol"] for j in jobs), "unit": "ratio"},
        "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    return metrics


def per_layer_metrics(jobs: list[dict], setup: dict, counts_path: Path) -> tuple[bool, dict]:
    """Median self times over traced jobs; counts must repeat exactly, within
    this run and against the first traced run of the same source and inputs."""
    traced = [j["layer"] for j in jobs if j["traced"]]
    plain = [j["wall_s"] for j in jobs if not j["traced"]]
    if not traced or not plain:
        raise BenchError("no traced or no untraced job passed its checks")
    units = dict(PER_LAYER)
    counts = {k: v for k, v in traced[0].items() if not k.endswith("_s")}
    correct = True
    for other in traced[1:]:
        if {k: v for k, v in other.items() if not k.endswith("_s")} != counts:
            print("FAILED check: per-layer counts differ between traced jobs of this run")
            correct = False
    if counts_path.exists():
        if json.loads(counts_path.read_text()) != counts:
            print(f"FAILED check: per-layer counts differ from {counts_path.name}")
            correct = False
    else:
        counts_path.write_text(json.dumps(counts, sort_keys=True))
    metrics = {}
    for name, unit in PER_LAYER:
        if unit == "count":
            value = counts.get(name, 0)
        elif name in setup:
            value = setup[name]
        else:
            value = statistics.median(t.get(name, 0.0) for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    limits = counts.get("families.ladder.limits", 0)
    metrics["families.ladder.converged_frac"]["value"] = (
        1.0 - counts.get("families.ladder.unconverged", 0) / limits if limits else 1.0
    )
    overhead = statistics.median(j["wall_s"] for j in jobs if j["traced"]) - statistics.median(plain)
    metrics["trace.overhead_s"]["value"] = overhead
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {units[name]}")
    return correct, metrics


if __name__ == "__main__":
    raise SystemExit(main())
