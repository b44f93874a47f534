"""Run one ``polygevrey`` CLI invocation in-process with per-layer tracing.

Usage: python3 bench/tracer.py STATS_JSON SPANS_JSONL -- <cli args...>

Imports ``polygevrey`` (``src`` must be on PYTHONPATH), rebinds the public
functions of each layer to timing wrappers in every ``polygevrey`` module
that holds them (the CLI and ``families`` import several of them by name),
then calls ``polygevrey.cli.main(argv)``.  Spans stay in memory and are written to
SPANS_JSONL when the call returns; per-layer counts and self times go to
STATS_JSON.  The exit code is the CLI's.

A span's self time is its duration minus the durations of the spans it
directly contains, so a radius ladder running inside a quadrature integrand
is charged to the ladder, not to the quadrature.  The integrand passed to
``adaptive_panel_quad`` and the ``evalfn`` passed to
``axis_coefficient_ladder`` are wrapped for counting only.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list = []  # [span index, time covered by child spans]
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.spans[idx] = (name, t0, t1, parent)
                self.self_s[name] += dur - frame[1]
                self.incl_s[name] += dur
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_s += dur
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _replace_arg(args, kwargs, pos, key, value):
    if len(args) > pos:
        args = args[:pos] + (value,) + args[pos + 1 :]
    else:
        kwargs = dict(kwargs, **{key: value})
    return args, kwargs


class _CountingCallable:
    """Stand-in for a function object that counts calls and forwards attributes."""

    def __init__(self, fn, on_call):
        self._fn = fn
        self._on_call = on_call

    def __call__(self, *args, **kwargs):
        self._on_call(args)
        return self._fn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fn, name)


def install(tracer: Tracer) -> None:
    """Rebind each traced function in every loaded ``polygevrey`` module."""
    import polygevrey  # noqa: F401  (loads every submodule)
    from polygevrey import families, flatness_bounds, series, transforms, typecalc

    c = tracer.counts

    def quad_before(args, kwargs):
        fvec = _arg(args, kwargs, 0, "fvec")

        def counted(s):
            vals = fvec(s)
            c["transforms.quad.panels"] += 1
            c["transforms.quad.integrand_evals"] += int(np.size(vals))
            return vals

        return _replace_arg(args, kwargs, 0, "fvec", counted)

    def laplace_after(result, args, kwargs):
        c["transforms.laplace.points"] += int(np.size(_arg(args, kwargs, 2, "z")))

    def evaluate_many_after(result, args, kwargs):
        c["series.evaluate_many.points"] += int(np.size(result))

    def ladder_before(args, kwargs):
        evalfn = _arg(args, kwargs, 0, "evalfn")

        def counted(w):
            c["families.ladder.rungs"] += 1
            c["families.ladder.eval_points"] += int(np.size(w))
            return evalfn(w)

        return _replace_arg(args, kwargs, 0, "evalfn", counted)

    def ladder_after(result, args, kwargs):
        conv = np.asarray(result[2])
        c["families.ladder.limits"] += int(conv.size)
        c["families.ladder.unconverged"] += int(np.count_nonzero(~conv))

    def extract_after(result, args, kwargs):
        c["families.extract.unconverged"] += int(not result.converged)

    def coherence_after(report, args, kwargs):
        c["families.coherence.pairs_checked"] += int(report.checked_pairs)
        c["families.coherence.probe_failures"] += int(len(report.probe_failures))

    def app_n_after(result, args, kwargs):
        c["families.app_n.points"] += int(np.size(result))

    def pl_before(args, kwargs):
        def on_call(_args):
            c["flatness_bounds.pl_check.points"] += 1

        f = _CountingCallable(_arg(args, kwargs, 0, "f"), on_call)
        return _replace_arg(args, kwargs, 0, "f", f)

    def pl_after(report, args, kwargs):
        c["flatness_bounds.pl_check.eval_failures"] += int(report.eval_failures)

    plan = [
        (transforms, "adaptive_panel_quad", "transforms.quad", quad_before, None),
        (transforms, "truncated_laplace_with_error", "transforms.laplace", None, laplace_after),
        (transforms, "truncated_laplace_nd", "transforms.laplace_nd", None, None),
        (transforms, "interpolate_first_order", "transforms.interpolate", None, None),
        (series, "evaluate_many", "series.evaluate_many", None, evaluate_many_after),
        (families, "axis_coefficient_ladder", "families.ladder", ladder_before, ladder_after),
        (families, "extract_element", "families.extract", None, extract_after),
        (families, "check_coherence", "families.coherence", None, coherence_after),
        (families, "check_first_order_coherence", "families.coherence", None, coherence_after),
        (families, "app_n_many", "families.app_n", None, app_n_after),
        (families, "remainder_constants", "families.remainder", None, None),
        (families, "family_from_series", "families.family_from_series", None, None),
        (typecalc, "final_type", "typecalc.final_type", None, None),
        (flatness_bounds, "pl_check", "flatness_bounds.pl_check", pl_before, pl_after),
    ]
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "polygevrey"]
    for home, attr, name, before, after in plan:
        original = getattr(home, attr)
        traced = tracer.wrap(name, original, before, after)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, traced)


def stats(tracer: Tracer, main_s: float) -> dict:
    from polygevrey import typecalc

    counts = tracer.counts
    out = {key: int(v) for key, v in counts.items()}
    for name, v in tracer.self_s.items():
        out[name + ".self_s"] = v
    out["transforms.interpolate.build_s"] = tracer.incl_s.get("transforms.interpolate", 0.0)
    out["typecalc.g_of_delta.misses"] = int(typecalc.g_of_delta.cache_info().misses)
    out["cli.other_s"] = main_s - tracer.top_s
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stats_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    from polygevrey import cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    with open(stats_path, "w") as fh:
        json.dump(stats(tracer, main_s), fh, sort_keys=True)
    with open(spans_path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}))
            fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
