"""Span recorder for one traced CLI process, and per-layer totals.

Run as a script, this is a drop-in for ``python -m effectlab.cli``::

    python3 perfbench/spans.py SPANS.json estimate --path cm ...

It wraps the public functions of each effectlab layer under every name a
caller binds them to (``effectlab.cli.ingest_log``, ``effectlab.sim.mc_shapley``
and the module attribute that lazy imports read), runs ``effectlab.cli.main``
and writes the spans to SPANS.json when the command ends. A span is
``[id, parent, name, start, end, attrs]``; attrs hold counts taken from return
values, so the program itself is not edited. Targets that no longer exist are
skipped and listed in the file.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _shape(args, kwargs, out):
    rows, params = out.shape
    return {"rows": int(rows), "params": int(params)}


def _cells(args, kwargs, out):
    return {"cells": int(out[0].size)}


def _contexts(args, kwargs, out):
    return {"contexts": int(sum(out.contexts_checked))}


def _search(args, kwargs, out):
    traces = out[1]
    return {"sweeps": sum(len(t.steps) for t in traces), "restarts": len(traces),
            "endpoints": len({tuple(t.final) for t in traces})}


def _resample(args, kwargs, out):
    # Response and weight columns identify a bootstrap resample.
    h = hashlib.sha1(args[1].tobytes())
    h.update(args[2].tobytes())
    return {"input": h.hexdigest()}


# (span name, module, attribute, attrs from the call)
TARGETS = [
    ("space.ingest_log", "effectlab.space", "ingest_log", _rows),
    ("space.log_from_arrays", "effectlab.space", "log_from_arrays", _rows),
    ("space.support_counts", "effectlab.space", "support_counts", None),
    ("effects.estimate_effects_cm", "effectlab.effects", "estimate_effects_cm", None),
    ("effects.bootstrap_cis", "effectlab.effects", "bootstrap_cis", None),
    ("effects.estimate_arrays", "effectlab.effects", "_estimate_arrays", _resample),
    ("shapley.mc_shapley", "effectlab.shapley", "mc_shapley", None),
    ("shapley.build_design_matrix", "effectlab.shapley", "build_design_matrix", _shape),
    ("shapley.fit_effects_sf", "effectlab.shapley", "fit_effects_sf", None),
    ("shapley.write_shapley_csv", "effectlab.shapley", "write_shapley_csv", None),
    ("objective.objective_grid", "effectlab.objective", "objective_grid", _cells),
    ("optimize.diag_dominance_check", "effectlab.optimize", "diag_dominance_check", _contexts),
    ("optimize.multistart", "effectlab.optimize", "multistart", _search),
    ("sim.run_trial", "effectlab.sim", "run_trial", None),
    ("sim.make_log", "effectlab.sim", "make_log", None),
]


class Recorder:
    """Spans kept in memory; the open-span stack gives each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, out)
            return out
        return wrapper


def instrument(recorder: Recorder) -> list[str]:
    """Rebind every target in every loaded effectlab module; return the
    targets that were not found."""
    importlib.import_module("effectlab.cli")
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "effectlab" or n.startswith("effectlab."))]
    missing = []
    for name, module, attr, measure in TARGETS:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = recorder.wrap(name, original, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    oracle_cls = getattr(sys.modules["effectlab.shapley"], "ValueOracle", None)
    if oracle_cls is not None and "from_log" in vars(oracle_cls):
        from_log = vars(oracle_cls)["from_log"].__func__
        oracle_cls.from_log = classmethod(recorder.wrap("shapley.oracle", from_log))
    else:
        missing.append("shapley.oracle")
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = instrument(recorder)
    cli = sys.modules["effectlab.cli"]
    code = 1
    try:
        code = recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)
    return code


# ---------------------------------------------------------------------------
# Per-layer totals (used by run.py)
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "space.ingest_log.s": "s", "space.ingest_log.rows": "count",
    "space.log_from_arrays.s": "s", "space.log_from_arrays.rows": "count",
    "space.support_counts.calls": "count", "space.support_counts.s": "s",
    "effects.estimate_effects_cm.s": "s", "effects.bootstrap_cis.s": "s",
    "effects.estimate_arrays.calls": "count", "effects.estimate_arrays.s": "s",
    "effects.replicate_useful_ratio": "ratio",
    "shapley.oracle.s": "s",
    "shapley.mc_shapley.s": "s", "shapley.mc_shapley.calls": "count",
    "shapley.build_design_matrix.s": "s", "shapley.build_design_matrix.calls": "count",
    "shapley.design.rows": "count", "shapley.design.params": "count",
    "shapley.fit_effects_sf.self_s": "s", "shapley.write_shapley_csv.s": "s",
    "objective.objective_grid.s": "s", "objective.grid_cells": "count",
    "optimize.diag_dominance_check.s": "s", "optimize.contexts_checked": "count",
    "optimize.multistart.s": "s", "optimize.sweeps": "count",
    "optimize.distinct_endpoint_ratio": "ratio",
    "sim.run_trial.s": "s", "sim.run_trial.calls": "count", "sim.make_log.s": "s",
    "sim.design_cache_hit_ratio": "ratio",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_totals(span_files: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass: spans of every command process in it.

    ``.s`` is inclusive time summed over calls, ``self_s`` subtracts the
    direct child spans. Ratios with an empty base are reported as 0.
    """
    time_of: dict[str, float] = {}
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    replicate_inputs: list[str] = []
    for spans in span_files:
        child_time = [0.0] * len(spans)
        for sid, parent, name, start, end, attr in spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, parent, name, start, end, attr in spans:
            time_of[name] = time_of.get(name, 0.0) + (end - start)
            self_of[name] = self_of.get(name, 0.0) + (end - start - child_time[sid])
            calls[name] = calls.get(name, 0) + 1
            if attr is not None:
                attrs.setdefault(name, []).append(attr)
            if name == "effects.estimate_arrays" and (
                    parent is None or spans[parent][2] != "effects.estimate_effects_cm"):
                replicate_inputs.append(attr["input"])

    def total(name, key):
        return sum(a[key] for a in attrs.get(name, []))

    fits = calls.get("shapley.fit_effects_sf", 0)
    builds = calls.get("shapley.build_design_matrix", 0)
    designs = attrs.get("shapley.build_design_matrix", [])
    out = {
        "space.ingest_log.rows": total("space.ingest_log", "rows"),
        "space.log_from_arrays.rows": total("space.log_from_arrays", "rows"),
        "effects.replicate_useful_ratio": _ratio(len(set(replicate_inputs)),
                                                 len(replicate_inputs)),
        "shapley.design.rows": max((a["rows"] for a in designs), default=0),
        "shapley.design.params": max((a["params"] for a in designs), default=0),
        "shapley.fit_effects_sf.self_s": self_of.get("shapley.fit_effects_sf", 0.0),
        "objective.grid_cells": total("objective.objective_grid", "cells"),
        "optimize.contexts_checked": total("optimize.diag_dominance_check", "contexts"),
        "optimize.sweeps": total("optimize.multistart", "sweeps"),
        "optimize.distinct_endpoint_ratio": _ratio(total("optimize.multistart", "endpoints"),
                                                   total("optimize.multistart", "restarts")),
        "sim.design_cache_hit_ratio": 1.0 - builds / fits if fits else 0.0,
        "cli.self_s": self_of.get("cli.main", 0.0),
    }
    for metric in LAYER_UNITS:
        if metric in out:
            continue
        span, _, kind = metric.rpartition(".")
        out[metric] = calls.get(span, 0) if kind == "calls" else time_of.get(span, 0.0)
    return {metric: out[metric] for metric in LAYER_UNITS}


def median_totals(passes: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(p[m] for p in passes) for m in LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
