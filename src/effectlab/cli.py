"""Command-line entry point for reproducible batch workflows.

Subcommands: estimate, optimize, pci, plan, simulate, ablate. Every run
writes its artifacts plus one manifest recording the resolved configuration,
input digests, seed, and tool version; re-running with an identical manifest
reproduces byte-identical data files. All randomness flows from --seed,
except the sampled dominance certificate of large spaces, which draws its
contexts from a fixed SeedSequence(0).

``run()`` is the process entry (``python -m effectlab.cli`` and the
``effectlab`` script): ``main()``, with the heap frozen at exit so the
interpreter's final collections skip it. ``main()`` is the in-process entry
and leaves the garbage collector alone.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__

# Layers every process loads: space, effects and objective come with the
# package, which binds the function ``objective``, and attribution stays
# loaded because the per-layer tracer, perfbench/spans.py, reads
# effectlab.shapley from sys.modules once it has imported this module. The
# search, the simulator and the PCI and planning helpers are imported by the
# commands that run them, so no other command pays for compiling them.
from .effects import ShrinkageSpec, bootstrap_cis, estimate_from_log
from .objective import CostModel, ObjectiveSpec, PairwiseObjective, objective_grid
from .shapley import write_shapley_csv
from .space import ReferenceDistribution, ingest_log, load_space, open_atomic, write_csv


# optimize scores the whole grid for topk.csv only up to this many cells.
TOPK_GRID_CAP = 100_000


class CommandError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _non_finite(value, keys=()) -> tuple[tuple, float] | None:
    """The key path to the first non-finite float in a JSON payload, and
    that float, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (keys, value)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite(item, keys + (key,))
        if found:
            return found
    return None


def _write_json(path: Path, payload) -> None:
    """``payload`` as JSON, written through ``open_atomic``. JSON has no
    NaN or infinity, so a non-finite value is a ``CommandError`` that names
    the file and the value's key path, and nothing is written."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        keys, value = _non_finite(payload)
        raise CommandError(f"{path}: the value at {'/'.join(map(str, keys))} ({value}) "
                           "is not finite, and JSON cannot hold it") from None
    with open_atomic(path) as fh:
        fh.write(text + "\n")


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(value: float) -> str:
    return repr(float(value))


def _manifest(out: Path, subcommand: str, args: argparse.Namespace,
              inputs: list[str], outputs: list[str], diagnostics: dict) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and not k.startswith("_")
    }
    payload = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): _digest(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    if diagnostics:
        payload["diagnostics"] = diagnostics
    _write_json(out / "manifest.json", payload)


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reference_for(args, space, log):
    if args.background == "empirical":
        return ReferenceDistribution.empirical(log)
    return ReferenceDistribution.uniform(space)


def _shrinkage_for(args) -> ShrinkageSpec:
    return ShrinkageSpec(args.tau)


def _objective_for(args, space) -> tuple[ObjectiveSpec, CostModel]:
    data = {}
    if getattr(args, "objective", None):
        with open(args.objective, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    spec = ObjectiveSpec.from_dict(space, data)
    cost = CostModel.from_dict(space, data)
    overrides = {}
    if args.lambda_risk is not None:
        overrides["lambda_risk"] = args.lambda_risk
    if args.lambda_cost is not None:
        overrides["lambda_cost"] = args.lambda_cost
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec, cost


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _estimate_table(args, space):
    """The effect table of the log over ``space`` that --path and
    --bootstrap ask for."""
    if "ci_level" in args and not 0 < args.ci_level < 1:
        raise CommandError(f"--ci-level must be in (0, 1), got {args.ci_level}")
    log = ingest_log(args.log, space)
    reference = _reference_for(args, space, log)
    shrinkage = _shrinkage_for(args)
    B = getattr(args, "bootstrap", 0)
    if B and args.path != "cm":
        raise CommandError(f"--bootstrap needs --path cm; got --path {args.path}")
    if B:
        return bootstrap_cis(log, reference, shrinkage, B=B, level=args.ci_level, seed=args.seed)
    return estimate_from_log(log, args.path, reference, shrinkage)


def _bootstrap_diagnostics(table) -> dict:
    """The replicate count and the draws that fell back to the original
    sample, when the table carries bootstrap replicates."""
    reps = table.replicates
    if reps is None:
        return {}
    return {"bootstrap": {"replicates": len(reps.mu), "fallback_draws": reps.fallback_draws}}


def cmd_estimate(args) -> tuple[list[str], dict]:
    out = _prepare_out(args)
    space = load_space(args.space)
    table = _estimate_table(args, space)

    outputs = ["effects.json", "main_effects.csv", "interactions.csv"]
    _write_json(out / "effects.json", table.to_dict())

    note = f"units: response; estimator: {args.path}"
    reps = table.replicates
    rows = []
    for j, f in enumerate(space.factors):
        means = table.level_means[j] if table.level_means is not None else None
        ci = table.interval(reps.level_means[j]) if reps is not None else None
        for l, label in enumerate(f.levels):
            if means is not None and not math.isnan(means[l]):
                mean = float(means[l])
            else:
                # attribution path has no raw cell means; report the aligned
                # per-level score instead
                mean = float(table.mu + table.mains[j][l])
            lo, hi = (float(v) for v in ci[l]) if ci is not None else (mean, mean)
            rows.append([f.name, label, _fmt(mean), _fmt(lo), _fmt(hi)])
    write_csv(out / "main_effects.csv", note, ["factor", "level", "mean", "ci_lo", "ci_hi"], rows)

    rows = []
    for (j, k), mat in sorted(table.pairs.items()):
        fj, fk = space.factors[j], space.factors[k]
        ci = table.interval(reps.pairs[(j, k)]) if reps is not None else None
        for a, la in enumerate(fj.levels):
            for b, lb in enumerate(fk.levels):
                lo, hi = (ci[a, b] if ci is not None else (mat[a, b], mat[a, b]))
                rows.append([fj.name, fk.name, la, lb,
                             _fmt(mat[a, b]), _fmt(lo), _fmt(hi)])
    write_csv(out / "interactions.csv", note,
              ["factor_j", "factor_k", "level_j", "level_k", "effect", "ci_lo", "ci_hi"], rows)

    if args.path == "sf":
        if table.diagnostics:
            _write_json(out / "diagnostics.json", table.diagnostics)
            outputs.append("diagnostics.json")
        write_shapley_csv(table.attributions, space, out / "shapley.csv", header_note=note)
        outputs.append("shapley.csv")
    return outputs, _bootstrap_diagnostics(table)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> tuple[list[str], dict]:
    from .optimize import SearchSpec, diag_dominance_check, multistart, verify_1swap

    for flag in ("topk", "restarts", "beam", "max_sweeps"):
        if getattr(args, flag) < 1:
            raise CommandError(f"--{flag.replace('_', '-')} must be at least 1, "
                               f"got {getattr(args, flag)}")
    out = _prepare_out(args)
    space = load_space(args.space)
    if args.bootstrap and space.grid_size > TOPK_GRID_CAP:
        # Only topk.csv reads the replicates, and it is not written here.
        raise CommandError(f"--bootstrap applies only to grids of at most {TOPK_GRID_CAP} "
                           f"cells, where topk.csv is written; this one has {space.grid_size}")
    table = _estimate_table(args, space)
    spec, cost = _objective_for(args, space)
    model = PairwiseObjective.build(table, table.support, spec, cost)
    search = SearchSpec(restarts=args.restarts, beam=args.beam,
                        max_sweeps=args.max_sweeps, seed=args.seed)

    best, traces = multistart(model, table.mains, search)
    report = diag_dominance_check(model)

    outputs = []
    chosen = {
        "config": dict(zip(space.names, space.labels_for(best))),
        # The winning trace ends at best; its value is J there, scored by
        # the search's own model.
        "objective": max(t.steps[-1][2] for t in traces),
        "one_swap_optimal": (any(t.verified_1swap for t in traces if t.final == best)
                             or verify_1swap(model, best)[0]),
        "restarts": len(traces),
    }
    _write_json(out / "chosen.json", chosen)
    outputs.append("chosen.json")

    note = "units: objective (response units); estimator: " + args.path
    rows = []
    for t_idx, trace in enumerate(traces):
        for sweep, config, value in trace.steps:
            rows.append([t_idx, sweep, *space.labels_for(config), _fmt(value)])
    write_csv(out / "trace.csv", note,
               ["restart", "sweep", *space.names, "objective"], rows)
    outputs.append("trace.csv")

    _write_json(out / "dominance.json", report.to_dict(space))
    outputs.append("dominance.json")

    diagnostics = {
        "restarts": [{"termination": t.termination, "sweeps": t.steps[-1][0]} for t in traces],
        "restarts_dropped": search.restarts - len(traces),
        "objective_grid_cells": 0,
        **_bootstrap_diagnostics(table),
    }
    if space.grid_size <= TOPK_GRID_CAP:
        J, feasible = objective_grid(model)
        diagnostics["objective_grid_cells"] = int(J.size)
        top = _top_configs(J, feasible, args.topk)
        bounds = [(value, value) for value, _ in top]
        if table.replicates is not None:
            # J of each top configuration on every replicate of the table.
            X = np.array([x for _, x in top], dtype=np.intp).reshape(-1, space.num_factors)
            reps_model = PairwiseObjective.build(table.replicates, table.support, spec, cost)
            bounds = table.interval(reps_model.at(X)).tolist()
        rows = []
        for rank, ((value, x), (lo, hi)) in enumerate(zip(top, bounds), start=1):
            rows.append([rank, *space.labels_for(x), _fmt(value), _fmt(lo), _fmt(hi)])
        write_csv(out / "topk.csv", note,
                   ["rank", *space.names, "objective", "ci_lo", "ci_hi"], rows)
        outputs.append("topk.csv")
    return outputs, diagnostics


def _top_configs(J, feasible, k):
    """The k best feasible (value, config) pairs, ties broken by the
    lexicographically smaller configuration. C order is lexicographic, so
    a stable sort of the feasible flat indices by -value does that."""
    idx = np.flatnonzero(feasible.ravel())
    values = J.ravel()[idx]
    top = idx[np.argsort(-values, kind="stable")[:k]]
    configs = np.stack(np.unravel_index(top, J.shape), axis=1)
    return [(float(J.flat[i]), tuple(int(c) for c in x)) for i, x in zip(top, configs)]


# ---------------------------------------------------------------------------
# pci / plan / simulate / ablate
# ---------------------------------------------------------------------------

def cmd_pci(args) -> tuple[list[str], dict]:
    from .pci import write_pci_csv

    out = _prepare_out(args)
    table = _estimate_table(args, load_space(args.space))
    note = f"dimensionless; estimator: {args.path}; mode: {args.mode}"
    write_pci_csv(table, out / "pci.csv", mode=args.mode, header_note=note)
    return ["pci.csv"], {}


def cmd_plan(args) -> tuple[list[str], dict]:
    from .planning import bernstein_halfwidth, hoeffding_cell_n, mc_sample_size, uniform_cells_n

    # Each mode reads only its own flags; one it would ignore is an error.
    if args.union and not args.mc:
        raise CommandError("--union applies only with --mc")
    if args.mc and args.levels is not None:
        raise CommandError("--levels applies only without --mc")
    for flag in ("factors", "eval_points"):
        value = getattr(args, flag)
        if value is not None and not args.union:
            raise CommandError(f"--{flag.replace('_', '-')} applies only with --mc --union")
        if value is not None and value < 1:
            raise CommandError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    if args.mc:
        union = None
        if args.union:
            if args.eval_points is None:
                raise CommandError("--union needs --eval-points for the item count")
            union = (args.factors or 1) * args.eval_points
        n = mc_sample_size(args.B, args.eps, args.delta, union_items=union)
        formula = f"ceil(8 * B^2 / eps^2 * log(2{'*' + str(union) if union else ''}/delta))"
        label = "attribution samples"
    elif args.levels is not None:
        try:
            Lj, Lk = map(int, args.levels.split(","))
        except ValueError:
            raise CommandError(f"--levels takes two level counts as 'Lj,Lk', "
                               f"got {args.levels!r}") from None
        if min(Lj, Lk) < 1:
            raise CommandError(f"--levels counts must be at least 1, got {args.levels!r}")
        n = uniform_cells_n(args.B, args.eps, args.delta, Lj, Lk)
        formula = f"ceil(2 * B^2 / eps^2 * log(2*{Lj}*{Lk}/delta))"
        label = "records per cell (uniform over cells)"
    else:
        n = hoeffding_cell_n(args.B, args.eps, args.delta)
        formula = "ceil(2 * B^2 / eps^2 * log(2/delta))"
        label = "records per cell"
    formula += f" with B={args.B}, eps={args.eps}, delta={args.delta}"
    print(n)
    print(f"{label}: {formula}")
    payload = {"n": n, "kind": label, "formula": formula}
    if args.sigma is not None:
        hw = bernstein_halfwidth(args.sigma, args.B, max(n, 1), args.delta)
        payload["bernstein_halfwidth_at_n"] = hw
        print(f"variance-adaptive half-width at n={n}: {hw}")
    if args.out:
        out = _prepare_out(args)
        _write_json(out / "plan.json", payload)
        return ["plan.json"], {}
    return [], {}


def cmd_simulate(args) -> tuple[list[str], dict]:
    from .sim import SuiteConfig, comparison_suite

    out = _prepare_out(args)
    cfg = SuiteConfig(trials=args.trials, seed=args.seed,
                      design_n=args.design_n, seeds_per_point=args.seeds_per_point)
    batch_sizes: list[int] = []
    return _write_suite(out, "results.csv", comparison_suite(cfg, batch_sizes), cfg, batch_sizes)


def cmd_ablate(args) -> tuple[list[str], dict]:
    from .sim import SuiteConfig, ablation_suite

    out = _prepare_out(args)
    cfg = SuiteConfig(trials=args.trials, seed=args.seed)
    batch_sizes: list[int] = []
    return _write_suite(out, "ablation.csv", ablation_suite(args.axis, cfg, batch_sizes), cfg,
                        batch_sizes)


def _write_suite(out: Path, name: str, rows: list[dict], cfg,
                 batch_sizes: list[int]) -> tuple[list[str], dict]:
    """The suite's result rows as ``name``, and its configuration; the
    manifest records how many trial batches ran and the largest."""
    cols = ["axis", "cell", "estimator", "metric", "mean", "ci_lo", "ci_hi",
            "n_trials", "config_hash"]
    data = [[_fmt(r[c]) if isinstance(r[c], float) else r[c] for c in cols] for r in rows]
    write_csv(out / name, "units: metric-dependent (response units for gap/recon)", cols, data)
    _write_json(out / "suite_config.json", cfg.describe())
    return [name, "suite_config.json"], {
        "trial_batches": {"count": len(batch_sizes), "largest": max(batch_sizes)}}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectlab",
        description="Factor-effect estimation, attribution, and configuration search",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, bootstrap=True):
        p.add_argument("--space", required=True, help="factor-space JSON document")
        p.add_argument("--log", required=True, help="run-log CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--path", choices=["cm", "sf"], default="cm",
                       help="estimation path")
        p.add_argument("--background", choices=["uniform", "empirical"],
                       default="uniform")
        p.add_argument("--tau", type=float, default=1.0, help="shrinkage strength")
        if bootstrap:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--bootstrap", type=int, default=0,
                           help="bootstrap replicates for intervals (cm path)")
            p.add_argument("--ci-level", type=float, default=0.95)

    p = sub.add_parser("estimate", help="effect tables and plot data from a log")
    add_io(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("optimize", help="search for the best configuration")
    add_io(p)
    p.add_argument("--lambda-risk", type=float, default=None)
    p.add_argument("--lambda-cost", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--objective", help="objective/cost JSON document")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--beam", type=int, default=2)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("pci", help="standardized interaction heatmap data")
    add_io(p, bootstrap=False)
    p.add_argument("--mode", choices=["uniform", "weighted"], default="uniform")
    p.set_defaults(func=cmd_pci)

    p = sub.add_parser("plan", help="sample-size planning from concentration bounds")
    p.add_argument("--B", type=float, required=True, help="bound on |response|")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--levels", help="pair level counts as 'Lj,Lk' for the uniform bound")
    p.add_argument("--union", action="store_true",
                   help="union bound over factors x evaluation points (with --mc)")
    p.add_argument("--mc", action="store_true", help="plan attribution samples instead")
    p.add_argument("--factors", type=int, default=None,
                   help="factor count of the union bound (default 1)")
    p.add_argument("--eval-points", type=int, default=None,
                   help="evaluation point count of the union bound")
    p.add_argument("--sigma", type=float, default=None,
                   help="also report the variance-adaptive half-width")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="synthetic-teacher comparison suite")
    p.add_argument("--suite", choices=["cm-vs-sf"], default="cm-vs-sf")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--design-n", type=int, default=432)
    p.add_argument("--seeds-per-point", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="one ablation axis of the simulation study")
    p.add_argument("--axis", required=True,
                   choices=["effects-order", "design-robustness",
                            "shap-background", "seed-budget"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out) if getattr(args, "out", None) else None
    try:
        outputs, diagnostics = args.func(args)
        if out_dir is not None and outputs:
            inputs = [p for p in (getattr(args, "space", None), getattr(args, "log", None),
                                  getattr(args, "objective", None)) if p]
            _manifest(out_dir, args.command, args, inputs, outputs, diagnostics)
        return 0
    except Exception as exc:  # surfaced as machine-readable error JSON
        error = {"error": type(exc).__name__, "message": str(exc)}
        if out_dir is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                _write_json(out_dir / "error.json", error)
            except OSError:
                pass
        print(json.dumps(error), file=sys.stderr)
        return 1


def run() -> int:
    """``main()`` in a process that exits when it returns. ``gc.freeze``
    runs at exit, so the exit-time collections skip the heap about to be
    torn down; atexit handlers registered before this call run after it."""
    atexit.register(gc.freeze)
    return main()


if __name__ == "__main__":
    sys.exit(run())
