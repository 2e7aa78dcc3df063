"""Output checks for the benchmark's CLI commands.

Two kinds of check run on every command of every pass:

* Reference: for seeds with a stored reference (``reference/<workload>/
  seed-<n>.json.gz``, written from the program as first measured), every
  data file except ``manifest.json``, which carries a timestamp, must match.
  Labels, configurations, integers and the file set must match exactly;
  floats must satisfy ``|got - ref| <= ATOL + RTOL * |ref|`` (NaN equals NaN).
* Invariants, for every seed: properties recomputed from the generated
  inputs with numpy alone (the CM tables from a fresh implementation of the
  documented estimator, Shapley efficiency against cell means, search
  monotonicity, banned levels, row counts).

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

ATOL = 1e-9
RTOL = 1e-7
STORED_DIGITS = 10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_INT = re.compile(r"-?\d+")


# ---------------------------------------------------------------------------
# Canonical form: exact skeleton digest plus the floats in file order
# ---------------------------------------------------------------------------

def _split_json(value, floats):
    if isinstance(value, float):
        floats.append(value)
        return "<f>"
    if isinstance(value, dict):
        return {k: _split_json(v, floats) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_split_json(v, floats) for v in value]
    return value


def _split_csv_cell(cell: str, floats) -> str:
    if _INT.fullmatch(cell):
        return cell
    try:
        floats.append(float(cell))
    except ValueError:
        return cell
    return "<f>"


def canonical(path: Path) -> dict:
    """{"skeleton": sha256 of everything but floats, "floats": [...]}."""
    text = path.read_text(encoding="utf-8")
    floats: list[float] = []
    if path.suffix == ".json":
        skeleton = _split_json(json.loads(text), floats)
    else:
        skeleton = [[_split_csv_cell(c, floats) for c in row]
                    for row in csv.reader(io.StringIO(text))]
    blob = json.dumps(skeleton, sort_keys=True).encode("utf-8")
    return {"skeleton": hashlib.sha256(blob).hexdigest(), "floats": floats}


def canonical_outputs(out_dir: Path) -> dict:
    return {p.name: canonical(p) for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _floats_close(got: list[float], ref: list[float]) -> int:
    """Number of float positions outside the tolerance."""
    g = np.asarray(got, dtype=float)
    r = np.asarray(ref, dtype=float)
    same = (g == r) | (np.isnan(g) & np.isnan(r))
    close = np.abs(g - r) <= ATOL + RTOL * np.abs(r)
    return int((~(same | close)).sum())


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, data: dict) -> Path:
    """Floats are stored to STORED_DIGITS significant digits, far inside the
    comparison tolerance."""
    data = {cmd: {name: dict(c, floats=[float(f"{v:.{STORED_DIGITS}g}") for v in c["floats"]])
                  for name, c in files.items()}
            for cmd, files in data.items()}
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the archive bytes a function of the data alone
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload)
    return path


def compare_reference(command: str, out_dir: Path, reference: dict) -> list[str]:
    problems = []
    expected = reference.get(command)
    if expected is None:
        return [f"{command}: no reference entry"]
    got = canonical_outputs(out_dir)
    if sorted(got) != sorted(expected):
        problems.append(f"{command}: files {sorted(got)} != reference {sorted(expected)}")
    for name in sorted(set(got) & set(expected)):
        g, r = got[name], expected[name]
        if g["skeleton"] != r["skeleton"]:
            problems.append(f"{command}/{name}: labels, configurations or layout differ")
        elif len(g["floats"]) != len(r["floats"]):
            problems.append(f"{command}/{name}: float count differs")
        else:
            bad = _floats_close(g["floats"], r["floats"])
            if bad:
                problems.append(f"{command}/{name}: {bad} floats outside tolerance")
    return problems


# ---------------------------------------------------------------------------
# Invariants recomputed from the inputs
# ---------------------------------------------------------------------------

def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def parse_inputs(inputs: dict[str, str]):
    """(configs as level indices, responses, weights, space) of the
    generated log, shared by the invariant checks; None without a log."""
    if "log.csv" not in inputs:
        return None
    space = json.loads(inputs["space.json"])
    levels = [f["levels"] for f in space["factors"]]
    d = len(levels)
    cells = [line.split(",") for line in inputs["log.csv"].splitlines()[1:]]
    configs = np.array([[levels[j].index(row[j]) for j in range(d)] for row in cells])
    y = np.array([float(row[d]) for row in cells])
    w = np.array([float(row[d + 1]) for row in cells])
    return configs, y, w, space


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _dc(mat: np.ndarray) -> np.ndarray:
    """Double centering under the uniform reference."""
    return mat - mat.mean(axis=1, keepdims=True) - mat.mean(axis=0, keepdims=True) + mat.mean()


def _cm_tables(configs, y, w, tau: float = 1.0):
    """The documented CM estimator under the uniform reference, written
    afresh: weighted cell means, raw differenced effects, centering,
    shrinkage eta = n / (n + tau), centering again. Every cell must be
    observed."""
    d = configs.shape[1]
    mu = float(np.dot(w, y) / w.sum())

    def means(cell, size):
        return (np.bincount(cell, weights=w * y, minlength=size)
                / np.bincount(cell, weights=w, minlength=size))

    level = [means(configs[:, j], 3) for j in range(d)]
    mains = []
    for j in range(d):
        n = np.bincount(configs[:, j], minlength=3)
        g = level[j] - mu
        g = g - g.mean()
        g = n / (n + tau) * g
        mains.append(g - g.mean())
    pairs = {}
    for j in range(d):
        for k in range(j + 1, d):
            cell = configs[:, j] * 3 + configs[:, k]
            n = np.bincount(cell, minlength=9).reshape(3, 3)
            g = means(cell, 9).reshape(3, 3) - level[j][:, None] - level[k][None, :] + mu
            pairs[(j, k)] = _dc(n / (n + tau) * _dc(g))
    return level, mains, pairs


def _check_estimate_cm(out: Path, inputs, ctx) -> list[str]:
    configs, y, w, space = ctx
    names = [f["name"] for f in space["factors"]]
    levels = [f["levels"] for f in space["factors"]]
    level, mains, pairs = _cm_tables(configs, y, w)
    problems = []
    rows = _read_rows(out / "main_effects.csv")[1:]
    expected = [(name, lvl) for name, lv in zip(names, levels) for lvl in lv]
    if [tuple(r[:2]) for r in rows] != expected:
        return ["main_effects.csv: factor/level rows differ from the space"]
    got = np.array([[float(v) for v in r[2:5]] for r in rows])
    if not np.allclose(got, np.repeat(np.concatenate(level), 3).reshape(-1, 3),
                       rtol=1e-9, atol=1e-9):
        problems.append("main_effects.csv: mean/ci differ from the weighted level means")
    table = json.loads((out / "effects.json").read_text(encoding="utf-8"))["mains"]
    got = np.array([[table[name][lvl] for lvl in lv] for name, lv in zip(names, levels)])
    if not np.allclose(got, np.array(mains), rtol=1e-9, atol=1e-9):
        problems.append("effects.json: main effects differ from the recomputed table")
    rows = _read_rows(out / "interactions.csv")[1:]
    want = [((names[j], names[k], levels[j][a], levels[k][b]), mat[a, b])
            for (j, k), mat in pairs.items() for a in range(3) for b in range(3)]
    if [tuple(r[:4]) for r in rows] != [key for key, _ in want]:
        problems.append("interactions.csv: pair/level rows differ from the space")
    elif not np.allclose([float(r[4]) for r in rows], [v for _, v in want],
                         rtol=1e-9, atol=1e-9):
        problems.append("interactions.csv: effects differ from the recomputed table")
    return problems


def _check_search(out: Path, restarts: int, banned: dict[str, list[str]]) -> list[str]:
    problems = []
    chosen = json.loads((out / "chosen.json").read_text(encoding="utf-8"))
    if chosen["restarts"] > restarts or not math.isfinite(chosen["objective"]):
        problems.append("chosen.json: bad restart count or objective")
    for name, labels in banned.items():
        if chosen["config"][name] in labels:
            problems.append(f"chosen.json: banned level {name}={chosen['config'][name]}")
    by_restart: dict[str, list[float]] = {}
    for row in _read_rows(out / "trace.csv")[1:]:
        by_restart.setdefault(row[0], []).append(float(row[-1]))
    if len(by_restart) != chosen["restarts"]:
        problems.append("trace.csv: restart count differs from chosen.json")
    for r, values in by_restart.items():
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            problems.append(f"trace.csv restart {r}: objective decreased")
    if not any(_close(v[-1], chosen["objective"]) for v in by_restart.values()):
        problems.append("chosen.json: objective is no restart's endpoint")
    return problems


def _check_optimize_boot(out: Path, inputs, ctx) -> list[str]:
    problems = _check_search(out, 4, {})
    chosen = json.loads((out / "chosen.json").read_text(encoding="utf-8"))
    top = _read_rows(out / "topk.csv")[1:]
    values = [float(r[-3]) for r in top]
    if len(top) != 10 or [int(r[0]) for r in top] != list(range(1, 11)):
        problems.append("topk.csv: expected ranks 1..10")
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("topk.csv: objectives not in descending order")
    if any(float(r[-2]) > float(r[-1]) for r in top):
        problems.append("topk.csv: ci_lo above ci_hi")
    if values and chosen["objective"] > values[0] + 1e-9:
        problems.append("chosen.json: objective above the grid maximum")
    dominance = json.loads((out / "dominance.json").read_text(encoding="utf-8"))
    if dominance["contexts_checked"] != [3 ** 7] * 8 or not dominance["exact"]:
        problems.append("dominance.json: expected an exact check over 3^7 contexts per factor")
    return problems


def _check_estimate_sf(out: Path, inputs, ctx) -> list[str]:
    configs, y, w, space = ctx
    d = configs.shape[1]
    flat = configs @ (3 ** np.arange(d - 1, -1, -1))
    sw = np.bincount(flat, weights=w, minlength=3 ** d)
    swy = np.bincount(flat, weights=w * y, minlength=3 ** d)
    values = np.full(3 ** d, swy.sum() / sw.sum())
    values[sw > 0] = swy[sw > 0] / sw[sw > 0]
    v_empty = values.mean()  # uniform background
    levels = [f["levels"] for f in space["factors"]]
    phi: dict[int, float] = {}
    rows = _read_rows(out / "shapley.csv")[1:]
    for row in rows:
        key = sum(levels[j].index(row[j]) * 3 ** (d - 1 - j) for j in range(d))
        phi[key] = phi.get(key, 0.0) + float(row[d + 1])
    problems = []
    if set(phi) != set(np.unique(flat).tolist()) or len(rows) != len(phi) * d:
        problems.append("shapley.csv: evaluation points are not the observed configurations")
    worst = max(abs(total - (values[key] - v_empty)) for key, total in phi.items())
    if worst > 1e-9:
        problems.append(f"shapley.csv: efficiency off by {worst:.3g}")
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    if diag["rows"] != len(phi) * d or diag["params"] != d * 2 + d * (d - 1) // 2 * 4:
        problems.append("diagnostics.json: design shape differs from the evaluation set")
    return problems


def _check_suite_rows(path: Path, n_rows: int, trials: int) -> list[str]:
    problems = []
    rows = _read_rows(path)[1:]
    if len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    for row in rows:
        metric, mean, lo, hi, n = row[3], float(row[4]), float(row[5]), float(row[6]), int(row[7])
        ok = n == trials and lo <= hi + 1e-12 and all(map(math.isfinite, (mean, lo, hi)))
        if metric in ("gap", "recon"):
            ok = ok and min(mean, lo) >= 0
        if metric == "rho":
            ok = ok and -1 <= lo and hi <= 1 + 1e-12
        if not ok:
            problems.append(f"{path.name}: implausible row {row[:4]}")
    return problems


def _check_optimize_wide(out: Path, inputs, ctx) -> list[str]:
    objective = json.loads(inputs["obj.json"])
    problems = _check_search(out, 16, objective["banned_levels"])
    dominance = json.loads((out / "dominance.json").read_text(encoding="utf-8"))
    if dominance["exact"] or dominance["contexts_checked"] != [2048] * 12:
        problems.append("dominance.json: expected a sampled check of 2048 contexts per factor")
    return problems


def invariant_check(command: str, out_dir: Path, inputs: dict[str, str], ctx,
                    trials: dict[str, int]) -> list[str]:
    if command == "estimate_cm_s":
        return _check_estimate_cm(out_dir, inputs, ctx)
    if command == "optimize_boot_s":
        return _check_optimize_boot(out_dir, inputs, ctx)
    if command == "estimate_sf_s":
        return _check_estimate_sf(out_dir, inputs, ctx)
    if command == "simulate_s":
        return _check_suite_rows(out_dir / "results.csv", 6, trials[command])
    if command == "ablate_s":
        return _check_suite_rows(out_dir / "ablation.csv", 16, trials[command])
    if command == "optimize_s":
        return _check_optimize_wide(out_dir, inputs, ctx)
    return [f"{command}: no invariant check"]

