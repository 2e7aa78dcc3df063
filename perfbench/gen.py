"""Seeded benchmark inputs, made with numpy alone.

The generator does not import effectlab: a change to the program cannot
change the inputs it is measured on. The same seed always gives the same
bytes; run.py generates twice per run and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

LEVELS = ("lo", "mid", "hi")

# Row counts per workload; tuned so that one pass of each workload's commands
# takes a few seconds on a 2-core machine.
CM_ROWS = 12_000
SF_DISTINCT = 1_200
SF_ROWS = 5_000
WIDE_ROWS = 5_000

# Salts keep the workloads' random streams apart for one seed.
_SALT = {"log-cm": 1, "log-sf": 2, "wide-optimize": 4}


def _space(num_factors: int) -> dict:
    return {"factors": [{"name": f"f{j:02d}", "levels": list(LEVELS)}
                        for j in range(num_factors)]}


def _response(rng: np.random.Generator, configs: np.ndarray) -> np.ndarray:
    """Random second-order model plus Gaussian noise at the given configs."""
    n, d = configs.shape
    mains = rng.normal(0.0, 1.0, size=(d, 3))
    pairs = rng.normal(0.0, 0.5, size=(d, d, 3, 3))
    y = np.full(n, 5.0)
    for j in range(d):
        y += mains[j, configs[:, j]]
        for k in range(j + 1, d):
            y += pairs[j, k, configs[:, j], configs[:, k]]
    return y + rng.normal(0.0, 0.3, size=n)


def _skewed_levels(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Each factor draws its levels independently from a shuffled skewed
    marginal, so some cells are common and some rare."""
    cols = []
    for _ in range(d):
        probs = rng.permutation(np.array([0.45, 0.33, 0.22]))
        cols.append(rng.choice(3, size=n, p=probs))
    return np.stack(cols, axis=1)


def _log_csv(space: dict, rng: np.random.Generator, configs: np.ndarray) -> str:
    names = [f["name"] for f in space["factors"]]
    y = _response(rng, configs)
    w = np.round(rng.uniform(0.5, 2.0, size=len(configs)), 3)
    seeds = rng.integers(0, 4, size=len(configs))
    lines = [",".join(names + ["response", "weight", "seed"])]
    for row, yi, wi, si in zip(configs.tolist(), y.tolist(), w.tolist(), seeds.tolist()):
        labels = [LEVELS[v] for v in row]
        lines.append(",".join(labels + [f"{yi:.6f}", f"{wi:.3f}", str(si)]))
    return "\n".join(lines) + "\n"


def _log_cm(rng: np.random.Generator) -> dict[str, str]:
    space = _space(8)
    configs = _skewed_levels(rng, CM_ROWS, 8)
    return {"space.json": json.dumps(space, indent=2) + "\n",
            "log.csv": _log_csv(space, rng, configs)}


def _log_sf(rng: np.random.Generator) -> dict[str, str]:
    """Exactly SF_DISTINCT distinct configurations: every pool member once,
    the remaining rows drawn from the pool with Zipf-like popularity."""
    space = _space(8)
    cells = rng.choice(3 ** 8, size=SF_DISTINCT, replace=False)
    pool = np.stack([(cells // 3 ** (7 - j)) % 3 for j in range(8)], axis=1)
    popularity = 1.0 / np.arange(1, SF_DISTINCT + 1)
    extra = rng.choice(SF_DISTINCT, size=SF_ROWS - SF_DISTINCT,
                       p=popularity / popularity.sum())
    order = rng.permutation(SF_ROWS)
    configs = np.concatenate([pool, pool[extra]])[order]
    return {"space.json": json.dumps(space, indent=2) + "\n",
            "log.csv": _log_csv(space, rng, configs)}


def _wide_optimize(rng: np.random.Generator) -> dict[str, str]:
    """12 factors (531,441 cells), sparse uniform log, costed objective with
    one banned level."""
    space = _space(12)
    configs = rng.integers(0, 3, size=(WIDE_ROWS, 12))
    names = [f["name"] for f in space["factors"]]
    costs = np.round(rng.uniform(0.0, 1.0, size=(12, 3)), 3)
    banned = int(rng.integers(0, 12))
    objective = {
        "lambda_risk": 1.0,
        "lambda_cost": 0.5,
        "gamma": 1.0,
        "costs": {name: dict(zip(LEVELS, costs[j].tolist()))
                  for j, name in enumerate(names)},
        "banned_levels": {names[banned]: [LEVELS[int(rng.integers(0, 3))]]},
    }
    return {"space.json": json.dumps(space, indent=2) + "\n",
            "log.csv": _log_csv(space, rng, configs),
            "obj.json": json.dumps(objective, indent=2, sort_keys=True) + "\n"}


_MAKERS = {"log-cm": _log_cm, "log-sf": _log_sf, "wide-optimize": _wide_optimize}


def make_inputs(workload: str, seed: int) -> dict[str, str]:
    """File name -> contents for one workload and seed (empty when the
    workload reads no files)."""
    maker = _MAKERS.get(workload)
    if maker is None:
        return {}
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SALT[workload]]))
    return maker(rng)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_inputs(inputs: dict[str, str], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.items():
        (directory / name).write_bytes(text.encode("utf-8"))
