"""Declaring a factor space, drawing designs, and round-tripping run logs.

Run: python demos/01_spaces_designs_logs.py
"""

import collections
import tempfile
from pathlib import Path

from effectlab import (
    DesignPlan,
    build_space,
    effective_sample_size,
    enumerate_grid,
    ingest_log,
    log_from_arrays,
    sample_design,
    support_counts,
    write_log,
)

# A training-factor grid: five factors, 72 configurations.
space = build_space([
    ("optimizer", ["adam", "sgd"]),
    ("learning_rate", ["low", "mid", "high"]),
    ("batch_size", ["64", "128", "256"]),
    ("weight_decay", ["1e-4", "1e-3"]),
    ("epochs", ["10", "30"]),
])
print(f"space: {space.num_factors} factors, grid size {space.grid_size}")

# Balanced designs equalize per-level counts of every factor within +-1.
design = sample_design(space, DesignPlan.balanced(36), seed=0)
for j, factor in enumerate(space.factors):
    counts = collections.Counter(design[:, j].tolist())
    spread = max(counts.values()) - min(counts.values())
    print(f"  {factor.name:13s} level counts {dict(sorted(counts.items()))} (spread {spread})")

# Skewed designs oversample the first level of each factor.
skewed = sample_design(space, DesignPlan.skewed(36, bias=3.0), seed=0)
freq = sum(1 for x in skewed if x[0] == 0) / len(skewed)
print(f"skewed design: optimizer=adam frequency {freq:.2f} (expected ~0.75)")

# Logs carry (config, response, weight, seed) and survive a CSV round trip.
responses = [0.8 + 0.01 * (x[0] + x[1] - x[2]) for x in design]
log = log_from_arrays(space, design, responses)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "runs.csv"
    write_log(log, path)
    back = ingest_log(path, space)
    assert back.responses.tolist() == responses
print(f"log round-trip: {len(log)} records identical through CSV")

# Support statistics drive shrinkage and the risk penalty downstream.
sc = support_counts(log)
pair = sc.pair_counts[(0, 1)]
print(f"optimizer x learning_rate cell counts:\n{pair}")
print(f"effective size of weights (0.9, 0.1): {effective_sample_size([0.9, 0.1]):.4f}")
print(f"grid enumeration is deterministic: first {enumerate_grid(space)[0]}")
