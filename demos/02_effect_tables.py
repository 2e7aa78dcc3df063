"""Estimating main effects and interactions from a noisy log, with
bootstrap intervals.

Run: python demos/02_effect_tables.py
"""

import numpy as np

from effectlab import (
    DesignPlan,
    ShrinkageSpec,
    bootstrap_cis,
    build_space,
    estimate_effects_cm,
    log_from_arrays,
    sample_design,
)

rng = np.random.default_rng(0)

space = build_space([
    ("optimizer", ["adam", "sgd"]),
    ("learning_rate", ["low", "mid", "high"]),
    ("batch_size", ["small", "large"]),
])

# Synthetic responses: strong learning-rate effect, an optimizer effect, and
# an optimizer x learning-rate interaction, plus seed noise.
lr_effect = {0: -0.10, 1: 0.02, 2: 0.08}
def score(x):
    base = 0.85 + lr_effect[x[1]] + (0.03 if x[0] == 0 else -0.03)
    if x[0] == 1 and x[1] == 2:  # sgd at high lr is unstable
        base -= 0.06
    return base

design = sample_design(space, DesignPlan.balanced(48), seed=1)
configs, responses = [], []
for x in design:
    for seed in range(3):
        configs.append(x)
        responses.append(score(x) + rng.normal(0, 0.01))
log = log_from_arrays(space, configs, responses)

table = estimate_effects_cm(log, shrinkage=ShrinkageSpec(1.0))
print(f"baseline: {table.mu:.4f}")
for j, factor in enumerate(space.factors):
    pretty = ", ".join(f"{lbl}={v:+.4f}" for lbl, v in zip(factor.levels, table.mains[j]))
    print(f"main effects {factor.name:13s} {pretty}")

jk = (0, 1)
print("optimizer x learning_rate interaction:")
print(np.array_str(table.pairs[jk], precision=4, suppress_small=True))

# Centering holds exactly: weighted means of each table vanish.
for j in range(space.num_factors):
    assert abs(float(table.mains[j].mean())) < 1e-9

# Bootstrap resamples whole records. The table keeps the replicates and
# reads percentile intervals at its ci_level from them when asked.
with_ci = bootstrap_cis(log, B=200, level=0.95, seed=2)
j = space.index_of("learning_rate")
print("learning-rate effects with 95% intervals:")
for l, (lo, hi) in enumerate(with_ci.interval(with_ci.replicates.mains[j])):
    lbl = space.factors[j].levels[l]
    print(f"  {lbl:5s} {with_ci.mains[j][l]:+.4f}  [{lo:+.4f}, {hi:+.4f}]")
