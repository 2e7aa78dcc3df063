"""Coalition values, sampled and exact attribution, and least-squares
recovery of effect tables from attributions.

Run: python demos/03_shapley_attribution.py
"""

import numpy as np

from effectlab import (
    ReferenceDistribution,
    ShrinkageSpec,
    TeacherSpec,
    ValueOracle,
    build_space,
    enumerate_grid,
    exact_shapley,
    exact_shapley_second_order,
    fit_effects_sf,
    gen_teacher,
    mc_sample_size,
    mc_shapley,
)

space = build_space([
    ("optimizer", ["adam", "sgd"]),
    ("learning_rate", ["low", "mid", "high"]),
    ("batch_size", ["small", "large"]),
])
teacher = gen_teacher(TeacherSpec(space, residual_scale=0.0, noise=0.0, seed=7))
ref = ReferenceDistribution.uniform(space)
oracle = ValueOracle(space, ref, teacher.values)

x = (0, 2, 0)  # adam, high lr, small batch
print(f"evaluation point {space.labels_for(x)}")
print(f"v(empty) = background mean = {oracle.v_empty:+.4f}")
print(f"v(all)   = response at x    = {oracle.v(x, [0, 1, 2]):+.4f}")

# Permutation sampling vs the closed form for a second-order function.
est = mc_shapley(oracle, x, M=4000, seed=0)  # a batch of one point
closed = exact_shapley_second_order(teacher.truth, x)
for j, name in enumerate(space.names):
    print(f"  phi[{name:13s}] sampled {est.phi[0, j]:+.4f} closed-form {closed[j]:+.4f}")
print(f"efficiency: sum(phi) = {est.phi.sum():+.4f} = f(x) - mu = "
      f"{teacher.response(x) - oracle.v_empty:+.4f}")

# How many permutations for a tolerance of 0.05 at 95% confidence?
B = oracle.bound
M = mc_sample_size(B, 0.05, 0.05)
print(f"sample-size rule: B={B:.2f}, eps=0.05, delta=0.05 -> M={M}")

# Attributions over the whole grid pin down the effect tables by least
# squares; with exact attributions the source table comes back exactly.
grid = enumerate_grid(space)
estimates = exact_shapley(oracle, grid)  # one ShapleyEstimate: (n, d) arrays of phi
fitted = fit_effects_sf(estimates, space, ref, ShrinkageSpec(1e-12),
                        mu=oracle.v_empty)
err = max(
    float(np.abs(fitted.mains[j] - teacher.truth.mains[j]).max())
    for j in range(space.num_factors)
)
print(f"table recovery from exact attributions: max main-effect error {err:.2e}")
print(f"fit diagnostics: {fitted.diagnostics}")
