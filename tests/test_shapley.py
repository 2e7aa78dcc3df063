import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effectlab import (
    RankDeficiencyError,
    ReferenceDistribution,
    ShrinkageSpec,
    ValueOracle,
    build_space,
    build_design_matrix,
    enumerate_grid,
    estimate_effects_cm,
    exact_shapley,
    exact_shapley_second_order,
    fit_effects_sf,
    gen_teacher,
    log_from_arrays,
    mc_sample_size,
    mc_shapley,
    TeacherSpec,
    write_shapley_csv,
)
from effectlab.shapley import (
    GATHER_VALUES,
    RANK_TOLERANCE,
    EffectDesignMatrix,
    ShapleyEstimate,
    fit_from_oracle,
    reference_projection,
)
from effectlab.space import open_atomic
from conftest import full_grid_log, random_space
from effectlab.effects import _finalize, estimate_from_log
from oracles import (
    coalition_values_by_contraction,
    design_matrix_loop,
    exact_shapley_loop,
    projection_decomposition,
    sf_fit_lstsq,
    shapley_by_definition,
    write_shapley_csv_loop,
)

TINY_TAU = ShrinkageSpec(1e-12)


def random_table(rng, space, pair_scale=0.5):
    spec = TeacherSpec(space, main_scale=1.0, pair_scale=pair_scale,
                       residual_scale=0.0, noise=0.0,
                       seed=int(rng.integers(0, 2**31)))
    return gen_teacher(spec)


def xor_oracle(space_2x2):
    ref = ReferenceDistribution.uniform(space_2x2)
    return ValueOracle(space_2x2, ref, [[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# Coalition values
# ---------------------------------------------------------------------------

def test_coalition_value_trivials(space_2x2):
    oracle = xor_oracle(space_2x2)
    assert oracle.v((0, 1), [0, 1]) == pytest.approx(1.0)
    assert oracle.v((0, 1), []) == pytest.approx(0.5)
    # fixing the first factor at 0 and averaging the second gives 0.5
    assert oracle.v((0, 0), [0]) == pytest.approx(0.5)


def test_coalition_value_rejects_empirical_background(space_2x2):
    log = log_from_arrays(space_2x2, [(0, 0), (1, 1)], [1.0, 2.0])
    ref = ReferenceDistribution.empirical(log)
    with pytest.raises(ValueError, match="product-form"):
        ValueOracle.from_log(log, ref)
    # converting to product marginals makes it acceptable
    ValueOracle.from_log(log, ref.product_marginals())


def test_log_backed_oracle_pads_unobserved(space_2x2):
    log = log_from_arrays(space_2x2, [(0, 0), (1, 1)], [1.0, 3.0])
    ref = ReferenceDistribution.uniform(space_2x2)
    oracle = ValueOracle.from_log(log, ref)
    assert oracle.padded_cells == 2
    assert oracle.values[0, 1] == pytest.approx(2.0)  # weighted baseline


def test_log_backed_oracle_checks_cap_before_grid_sized_sums():
    # 13 three-level factors: 1,594,323 cells, past EXACT_CELL_CAP. One grid-
    # sized float array would take 12.8 MB.
    space = build_space([(f"f{j}", ["a", "b", "c"]) for j in range(13)])
    log = log_from_arrays(space, [(0,) * 13, (1,) * 13], [1.0, 2.0])
    ref = ReferenceDistribution.uniform(space)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exact-evaluation cap"):
            ValueOracle.from_log(log, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("d", [18, 19])
def test_oracle_checks_tensor_cap_before_grid_sized_work(d):
    # d binary factors: the grid (262,144 or 524,288 cells) is within
    # EXACT_CELL_CAP, but the coalition-value tensor has 3^d cells, 2.9 or
    # 8.7 GiB. Both constructors must refuse before enumerating the grid.
    space = build_space([(f"f{j}", ["0", "1"]) for j in range(d)])
    log = log_from_arrays(space, [(0,) * d, (1,) * d], [1.0, 2.0])
    ref = ReferenceDistribution.uniform(space)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"tensor of {3 ** d} cells"):
            ValueOracle.from_log(log, ref)
        with pytest.raises(ValueError, match=f"tensor of {3 ** d} cells"):
            ValueOracle(space, ref, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("levels", [[2] * 17, [3] * 12])
def test_tensor_cap_admits_largest_spaces(levels):
    # 3^17 and 4^12 cells are within the 2^27-cell cap.
    space = build_space([(f"f{j}", [str(t) for t in range(L)]) for j, L in enumerate(levels)])
    ValueOracle._check(space, ReferenceDistribution.uniform(space))


def test_oracle_lookups_reject_out_of_range_indices():
    space = build_space([("a", ["0", "1", "2"]), ("b", ["0", "1"])])
    oracle = ValueOracle(space, ReferenceDistribution.uniform(space),
                         np.add.outer(3.0 * np.arange(3), np.arange(2)))
    for x in [(-1, 0), (3, 0), (0, -1), (0, 2)]:
        with pytest.raises(ValueError, match="level index -?[0-9] out of range"):
            oracle.v(x, [0, 1])
        with pytest.raises(ValueError, match="level index -?[0-9] out of range"):
            oracle.v_rows(np.array([(0, 0), x]))
    for subset in ([2], [0, -1]):
        with pytest.raises(ValueError, match=f"subset index {subset[-1]} out of range 0..1"):
            oracle.v((0, 0), subset)


# ---------------------------------------------------------------------------
# Monte Carlo attribution
# ---------------------------------------------------------------------------

def test_mc_shapley_constant_function(space_2x2):
    ref = ReferenceDistribution.uniform(space_2x2)
    oracle = ValueOracle(space_2x2, ref, np.full((2, 2), 2.0))
    est = mc_shapley(oracle, (0, 0), M=17, seed=0)
    assert est.x.tolist() == [[0, 0]]
    assert est.phi[0] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_mc_shapley_matches_closed_form():
    rng = np.random.default_rng(3)
    space = random_space(rng, d=3)
    teacher = random_table(rng, space)
    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle(space, ref, teacher.values)
    B = oracle.bound
    M = 4000
    delta = 0.01
    bound = 2 * B * math.sqrt(2 * math.log(2 / delta) / M)
    for x in enumerate_grid(space)[:4]:
        est = mc_shapley(oracle, x, M=M, seed=5)
        phi = exact_shapley_second_order(teacher.truth, x)
        assert np.max(np.abs(est.phi - phi)) <= bound


def test_mc_shapley_per_permutation_efficiency():
    rng = np.random.default_rng(4)
    space = random_space(rng, d=4)
    teacher = random_table(rng, space)
    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle(space, ref, teacher.values)
    x = enumerate_grid(space)[1]
    est, delta = mc_shapley(oracle, x, M=200, seed=1, return_contributions=True)
    target = teacher.response(x) - oracle.v_empty
    sums = delta.sum(axis=1)
    assert np.max(np.abs(sums - target)) < 1e-10
    # averaged over permutations the estimator keeps the same identity
    assert float(est.phi.sum()) == pytest.approx(target, abs=1e-10)


def test_mc_shapley_bounded_contributions():
    rng = np.random.default_rng(5)
    space = random_space(rng, d=3)
    teacher = random_table(rng, space)
    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle(space, ref, teacher.values)
    x = enumerate_grid(space)[0]
    est, delta = mc_shapley(oracle, x, M=500, seed=2, return_contributions=True)
    assert np.max(np.abs(delta)) <= 2 * oracle.bound + 1e-12
    assert np.max(np.abs(est.phi)) <= 2 * oracle.bound + 1e-12


def test_exact_shapley_matches_definition():
    rng = np.random.default_rng(6)
    space = random_space(rng, d=3)
    teacher = random_table(rng, space)
    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle(space, ref, teacher.values)
    x = enumerate_grid(space)[2]
    est = exact_shapley(oracle, [x])
    phi_def = shapley_by_definition(lambda S: oracle.v(x, S), space.num_factors)
    assert np.max(np.abs(est.phi[0] - phi_def)) < 1e-12


def test_mc_shapley_method_option_is_gone(space_2x2):
    oracle = xor_oracle(space_2x2)
    for method in ("exact", "subset", "permutation"):
        with pytest.raises(TypeError, match="method"):
            mc_shapley(oracle, (0, 0), M=4, method=method)


def test_mc_shapley_deterministic(space_2x2):
    oracle = xor_oracle(space_2x2)
    a = mc_shapley(oracle, (1, 0), M=64, seed=9)
    b = mc_shapley(oracle, (1, 0), M=64, seed=9)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.variance, b.variance)


# ---------------------------------------------------------------------------
# Closed-form attribution
# ---------------------------------------------------------------------------

def test_exact_second_order_xor(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    phi = exact_shapley_second_order(table, (0, 0))
    assert phi == pytest.approx([-0.25, -0.25])
    assert float(phi.sum()) == pytest.approx(0.0 - table.mu)


def test_exact_second_order_additive(space_2x2):
    grid = enumerate_grid(space_2x2)
    responses = [1.0 if x[0] == 1 else 0.0 for x in grid]
    log = log_from_arrays(space_2x2, grid, responses)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    for x in grid:
        phi = exact_shapley_second_order(table, x)
        assert phi[0] == pytest.approx(table.mains[0][x[0]], abs=1e-12)
        assert phi[1] == pytest.approx(0.0, abs=1e-12)


def test_exact_second_order_efficiency_sweep():
    rng = np.random.default_rng(8)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    teacher = random_table(rng, space)
    table = teacher.truth
    for x in enumerate_grid(space):
        phi = exact_shapley_second_order(table, x)
        target = teacher.response(x) - table.mu
        assert float(phi.sum()) == pytest.approx(target, abs=1e-10)


# ---------------------------------------------------------------------------
# Sample-size rule
# ---------------------------------------------------------------------------

def test_mc_sample_size_closed_form():
    # ceil(800 * ln 40) with B=1, eps=0.1, delta=0.05
    assert mc_sample_size(1.0, 0.1, 0.05) == math.ceil(800 * math.log(40)) == 2952


def test_mc_sample_size_quartic_scaling():
    # B = 100 puts the counts near 3e7, where the ceiling moves the ratio by < 1e-7.
    a = mc_sample_size(100.0, 0.1, 0.05)
    b = mc_sample_size(100.0, 0.05, 0.05)
    assert b / a == pytest.approx(4.0)


def test_mc_sample_size_union_mode():
    expected = math.ceil(800 * math.log(2 * 100 / 0.05))
    assert mc_sample_size(1.0, 0.1, 0.05, union_items=100) == expected
    with pytest.raises(ValueError):
        mc_sample_size(1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        mc_sample_size(0.0, 0.1, 0.05)


# ---------------------------------------------------------------------------
# Batched exact attribution and design build against per-point loops
# ---------------------------------------------------------------------------

def product_problem(levels, seed, n):
    """A space with the given level counts, a random strictly positive
    product background, a random response tensor and n random points."""
    rng = np.random.default_rng(seed)
    space = build_space([(f"f{i}", [str(t) for t in range(L)]) for i, L in enumerate(levels)])
    marginals = []
    for L in levels:
        p = rng.random(L) + 0.05
        marginals.append(p / p.sum())
    ref = ReferenceDistribution.from_marginals(space, marginals)
    values = rng.normal(size=tuple(levels))
    points = [tuple(int(rng.integers(L)) for L in levels) for _ in range(n)]
    return space, ref, values, points


def assert_matches_loop(oracle, values, points, estimates, picks=None):
    """The batch ``estimates`` of all ``points`` against the per-point loop,
    at the rows ``picks`` (every row by default)."""
    d = values.ndim
    marginals = [oracle.reference.marginal(j) for j in range(d)]
    assert estimates.x.shape == estimates.phi.shape == estimates.variance.shape == (len(points), d)
    assert estimates.x.tolist() == [list(x) for x in points]
    assert estimates.M == 1 << (d - 1)
    for i in range(len(points)) if picks is None else picks:
        x = points[i]
        phi, variance = exact_shapley_loop(coalition_values_by_contraction(values, marginals, x), d)
        assert np.max(np.abs(estimates.phi[i] - phi)) < 1e-12
        assert np.max(np.abs(estimates.variance[i] - variance)) < 1e-12
        assert estimates.phi[i].sum() == pytest.approx(values[x] - oracle.v_empty, abs=1e-12)


small_problems = st.tuples(
    st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)


@settings(max_examples=60, deadline=None)
@given(small_problems)
def test_batched_exact_matches_per_point_loop(problem):
    space, ref, values, points = product_problem(*problem)
    oracle = ValueOracle(space, ref, values)
    estimates = exact_shapley(oracle, points)
    assert_matches_loop(oracle, values, points, estimates)
    single = exact_shapley(oracle, points[:1])
    assert np.max(np.abs(single.phi - estimates.phi[:1])) < 1e-12
    d = space.num_factors
    marginals = [ref.marginal(j) for j in range(d)]
    expected = [coalition_values_by_contraction(values, marginals, x) for x in points]
    assert np.max(np.abs(oracle.v_rows(np.array(points)) - np.stack(expected))) < 1e-12
    for x, vx in zip(points, expected):
        for mask in range(1 << d):
            subset = [j for j in range(d) if mask >> j & 1]
            assert abs(oracle.v(x, subset) - vx[mask]) < 1e-12
    assert abs(oracle.v_empty - expected[0][0]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(small_problems)
def test_vectorized_design_matches_row_loop(problem):
    space, ref, _, points = product_problem(*problem)
    dm = build_design_matrix(points, space, ref)
    looped = design_matrix_loop(points, space.level_counts,
                                [ref.marginal(j) for j in range(space.num_factors)])
    assert np.array_equal(dm.matrix, looped)


sf_problems = st.tuples(
    st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=5),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),  # distinct points
    st.integers(1, 60),  # evaluation points, drawn from the distinct ones
)


def recording(name, calls):
    """np.linalg.<name> that logs (name, input shape, output) per call."""
    fn = getattr(np.linalg, name)

    def wrapper(a, *args, **kwargs):
        out = fn(a, *args, **kwargs)
        calls.append((name, np.shape(a), out))
        return out

    return wrapper


# kappa = 3.3e4: the routes' theta differ by 3.1e-11, beyond 1e-12 * (1 + max|theta|).
@example(problem=([4, 3, 4, 3], 2044, 25, 17))
@settings(max_examples=120, deadline=None)
@given(sf_problems)
def test_blockwise_sf_fit_matches_dense_lstsq_route(problem):
    # Non-uniform product references, repeated points, n < w_j and designs
    # with fewer rows than parameters. Tolerances are norm-wise: 1e-12 times
    # one plus the largest magnitude of the compared quantity, plus, for
    # theta and the tables, the forward-error scale of a backward-stable
    # least-squares solve, eps * kappa * (max|theta| + |r| / sigma_min)
    # (Higham, Accuracy and Stability of Numerical Algorithms, Thm 20.1),
    # which either route may reach on an ill-conditioned design.
    levels, seed, distinct, n = problem
    space, ref, values, pool = product_problem(levels, seed, distinct)
    points = [pool[i] for i in np.random.default_rng(seed).integers(0, distinct, size=n)]
    marginals = [ref.marginal(j) for j in range(space.num_factors)]
    estimates = exact_shapley(ValueOracle(space, ref, values), points)
    phi = estimates.phi.ravel()
    sigma_min, sigma_max, theta, blocks, residual = sf_fit_lstsq(
        points, phi, space.level_counts, marginals, RANK_TOLERANCE)

    dm = build_design_matrix(points, space, ref)
    assert abs(dm.sigma_min - sigma_min) <= 1e-12 * (1.0 + sigma_max)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("svd", "lstsq", "solve"):
            mp.setattr(np.linalg, name, recording(name, calls))
        if theta is None:
            with pytest.raises(RankDeficiencyError) as err:
                fit_effects_sf(estimates, space, ref)
            assert err.value.blocks == [dm.block_names()[b] for b in blocks]
            return
        fit = fit_effects_sf(estimates, space, ref)
    # Only p x p matrices are factored on the success path.
    p = dm.shape[1]
    assert [(name, shape) for name, shape, _ in calls] == [("svd", (p, p)), ("solve", (p, p))]
    got = calls[-1][2]
    solve_error = (np.finfo(float).eps * sigma_max / sigma_min
                   * (np.abs(theta).max() + residual / sigma_min))
    assert np.abs(got - theta).max() <= 1e-12 * (1.0 + np.abs(theta).max()) + solve_error
    # The residuals of two parameter vectors differ by at most |A (got - theta)|.
    assert (abs(fit.diagnostics["residual_norm"] - residual)
            <= 1e-12 * (1.0 + np.abs(phi).max()) + sigma_max * np.linalg.norm(got - theta))

    # The dense route's tables: its theta through the same mapping and finalize.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", lambda *args, **kwargs: theta)
        dense = fit_effects_sf(estimates, space, ref)
    for new, old in zip(fit.mains + tuple(fit.pairs.values()),
                        dense.mains + tuple(dense.pairs.values())):
        assert np.abs(new - old).max() <= 1e-12 * (1.0 + np.abs(old).max()) + solve_error


@settings(max_examples=60, deadline=None)
@given(sf_problems)
def test_sf_fit_sums_residual_by_block_without_the_dense_design(problem):
    levels, seed, distinct, n = problem
    space, ref, values, pool = product_problem(levels, seed, distinct)
    points = [pool[i] for i in np.random.default_rng(seed).integers(0, distinct, size=n)]
    dm = build_design_matrix(points, space, ref)
    assume(dm.sigma_min > RANK_TOLERANCE)
    estimates = exact_shapley(ValueOracle(space, ref, values), points)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", recording("solve", calls))
        mp.setattr(EffectDesignMatrix, "matrix", property(no_dense_design))
        fit = fit_effects_sf(estimates, space, ref)
    theta = calls[-1][2]
    phi = estimates.phi.ravel()
    dense = float(np.linalg.norm(dm.matrix @ theta - phi))
    assert abs(fit.diagnostics["residual_norm"] - dense) <= 1e-12 * (1.0 + np.abs(phi).max())


def test_batched_exact_across_chunk_boundary(monkeypatch):
    # A 64-value gather budget on 3 factors: chunks of 8 points.
    monkeypatch.setattr("effectlab.shapley.GATHER_VALUES", 64)
    space, ref, values, points = product_problem([2, 3, 4], 21, 17)
    oracle = ValueOracle(space, ref, values)
    estimates = exact_shapley(oracle, points)
    assert len(estimates.x) == 17
    assert_matches_loop(oracle, values, points, estimates)


def test_exact_attribution_beyond_ten_factors_matches_per_point_loop():
    # One gather holds GATHER_VALUES >> d points: 1024 at 11 binary factors,
    # 256 at 13. Check the first point, both sides of the first chunk
    # boundary and the last point, which here is the boundary's right side.
    for d in (11, 13):
        chunk = GATHER_VALUES >> d
        space, ref, values, points = product_problem([2] * d, d, chunk + 1)
        oracle = ValueOracle(space, ref, values)
        estimates = exact_shapley(oracle, points)
        assert_matches_loop(oracle, values, points, estimates, picks=[0, chunk - 1, chunk])


def test_batched_exact_rejects_out_of_range_points(space_2x2):
    oracle = xor_oracle(space_2x2)
    with pytest.raises(ValueError, match="out of range"):
        exact_shapley(oracle, [(0, 0), (0, 2)])


def test_batched_exact_rejects_points_of_wrong_width(space_2x2):
    """Two 3-coordinate points must not be read as three 2-factor points."""
    oracle = xor_oracle(space_2x2)
    with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
        exact_shapley(oracle, [(0, 1, 0), (1, 0, 1)])


# ---------------------------------------------------------------------------
# Design matrix and least squares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("points, match", [
    ([(0, 0), (0, 2)], "out of range"),
    ([(0, 0), (-1, 0)], "out of range"),
    ([(0, 0, 0)], r"expected \(n, 2\)"),
    ([0, 1], r"expected \(n, 2\)"),
])
def test_design_matrix_rejects_bad_points(space_2x2, points, match):
    with pytest.raises(ValueError, match=match):
        build_design_matrix(points, space_2x2)


def test_design_matrix_full_grid_identifiable(space_2x2):
    dm = build_design_matrix(enumerate_grid(space_2x2), space_2x2)
    assert dm.sigma_min > 1e-8
    # cross-check with a rank oracle
    assert np.linalg.matrix_rank(dm.matrix) == dm.matrix.shape[1]


def test_design_matrix_single_config_deficient(space_2x2):
    dm = build_design_matrix([(0, 0)], space_2x2)
    assert dm.sigma_min < 1e-8
    assert dm.deficient_blocks()  # names the unidentified blocks
    est = ShapleyEstimate([(0, 0)], np.zeros((1, 2)), np.zeros((1, 2)), M=1)
    with pytest.raises(RankDeficiencyError):
        fit_effects_sf(est, space_2x2)


def dense_deficient_blocks(dm):
    """What the full SVD of the dense design names: blocks with weight in
    its numerical null space."""
    _, s, vt = np.linalg.svd(dm.matrix, full_matrices=True)
    null = vt[int((s >= RANK_TOLERANCE).sum()):]
    return [name for (_, _, sl), name in zip(dm.blocks, dm.block_names())
            if null.size and np.abs(null[:, sl]).max() > 1e-6]


def no_dense_design(self):
    raise AssertionError("the dense design was read")


@pytest.mark.parametrize("points", [[(1, 2, 0)] * 10, [(1, 2, 0)], [(0, 0, 0), (1, 2, 1)]],
                         ids=["tall", "one-point", "two-points"])
def test_deficient_blocks_reads_r_not_the_dense_design(points, monkeypatch):
    # A tall design of one repeated point, and two designs with fewer rows
    # than parameters, whose null space is partly structural.
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    dm = build_design_matrix(points, space)
    assert dm.sigma_min < RANK_TOLERANCE
    expected = dense_deficient_blocks(build_design_matrix(points, space))
    if len(points) == 10:
        assert dm.shape[0] >= dm.shape[1]
        assert expected == ["a", "b", "c", "a|b", "a|c", "b|c"]
    monkeypatch.setattr(EffectDesignMatrix, "matrix", property(no_dense_design))
    assert dm.deficient_blocks() == expected


def test_fit_roundtrip_from_exact_attributions():
    rng = np.random.default_rng(9)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    teacher = random_table(rng, space)
    table = teacher.truth
    grid = enumerate_grid(space)
    phi = np.array([exact_shapley_second_order(table, x) for x in grid])
    estimates = ShapleyEstimate(grid, phi, np.zeros_like(phi), M=1)
    fitted = fit_effects_sf(estimates, space, shrinkage=TINY_TAU, mu=table.mu)
    for j in range(space.num_factors):
        assert np.max(np.abs(fitted.mains[j] - table.mains[j])) < 1e-8
    for jk in table.pairs:
        assert np.max(np.abs(fitted.pairs[jk] - table.pairs[jk])) < 1e-8


def test_fit_zero_attributions_zero_table(space_2x2):
    grid = enumerate_grid(space_2x2)
    estimates = ShapleyEstimate(grid, np.zeros((4, 2)), np.zeros((4, 2)), M=1)
    fitted = fit_effects_sf(estimates, space_2x2, shrinkage=TINY_TAU)
    for j in range(2):
        assert np.max(np.abs(fitted.mains[j])) < 1e-12
    assert np.max(np.abs(fitted.pairs[(0, 1)])) < 1e-12


@pytest.mark.parametrize("x, phi, variance", [
    ([0, 1], np.zeros(2), np.zeros(2)),  # one point, but not as an (n, d) array
    ([(0, 1)], np.zeros((1, 3)), np.zeros((1, 3))),
    ([(0, 1)], np.zeros((1, 2)), np.zeros((2, 2))),
    ([(0, 1), (1, 0)], np.zeros((1, 2)), np.zeros((1, 2))),
])
def test_shapley_estimate_rejects_mismatched_shapes(x, phi, variance):
    with pytest.raises(ValueError, match=r"one \(n, d\) shape"):
        ShapleyEstimate(x, phi, variance, M=1)


def test_fit_rejects_empty_and_mismatched_batches(space_2x2):
    empty = ShapleyEstimate(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), M=1)
    with pytest.raises(ValueError, match="no attribution estimates"):
        fit_effects_sf(empty, space_2x2)
    wide = ShapleyEstimate([(0, 1, 0)], np.zeros((1, 3)), np.zeros((1, 3)), M=1)
    with pytest.raises(ValueError, match="inconsistent space"):
        fit_effects_sf(wide, space_2x2)


def test_fit_from_oracle_evaluation_points(monkeypatch):
    # Within EVAL_GRID_CAP the points are the grid in lexicographic order;
    # above it, the log's distinct configurations in first-appearance order,
    # which this log does not write sorted.
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    grid = enumerate_grid(space)
    order = np.random.default_rng(5).permutation(len(grid))
    assert (np.diff(order) < 0).any()
    configs = [grid[i] for i in np.concatenate([order, order[::-1]])]
    log = log_from_arrays(space, configs, np.arange(len(configs), dtype=float))
    oracle = ValueOracle.from_log(log, ReferenceDistribution.uniform(space))
    assert fit_from_oracle(oracle, log).attributions.x.tolist() == [list(x) for x in grid]
    monkeypatch.setattr("effectlab.shapley.EVAL_GRID_CAP", len(grid) - 1)
    assert (fit_from_oracle(oracle, log).attributions.x.tolist()
            == [list(grid[i]) for i in order])


def test_fit_perturbation_stability_bound():
    rng = np.random.default_rng(10)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"])])
    teacher = random_table(rng, space)
    table = teacher.truth
    grid = enumerate_grid(space)
    dm = build_design_matrix(grid, space)
    eta = 0.01
    clean = np.concatenate([exact_shapley_second_order(table, x) for x in grid])
    noise = rng.uniform(-eta, eta, size=clean.shape)
    theta_clean, *_ = np.linalg.lstsq(dm.matrix, clean, rcond=None)
    theta_noisy, *_ = np.linalg.lstsq(dm.matrix, clean + noise, rcond=None)
    err = float(np.linalg.norm(theta_noisy - theta_clean))
    n_rows = dm.matrix.shape[0]
    assert err <= math.sqrt(n_rows) * eta / dm.sigma_min + 1e-12


def test_stability_bound_monte_carlo():
    rng = np.random.default_rng(11)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1"]), ("c", ["0", "1", "2"])])
    teacher = random_table(rng, space)
    grid = enumerate_grid(space)
    dm = build_design_matrix(grid, space)
    clean = np.concatenate(
        [exact_shapley_second_order(teacher.truth, x) for x in grid]
    )
    theta_clean, *_ = np.linalg.lstsq(dm.matrix, clean, rcond=None)
    for _ in range(100):
        noise = rng.normal(0, 0.05, size=clean.shape)
        theta, *_ = np.linalg.lstsq(dm.matrix, clean + noise, rcond=None)
        err = float(np.linalg.norm(theta - theta_clean))
        assert err <= float(np.linalg.norm(noise)) / dm.sigma_min + 1e-12


# ---------------------------------------------------------------------------
# shapley.csv
# ---------------------------------------------------------------------------

# Labels and names that need quoting: delimiter, quote, line breaks, inner
# spaces and non-ASCII text, or nothing at all. A space holds no label or
# name with surrounding whitespace.
csv_text = st.text(alphabet=st.sampled_from(list('a,"\r\n \u00e9\u4e2d')),
                   max_size=4).map(str.strip)


@st.composite
def shapley_dumps(draw):
    """A space of one to three factors and a batch of up to seven points
    whose phi and variance may be non-finite."""
    d = draw(st.integers(1, 3))
    names = draw(st.lists(csv_text, min_size=d, max_size=d, unique=True))
    space = build_space([(name, draw(st.lists(csv_text, min_size=2, max_size=3, unique=True)))
                         for name in names])
    n = draw(st.integers(0, 7))
    x = [[draw(st.integers(0, L - 1)) for L in space.level_counts] for _ in range(n)]
    values = st.lists(st.floats(), min_size=n * d, max_size=n * d).map(
        lambda v: np.reshape(v, (n, d)))
    estimates = ShapleyEstimate(np.reshape(x, (n, d)), draw(values), draw(values),
                                M=draw(st.integers(1, 1 << 12)))
    note = draw(st.sampled_from([None, "", "units: response; estimator: sf", 'a, "b" \u00e9']))
    return space, estimates, note


@example(dump=(build_space([('"', ["", "a ,", "é\n中"])]),
                ShapleyEstimate([(0,), (1,), (2,)], [[math.nan], [math.inf], [-0.0]],
                                [[-math.nan], [-math.inf], [0.0]], M=3), "a, b"), block=2)
@settings(max_examples=200, deadline=None)
@given(dump=shapley_dumps(), block=st.sampled_from([1, 2, 3, 1024]))
def test_shapley_csv_bytes_match_row_loop(dump, block, tmp_path_factory):
    space, estimates, note = dump
    tmp = tmp_path_factory.mktemp("shapley")
    write_shapley_csv_loop(estimates, space, tmp / "loop.csv", header_note=note)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("effectlab.shapley.WRITE_POINTS", block)
        write_shapley_csv(estimates, space, tmp / "blocks.csv", header_note=note)
    assert (tmp / "blocks.csv").read_bytes() == (tmp / "loop.csv").read_bytes()


class FullDisk:
    """A text handle whose third write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.written = fh, []

    def write(self, text):
        if len(self.written) == 2:
            raise OSError("No space left on device")
        self.written.append(text)
        return self.fh.write(text)


def test_shapley_csv_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr("effectlab.shapley.WRITE_POINTS", 1)
    space = build_space([("a", ["0", "1"])])
    path = tmp_path / "shapley.csv"
    write_shapley_csv(ShapleyEstimate([(0,)], np.zeros((1, 1)), np.zeros((1, 1)), M=1),
                      space, path)
    before = path.read_bytes()
    handles = []

    @contextlib.contextmanager
    def failing(target):
        with open_atomic(target) as fh:
            handles.append(FullDisk(fh))
            yield handles[-1]

    # The header row and the first point's block go out, then the second
    # point's block fails.
    monkeypatch.setattr("effectlab.shapley.open_atomic", failing)
    with pytest.raises(OSError, match="No space left"):
        write_shapley_csv(ShapleyEstimate([(1,), (0,)], np.ones((2, 1)), np.zeros((2, 1)), M=1),
                          space, path)
    assert handles[0].written[1] == "1,a,1.0,0.0,1\r\n"
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["shapley.csv"]


@pytest.mark.parametrize("level", [-1, 2])
def test_shapley_csv_rejects_levels_outside_the_space(level, tmp_path):
    # A level of -1 was written as the last label, and a level past the last
    # one raised a bare IndexError after the header had gone out.
    space = build_space([("a", ["lo", "hi"])])
    bad = ShapleyEstimate([(0,), (level,)], np.ones((2, 1)), np.zeros((2, 1)), M=1)
    with pytest.raises(ValueError, match=f"level index {level} out of range for factor 'a'"):
        write_shapley_csv(bad, space, tmp_path / "shapley.csv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Cross-path agreement
# ---------------------------------------------------------------------------

def test_cm_sf_agree_on_full_grid():
    rng = np.random.default_rng(12)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    values = rng.uniform(-1, 1, size=space.level_counts)
    log = full_grid_log(space, values)
    cm = estimate_effects_cm(log, shrinkage=TINY_TAU)

    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle.from_log(log, ref)
    grid = enumerate_grid(space)
    estimates = exact_shapley(oracle, grid)
    sf = fit_effects_sf(estimates, space, ref, TINY_TAU, mu=oracle.v_empty)
    assert sf.mu == pytest.approx(cm.mu, abs=1e-9)
    for j in range(space.num_factors):
        assert np.max(np.abs(sf.mains[j] - cm.mains[j])) < 1e-6
    for jk in cm.pairs:
        assert np.max(np.abs(sf.pairs[jk] - cm.pairs[jk])) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_cm_equals_sf_on_balanced_full_grids(levels, replicates, seed):
    # Every cell replicated equally under a uniform reference: the cell means
    # and the least-squares fit to exact attributions recover the same
    # functional ANOVA tables, whatever the higher-order terms of the response,
    # and both shrink by the same counts.
    rng = np.random.default_rng(seed)
    space = build_space([(f"f{i}", [str(t) for t in range(L)]) for i, L in enumerate(levels)])
    configs = np.repeat(np.array(list(np.ndindex(*levels))), replicates, axis=0)
    responses = rng.normal(size=len(configs)) * 10.0 ** rng.integers(-2, 3)
    log = log_from_arrays(space, configs, responses)
    cm, sf = estimate_from_log(log, "CM"), estimate_from_log(log, "SF")
    cm_values = [np.array([cm.mu])] + list(cm.mains) + list(cm.pairs.values())
    sf_values = [np.array([sf.mu])] + list(sf.mains) + list(sf.pairs.values())
    scale = 1.0 + max(np.abs(v).max() for v in cm_values)
    assert max(np.abs(a - b).max() for a, b in zip(cm_values, sf_values)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Reference projection
# ---------------------------------------------------------------------------

projection_problems = st.tuples(
    st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=5),
    st.integers(1, 3),  # value tensors in the batch
    st.integers(0, 2**32 - 1),
)


def value_batch(levels, sets, seed):
    """A space with the given level counts and ``sets`` random value
    tensors over its grid, stacked, with magnitudes from 1e-2 to 1e2."""
    rng = np.random.default_rng(seed)
    space = build_space([(f"f{i}", [str(t) for t in range(L)]) for i, L in enumerate(levels)])
    return space, rng, rng.normal(size=(sets, *levels)) * 10.0 ** rng.integers(-2, 3)


@settings(max_examples=60, deadline=None)
@given(projection_problems)
def test_projection_is_the_sf_fit_on_the_uniform_full_grid(problem):
    """Under the uniform reference, least squares on exact Shapley values at
    every grid point recovers the tensor's order-2 ANOVA projection: each
    set's finalized projection is its attribution-route table."""
    space, _, values = value_batch(*problem)
    ref = ReferenceDistribution.uniform(space)
    grid = enumerate_grid(space)
    support = log_from_arrays(space, grid, np.zeros(len(grid))).support
    mu, raw_mains, raw_pairs = reference_projection(values, ref)
    for c, tensor in enumerate(values):
        mains, pairs = _finalize(ref, [g[c] for g in raw_mains],
                                 {jk: h[c] for jk, h in raw_pairs.items()}, TINY_TAU,
                                 support.level_counts, support.pair_counts)
        oracle = ValueOracle(space, ref, tensor)
        fit = fit_effects_sf(exact_shapley(oracle, grid), space, ref, TINY_TAU,
                             mu=oracle.v_empty)
        tol = 1e-12 * (1.0 + np.abs(tensor).max())
        assert abs(mu[c] - fit.mu) <= tol
        for j in range(space.num_factors):
            assert np.abs(mains[j] - fit.mains[j]).max() <= tol
        for jk in space.pairs():
            assert np.abs(pairs[jk] - fit.pairs[jk]).max() <= tol


@settings(max_examples=60, deadline=None)
@given(projection_problems, st.booleans())
def test_projection_matches_the_brute_force_decomposition(problem, zero_mass):
    """Under random product references, a level of zero mass included, the
    batch projection is each tensor's conditional-mean decomposition."""
    space, rng, values = value_batch(*problem)
    marginals = [rng.dirichlet(np.ones(L)) for L in space.level_counts]
    if zero_mass:
        j = int(rng.integers(space.num_factors))
        marginals[j][int(rng.integers(len(marginals[j])))] = 0.0
        marginals[j] /= marginals[j].sum()
    ref = ReferenceDistribution.from_marginals(space, marginals)
    mu, mains, pairs = reference_projection(values, ref)
    for c, tensor in enumerate(values):
        want_mu, want_mains, want_pairs = projection_decomposition(tensor, marginals)
        tol = 1e-12 * (1.0 + np.abs(tensor).max())
        assert abs(mu[c] - want_mu) <= tol
        for j in range(space.num_factors):
            assert np.abs(mains[j][c] - want_mains[j]).max() <= tol
        for jk in space.pairs():
            assert np.abs(pairs[jk][c] - want_pairs[jk]).max() <= tol


def test_objective_deviation_bounded_by_table_errors():
    # Perturbing a table moves the objective by at most the summed entrywise
    # effect errors, uniformly over configurations.
    from effectlab import predict_grid

    rng = np.random.default_rng(13)
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    teacher = random_table(rng, space)
    table = teacher.truth
    noisy_mains = tuple(g + rng.normal(0, 0.05, size=g.shape) for g in table.mains)
    noisy_pairs = {jk: m + rng.normal(0, 0.05, size=m.shape) for jk, m in table.pairs.items()}
    import dataclasses

    noisy = dataclasses.replace(table, mains=noisy_mains, pairs=noisy_pairs)
    dev = np.abs(predict_grid(noisy) - predict_grid(table)).max()
    budget = sum(np.abs(noisy_mains[j] - table.mains[j]).max() for j in range(3))
    budget += sum(
        np.abs(noisy_pairs[jk] - table.pairs[jk]).max() for jk in table.pairs
    )
    assert dev <= budget + 1e-12
