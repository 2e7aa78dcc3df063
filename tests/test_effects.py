import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectlab import (
    CostModel,
    DesignPlan,
    ObjectiveSpec,
    PairwiseObjective,
    ReferenceDistribution,
    ShrinkageSpec,
    bootstrap_cis,
    build_space,
    enumerate_grid,
    estimate_effects_cm,
    log_from_arrays,
    sample_design,
    support_counts,
    table_from_dict,
)
import effectlab.effects as effects_module
from effectlab.effects import BOOTSTRAP_CHUNK, bootstrap_replicates, percentile
from effectlab.space import double_centerer, product_centerer
from conftest import full_grid_log, random_space
from oracles import (bootstrap_replicates_loop, double_center_loop, estimate_arrays_loop,
                     nan_percentile_interval_eager, percentile_interval_eager,
                     projection_decomposition, topk_intervals_loop)

TINY_TAU = ShrinkageSpec(1e-12)


def uniform_marginals(space):
    return [np.full(L, 1.0 / L) for L in space.level_counts]


def assert_centered(table, tol=1e-9):
    ref = table.reference
    for j, g in enumerate(table.mains):
        assert abs(float(np.dot(ref.marginal(j), g))) <= tol
    for (j, k), mat in table.pairs.items():
        joint = ref.pair(j, k)
        row_mass = joint.sum(axis=1)
        col_mass = joint.sum(axis=0)
        rows = (joint * mat).sum(axis=1)
        cols = (joint * mat).sum(axis=0)
        assert np.all(np.abs(rows[row_mass > 0] / row_mass[row_mass > 0]) <= tol)
        assert np.all(np.abs(cols[col_mass > 0] / col_mass[col_mass > 0]) <= tol)


# ---------------------------------------------------------------------------
# Baseline and conditional means
# ---------------------------------------------------------------------------

def cell_means(sums):
    """Weighted mean response of each cell of a ``support_counts`` sum
    array; NaN where the cell has no weight."""
    return np.divide(sums[1], sums[0], out=np.full(sums[0].shape, np.nan), where=sums[0] > 0)


def test_weighted_baseline(space_2x2):
    log = log_from_arrays(space_2x2, enumerate_grid(space_2x2), [0, 1, 1, 0])
    assert estimate_effects_cm(log).mu == pytest.approx(0.5)
    single = log_from_arrays(space_2x2, [(0, 0)], [3.0], weights=[2.0])
    assert estimate_effects_cm(single).mu == pytest.approx(3.0)
    two = log_from_arrays(space_2x2, [(0, 0), (1, 1)], [0.0, 4.0], weights=[1.0, 3.0])
    # hand-weighted mean: (1*0 + 3*4) / 4 = 3
    assert estimate_effects_cm(two).mu == pytest.approx(3.0)


def test_conditional_mean_xor(xor_log):
    level_sums = support_counts(xor_log).level_sums
    assert cell_means(level_sums[0])[0] == pytest.approx(0.5)
    assert cell_means(level_sums[1])[1] == pytest.approx(0.5)


def test_conditional_mean_constant(space_2x2):
    log = log_from_arrays(space_2x2, enumerate_grid(space_2x2), [7.0] * 4)
    support = support_counts(log)
    for sums in support.level_sums:
        assert cell_means(sums) == pytest.approx([7.0, 7.0])
    assert cell_means(support.pair_sums[(0, 1)])[1, 0] == pytest.approx(7.0)


def test_conditional_mean_single_record_cell(space_2x2):
    # A cell without weight has no mean: NaN in the table's level means.
    log = log_from_arrays(space_2x2, [(0, 0), (1, 1)], [2.5, -1.0])
    pair_means = cell_means(support_counts(log).pair_sums[(0, 1)])
    assert pair_means[0, 0] == pytest.approx(2.5)
    assert np.isnan(pair_means[0, 1])
    table = estimate_effects_cm(log_from_arrays(space_2x2, [(0, 0)], [1.0]))
    assert table.level_means[0][0] == 1.0 and np.isnan(table.level_means[0][1])


# ---------------------------------------------------------------------------
# Effect estimation
# ---------------------------------------------------------------------------

def test_estimate_additive_indicator(space_2x2):
    grid = enumerate_grid(space_2x2)
    responses = [1.0 if x[0] == 1 else 0.0 for x in grid]
    log = log_from_arrays(space_2x2, grid, responses)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    assert table.mu == pytest.approx(0.5)
    assert table.mains[0] == pytest.approx([-0.5, 0.5])
    assert table.mains[1] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert table.pairs[(0, 1)] == pytest.approx(np.zeros((2, 2)), abs=1e-12)


def test_estimate_xor(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    assert table.mu == pytest.approx(0.5)
    for g in table.mains:
        assert g == pytest.approx([0.0, 0.0], abs=1e-12)
    expected = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.max(np.abs(table.pairs[(0, 1)] - expected)) < 1e-10


def test_estimate_matches_projection_oracle_2x3():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"])])
    rng = np.random.default_rng(11)
    values = rng.uniform(-1, 1, size=space.level_counts)
    log = full_grid_log(space, values, replicates=3)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    mu, mains, pairs = projection_decomposition(values, uniform_marginals(space))
    assert table.mu == pytest.approx(mu, abs=1e-12)
    for j in range(2):
        assert np.max(np.abs(table.mains[j] - mains[j])) < 1e-10
    assert np.max(np.abs(table.pairs[(0, 1)] - pairs[(0, 1)])) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_estimate_matches_projection_oracle_random_spaces(seed):
    rng = np.random.default_rng(100 + seed)
    space = random_space(rng)
    values = rng.uniform(-2, 2, size=space.level_counts)
    log = full_grid_log(space, values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    mu, mains, pairs = projection_decomposition(values, uniform_marginals(space))
    assert table.mu == pytest.approx(mu, abs=1e-12)
    for j in range(space.num_factors):
        assert np.max(np.abs(table.mains[j] - mains[j])) < 1e-10
    for jk, mat in pairs.items():
        assert np.max(np.abs(table.pairs[jk] - mat)) < 1e-10


def test_reconstruction_exactness_second_order():
    # Exactly second-order responses are reproduced at every grid point.
    rng = np.random.default_rng(5)
    space = random_space(rng, d=3)
    mains = [rng.normal(size=L) for L in space.level_counts]
    mains = [g - g.mean() for g in mains]
    values = np.zeros(space.level_counts)
    for j, g in enumerate(mains):
        shape = [1] * 3
        shape[j] = len(g)
        values = values + g.reshape(shape)
    m01 = rng.normal(size=(space.level_counts[0], space.level_counts[1]))
    m01 -= m01.mean(axis=1, keepdims=True)
    m01 -= m01.mean(axis=0, keepdims=True)
    values = values + m01[:, :, None]

    log = full_grid_log(space, values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    for x in enumerate_grid(space):
        pred = table.mu + sum(table.mains[j][x[j]] for j in range(3))
        pred += sum(mat[x[j], x[k]] for (j, k), mat in table.pairs.items())
        assert pred == pytest.approx(float(values[x]), abs=1e-10)


def test_affine_equivariance(space_2x2):
    rng = np.random.default_rng(8)
    grid = enumerate_grid(space_2x2)
    responses = rng.normal(size=4)
    log = log_from_arrays(space_2x2, grid, responses)
    a, b = 2.5, -1.3
    log2 = log_from_arrays(space_2x2, grid, a * responses + b)
    t1 = estimate_effects_cm(log, shrinkage=TINY_TAU)
    t2 = estimate_effects_cm(log2, shrinkage=TINY_TAU)
    assert t2.mu == pytest.approx(a * t1.mu + b, abs=1e-10)
    for j in range(2):
        assert np.max(np.abs(t2.mains[j] - a * t1.mains[j])) < 1e-10
    assert np.max(np.abs(t2.pairs[(0, 1)] - a * t1.pairs[(0, 1)])) < 1e-10


def test_centering_invariants_on_skewed_log(space_2x2):
    rng = np.random.default_rng(21)
    design = sample_design(space_2x2, DesignPlan.skewed(60, bias=3.0), seed=4)
    responses = rng.normal(size=60)
    log = log_from_arrays(space_2x2, design, responses)
    table = estimate_effects_cm(log)  # default shrinkage
    assert_centered(table)


def test_centering_under_empirical_reference():
    rng = np.random.default_rng(31)
    space = build_space([("a", ["0", "1", "2"]), ("b", ["0", "1"])])
    design = sample_design(space, DesignPlan.skewed(80, bias=2.0), seed=9)
    log = log_from_arrays(space, design, rng.normal(size=80),
                          weights=(rng.random(80) + 0.5).tolist())
    ref = ReferenceDistribution.empirical(log)
    table = estimate_effects_cm(log, ref)
    assert_centered(table)


def test_empty_cells_flagged(space_2x2):
    log = log_from_arrays(space_2x2, [(0, 0), (1, 1), (0, 1)], [1.0, 2.0, 0.5])
    table = estimate_effects_cm(log)
    weight = table.support.pair_sums[(0, 1)][0]
    assert weight[1, 0] == 0.0
    assert weight[0, 0] > 0.0


def test_shrinkage_monotone_on_balanced_support(space_2x2):
    # Equal support per level makes eta uniform, so the final re-centering is
    # a no-op and |shrunk| <= |raw| holds entrywise.
    rng = np.random.default_rng(13)
    values = rng.normal(size=(2, 2))
    log = full_grid_log(space_2x2, values, replicates=4)
    raw = estimate_effects_cm(log, shrinkage=TINY_TAU)
    shrunk = estimate_effects_cm(log, shrinkage=ShrinkageSpec(2.0))
    for j in range(2):
        assert np.all(np.abs(shrunk.mains[j]) <= np.abs(raw.mains[j]) + 1e-12)
    assert np.all(np.abs(shrunk.pairs[(0, 1)]) <= np.abs(raw.pairs[(0, 1)]) + 1e-12)


@pytest.mark.parametrize("sets", [1, 2, 3])
@pytest.mark.parametrize("levels", [[2, 2], [2, 3]])
def test_finalize_batched_tables_with_unbatched_counts(levels, sets):
    # Per-level counts broadcast against (C, L_j) tables: a zero count
    # zeroes that level in every set, as finalizing each set alone does,
    # also when C equals a factor's level count.
    rng = np.random.default_rng(31)
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    ref = ReferenceDistribution.from_marginals(space, [rng.dirichlet(np.ones(L)) for L in levels])
    mains = [rng.normal(size=(sets, L)) for L in levels]
    pairs = {(0, 1): rng.normal(size=(sets, *levels))}
    main_counts = [np.array([3.0, 0.0]), np.arange(levels[1], dtype=float)]
    pair_counts = {(0, 1): np.outer(main_counts[0], main_counts[1])}
    spec = ShrinkageSpec(0.5)
    got_mains, got_pairs = effects_module._finalize(ref, mains, pairs, spec,
                                                    main_counts, pair_counts)
    for c in range(sets):
        want_mains, want_pairs = effects_module._finalize(
            ref, [m[c] for m in mains], {jk: p[c] for jk, p in pairs.items()}, spec,
            main_counts, pair_counts)
        for got, want in zip(got_mains, want_mains):
            np.testing.assert_allclose(got[c], want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_pairs[(0, 1)][c], want_pairs[(0, 1)],
                                   rtol=1e-12, atol=1e-15)


def test_shrinkage_approaches_identity(space_2x2):
    rng = np.random.default_rng(14)
    values = rng.normal(size=(2, 2))
    spec = ShrinkageSpec(1.0)
    prev_gap = None
    for reps in (1, 4, 16, 64):
        log = full_grid_log(space_2x2, values, replicates=reps)
        raw = estimate_effects_cm(log, shrinkage=TINY_TAU)
        shrunk = estimate_effects_cm(log, shrinkage=spec)
        gap = max(
            float(np.max(np.abs(shrunk.mains[j] - raw.mains[j]))) for j in range(2)
        )
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.05


def test_hoeffding_cell_concentration():
    # Fraction of cells whose mean error exceeds B*sqrt(2*log(2/delta)/n)
    # stays within delta + 0.02 over many replications.
    B, delta, n = 1.0, 0.1, 40
    bound = B * np.sqrt(2.0 * np.log(2.0 / delta) / n)
    rng = np.random.default_rng(99)
    violations = 0
    cells = 0
    for _ in range(500):
        sample = rng.uniform(-B, B, size=(4, n))  # 4 cells per replication
        err = np.abs(sample.mean(axis=1) - 0.0)
        violations += int((err > bound).sum())
        cells += 4
    assert violations / cells <= delta + 0.02


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_constant_response_zero_width(space_2x2):
    log = full_grid_log(space_2x2, np.full((2, 2), 3.0), replicates=5)
    table = bootstrap_cis(log, B=120, seed=0)
    for j in range(2):
        ci = table.interval(table.replicates.mains[j])
        assert np.max(np.abs(ci[:, 1] - ci[:, 0])) == 0.0
    mu_ci = table.interval(table.replicates.mu)
    assert float(mu_ci[1] - mu_ci[0]) == 0.0


def test_bootstrap_deterministic(space_2x2):
    rng = np.random.default_rng(2)
    log = full_grid_log(space_2x2, rng.normal(size=(2, 2)), replicates=10)
    t1 = bootstrap_cis(log, B=110, seed=42)
    t2 = bootstrap_cis(log, B=110, seed=42)
    for j in range(2):
        assert np.array_equal(t1.interval(t1.replicates.mains[j]),
                              t2.interval(t2.replicates.mains[j]))
    assert np.array_equal(t1.interval(t1.replicates.mu), t2.interval(t2.replicates.mu))


def test_bootstrap_requires_replicates(space_2x2):
    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bootstrap_cis(log, B=99)


def test_bootstrap_width_scaling(space_2x2):
    # Quadrupling the per-cell sample size should roughly halve CI widths.
    rng = np.random.default_rng(77)
    ratios = []
    for rep in range(20):
        grid = enumerate_grid(space_2x2)

        def make_log(n):
            configs, responses = [], []
            seed_rng = np.random.default_rng((rep, n))
            for x in grid:
                vals = seed_rng.choice([-1.0, 1.0], size=n)
                configs.extend([x] * n)
                responses.extend(vals.tolist())
            return log_from_arrays(space_2x2, configs, responses)

        small = bootstrap_cis(make_log(200), B=120, seed=rep)
        large = bootstrap_cis(make_log(800), B=120, seed=rep)
        ci_small = small.interval(small.replicates.mains[0])
        ci_large = large.interval(large.replicates.mains[0])
        w_small = float(np.mean(ci_small[:, 1] - ci_small[:, 0]))
        w_large = float(np.mean(ci_large[:, 1] - ci_large[:, 0]))
        ratios.append(w_large / w_small)
    assert 0.4 <= float(np.mean(ratios)) <= 0.6


# ---------------------------------------------------------------------------
# Batched replicates against the record-by-record loop
# ---------------------------------------------------------------------------

def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * (1.0 + np.abs(want[ok])))


def random_log(levels, seed, n, zero_share):
    """Random configurations, responses and weights, with about
    ``zero_share`` of the weights zero (at least one stays positive)."""
    rng = np.random.default_rng(seed)
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    configs = np.stack([rng.integers(0, L, size=n) for L in levels], axis=1)
    weights = rng.uniform(0.1, 3.0, size=n) * (rng.random(n) >= zero_share)
    weights[rng.integers(0, n)] = 1.5
    return log_from_arrays(space, configs, rng.normal(2.0, 3.0, size=n), weights=weights), rng


def reference_for(kind, log, rng):
    space = log.space
    if kind == "empirical":
        return ReferenceDistribution.empirical(log)
    if kind == "uniform":
        return ReferenceDistribution.uniform(space)
    return ReferenceDistribution.from_marginals(
        space, [rng.dirichlet(np.ones(L)) for L in space.level_counts])


replicate_problems = st.tuples(
    st.lists(st.integers(2, 4), min_size=2, max_size=4),
    st.integers(0, 2**32 - 1),
    st.integers(3, 40),
    st.sampled_from([0.0, 0.3, 0.8]),
    st.sampled_from(["product", "empirical"]),
)


@settings(max_examples=40, deadline=None)
@given(replicate_problems)
def test_batched_replicates_match_record_loop(problem):
    levels, seed, n, zero_share, kind = problem
    log, rng = random_log(levels, seed, n, zero_share)
    ref = reference_for(kind, log, rng)
    shrink = ShrinkageSpec(0.7)
    B = BOOTSTRAP_CHUNK + 1
    reps = bootstrap_replicates(log, ref, shrink, B=B, seed=seed % 1000)
    mu, mains, pairs, means, fallbacks = bootstrap_replicates_loop(
        log.configs_array, log.responses, log.weights, log.space, ref, shrink, B, seed % 1000)
    assert reps.fallback_draws == fallbacks
    assert_close(reps.mu, mu)
    for j in range(log.space.num_factors):
        assert_close(reps.mains[j], mains[j])
        assert_close(reps.level_means[j], means[j])
    assert reps.pairs.keys() == pairs.keys()
    for jk in pairs:
        assert_close(reps.pairs[jk], pairs[jk])


@settings(max_examples=25, deadline=None)
@given(replicate_problems)
def test_single_estimate_matches_record_loop(problem):
    levels, seed, n, zero_share, kind = problem
    log, rng = random_log(levels, seed, n, zero_share)
    ref = reference_for(kind, log, rng)
    table = estimate_effects_cm(log, ref, ShrinkageSpec())
    mu_l, mains_l, pairs_l, means_l = estimate_arrays_loop(
        log.configs_array, log.responses, log.weights, log.space, ref, ShrinkageSpec())
    assert_close(table.mu, mu_l)
    for j in range(log.space.num_factors):
        assert_close(table.mains[j], mains_l[j])
        assert_close(table.level_means[j], means_l[j])
    assert table.pairs.keys() == pairs_l.keys()
    for jk in pairs_l:
        assert_close(table.pairs[jk], pairs_l[jk])


@pytest.mark.parametrize("product", [True, False])
def test_batched_double_center_matches_per_matrix(product):
    rng = np.random.default_rng(4 + product)
    if product:
        joint = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
    else:
        joint = rng.random((3, 4)) * (rng.random((3, 4)) > 0.4)
        joint[1] = 0.0  # a row without mass
        joint /= joint.sum()
    stack = rng.normal(size=(5, 2, 3, 4)) * 10.0 ** rng.integers(-3, 4, size=(5, 2, 1, 1))
    batched = double_centerer(joint)(stack)
    assert batched.shape == stack.shape
    for idx in np.ndindex(5, 2):
        assert np.array_equal(batched[idx], double_centerer(joint)(stack[idx]))
        assert_close(batched[idx], double_center_loop(stack[idx], joint))


@st.composite
def product_centering_problems(draw):
    """Two marginals, either possibly with zero-mass levels, and a (2, 3)
    stack of matrices to center, of mixed magnitudes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def marginal(L):
        pi = rng.dirichlet(np.ones(L)) * (rng.random(L) < draw(st.sampled_from([0.5, 1.0])))
        pi[rng.integers(L)] += 0.5  # at least one level with mass
        return pi / pi.sum()

    pi_j, pi_k = marginal(draw(st.integers(1, 6))), marginal(draw(st.integers(1, 6)))
    stack = rng.normal(size=(2, 3, len(pi_j), len(pi_k)))
    return pi_j, pi_k, stack * 10.0 ** rng.integers(-3, 4, size=(2, 3, 1, 1))


@settings(max_examples=200, deadline=None)
@given(product_centering_problems())
def test_product_centerer_is_the_double_centering_in_closed_form(problem):
    pi_j, pi_k, stack = problem
    joint = np.outer(pi_j, pi_k)
    center = product_centerer(pi_j, pi_k)
    batched = center(stack)
    general = double_centerer(joint)(stack)
    assert batched.shape == stack.shape
    for idx in np.ndindex(stack.shape[:2]):
        tol = 1e-12 * (1.0 + np.abs(stack[idx]).max())
        assert np.array_equal(batched[idx], center(stack[idx]))
        assert np.abs(batched[idx] - double_center_loop(stack[idx], joint)).max() <= tol
        assert np.abs(batched[idx] - general[idx]).max() <= tol


def centering_residual(mat, joint):
    """Largest weighted row or column mean of ``mat`` (or a stack of them)
    over the rows and columns of ``joint`` that have mass."""
    row_mass, col_mass = joint.sum(axis=1), joint.sum(axis=0)
    rows = (joint * mat).sum(axis=-1)[..., row_mass > 0] / row_mass[row_mass > 0]
    cols = (joint * mat).sum(axis=-2)[..., col_mass > 0] / col_mass[col_mass > 0]
    return max(np.abs(rows).max(initial=0.0), np.abs(cols).max(initial=0.0))


def assert_exactly_centered(mat, joint):
    assert centering_residual(mat, joint) <= 1e-12 * (1.0 + np.abs(mat).max(initial=0.0))


def test_staircase_joint_centered_exactly():
    # Diagonal cells weigh 1 and each (i, i + 1) link 0.01: one connected
    # block whose normalized column Laplacian has a spectral gap of about
    # 3e-3, too small for 500 rounds of alternating passes to converge.
    space = build_space([("a", [f"a{i}" for i in range(6)]), ("b", [f"b{i}" for i in range(6)])])
    configs = [(i, i) for i in range(6)] + [(i, i + 1) for i in range(5)]
    rng = np.random.default_rng(17)
    log = log_from_arrays(space, configs, rng.normal(size=11), weights=[1.0] * 6 + [0.01] * 5)
    ref = ReferenceDistribution.empirical(log)
    joint = ref.pair(0, 1)
    assert_exactly_centered(double_centerer(joint)(rng.normal(size=(6, 6))), joint)
    table = estimate_effects_cm(log, ref)
    assert_exactly_centered(table.pairs[(0, 1)], joint)


@st.composite
def centering_problems(draw):
    """A joint on an L_j x L_k grid and a stack of matrices to center: uniform,
    product with a zero-mass level, sparse (zero rows and columns), or split
    into two disconnected blocks."""
    kind = draw(st.sampled_from(["uniform", "product", "sparse", "blocks"]))
    Lj, Lk = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        joint = np.ones((Lj, Lk))
    elif kind == "product":
        joint = np.outer(rng.dirichlet(np.ones(Lj)), rng.dirichlet(np.ones(Lk)))
        joint[rng.integers(Lj)] = 0.0
    else:
        joint = rng.random((Lj, Lk)) * (rng.random((Lj, Lk)) < 0.5)
        if kind == "blocks":
            r, c = rng.integers(1, Lj), rng.integers(1, Lk)
            joint[:r, c:] = joint[r:, :c] = 0.0
        joint[rng.integers(Lj), rng.integers(Lk)] += 1.0
    joint /= joint.sum()
    mat = rng.normal(size=(3, Lj, Lk)) * 10.0 ** rng.integers(-3, 4, size=(3, 1, 1))
    return joint, mat


@settings(max_examples=200, deadline=None)
@given(centering_problems())
# Column 2 reaches the rest of the support only through a cell of mass 9e-5:
# a spectral gap near 7e-4, so a double-precision loop stopped at 1e-15 is
# about 1e-12 off its limit.
@example(problem=(
    np.array([[0.0, 1.38540697e-01, 8.87890511e-05, 2.12191248e-01, 0.0],
              [1.30463222e-01, 1.11512033e-01, 0.0, 0.0, 9.47230147e-02],
              [1.44347067e-01, 0.0, 0.0, 4.72814886e-02, 0.0],
              [0.0, 0.0, 1.20852441e-01, 0.0, 0.0]]),
    np.array([[[10.5515754, 18.0750033, -4.90292151, 23.6615104, -19.5816997],
               [21.2313695, 4.08946045, -6.64665353, -8.81650616, -9.58001426],
               [6.25601246, -8.96364263, 1.25138115, -13.6629293, -0.972313994],
               [-8.08616747, -7.36184787, -2.79320001, -11.6140258, 12.6167050]]])))
def test_double_center_is_the_converged_projection(problem):
    # Tolerances scale with the matrix's largest entry: an entry that cancels
    # to about zero keeps the rounding of the entries it was computed from.
    joint, mat = problem
    out = double_centerer(joint)(mat)
    for centered, m in zip(out, mat):
        scale = 1.0 + np.abs(m).max()
        assert_exactly_centered(centered, joint)
        # The loop stops at a residual of tol, about tol over the spectral
        # gap from its limit, and its rounding builds up by the same factor,
        # so it runs in extended precision with tol near that rounding.
        wide = np.longdouble
        loop = double_center_loop(m.astype(wide), joint.astype(wide), tol=1e-17 * scale,
                                  max_rounds=100_000)
        assert np.abs(centered - loop).max() <= 1e-12 * scale
        assert np.abs(double_centerer(joint)(centered) - centered).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(replicate_problems.map(lambda p: p[:4]),
       st.sampled_from(["uniform", "product", "empirical"]))
def test_tables_centered_exactly(problem, kind):
    log, rng = random_log(*problem)
    ref = reference_for(kind, log, rng)
    table = estimate_effects_cm(log, ref)
    reps = bootstrap_replicates(log, ref, B=BOOTSTRAP_CHUNK + 1, seed=3)
    for j in range(log.space.num_factors):
        for g in (table.mains[j], reps.mains[j]):
            assert np.abs(g @ ref.marginal(j)).max() <= 1e-12 * (1.0 + np.abs(g).max())
    for jk in table.pairs:
        assert_exactly_centered(table.pairs[jk], ref.pair(*jk))
        assert_exactly_centered(reps.pairs[jk], ref.pair(*jk))


@settings(max_examples=15, deadline=None)
@given(replicate_problems)
def test_topk_intervals_match_per_config_loop(problem):
    levels, seed, n, zero_share, kind = problem
    log, rng = random_log(levels, seed, n, zero_share)
    space = log.space
    ref = reference_for(kind, log, rng)
    spec = ObjectiveSpec(lambda_risk=0.8, lambda_cost=0.5, gamma=1.7)
    cost = CostModel(space, tuple(rng.uniform(0, 1, size=L) for L in space.level_counts),
                     offset=0.25)
    support = support_counts(log)
    configs = sorted({tuple(int(v) for v in rng.integers(0, levels)) for _ in range(6)})
    B = 100
    table = bootstrap_cis(log, ref, B=B, level=0.9, seed=seed % 1000)
    values = PairwiseObjective.build(table.replicates, support, spec, cost).at(configs)
    got = dict(zip(configs, table.interval(values)))
    mu, mains, pairs, _, _ = bootstrap_replicates_loop(
        log.configs_array, log.responses, log.weights, space, ref, ShrinkageSpec(), B,
        seed % 1000)
    risk = {x: spec.lambda_risk * sum(spec.gamma / (support.pair_counts[jk][x[jk[0]], x[jk[1]]]
                                                   + spec.gamma) for jk in space.pairs())
            for x in configs}
    costs = {x: spec.lambda_cost * (cost.offset + sum(float(cost.level_costs[j][x[j]])
                                                      for j in range(len(x))))
             for x in configs}
    want = topk_intervals_loop(mu, mains, pairs, risk, costs, configs, 5.0)
    assert got.keys() == want.keys()
    for x in configs:
        assert_close(got[x], want[x])


def replicate_arrays(reps):
    return [reps.mu, *reps.mains, *reps.pairs.values(), *reps.level_means]


def test_replicates_reproducible_byte_identical():
    log, _ = random_log([3, 2, 4], 12, 60, 0.3)
    first = bootstrap_replicates(log, B=BOOTSTRAP_CHUNK * 2 + 3, seed=5)
    second = bootstrap_replicates(log, B=BOOTSTRAP_CHUNK * 2 + 3, seed=5)
    for a, b in zip(replicate_arrays(first), replicate_arrays(second)):
        assert a.tobytes() == b.tobytes()


def test_replicate_same_in_any_chunk():
    # Replicate b is the same draw in both calls, summed into cells in a
    # chunk of 8 or 9 draws in the first and in one of 16 in the second.
    log, _ = random_log([3, 5, 2, 4], 8, 90, 0.3)
    short = bootstrap_replicates(log, B=BOOTSTRAP_CHUNK + 1, seed=11)
    full = bootstrap_replicates(log, B=BOOTSTRAP_CHUNK * 2, seed=11)
    for a, b in zip(replicate_arrays(short), replicate_arrays(full)):
        assert_close(a, b[:BOOTSTRAP_CHUNK + 1])


@pytest.mark.parametrize("B", [BOOTSTRAP_CHUNK - 3, 2 * BOOTSTRAP_CHUNK + 1,
                               2 * BOOTSTRAP_CHUNK + 2, 6 * BOOTSTRAP_CHUNK + 4])
def test_replicates_match_record_loop_in_balanced_chunks(B, monkeypatch):
    # However B divides, the draws are summed in chunks of at most
    # BOOTSTRAP_CHUNK whose sizes differ by at most one: no short tail.
    log, rng = random_log([3, 4, 2], 21, 70, 0.3)
    ref = reference_for("product", log, rng)
    sizes, build = [], effects_module.cell_reducer

    def spy(configs, space):
        reduce = build(configs, space)
        return lambda stats: sizes.append(stats.shape[1]) or reduce(stats)

    monkeypatch.setattr(effects_module, "cell_reducer", spy)
    reps = bootstrap_replicates(log, ref, B=B, seed=4)
    assert sum(sizes) == B and len(sizes) == -(-B // BOOTSTRAP_CHUNK)
    assert max(sizes) <= BOOTSTRAP_CHUNK and max(sizes) - min(sizes) <= 1
    mu, mains, pairs, means, fallbacks = bootstrap_replicates_loop(
        log.configs_array, log.responses, log.weights, log.space, ref, ShrinkageSpec(), B, 4)
    assert reps.fallback_draws == fallbacks
    for got, want in zip(replicate_arrays(reps), [mu, *mains, *pairs.values(), *means]):
        assert_close(got, want)


def test_bootstrap_memory_stays_bounded():
    # 12 three-level factors, 5,000 records, B = 200: the estimator holds
    # every replicate's cell sums (about 3 MB) and its batch temporaries at
    # once. The peak measured 9.2-9.7 MiB; the bound leaves room for
    # allocator and numpy version differences.
    rng = np.random.default_rng(5)
    space = build_space([(f"f{j}", ["a", "b", "c"]) for j in range(12)])
    log = log_from_arrays(space, rng.integers(0, 3, size=(5000, 12)),
                          rng.normal(size=5000), weights=rng.uniform(0.5, 2.0, size=5000))
    tracemalloc.start()
    try:
        reps = bootstrap_replicates(log, B=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.mu.shape == (200,)
    assert peak < 12 * 2**20


def test_bootstrap_unobserved_level_interval_is_nan_without_warning(space_2x2):
    configs = [((i // 2) % 2, i % 2) for i in range(40)]
    weights = [1.0, 1.0] + [0.0] * 38  # both weighted records sit at a=0
    log = log_from_arrays(space_2x2, configs, [float(i % 3) for i in range(40)],
                          weights=weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = bootstrap_cis(log, B=100, seed=0)
        level_ci = table.interval(table.replicates.level_means[0])
        mu_ci = table.interval(table.replicates.mu)
    assert table.replicates.fallback_draws > 0
    assert np.all(np.isnan(level_ci[1]))
    assert np.all(np.isfinite(level_ci[0]))
    assert np.all(np.isfinite(mu_ci))


@st.composite
def replicate_samples(draw):
    """(samples, level): a replicate axis of 1 to 30 draws over 0 to 2
    trailing axes, values with ties, and, on two or more axes, a NaN pattern
    from none through partly NaN columns to all-NaN columns."""
    B = draw(st.integers(1, 30))
    shape = (B, *draw(st.lists(st.integers(1, 4), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.choice(rng.normal(size=draw(st.integers(1, 8))), size=shape)
    if len(shape) > 1:
        samples[rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = np.nan
        columns = rng.uniform(size=shape[1:]) < draw(st.sampled_from([0.0, 0.4, 1.0]))
        samples[:, columns] = np.nan
    level = draw(st.floats(0.01, 0.99) | st.sampled_from([0.5, 0.8, 0.9, 0.95]))
    return samples, level


@settings(max_examples=200, deadline=None)
@given(replicate_samples())
@example((np.array([[1.0, np.nan], [2.0, np.nan]]), 0.95))
@example((np.full((5, 2, 3), np.nan), 0.9))
def test_interval_matches_eager_percentile_rule(problem):
    samples, level = problem
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    table = replace(estimate_effects_cm(full_grid_log(space, np.zeros((2, 2)))), ci_level=level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table.interval(samples)
    assert got.shape == samples.shape[1:] + (2,)
    nan = np.isnan(samples)
    if not nan.any():
        assert got.tobytes() == percentile_interval_eager(samples, level).tobytes()
    if samples.ndim > 1 and not nan.all():
        want = nan_percentile_interval_eager(samples, level)
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    assert np.isnan(got).all(axis=-1).tolist() == nan.all(axis=0).tolist()


@st.composite
def percentile_samples(draw):
    """(samples, q, level): 1 to 12 draws over 0 to 2 trailing axes, from a
    pool with ties and both signs of zero; q is one of the rule's
    percentiles or a list of them, and level a coverage level."""
    shape = (draw(st.integers(1, 12)), *draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([[0.0, -0.0], rng.normal(size=draw(st.integers(0, 6)))])
    samples = rng.choice(pool[:draw(st.integers(1, len(pool)))], size=shape)
    rule = st.sampled_from([0.0, 2.5, 50.0, 97.5, 100.0])
    q = draw(rule | st.lists(rule, min_size=1, max_size=5))
    return samples, q, draw(st.floats(0.01, 0.99) | st.sampled_from([0.5, 0.9, 0.95]))


@settings(max_examples=300, deadline=None)
@given(percentile_samples())
@example((np.array([-0.0, -0.0, 0.0]), [0.0, 2.5, 50.0, 97.5, 100.0], 0.95))
@example((np.array([[-0.0], [0.0]]), 100.0, 0.5))
def test_percentile_matches_numpy_bit_for_bit(problem):
    samples, q, level = problem
    got = percentile(samples, q)
    want = np.asarray(np.percentile(samples, q, axis=0))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    lo_q = 100.0 * (1.0 - level) / 2.0
    interval = np.moveaxis(percentile(samples, [lo_q, 100.0 - lo_q]), 0, -1)
    assert interval.tobytes() == percentile_interval_eager(samples, level).tobytes()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_table_json_roundtrip(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    data = table.to_dict()
    back = table_from_dict(data, xor_log.space)
    assert back.mu == table.mu
    for j in range(2):
        assert np.array_equal(back.mains[j], table.mains[j])
    assert np.array_equal(back.pairs[(0, 1)], table.pairs[(0, 1)])


def test_pair_cell_labels_name_their_cells():
    # A 2 x 3 pair with distinct cells and uneven support, so a transposed or
    # reordered label would name the wrong value.
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"])])
    configs = [(a, b) for a in range(2) for b in range(3) for _ in range(1 + a + 2 * b)]
    log = log_from_arrays(space, configs, [10.0 * a + b for a, b in configs])
    table = bootstrap_cis(log, B=100, seed=1)
    data = table.to_dict()
    mat, counts = table.pairs[(0, 1)], table.support.pair_counts[(0, 1)]
    ci = table.interval(table.replicates.pairs[(0, 1)])
    for a, b in np.ndindex(2, 3):
        label = f"a{a}|b{b}"
        assert data["pairs"]["a|b"][label] == mat[a, b]
        assert data["ci"]["pairs"]["a|b"][label] == list(ci[a, b])
        assert data["support"]["pairs"]["a|b"][label] == counts[a, b] == 1 + a + 2 * b
        assert data["support"]["eff"]["a|b"][label] == table.support.pair_eff[(0, 1)][a, b]
    assert np.array_equal(table_from_dict(data, space).pairs[(0, 1)], mat)


def test_tau_must_be_positive():
    with pytest.raises(ValueError):
        ShrinkageSpec(tau=0.0)
    with pytest.raises(ValueError):
        ShrinkageSpec(tau=-1.0)


@pytest.mark.parametrize("tau", [
    float("nan"), float("inf"), {"a": float("nan")}, {"a|b": float("inf")}, {"a": 1.0},
], ids=["nan", "inf", "mapping-nan", "mapping-inf", "mapping"])
def test_tau_must_be_finite(tau):
    with pytest.raises(ValueError, match="tau.*finite"):
        ShrinkageSpec(tau)
