import math

import numpy as np
import pytest

from effectlab import (
    bernstein_halfwidth,
    build_space,
    effect_error_budget,
    hoeffding_cell_n,
    log_from_arrays,
    mc_sample_size,
    uniform_cells_n,
)


def test_hoeffding_cell_n_closed_form():
    # ceil(200 * ln 40) with B=1, eps=0.1, delta=0.05
    assert hoeffding_cell_n(1.0, 0.1, 0.05) == math.ceil(200 * math.log(40)) == 738


# B = 100 puts the cell sizes near 7e6, where the ceiling moves a ratio by < 1e-6.

def test_hoeffding_quartic_scaling():
    a = hoeffding_cell_n(100.0, 0.1, 0.05)
    b = hoeffding_cell_n(100.0, 0.05, 0.05)
    assert b / a == pytest.approx(4.0)


def test_hoeffding_delta_structure():
    a = hoeffding_cell_n(100.0, 0.1, 0.05)
    b = hoeffding_cell_n(100.0, 0.1, 0.05 ** 2)
    assert b / a == pytest.approx(math.log(2 / 0.05 ** 2) / math.log(2 / 0.05))


def test_uniform_cells_n_closed_form():
    # ceil(200 * ln 360) for a 3x3 pair at B=1, eps=0.1, delta=0.05
    assert uniform_cells_n(1.0, 0.1, 0.05, 3, 3) == math.ceil(200 * math.log(360)) == 1178


def test_uniform_cells_reduces_to_single_cell():
    assert uniform_cells_n(1.0, 0.1, 0.05, 1, 1) == hoeffding_cell_n(1.0, 0.1, 0.05)


def test_uniform_cells_monotone_in_cells():
    prev = 0
    for cells in [(2, 2), (2, 3), (3, 3), (4, 3)]:
        n = uniform_cells_n(1.0, 0.1, 0.05, *cells)
        assert n >= prev
        prev = n


def test_planner_monotonicity():
    base = hoeffding_cell_n(1.0, 0.1, 0.05)
    assert hoeffding_cell_n(1.0, 0.05, 0.05) > base      # tighter eps
    assert hoeffding_cell_n(1.0, 0.1, 0.01) > base       # tighter delta
    assert hoeffding_cell_n(2.0, 0.1, 0.05) > base       # larger bound


def test_planner_rejects_degenerate():
    for bad in [(0.0, 0.1, 0.05), (1.0, 0.0, 0.05), (1.0, 0.1, 0.0), (1.0, 0.1, 1.0),
                (1.0, math.inf, 0.05), (1.0, -math.inf, 0.05), (1.0, math.nan, 0.05),
                (math.inf, 0.1, 0.05), (math.nan, 0.1, 0.05)]:
        for planner in (hoeffding_cell_n, lambda *a: uniform_cells_n(*a, 3, 3),
                        mc_sample_size):
            with pytest.raises(ValueError):
                planner(*bad)


def test_planner_accepts_eps_of_a_response_unit_or_more():
    # eps is in response units, so only its ratio to B matters.
    assert hoeffding_cell_n(1.0, 1.5, 0.05) == math.ceil(2 / 1.5 ** 2 * math.log(40)) == 4
    assert hoeffding_cell_n(100.0, 5.0, 0.05) == hoeffding_cell_n(1.0, 0.05, 0.05)
    assert mc_sample_size(100.0, 5.0, 0.05) == math.ceil(3200 * math.log(40)) == 11805
    assert uniform_cells_n(10.0, 1.0, 0.05, 3, 3) == uniform_cells_n(1.0, 0.1, 0.05, 3, 3)


def test_bernstein_halfwidth_value():
    # sqrt(2 * 0.04 * ln 60 / 1000) + 3 * ln 60 / 1000
    expected = math.sqrt(2 * 0.2 ** 2 * math.log(60) / 1000) + 3 * 1.0 * math.log(60) / 1000
    assert bernstein_halfwidth(0.2, 1.0, 1000, 0.05) == pytest.approx(expected)
    assert expected == pytest.approx(0.0304, abs=5e-4)


@pytest.mark.parametrize("sigma, B", [(math.inf, 1.0), (math.nan, 1.0), (-0.1, 1.0),
                                      (0.2, math.inf), (0.2, math.nan), (0.2, 0.0)])
def test_bernstein_rejects_non_finite_or_negative(sigma, B):
    # An infinite or NaN half-width would also be unwritable as JSON.
    with pytest.raises(ValueError, match="sigma_hat must be finite"):
        bernstein_halfwidth(sigma, B, 100, 0.05)


def test_bernstein_zero_variance():
    hw = bernstein_halfwidth(0.0, 1.0, 100, 0.05)
    assert hw == pytest.approx(3 * math.log(60) / 100)


def test_bernstein_sqrt_term_dominates_eventually():
    n = 10 ** 6
    log_term = math.log(3 / 0.05)
    sqrt_term = math.sqrt(2 * 0.2 ** 2 * log_term / n)
    linear_term = 3 * 1.0 * log_term / n
    assert linear_term / sqrt_term < 0.05
    assert bernstein_halfwidth(0.2, 1.0, n, 0.05) == pytest.approx(sqrt_term + linear_term)


def test_effect_error_budget():
    assert effect_error_budget(0.0, 0.0) == (0.0, 0.0)
    assert effect_error_budget(0.01, 0.02) == (pytest.approx(0.03), pytest.approx(0.07))
    with pytest.raises(ValueError):
        effect_error_budget(-0.1, 0.0)


def test_effect_error_budget_empirical():
    # On a synthetic grid with per-cell mean errors within eps1 and baseline
    # error within eps0, raw effect errors respect the stated budgets.
    rng = np.random.default_rng(15)
    space = build_space([("a", ["0", "1", "2"]), ("b", ["0", "1"]), ("c", ["0", "1"])])
    truth = rng.uniform(-1, 1, size=space.level_counts)

    from effectlab import ShrinkageSpec, enumerate_grid, estimate_effects_cm
    from oracles import projection_decomposition

    grid = enumerate_grid(space)
    tiny = ShrinkageSpec(1e-12)
    marginals = [np.full(L, 1.0 / L) for L in space.level_counts]
    for _ in range(20):
        noisy = truth + rng.uniform(-0.05, 0.05, size=truth.shape)
        log = log_from_arrays(space, grid, [float(noisy[x]) for x in grid])
        table = estimate_effects_cm(log, shrinkage=tiny)
        mu_t, mains_t, pairs_t = projection_decomposition(truth, marginals)

        eps0 = abs(table.mu - mu_t)
        # cell-mean errors: level and pair conditional means vs truth
        eps1 = 0.0
        for j in range(3):
            drop = [ax for ax in range(3) if ax != j]
            cm_true = truth.mean(axis=tuple(drop))
            cm_noisy = noisy.mean(axis=tuple(drop))
            eps1 = max(eps1, float(np.abs(cm_noisy - cm_true).max()))
        for j in range(3):
            for k in range(j + 1, 3):
                drop = [ax for ax in range(3) if ax not in (j, k)]
                cm_true = truth.mean(axis=tuple(drop))
                cm_noisy = noisy.mean(axis=tuple(drop))
                eps1 = max(eps1, float(np.abs(cm_noisy - cm_true).max()))

        main_budget, pair_budget = effect_error_budget(eps0, eps1)
        for j in range(3):
            err = float(np.abs(table.mains[j] - mains_t[j]).max())
            assert err <= main_budget + 1e-9
        for jk, mat in pairs_t.items():
            err = float(np.abs(table.pairs[jk] - mat).max())
            assert err <= pair_budget + 1e-9


def test_hoeffding_coverage_statistical():
    # Empirical violation rate of the half-width stays near delta.
    B, delta = 1.0, 0.1
    n = 25
    bound = B * math.sqrt(2 * math.log(2 / delta) / n)
    rng = np.random.default_rng(123)
    bad = 0
    total = 0
    for _ in range(500):
        cells = rng.uniform(-B, B, size=(3, n))
        errs = np.abs(cells.mean(axis=1))
        bad += int((errs > bound).sum())
        total += 3
    assert bad / total <= delta + 0.02
