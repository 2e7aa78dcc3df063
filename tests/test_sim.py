import numpy as np
import pytest

from effectlab import (
    DesignPlan,
    EffectTable,
    ReferenceDistribution,
    ShrinkageSpec,
    TeacherSpec,
    build_space,
    default_space,
    enumerate_grid,
    gen_teacher,
    predict_grid,
    reconstruction_error,
    run_trial,
    sample_design,
    spearman,
)
from effectlab.effects import _finalize, estimate_from_log
from effectlab.sim import TRIAL_CHUNK, SuiteConfig, _rankdata, _trial_seeds, make_log
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import count_centerer_builds
from oracles import (make_log_loop, projection_decomposition, rank_formula_spearman,
                     rankdata_loop, suite_rows_loop)


def small_teacher(seed=0, **kw):
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    defaults = dict(main_scale=1.0, pair_scale=0.5, residual_scale=0.1, noise=0.1)
    defaults.update(kw)
    return gen_teacher(TeacherSpec(space, seed=seed, **defaults))


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------

def test_default_space_levels_alternate():
    space = default_space(6)
    assert space.level_counts == (2, 3, 2, 3, 2, 3)
    assert space.grid_size == 216


def test_teacher_tables_exactly_centered():
    teacher = small_teacher(seed=4)
    table = teacher.truth
    for g in table.mains:
        assert abs(float(g.mean())) < 1e-12
    for mat in table.pairs.values():
        assert np.max(np.abs(mat.mean(axis=0))) < 1e-12
        assert np.max(np.abs(mat.mean(axis=1))) < 1e-12


def test_teacher_zero_residual_is_second_order():
    teacher = small_teacher(seed=5, residual_scale=0.0)
    assert np.max(np.abs(teacher.residual)) == 0.0
    pred = predict_grid(teacher.truth)
    assert np.max(np.abs(pred - teacher.values)) < 1e-12


def test_teacher_residual_is_orthogonal_noise():
    teacher = small_teacher(seed=6, residual_scale=0.2)
    r = teacher.residual
    # triple centering: conditional means over each axis vanish
    for ax in range(r.ndim):
        assert np.max(np.abs(r.mean(axis=ax))) < 1e-12


def test_teacher_deterministic():
    t1 = small_teacher(seed=7)
    t2 = small_teacher(seed=7)
    assert np.array_equal(t1.values, t2.values)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_spearman_trivials():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_matches_rank_formula_oracle():
    a = [3.0, 1.0, 4.0, 1.0, 5.0]
    b = [2.0, 7.0, 1.0, 8.0, 2.0]
    assert spearman(a, b) == pytest.approx(rank_formula_spearman(a, b), abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.integers(0, 5, size=12).astype(float)
        y = rng.normal(size=12)
        assert spearman(x, y) == pytest.approx(rank_formula_spearman(x, y), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -3.0, 7.0]) | st.floats(-5, 5),
                max_size=40))
def test_rankdata_matches_sorted_walk(values):
    values = np.array(values, dtype=float)
    assert _rankdata(values).tobytes() == rankdata_loop(values).tobytes()


@pytest.mark.parametrize("field", ["trials", "design_n", "seeds_per_point", "robustness_n",
                                   "robustness_seeds", "seed_budgets"])
@pytest.mark.parametrize("value", [0, -2])
def test_suite_config_rejects_counts_below_one(field, value):
    bad = (4, value) if field == "seed_budgets" else value
    with pytest.raises(ValueError, match=field):
        SuiteConfig(**{field: bad})


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([2, 2, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])


def test_reconstruction_error_zero_for_identical():
    teacher = small_teacher(seed=8)
    assert reconstruction_error(teacher.truth, teacher.truth) == 0.0


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("estimator", ["CM", "SF"])
def test_trial_exact_recovery_regime(estimator):
    teacher = small_teacher(seed=9, residual_scale=0.0, noise=0.0)
    tiny = ShrinkageSpec(1e-12)
    result = run_trial(teacher, DesignPlan.full(), 1, estimator, trial_seed=1,
                       shrinkage=tiny)
    assert result.recon_error <= 1e-8
    assert result.gap == pytest.approx(0.0, abs=1e-12)
    assert result.rho == pytest.approx(1.0)


def test_trial_gap_nonnegative_and_deterministic():
    teacher = small_teacher(seed=10)
    r1 = run_trial(teacher, DesignPlan.balanced(24), 2, "CM", trial_seed=3)
    r2 = run_trial(teacher, DesignPlan.balanced(24), 2, "CM", trial_seed=3)
    assert r1.gap >= 0.0
    assert r1.gap == r2.gap and r1.rho == r2.rho and r1.chosen == r2.chosen


def test_trial_log_oracle_mode():
    """The log-oracle SF table is the projection of the trial's cell means,
    each unobserved cell padded with the log's mean response."""
    teacher = small_teacher(seed=11)
    space = teacher.space
    plan = DesignPlan.balanced(8)
    r = run_trial(teacher, plan, 2, "SF", trial_seed=4, oracle_source="log")
    design_seed, noise_seed, _, _, _ = _trial_seeds(4)
    log = make_log(teacher, sample_design(space, plan, design_seed), 2, seed=noise_seed)
    cells = {tuple(x) for x in log.configs_array.tolist()}
    assert 0 < len(cells) < space.grid_size  # some cells are padded
    values = np.full(space.level_counts, log.responses.mean())
    for x in cells:
        values[x] = log.responses[(log.configs_array == x).all(axis=1)].mean()
    reference = ReferenceDistribution.uniform(space)
    mu, mains, pairs = projection_decomposition(
        values, [reference.marginal(j) for j in range(space.num_factors)])
    mains, pairs = _finalize(reference, mains, pairs, ShrinkageSpec(),
                             log.support.level_counts, log.support.pair_counts)
    table = EffectTable(space, reference, mu, mains, pairs, provenance="SF")
    assert r.recon_error == pytest.approx(reconstruction_error(table, teacher.truth),
                                          rel=1e-12, abs=1e-12)
    assert r.rho == pytest.approx(spearman(predict_grid(table).ravel(), teacher.values.ravel()),
                                  rel=1e-12)
    with pytest.raises(ValueError):
        run_trial(teacher, DesignPlan.balanced(12), 1, "SF", oracle_source="nope")


def test_error_accounting_identity():
    # prediction - truth decomposes into baseline deviation, effect-estimation
    # error, and the higher-order residual, entrywise over the grid.
    teacher = small_teacher(seed=12, residual_scale=0.15)
    log = make_log(teacher, enumerate_grid(teacher.space), 3, seed=5)
    est = estimate_from_log(log, "CM")
    pred = predict_grid(est)
    baseline = est.mu - teacher.truth.mu
    eps = pred - predict_grid(teacher.truth) - baseline
    assert np.max(np.abs((pred - teacher.values) - (baseline + eps - teacher.residual))) < 1e-9


def test_estimate_from_log_rejects_unknown():
    teacher = small_teacher(seed=13)
    log = make_log(teacher, enumerate_grid(teacher.space), 1, seed=0)
    with pytest.raises(ValueError):
        estimate_from_log(log, "XX")


def test_estimate_from_log_sf_accepts_empirical_reference():
    # Coalition values need a product background, so the attribution path
    # takes the product of the empirical marginals, as the CLI does.
    teacher = small_teacher(seed=14)
    design = sample_design(teacher.space, DesignPlan.skewed(30, 3.0), seed=2)
    log = make_log(teacher, design, 2, seed=1)
    ref = ReferenceDistribution.empirical(log)
    got = estimate_from_log(log, "SF", ref)
    want = estimate_from_log(log, "SF", ref.product_marginals())
    assert got.reference.kind == "product"
    assert got.to_dict() == want.to_dict()


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def test_ablation_schema_and_mains_only_additive():
    from effectlab import SuiteConfig, ablation_suite

    cfg = SuiteConfig(trials=3, seed=5, num_factors=4, design_n=48,
                      seeds_per_point=2, robustness_n=12)
    rows = ablation_suite("effects-order", cfg)
    assert {r["cell"] for r in rows} == {"pairwise", "mains-only"}
    assert {r["metric"] for r in rows} == {"gap", "rho"}
    for r in rows:
        assert r["ci_lo"] <= r["mean"] <= r["ci_hi"]
        assert r["n_trials"] == 3
        assert len(r["config_hash"]) == 12

    with pytest.raises(ValueError):
        ablation_suite("bogus", cfg)


def test_mains_only_equals_pairwise_on_additive_teacher():
    space = default_space(4)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=21))
    full = run_trial(teacher, DesignPlan.full(), 1, "CM", trial_seed=2)
    mains = run_trial(teacher, DesignPlan.full(), 1, "CM", trial_seed=2, mains_only=True)
    assert full.gap == pytest.approx(mains.gap, abs=1e-12)


def test_design_robustness_axis_runs():
    from effectlab import SuiteConfig, ablation_suite

    cfg = SuiteConfig(trials=2, seed=6, num_factors=4, robustness_n=12,
                      robustness_seeds=2)
    rows = ablation_suite("design-robustness", cfg)
    cells = {(r["cell"], r["estimator"]) for r in rows}
    assert ("balanced", "CM") in cells and ("skewed", "SF") in cells


def test_background_axis_runs():
    from effectlab import SuiteConfig, ablation_suite

    cfg = SuiteConfig(trials=2, seed=7, num_factors=4, robustness_n=16,
                      robustness_seeds=2)
    rows = ablation_suite("shap-background", cfg)
    cells = {r["cell"] for r in rows}
    assert cells == {"uniform", "empirical", "cm-ref"}
    # The axis runs on a skewed design, so the empirical background is not
    # uniform and its rows measure something else.
    rho = {r["cell"]: r["mean"] for r in rows if r["metric"] == "rho"}
    assert rho["uniform"] != rho["empirical"]


def test_seed_budget_axis_runs():
    from effectlab import SuiteConfig, ablation_suite

    cfg = SuiteConfig(trials=2, seed=8, num_factors=4, seed_budgets=(2, 4))
    rows = ablation_suite("seed-budget", cfg)
    assert {r["cell"] for r in rows} == {"2", "4"}


@pytest.mark.parametrize("axis, references", [("comparison", 1), ("shap-background", 3)])
def test_suites_build_centerers_once_per_reference(monkeypatch, axis, references):
    """Uniform-background trials share one reference, so its pair centerers
    are built once per suite; each of the two empirical-background trials
    builds its own."""
    from effectlab import SuiteConfig, ablation_suite, comparison_suite

    centerers = count_centerer_builds(monkeypatch)
    cfg = SuiteConfig(trials=2, seed=3, num_factors=4, design_n=24, robustness_n=16,
                      robustness_seeds=2)
    rows = comparison_suite(cfg) if axis == "comparison" else ablation_suite(axis, cfg)
    assert rows
    assert len(centerers) == 6 * references  # six pairs of four factors


def test_suites_run_no_attribution_design_or_factorization(monkeypatch):
    """SF trials take the reference projection of their value tensors: no
    suite computes an attribution, builds a design or calls QR or SVD."""
    from effectlab import SuiteConfig, ablation_suite, comparison_suite
    from effectlab import shapley, sim

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    # The simulator's own bindings too, should it import either by name.
    for module, name in [(shapley, "exact_shapley"), (shapley, "build_design_matrix"),
                         (sim, "exact_shapley"), (sim, "build_design_matrix"),
                         (np.linalg, "qr"), (np.linalg, "svd")]:
        monkeypatch.setattr(module, name, forbidden(name), raising=False)
    cfg = SuiteConfig(trials=2, seed=3, num_factors=4, design_n=24, robustness_n=16,
                      robustness_seeds=2)
    assert comparison_suite(cfg)
    assert ablation_suite("shap-background", cfg)


def test_shared_reference_leaves_trials_unchanged():
    space = default_space(4)
    teacher = gen_teacher(TeacherSpec(space, seed=4))
    reference = ReferenceDistribution.uniform(space)
    for est in ("CM", "SF"):
        alone = run_trial(teacher, DesignPlan.balanced(24), 2, est, trial_seed=9)
        for _ in range(2):
            shared = run_trial(teacher, DesignPlan.balanced(24), 2, est, trial_seed=9,
                               reference=reference)
            assert shared == alone


def test_comparison_suite_rows():
    from effectlab import SuiteConfig, comparison_suite

    cfg = SuiteConfig(trials=2, seed=9, num_factors=4, design_n=48)
    rows = comparison_suite(cfg)
    assert {r["estimator"] for r in rows} == {"CM", "SF"}
    assert {r["metric"] for r in rows} == {"recon", "gap", "rho"}


@given(st.integers(0, 50), st.sampled_from([0.0, 0.1, 2.5]),
       st.sampled_from(["full", "balanced", "skewed"]), st.integers(1, 30),
       st.integers(1, 4), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_make_log_matches_point_loop(teacher_seed, noise, kind, n, seeds_per_point, seed):
    teacher = small_teacher(seed=teacher_seed, noise=noise)
    design = sample_design(teacher.space, DesignPlan(kind, n=n, bias=3.0), seed=seed)
    log = make_log(teacher, design, seeds_per_point, seed=seed)
    configs, responses, seeds = make_log_loop(teacher.values, noise, design.tolist(),
                                              seeds_per_point, seed=seed)
    assert log.configs_array.tolist() == [list(x) for x in configs]
    assert log.responses.tobytes() == np.array(responses).tobytes()
    assert log.seeds.tolist() == seeds
    assert log.weights.tolist() == [1.0] * len(configs)


# ---------------------------------------------------------------------------
# Batched trials
# ---------------------------------------------------------------------------

def _assert_rows_match(got, want):
    """Same cells, estimators and metrics in the same order, identical gap
    floats, other floats within 1e-12 x (1 + |v|)."""
    assert [{k: v for k, v in r.items() if not isinstance(v, float)} for r in got] == \
        [{k: v for k, v in r.items() if not isinstance(v, float)} for r in want]
    for g, w in zip(got, want):
        for key in ("mean", "ci_lo", "ci_hi"):
            if g["metric"] == "gap":
                assert g[key] == w[key]
            else:
                assert abs(g[key] - w[key]) <= 1e-12 * (1 + abs(w[key]))


@pytest.mark.parametrize("axis", ["comparison", "effects-order", "design-robustness",
                                  "shap-background", "seed-budget"])
@pytest.mark.parametrize("trials", [1, TRIAL_CHUNK, TRIAL_CHUNK + 1])
def test_suites_match_the_per_trial_loop(monkeypatch, axis, trials):
    """At 1 trial, at the chunk size and one past it, every suite's rows are
    the per-trial loop's: batches across cells and chunks change rounding
    only, never a chosen configuration."""
    from effectlab import sim

    calls = []
    batched = sim._suite_rows
    monkeypatch.setattr(sim, "_suite_rows", lambda *args: calls.append(args) or batched(*args))
    cfg = SuiteConfig(trials=trials, seed=3, num_factors=4, design_n=48,
                      robustness_n=16, robustness_seeds=2, seed_budgets=(2, 4))
    rows = (sim.comparison_suite(cfg) if axis == "comparison"
            else sim.ablation_suite(axis, cfg))
    (_, cells, config, metrics, _), = calls
    _assert_rows_match(rows, suite_rows_loop(axis, cells, config, metrics))


def test_suite_batches_span_cells_and_stay_within_the_chunk():
    """Per chunk of trial indices and estimator, one batch holds every
    uniform-background cell; an empirical-background trial runs alone."""
    from effectlab import ablation_suite

    cfg = SuiteConfig(trials=TRIAL_CHUNK + 2, seed=1, num_factors=4, robustness_n=16,
                      robustness_seeds=2, seed_budgets=(2, 4))
    sizes = []
    ablation_suite("seed-budget", cfg, batch_sizes=sizes)
    assert sizes == [2 * TRIAL_CHUNK, 2 * TRIAL_CHUNK, 4, 4]
    sizes.clear()
    ablation_suite("shap-background", SuiteConfig(trials=3, seed=1, num_factors=4,
                                                  robustness_n=16, robustness_seeds=2),
                   batch_sizes=sizes)
    assert sizes == [1, 1, 1, 3, 3]


def test_batched_search_matches_each_trials_multistart():
    """One lockstep search over every (trial, restart) row of a stacked
    model picks, for each trial, the configuration and traces of that
    trial's own multistart, bans and costs included."""
    from types import SimpleNamespace

    from effectlab.objective import CostModel, ObjectiveSpec, PairwiseObjective
    from effectlab.optimize import SearchSpec, multistart, multistart_each
    from effectlab.space import SupportCounts

    space = default_space(5)
    logs = [make_log(gen_teacher(TeacherSpec(space, pair_scale=1.5, seed=s)),
                     sample_design(space, DesignPlan.balanced(40), seed=s), 1, seed=s)
            for s in range(6)]
    tables = [estimate_from_log(log, "CM") for log in logs]
    spec = ObjectiveSpec(lambda_cost=0.3, banned_levels={1: frozenset({0})},
                         banned_configs=frozenset({(0, 1, 0, 1, 0), (1, 2, 1, 2, 1)}))
    cost = CostModel(space, tuple(np.linspace(0, 1, L) for L in space.level_counts))
    stacked = SimpleNamespace(mu=np.array([t.mu for t in tables]),
                              mains=tuple(np.stack(g) for g in zip(*(t.mains for t in tables))),
                              pairs={jk: np.stack([t.pairs[jk] for t in tables])
                                     for jk in space.pairs()})
    support = SupportCounts(
        space, tuple(np.stack(s, axis=1) for s in zip(*(t.support.level_sums for t in tables))),
        {jk: np.stack([t.support.pair_sums[jk] for t in tables], axis=1) for jk in space.pairs()})
    model = PairwiseObjective.build(stacked, support, spec, cost)
    search = SearchSpec(restarts=5, beam=2)
    seeds = [11, 12, 13, 14, 15, 16]
    got = multistart_each(model, stacked.mains, search, seeds)
    for table, seed, (chosen, traces) in zip(tables, seeds, got):
        own = PairwiseObjective.build(table, table.support, spec, cost)
        want_chosen, want_traces = multistart(own, table.mains, SearchSpec(5, 2, seed=seed))
        assert chosen == want_chosen
        assert [(t.steps, t.final, t.termination, t.verified_1swap) for t in traces] == \
            [(t.steps, t.final, t.termination, t.verified_1swap) for t in want_traces]
