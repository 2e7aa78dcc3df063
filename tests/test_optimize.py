import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectlab import (
    CostModel,
    InfeasibleConfigError,
    ObjectiveSpec,
    SearchSpec,
    ShrinkageSpec,
    TeacherSpec,
    build_space,
    coordinate_ascent,
    diag_dominance_check,
    enumerate_grid,
    estimate_effects_cm,
    gen_teacher,
    log_from_arrays,
    multistart,
    near_opt_bound,
    objective,
    objective_grid,
    predict_grid,
    support_counts,
    two_swap_bound,
    verify_1swap,
)
from effectlab import optimize as optimize_module
from effectlab.objective import PairwiseObjective
from conftest import full_grid_log, random_space
from oracles import (
    ascent_loop,
    dominance_loop,
    feasible_loop,
    local_gain_loop,
    local_scores_loop,
    objective_grid_loop,
    objective_loop,
    predict_from_tables,
    predict_grid_loop,
    risk_penalty_loop,
    split_two_swap_bound_loop,
    two_swap_bound_loop,
)

TINY_TAU = ShrinkageSpec(1e-12)


def make_instance(rng, d=None, pair_scale=0.5, n_records=None):
    """Random effect table plus support from a random log."""
    space = random_space(rng, d=d)
    teacher = gen_teacher(TeacherSpec(
        space, pair_scale=pair_scale, residual_scale=0.0, noise=0.0,
        seed=int(rng.integers(0, 2**31)),
    ))
    n = n_records or 3 * space.grid_size
    grid = enumerate_grid(space)
    idx = rng.integers(0, len(grid), size=n)
    log = log_from_arrays(
        space, [grid[i] for i in idx], [teacher.response(grid[i]) for i in idx]
    )
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    return table, support_counts(log)


def dominant_instance(rng, d=3):
    """Mains with wide gaps and tiny interactions, risk off: the dominance
    certificate should fire."""
    space = random_space(rng, d=d)
    teacher = gen_teacher(TeacherSpec(
        space, main_scale=0.0, pair_scale=0.0, residual_scale=0.0, noise=0.0,
        seed=int(rng.integers(0, 2**31)),
    ))
    mains = []
    for L in space.level_counts:
        base = rng.permutation(L).astype(float) * 2.0  # gaps of at least 2
        mains.append(base - base.mean())
    pairs = {}
    for jk in teacher.truth.pairs:
        shape = teacher.truth.pairs[jk].shape
        m = rng.normal(0, 0.02, size=shape)
        m -= m.mean(axis=1, keepdims=True)
        m -= m.mean(axis=0, keepdims=True)
        pairs[jk] = m
    import dataclasses

    table = dataclasses.replace(teacher.truth, mains=tuple(mains), pairs=pairs)
    log = log_from_arrays(space, enumerate_grid(space), [0.0] * space.grid_size)
    return table, support_counts(log)


def exhaustive_argmax(table, sc, spec, cost=None):
    model = PairwiseObjective.build(table, sc, spec, cost)
    grid = enumerate_grid(table.space)
    best = None
    for x in grid:
        if not feasible_loop(spec, x):
            continue
        val = objective(model, x)
        if best is None or val > best[0] + 1e-15:
            best = (val, x)
    return best


# ---------------------------------------------------------------------------
# Local gain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_local_gain_matches_objective_difference(seed):
    rng = np.random.default_rng(200 + seed)
    table, sc = make_instance(rng)
    spec = ObjectiveSpec(lambda_risk=0.8, lambda_cost=0.5)
    cost = CostModel(
        table.space,
        tuple(rng.uniform(0, 1, size=L) for L in table.space.level_counts),
    )
    model = PairwiseObjective.build(table, sc, spec, cost)
    grid = enumerate_grid(table.space)
    x = grid[int(rng.integers(0, len(grid)))]
    for j in range(table.space.num_factors):
        scores = model.level_scores(j, [x])[0]
        for lvl in range(table.space.level_counts[j]):
            swapped = x[:j] + (lvl,) + x[j + 1:]
            direct = objective(model, swapped) - objective(model, x)
            via_gain = scores[lvl] - scores[x[j]]
            assert direct == pytest.approx(via_gain, abs=1e-10)


def test_local_gain_additive_depends_on_mains_and_cost_only():
    rng = np.random.default_rng(7)
    space = random_space(rng, d=3)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=1))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0, lambda_cost=1.0)
    cost = CostModel(space, tuple(np.arange(L) * 0.1 for L in space.level_counts))
    model = PairwiseObjective.build(table, sc, spec, cost)
    scores = model.level_scores(0, enumerate_grid(space)[:4])
    # context-free for additive tables
    assert np.ptp(scores, axis=0) == pytest.approx(np.zeros(space.level_counts[0]), abs=1e-9)


def test_local_gain_same_level_is_reference(space_2x2, xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    sc = support_counts(xor_log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))
    x = (0, 1)
    scores = model.level_scores(0, [x])[0]
    assert scores[x[0]] - scores[x[0]] == 0.0
    # replacing a level by itself never changes the objective
    assert objective(model, x) - objective(model, x) == 0.0


@pytest.mark.parametrize("j, level, entry", [
    (2, 0, "factor index 2"),
    (-1, 0, "factor index -1"),
])
def test_local_gain_rejects_indices_outside_the_space(space_2x2, xor_log, j, level, entry):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    model = PairwiseObjective.build(table, table.support, ObjectiveSpec())
    with pytest.raises(ValueError, match=re.escape(entry)):
        model.level_scores(j, [(level, 1)])


# ---------------------------------------------------------------------------
# Coordinate ascent
# ---------------------------------------------------------------------------

def test_ascent_additive_one_sweep():
    rng = np.random.default_rng(31)
    space = random_space(rng, d=4)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=2))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    start = tuple(0 for _ in range(space.num_factors))
    x, trace = coordinate_ascent(PairwiseObjective.build(table, sc, spec), start)
    expected = tuple(int(np.argmax(g)) for g in table.mains)
    assert x == expected
    assert trace.steps[1][1] == expected  # reached after the first sweep


@pytest.mark.parametrize("seed", range(20))
def test_ascent_reaches_1swap_optimum(seed):
    rng = np.random.default_rng(400 + seed)
    table, sc = make_instance(rng)
    spec = ObjectiveSpec(lambda_risk=float(rng.uniform(0, 1)))
    grid = enumerate_grid(table.space)
    start = grid[int(rng.integers(0, len(grid)))]
    model = PairwiseObjective.build(table, sc, spec)
    x, trace = coordinate_ascent(model, start)
    assert trace.termination == "converged"
    assert trace.verified_1swap is True
    ok, violation = verify_1swap(model, x)
    assert ok, violation
    values = trace.values
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_ascent_trace_strictly_increases_between_updates():
    rng = np.random.default_rng(77)
    table, sc = make_instance(rng, d=3)
    spec = ObjectiveSpec(lambda_risk=0.3)
    start = tuple(0 for _ in table.space.level_counts)
    _, trace = coordinate_ascent(PairwiseObjective.build(table, sc, spec), start)
    vals = trace.values
    for a, b in zip(vals, vals[1:-1]):
        assert b > a - 1e-12
    assert len(trace.steps) - 1 <= table.space.grid_size  # sweep count bound


def test_ascent_infeasible_start(space_2x2, xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    sc = support_counts(xor_log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(banned_levels={0: frozenset({0})}))
    with pytest.raises(InfeasibleConfigError):
        coordinate_ascent(model, (0, 0))


def test_two_basin_instance_and_multistart(space_2x2):
    # Diagonal interaction with a slight tilt: two 1-swap optima whose values
    # differ; exhaustive evaluation identifies both basins.
    import dataclasses

    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    base = estimate_effects_cm(log, shrinkage=TINY_TAU)
    mains = (np.array([0.05, -0.05]), np.array([0.0, 0.0]))
    pair = np.array([[0.5, -0.5], [-0.5, 0.5]])
    table = dataclasses.replace(base, mains=mains, pairs={(0, 1): pair})
    sc = support_counts(log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))

    values = {x: objective(model, x) for x in enumerate_grid(space_2x2)}
    optima = [x for x in values if verify_1swap(model, x)[0]]
    assert sorted(optima) == [(0, 0), (1, 1)]
    assert values[(0, 0)] > values[(1, 1)]

    x_a, _ = coordinate_ascent(model, (0, 0))
    x_b, _ = coordinate_ascent(model, (1, 1))
    assert {x_a, x_b} == {(0, 0), (1, 1)}

    best, traces = multistart(model, table.mains, SearchSpec(restarts=8, beam=2, seed=0))
    assert best == (0, 0)
    assert len(traces) >= 1


# ---------------------------------------------------------------------------
# Multistart
# ---------------------------------------------------------------------------

def test_multistart_single_restart_equals_greedy():
    rng = np.random.default_rng(51)
    space = random_space(rng, d=3)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=3))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    model = PairwiseObjective.build(table, sc, spec)
    greedy_start = tuple(int(np.argmax(g)) for g in table.mains)
    x_greedy, _ = coordinate_ascent(model, greedy_start)
    x_multi, traces = multistart(model, table.mains, SearchSpec(restarts=1))
    assert x_multi == x_greedy
    assert len(traces) == 1


def test_multistart_beam_one_repeats_greedy_start():
    rng = np.random.default_rng(52)
    table, sc = make_instance(rng, d=3)
    spec = ObjectiveSpec(lambda_risk=0.0)
    _, traces = multistart(PairwiseObjective.build(table, sc, spec), table.mains,
                           SearchSpec(restarts=5, beam=1, seed=1))
    starts = {t.steps[0][1] for t in traces}
    assert len(starts) == 1


def test_multistart_deterministic():
    rng = np.random.default_rng(53)
    table, sc = make_instance(rng)
    spec = ObjectiveSpec(lambda_risk=0.5)
    model = PairwiseObjective.build(table, sc, spec)
    r1 = multistart(model, table.mains, SearchSpec(restarts=6, beam=3, seed=11))
    r2 = multistart(model, table.mains, SearchSpec(restarts=6, beam=3, seed=11))
    assert r1[0] == r2[0]
    assert [t.final for t in r1[1]] == [t.final for t in r2[1]]


def test_multistart_dominant_converges_everywhere():
    rng = np.random.default_rng(54)
    table, sc = dominant_instance(rng, d=3)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))
    report = diag_dominance_check(model)
    assert report.holds
    _, traces = multistart(model, table.mains, SearchSpec(restarts=6, beam=3, seed=2))
    endpoints = {t.final for t in traces}
    assert len(endpoints) == 1


lockstep_problems = st.tuples(
    st.lists(st.tuples(st.integers(2, 4), st.integers(0, 2)), min_size=2, max_size=5),
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(1, 3),
    st.integers(0, 4),
)


@settings(max_examples=60, deadline=None)
@given(lockstep_problems)
@example(([(3, 1), (3, 0), (4, 1), (2, 0)], 2, 12, 2, 3))  # both endpoints, 12 traces
def test_lockstep_restarts_match_single_ascents(problem):
    """All restarts of one multistart call advance together, some ending
    converged and some at max_sweeps, with banned levels and configs. Each
    trace must replay against the scalar loop and equal coordinate ascent
    from its own start; a converged trace's 1-swap flag must equal the
    exhaustive scan at its endpoint, and a cut-off trace has none."""
    factors, seed, restarts, max_sweeps, n_banned = problem
    rng = np.random.default_rng(seed)
    levels = [L for L, _ in factors]
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    n = int(rng.integers(3, 40))
    configs = np.stack([rng.integers(0, L, size=n) for L in levels], axis=1)
    log = log_from_arrays(space, configs, rng.normal(0.0, 2.0, size=n))
    table = estimate_effects_cm(log, shrinkage=ShrinkageSpec(0.2))
    support = table.support
    banned = {j: frozenset(rng.permutation(L)[: min(b, L - 1)].tolist())
              for j, (L, b) in enumerate(factors) if b}
    banned_configs = frozenset(tuple(int(rng.integers(0, L)) for L in levels)
                               for _ in range(n_banned))
    spec = ObjectiveSpec(lambda_risk=float(rng.uniform(0, 2)),
                         lambda_cost=float(rng.uniform(0, 1)), gamma=float(rng.uniform(0.5, 2)),
                         banned_levels=banned, banned_configs=banned_configs)
    cost = CostModel(space, tuple(rng.uniform(0, 1, size=L) for L in levels))
    search = SearchSpec(restarts=restarts, beam=3, max_sweeps=max_sweeps, seed=seed % 1000)
    model = PairwiseObjective.build(table, support, spec, cost)
    try:
        best, traces = multistart(model, table.mains, search)
    except InfeasibleConfigError:
        return  # no restart found a feasible start
    for trace in traces:
        start = trace.steps[0][1]
        replay = ascent_loop(table, support, spec, cost, start, max_sweeps)
        assert (trace.steps, trace.final, trace.termination) == replay
        _, alone = coordinate_ascent(model, start, search)
        assert (alone.steps, alone.final, alone.termination, alone.verified_1swap) == (
            trace.steps, trace.final, trace.termination, trace.verified_1swap)
        if trace.termination == "converged":
            assert trace.verified_1swap is verify_1swap(model, trace.final)[0]
        else:
            assert trace.verified_1swap is None
    assert best == max((t.final for t in traces),
                       key=lambda x: (objective(model, x), tuple(-c for c in x)))


def test_multistart_builds_pair_risk_a_fixed_number_of_times(monkeypatch):
    """The caller builds one objective model, and so one pair-risk table;
    multistart builds neither, whatever the restart count."""
    import importlib

    # The package attribute ``effectlab.objective`` is the function, not the module.
    objective_module = importlib.import_module("effectlab.objective")

    calls = []
    real_risk, real_build = objective_module.pair_risk, PairwiseObjective.build.__func__

    def counting_risk(*args, **kwargs):
        calls.append("pair_risk")
        return real_risk(*args, **kwargs)

    def counting_build(cls, *args, **kwargs):
        calls.append("build")
        return real_build(cls, *args, **kwargs)

    monkeypatch.setattr(objective_module, "pair_risk", counting_risk)
    monkeypatch.setattr(PairwiseObjective, "build", classmethod(counting_build))
    rng = np.random.default_rng(55)
    table, sc = make_instance(rng, d=4)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.5))
    assert sorted(calls) == ["build", "pair_risk"]
    counts = {}
    for restarts in (1, 4, 20):
        calls.clear()
        _, traces = multistart(model, table.mains, SearchSpec(restarts=restarts, seed=5))
        assert len(traces) == restarts
        counts[restarts] = sorted(calls)
    assert counts == {r: [] for r in (1, 4, 20)}


# ---------------------------------------------------------------------------
# 1-swap verification
# ---------------------------------------------------------------------------

def test_verify_global_optimum_is_1swap():
    rng = np.random.default_rng(61)
    table, sc = make_instance(rng, d=3)
    spec = ObjectiveSpec(lambda_risk=0.4)
    _, x_star = exhaustive_argmax(table, sc, spec)
    ok, _ = verify_1swap(PairwiseObjective.build(table, sc, spec), x_star)
    assert ok


def test_verify_detects_repairing_swap():
    rng = np.random.default_rng(62)
    space = random_space(rng, d=3)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=5))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    optimum = tuple(int(np.argmax(g)) for g in table.mains)
    # push one coordinate off the additive optimum
    wrong_level = (optimum[0] + 1) % space.level_counts[0]
    perturbed = (wrong_level,) + optimum[1:]
    ok, violation = verify_1swap(PairwiseObjective.build(table, sc, spec), perturbed)
    assert not ok
    j, lvl, gain = violation
    assert (j, lvl) == (0, optimum[0])
    assert gain > 0


# ---------------------------------------------------------------------------
# Dominance certificate
# ---------------------------------------------------------------------------

def test_dominance_zero_interactions():
    rng = np.random.default_rng(71)
    space = random_space(rng, d=3)
    teacher = gen_teacher(TeacherSpec(space, main_scale=1.0, pair_scale=0.0,
                                      residual_scale=0.0, noise=0.0, seed=6))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    report = diag_dominance_check(PairwiseObjective.build(table, sc, spec))
    assert np.max(report.influence) < 1e-9
    assert report.holds


def test_dominance_fails_for_pure_interaction(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    sc = support_counts(xor_log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    report = diag_dominance_check(PairwiseObjective.build(table, sc, spec))
    assert not report.holds


@pytest.mark.parametrize("seed", range(10))
def test_dominance_implies_global_optimum(seed):
    rng = np.random.default_rng(800 + seed)
    table, sc = dominant_instance(rng, d=int(rng.integers(2, 4)))
    spec = ObjectiveSpec(lambda_risk=0.0)
    model = PairwiseObjective.build(table, sc, spec)
    report = diag_dominance_check(model)
    assert report.holds
    best, _ = multistart(model, table.mains, SearchSpec(restarts=4, beam=3, seed=seed))
    _, x_star = exhaustive_argmax(table, sc, spec)
    assert best == x_star


dominance_problems = st.tuples(
    st.lists(st.tuples(st.integers(2, 4), st.integers(0, 3)), min_size=2, max_size=5),
    st.integers(0, 2**32 - 1),
    st.integers(0, 30),
    st.integers(1, 40),
    st.integers(0, 5),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(dominance_problems)
def test_dominance_matches_context_loop(problem):
    """Sampled and enumerated branches against the per-context loop. Each
    factor keeps at least one allowed level; a factor left with one is
    skipped as a target and costs no draw as a context factor."""
    factors, seed, context_cap, sample_contexts, _, ban_config = problem
    rng = np.random.default_rng(seed)
    levels = [L for L, _ in factors]
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    n = int(rng.integers(3, 40))
    configs = np.stack([rng.integers(0, L, size=n) for L in levels], axis=1)
    log = log_from_arrays(space, configs, rng.normal(0.0, 2.0, size=n))
    table = estimate_effects_cm(log, shrinkage=ShrinkageSpec(0.5))
    banned = {j: frozenset(rng.permutation(L)[: min(b, L - 1)].tolist())
              for j, (L, b) in enumerate(factors) if b}
    banned_configs = frozenset({tuple(int(c) for c in configs[0])}) if ban_config else frozenset()
    spec = ObjectiveSpec(lambda_risk=float(rng.uniform(0, 1)), lambda_cost=0.3,
                         gamma=float(rng.uniform(0.5, 2)), banned_levels=banned,
                         banned_configs=banned_configs)
    cost = CostModel(space, tuple(np.round(rng.uniform(0, 1, size=L), 2) for L in levels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "DOMINANCE_CONTEXT_CAP", context_cap)
        mp.setattr(optimize_module, "DOMINANCE_SAMPLE_CONTEXTS", sample_contexts)
        report = diag_dominance_check(PairwiseObjective.build(table, table.support, spec, cost))
    margins, influence, holds, exact, checked = dominance_loop(
        table, table.support, spec, cost, context_cap, sample_contexts, 0)
    assert np.array_equal(report.margins, margins)
    assert np.array_equal(report.influence, influence)
    assert report.holds == holds
    assert report.exact == exact
    assert report.contexts_checked == checked


@settings(max_examples=60, deadline=None)
@given(dominance_problems)
def test_shared_tables_match_pair_loops(problem):
    """Every evaluator of the folded objective against the term-by-term
    loops, with a per-pair gamma mapping, banned levels and a banned config.
    Floats must be equal, and every multistart trace must replay step for
    step."""
    factors, seed, _, restarts, search_seed, ban_config = problem
    rng = np.random.default_rng(seed)
    levels = [L for L, _ in factors]
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    n = int(rng.integers(3, 40))
    configs = np.stack([rng.integers(0, L, size=n) for L in levels], axis=1)
    log = log_from_arrays(space, configs, rng.normal(0.0, 2.0, size=n))
    table = estimate_effects_cm(log, shrinkage=ShrinkageSpec(0.5))
    support = table.support
    banned = {j: frozenset(rng.permutation(L)[: min(b, L - 1)].tolist())
              for j, (L, b) in enumerate(factors) if b}
    banned_configs = frozenset({tuple(int(c) for c in configs[0])}) if ban_config else frozenset()
    gamma = {f"f{j}|f{k}": float(rng.uniform(0.5, 3.0)) for j, k in space.pairs()}
    spec = ObjectiveSpec(lambda_risk=float(rng.uniform(0, 2)),
                         lambda_cost=float(rng.uniform(0, 1)), gamma=gamma,
                         banned_levels=banned, banned_configs=banned_configs)
    cost = CostModel(space, tuple(rng.uniform(0, 1, size=L) for L in levels),
                     offset=float(rng.uniform(-1, 1)))

    assert np.array_equal(predict_grid(table), predict_grid_loop(table))
    model = PairwiseObjective.build(table, support, spec, cost)
    J, feasible = objective_grid(model)
    assert np.array_equal(J, objective_grid_loop(table, support, spec, cost))
    assert all(feasible[x] == feasible_loop(spec, x) for x in np.ndindex(*levels))
    for x in map(tuple, configs.tolist()):
        if feasible_loop(spec, x):
            assert objective(model, x) == objective_loop(table, support, spec, cost, x)
        for j in range(space.num_factors):
            scores = model.level_scores(j, [x])[0]
            assert np.array_equal(scores, local_scores_loop(table, support, spec, cost, j, x))
            for lvl in np.flatnonzero(scores > -np.inf).tolist():
                assert scores[lvl] == local_gain_loop(table, support, spec, cost, j, lvl, x)

    search = SearchSpec(restarts=restarts % 6 + 1, beam=2, seed=search_seed)
    try:
        best, traces = multistart(model, table.mains, search)
    except InfeasibleConfigError:
        return  # every start hit the banned config
    for trace in traces:
        steps, final, termination = ascent_loop(table, support, spec, cost,
                                                trace.steps[0][1], search.max_sweeps)
        assert (trace.steps, trace.final, trace.termination) == (steps, final, termination)
        if termination == "converged":
            assert trace.verified_1swap
            assert (two_swap_bound(model, final)
                    == two_swap_bound_loop(table, support, spec, cost, final))
    assert best == max((t.final for t in traces),
                       key=lambda x: (objective(model, x), tuple(-c for c in x)))


folded_problems = st.tuples(
    st.lists(st.tuples(st.integers(2, 4), st.integers(0, 2)), min_size=2, max_size=4),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
)


def folded_instance(problem):
    """Table, spec and cost of a random log with banned levels (each factor
    keeping at least one level), up to three banned configs, a per-pair
    gamma mapping, costs and a cost offset."""
    factors, seed, n_banned = problem
    rng = np.random.default_rng(seed)
    levels = [L for L, _ in factors]
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)]) for j, L in enumerate(levels)])
    n = int(rng.integers(3, 40))
    configs = np.stack([rng.integers(0, L, size=n) for L in levels], axis=1)
    log = log_from_arrays(space, configs, rng.normal(0.0, 2.0, size=n))
    table = estimate_effects_cm(log, shrinkage=ShrinkageSpec(0.3))
    spec = ObjectiveSpec(
        lambda_risk=float(rng.uniform(0, 2)), lambda_cost=float(rng.uniform(0, 1)),
        gamma={f"f{j}|f{k}": float(rng.uniform(0.5, 3.0)) for j, k in space.pairs()},
        banned_levels={j: frozenset(rng.permutation(L)[: min(b, L - 1)].tolist())
                       for j, (L, b) in enumerate(factors) if b},
        banned_configs=frozenset(tuple(int(rng.integers(0, L)) for L in levels)
                                 for _ in range(n_banned)))
    cost = CostModel(space, tuple(rng.uniform(-1, 1, size=L) for L in levels),
                     offset=float(rng.uniform(-1, 1)))
    return table, spec, cost


@settings(max_examples=60, deadline=None)
@given(folded_problems)
def test_folded_objective_equals_three_term_objective(problem):
    """J from the folded unary and pair terms equals prediction minus the
    scaled risk minus the scaled cost, summed the old way, at every feasible
    configuration, to rounding."""
    table, spec, cost = folded_instance(problem)
    support = table.support
    model = PairwiseObjective.build(table, support, spec, cost)
    J, feasible = objective_grid(model)
    for x in map(tuple, np.argwhere(feasible).tolist()):
        terms = [table.mu, *(table.mains[j][x[j]] for j in range(len(x))),
                 *(table.pairs[(j, k)][x[j], x[k]] for j, k in table.space.pairs()),
                 spec.lambda_risk * risk_penalty_loop(support, x, spec),
                 spec.lambda_cost * cost.offset,
                 *(spec.lambda_cost * cost.level_costs[j][x[j]] for j in range(len(x)))]
        prediction = predict_from_tables(table.mu, table.mains, table.pairs, x)
        cost_at = cost.offset + sum(cost.level_costs[j][x[j]] for j in range(len(x)))
        three_term = (prediction - spec.lambda_risk * risk_penalty_loop(support, x, spec)
                      - spec.lambda_cost * cost_at)
        folded = objective(model, x)
        assert folded == J[x]
        assert abs(folded - three_term) <= 1e-12 * (1 + sum(abs(t) for t in terms))


@settings(max_examples=60, deadline=None)
@given(folded_problems)
def test_two_swap_bound_between_true_gap_and_split_bound(problem):
    """At every converged multistart endpoint the folded bound covers the
    true gap to the feasible optimum, and it is never looser than giving the
    main, interaction, risk and cost terms their own positive parts. Both
    hold exactly in real arithmetic; the slack is rounding."""
    table, spec, cost = folded_instance(problem)
    support = table.support
    model = PairwiseObjective.build(table, support, spec, cost)
    try:
        _, traces = multistart(model, table.mains, SearchSpec(restarts=4, seed=1))
    except InfeasibleConfigError:
        return  # no restart found a feasible start
    J, _ = objective_grid(model)
    scale = 1 + abs(table.mu) + sum(np.abs(g).max() for g in table.mains)
    scale += sum(np.abs(m).max() for m in table.pairs.values()) + spec.lambda_risk * len(table.pairs)
    scale += spec.lambda_cost * (abs(cost.offset) + sum(np.abs(c).max() for c in cost.level_costs))
    for x in {t.final for t in traces if t.termination == "converged"}:
        bound = two_swap_bound(model, x)
        assert J.max() - J[x] <= bound + 1e-12 * scale
        assert bound <= split_two_swap_bound_loop(table, support, spec, cost, x) + 1e-12 * scale


# ---------------------------------------------------------------------------
# Gap bounds
# ---------------------------------------------------------------------------

def test_near_opt_bound_values():
    assert near_opt_bound(0.0) == 0.0
    assert near_opt_bound(0.05) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        near_opt_bound(-0.1)


@pytest.mark.parametrize("seed", range(10))
def test_near_opt_bound_empirical(seed):
    import dataclasses

    rng = np.random.default_rng(900 + seed)
    table, sc = make_instance(rng, d=3)
    spec = ObjectiveSpec(lambda_risk=0.2)
    noisy = dataclasses.replace(
        table,
        mains=tuple(g + rng.normal(0, 0.05, g.shape) for g in table.mains),
        pairs={jk: m + rng.normal(0, 0.05, m.shape) for jk, m in table.pairs.items()},
    )
    J_true, _ = objective_grid(PairwiseObjective.build(table, sc, spec))
    J_hat, _ = objective_grid(PairwiseObjective.build(noisy, sc, spec))
    eps = float(np.max(np.abs(J_hat - J_true)))
    x_hat = np.unravel_index(int(np.argmax(J_hat)), J_hat.shape)
    x_star = np.unravel_index(int(np.argmax(J_true)), J_true.shape)
    assert J_true[x_hat] >= J_true[x_star] - near_opt_bound(eps) - 1e-12


def test_two_swap_bound_additive_zero_gap():
    rng = np.random.default_rng(81)
    space = random_space(rng, d=3)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                      noise=0.0, seed=7))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    spec = ObjectiveSpec(lambda_risk=0.0)
    _, x_star = exhaustive_argmax(table, sc, spec)
    bound = two_swap_bound(PairwiseObjective.build(table, sc, spec), x_star)
    assert bound >= -1e-12
    # actual gap is zero at a global optimum
    assert 0.0 <= bound + 1e-12


def test_two_swap_bound_covers_actual_gap(space_2x2):
    import dataclasses

    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    base = estimate_effects_cm(log, shrinkage=TINY_TAU)
    mains = (np.array([0.05, -0.05]), np.array([0.0, 0.0]))
    pair = np.array([[0.5, -0.5], [-0.5, 0.5]])
    table = dataclasses.replace(base, mains=mains, pairs={(0, 1): pair})
    sc = support_counts(log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))
    # (1, 1) is the worse 1-swap optimum; the bound covers its gap
    x_local = (1, 1)
    ok, _ = verify_1swap(model, x_local)
    assert ok
    gap = objective(model, (0, 0)) - objective(model, x_local)
    bound = two_swap_bound(model, x_local)
    assert gap <= bound + 1e-12


def test_two_swap_bound_zero_table(space_2x2):
    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))
    assert two_swap_bound(model, (0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_two_swap_bound_requires_local_optimum(space_2x2):
    import dataclasses

    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    base = estimate_effects_cm(log, shrinkage=TINY_TAU)
    table = dataclasses.replace(base, mains=(np.array([-1.0, 1.0]), np.array([0.0, 0.0])))
    sc = support_counts(log)
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(lambda_risk=0.0))
    with pytest.raises(ValueError, match="1-swap"):
        two_swap_bound(model, (0, 0))
