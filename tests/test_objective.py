import dataclasses
import re
import sys

import numpy as np
import pytest

from effectlab import (
    CostModel,
    InfeasibleConfigError,
    ObjectiveSpec,
    PairwiseObjective,
    ShrinkageSpec,
    build_space,
    enumerate_grid,
    estimate_effects_cm,
    gen_teacher,
    log_from_arrays,
    objective,
    objective_grid,
    predict_grid,
    support_counts,
    table_from_dict,
    TeacherSpec,
)
from effectlab.objective import pair_risk
from conftest import full_grid_log
from oracles import feasible_loop, predict_from_tables, risk_penalty_loop

TINY_TAU = ShrinkageSpec(1e-12)


@pytest.fixture
def xor_setup(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    return table, support_counts(xor_log)


def test_predict_zero_table(xor_setup):
    table, _ = xor_setup
    zeroed = dataclasses.replace(
        table,
        mains=tuple(np.zeros_like(g) for g in table.mains),
        pairs={jk: np.zeros_like(m) for jk, m in table.pairs.items()},
    )
    assert predict_grid(zeroed) == pytest.approx(np.full((2, 2), table.mu))


def test_predict_xor_exact(xor_setup):
    table, _ = xor_setup
    assert predict_grid(table)[0, 1] == pytest.approx(1.0)
    assert predict_grid(table)[0, 0] == pytest.approx(0.0)


def test_predict_recovers_second_order_teacher():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    teacher = gen_teacher(TeacherSpec(space, residual_scale=0.0, noise=0.0, seed=3))
    log = full_grid_log(space, teacher.values)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    grid_pred = predict_grid(table)
    for x in enumerate_grid(space):
        assert grid_pred[x] == pytest.approx(teacher.response(x), abs=1e-10)


def risk_at(support, x, gamma):
    """The risk term at x: each pair's ``pair_risk`` cell, summed."""
    risk = pair_risk(support, ObjectiveSpec(gamma=gamma))
    return sum(r[x[j], x[k]] for (j, k), r in risk.items())


def test_risk_penalty_values(space_2x2):
    log = log_from_arrays(space_2x2, [(0, 0)] * 9, [0.0] * 9)
    sc = support_counts(log)
    assert risk_at(sc, (0, 0), gamma=1.0) == pytest.approx(0.1)  # n=9
    assert risk_at(sc, (1, 1), gamma=1.0) == pytest.approx(1.0)  # unseen


def test_risk_penalty_three_factor_sum():
    space = build_space([(f"f{i}", ["0", "1"]) for i in range(3)])
    log = log_from_arrays(space, enumerate_grid(space)[:1] * 1, [0.0])
    # one record puts n=1 in exactly the (0,0) cell of each of the 3 pairs
    sc = support_counts(log)
    assert risk_at(sc, (0, 0, 0), gamma=1.0) == pytest.approx(3 * 0.5)


def test_risk_penalty_monotone_and_range(space_2x2):
    lo = log_from_arrays(space_2x2, [(0, 0)], [0.0])
    hi = log_from_arrays(space_2x2, [(0, 0)] * 50, [0.0] * 50)
    r_lo = risk_at(support_counts(lo), (0, 0), gamma=1.0)
    r_hi = risk_at(support_counts(hi), (0, 0), gamma=1.0)
    assert r_hi < r_lo
    d = 2
    assert 0 < r_hi <= d * (d - 1) / 2


def test_objective_reduces_to_prediction(xor_setup):
    table, sc = xor_setup
    spec = ObjectiveSpec(lambda_risk=0.0, lambda_cost=0.0)
    for x in enumerate_grid(table.space):
        assert objective(PairwiseObjective.build(table, sc, spec), x) == pytest.approx(
            predict_from_tables(table.mu, table.mains, table.pairs, x))


def test_objective_cost_linearity(xor_setup):
    table, sc = xor_setup
    cost = CostModel(
        table.space,
        (np.array([0.0, 0.1]), np.array([0.2, 0.0])),
    )
    base = ObjectiveSpec(lambda_risk=0.0, lambda_cost=0.0)
    with_cost = ObjectiveSpec(lambda_risk=0.0, lambda_cost=1.0)
    x = (1, 0)
    drop = (objective(PairwiseObjective.build(table, sc, base, cost), x)
            - objective(PairwiseObjective.build(table, sc, with_cost, cost), x))
    assert drop == pytest.approx(0.3)


def test_objective_infeasible_is_error(xor_setup):
    table, sc = xor_setup
    model = PairwiseObjective.build(table, sc, ObjectiveSpec(banned_levels={0: frozenset({1})}))
    with pytest.raises(InfeasibleConfigError):
        objective(model, (1, 0))
    model2 = PairwiseObjective.build(table, sc, ObjectiveSpec(banned_configs=frozenset({(0, 1)})))
    with pytest.raises(InfeasibleConfigError):
        objective(model2, (0, 1))


def test_penalty_changes_argmax(space_2x2):
    # The prediction optimum sits on an unsupported cell; the risk penalty
    # moves the exhaustive argmax to a supported one.
    configs = [(0, 0)] * 6 + [(0, 1)] * 6 + [(1, 0)] * 6
    responses = [0.0] * 6 + [1.0] * 6 + [1.0] * 6
    log = log_from_arrays(space_2x2, configs, responses)
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    sc = support_counts(log)

    free = ObjectiveSpec(lambda_risk=0.0)
    priced = ObjectiveSpec(lambda_risk=2.0, gamma=1.0)
    grid = enumerate_grid(space_2x2)
    J_free, _ = objective_grid(PairwiseObjective.build(table, sc, free))
    J_priced, _ = objective_grid(PairwiseObjective.build(table, sc, priced))
    argmax_free = grid[int(np.argmax([J_free[x] for x in grid]))]
    argmax_priced = grid[int(np.argmax([J_priced[x] for x in grid]))]
    assert argmax_free == (1, 1)  # extrapolated, never observed
    assert argmax_priced != argmax_free


def test_baseline_shift_preserves_argmax(space_2x2):
    rng = np.random.default_rng(17)
    values = rng.normal(size=(2, 2))
    log = full_grid_log(space_2x2, values, replicates=2)
    shifted = full_grid_log(space_2x2, values + 5.0, replicates=2)
    spec = ObjectiveSpec(lambda_risk=1.0)
    t1, t2 = (estimate_effects_cm(l, shrinkage=TINY_TAU) for l in (log, shifted))
    s1, s2 = support_counts(log), support_counts(shifted)
    J1, _ = objective_grid(PairwiseObjective.build(t1, s1, spec))
    J2, _ = objective_grid(PairwiseObjective.build(t2, s2, spec))
    assert np.max(np.abs((J2 - J1) - 5.0)) < 1e-9
    assert np.unravel_index(np.argmax(J1), J1.shape) == np.unravel_index(np.argmax(J2), J2.shape)


def test_objective_decomposes_into_terms(xor_setup):
    table, sc = xor_setup
    cost = CostModel(table.space, (np.array([0.0, 0.5]), np.array([0.1, 0.0])), offset=1.0)
    spec = ObjectiveSpec(lambda_risk=0.7, lambda_cost=0.3)
    model = PairwiseObjective.build(table, sc, spec, cost)
    for x in enumerate_grid(table.space):
        direct = objective(model, x)
        term_sum = table.mu
        term_sum += sum(table.mains[j][x[j]] for j in range(2))
        term_sum += table.pairs[(0, 1)][x[0], x[1]]
        term_sum -= 0.7 * risk_penalty_loop(sc, x, spec)
        term_sum -= 0.3 * (cost.offset + sum(cost.level_costs[j][x[j]] for j in range(2)))
        assert direct == pytest.approx(term_sum, abs=1e-12)


def test_delta_cost(xor_setup):
    # Switching factor a from a0 to a1 costs 0.5, so with zero effects and
    # no risk J drops by 0.5 across a row of a's local scores.
    table, sc = xor_setup
    zeroed = dataclasses.replace(table, mains=tuple(np.zeros_like(g) for g in table.mains),
                                 pairs={jk: np.zeros_like(m) for jk, m in table.pairs.items()})
    cost = CostModel(table.space, (np.array([0.0, 0.5]), np.array([0.0, 0.0])))
    model = PairwiseObjective.build(zeroed, sc, ObjectiveSpec(lambda_risk=0.0, lambda_cost=1.0),
                                    cost)
    for x in enumerate_grid(table.space):
        scores = model.level_scores(0, [x])[0]
        assert scores[1] - scores[0] == pytest.approx(-0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(lambda_risk=-1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(gamma=0.0)


def test_spec_from_dict(space_2x2):
    data = {
        "lambda_risk": 0.5,
        "lambda_cost": 1.0,
        "gamma": 2.0,
        "banned_levels": {"a": ["a1"]},
        "banned_configs": [["a0", "b1"]],
        "costs": {"a": {"a0": 0.0, "a1": 1.0}},
    }
    spec = ObjectiveSpec.from_dict(space_2x2, data)
    cost = CostModel.from_dict(space_2x2, data)
    assert not feasible_loop(spec, (1, 0))
    assert not feasible_loop(spec, (0, 1))
    assert feasible_loop(spec, (0, 0))
    assert [c.tolist() for c in cost.level_costs] == [[0.0, 1.0], [0.0, 0.0]]


@pytest.mark.parametrize("gamma, key", [
    ({"typo|zz": 2.0, "a|b": 1.0}, "typo|zz"),
    ({"b|a": 2.0}, "b|a"),
    ({}, "a|b"),
])
def test_spec_from_dict_rejects_bad_gamma_keys(space_2x2, gamma, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        ObjectiveSpec.from_dict(space_2x2, {"gamma": gamma})


def test_spec_from_dict_gamma_per_pair():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1"]), ("c", ["0", "1"])])
    spec = ObjectiveSpec.from_dict(space, {"gamma": {"a|b": 1.0, "a|c": 2.0, "b|c": 3.0}})
    assert [spec.gamma_for(space, j, k) for j, k in space.pairs()] == [1.0, 2.0, 3.0]
    assert spec.gamma_for(space, 2, 1) == 3.0


@pytest.mark.parametrize("kwargs, field", [
    ({"lambda_risk": float("nan")}, "lambda_risk"),
    ({"lambda_cost": float("inf")}, "lambda_cost"),
    ({"lambda_risk": float("-inf")}, "lambda_risk"),
    ({"gamma": float("nan")}, "gamma"),
    ({"gamma": float("inf")}, "gamma"),
    ({"gamma": {"a|b": float("nan")}}, "gamma"),
])
def test_spec_rejects_non_finite_parameters(kwargs, field):
    with pytest.raises(ValueError, match=f"{field}.*finite"):
        ObjectiveSpec(**kwargs)


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
def test_cost_model_rejects_non_finite_offset(space_2x2, offset):
    with pytest.raises(ValueError, match="offset.*finite"):
        CostModel(space_2x2, (np.zeros(2), np.zeros(2)), offset=offset)
    with pytest.raises(ValueError, match="offset.*finite"):
        CostModel.from_dict(space_2x2, {"cost_offset": offset})


@pytest.mark.parametrize("data, key", [
    ({"lambda-risk": 0.0}, "lambda-risk"),
    ({"costs": {"typo": {"a0": 5.0}, "a": {"a1": 3.0}}}, "typo"),
    ({"costs": {"a": {"A1": 3.0}}}, "A1"),
    ({"banned_levels": {"typo": ["a0"]}}, "typo"),
    ({"banned_levels": {"a": ["A1"]}}, "A1"),
    ({"banned_configs": [["a0"]]}, ["a0"]),
    ({"banned_configs": [["a0", "b0", "b1"]]}, ["a0", "b0", "b1"]),
    ({"banned_configs": [["a0", "B1"]]}, "B1"),
])
@pytest.mark.parametrize("loader", [ObjectiveSpec.from_dict, CostModel.from_dict])
def test_objective_document_rejects_unknown_keys(space_2x2, loader, data, key):
    # Both loaders read the same document, so each rejects every unknown key.
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        loader(space_2x2, data)


@pytest.mark.parametrize("data, key", [
    ({"lambda_risk": "1"}, "lambda_risk"),
    ({"lambda_cost": True}, "lambda_cost"),
    ({"cost_offset": None}, "cost_offset"),
    ({"gamma": "1"}, "gamma"),
    ({"gamma": False}, "gamma"),
    ({"gamma": {"a|b": "2"}}, "gamma"),
    ({"costs": []}, "costs"),
    ({"costs": {"a": 1.0}}, "costs"),
    ({"costs": {"a": {"a0": None}}}, "costs"),
    ({"banned_levels": ["a"]}, "banned_levels"),
    ({"banned_levels": {"a": "a0"}}, "banned_levels"),
    ({"banned_levels": {"a": [0]}}, "banned_levels"),
    ({"banned_configs": {"a": "a0"}}, "banned_configs"),
    ({"banned_configs": ["a0b0"]}, "banned_configs"),
    ({"lambda_risk": 0.5, "costs": {}, "gamma": [2.0], "cost_offset": "1"}, "gamma"),
    # Integers beyond float range, which float() cannot convert.
    ({"lambda_risk": 10**400}, "lambda_risk"),
    ({"lambda_cost": -10**400}, "lambda_cost"),
    ({"gamma": {"a|b": 10**400}}, "gamma"),
    ({"costs": {"a": {"a0": 10**400}}}, "costs"),
    ({"cost_offset": 10**400}, "cost_offset"),
])
@pytest.mark.parametrize("loader", [ObjectiveSpec.from_dict, CostModel.from_dict])
def test_objective_document_rejects_wrong_types(space_2x2, loader, data, key):
    # The first key in document order that holds the wrong JSON type is named.
    with pytest.raises(ValueError, match=f"^objective document: {key} must be "):
        loader(space_2x2, data)


def test_objective_document_reads_the_largest_float_as_an_integer(space_2x2):
    top = int(sys.float_info.max)
    assert ObjectiveSpec.from_dict(space_2x2, {"lambda_risk": top}).lambda_risk == sys.float_info.max
    assert CostModel.from_dict(space_2x2, {"cost_offset": -top}).offset == -sys.float_info.max


@pytest.mark.parametrize("loader", [ObjectiveSpec.from_dict, CostModel.from_dict])
def test_objective_document_must_be_an_object(space_2x2, loader):
    with pytest.raises(ValueError, match="^objective document: .* must be an object"):
        loader(space_2x2, [])


def test_banned_levels_string_is_not_read_letter_by_letter():
    space = build_space([("f", ["x", "y", "xy"]), ("g", ["0", "1"])])
    with pytest.raises(ValueError, match="banned_levels"):
        ObjectiveSpec.from_dict(space, {"banned_levels": {"f": "xy"}})
    spec = ObjectiveSpec.from_dict(space, {"banned_levels": {"f": ["xy"]}})
    assert spec.banned_levels == {0: frozenset({2})}


def test_zero_weight_record_adds_no_support(space_2x2):
    # Pair cell (a1, b1) holds only a zero-weight record, so the log
    # estimates as if the record were not there.
    grid = enumerate_grid(space_2x2)
    log = log_from_arrays(space_2x2, grid, [1.0, 2.0, 4.0, 8.0], weights=[1.0, 1.0, 1.0, 0.0])
    dropped = log_from_arrays(space_2x2, grid[:3], [1.0, 2.0, 4.0])
    support, kept = support_counts(log), support_counts(dropped)
    assert support.pair_counts[(0, 1)][1, 1] == 0
    assert risk_at(support, (1, 1), gamma=2.0) == 1.0
    assert all(np.array_equal(a, b) for a, b in zip(support.level_sums, kept.level_sums))
    assert np.array_equal(support.pair_sums[(0, 1)], kept.pair_sums[(0, 1)])
    table, want = estimate_effects_cm(log), estimate_effects_cm(dropped)
    assert all(np.array_equal(a, b) for a, b in zip(table.mains, want.mains))
    assert np.array_equal(table.pairs[(0, 1)], want.pairs[(0, 1)])


def test_objective_document_accepts_every_known_key(space_2x2):
    data = {"lambda_risk": 0.5, "lambda_cost": 1.0, "gamma": {"a|b": 2.0},
            "banned_levels": {}, "banned_configs": [], "costs": {"b": {"b1": 1.0}},
            "cost_offset": 0.5}
    assert ObjectiveSpec.from_dict(space_2x2, data).lambda_risk == 0.5
    cost = CostModel.from_dict(space_2x2, data)
    assert (cost.offset, [c.tolist() for c in cost.level_costs]) == (0.5, [[0.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("spec, entry", [
    (ObjectiveSpec(banned_levels={0: frozenset({-1})}), "banned level -1 of factor 'a'"),
    (ObjectiveSpec(banned_levels={1: frozenset({2})}), "banned level 2 of factor 'b'"),
    (ObjectiveSpec(banned_levels={2: frozenset({0})}), "banned levels of factor 2"),
    (ObjectiveSpec(banned_configs=frozenset({(0,)})), "banned config (0,)"),
    (ObjectiveSpec(banned_configs=frozenset({(0, 1, 1)})), "banned config (0, 1, 1)"),
    (ObjectiveSpec(banned_configs=frozenset({(3, 0)})), "banned config (3, 0)"),
    (ObjectiveSpec(banned_configs=frozenset({(0, -1)})), "banned config (0, -1)"),
])
def test_bans_outside_the_space_are_rejected(spec, entry):
    # A ban that names no cell of the 3x2 space used to be read modulo the
    # level count by the grid and ignored by the search, so the two
    # disagreed on the optimum. The grid, the objective and the search all
    # read the built model, so building it is where the ban is rejected.
    space = build_space([("a", ["a0", "a1", "a2"]), ("b", ["b0", "b1"])])
    grid = enumerate_grid(space)
    log = log_from_arrays(space, grid, [0.0, 1.0, 0.5, 0.2, 2.0, 0.0])
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    with pytest.raises(ValueError, match=re.escape(entry)):
        PairwiseObjective.build(table, table.support, spec)


@pytest.mark.parametrize("where, entry", [
    ("mu", "finite; mu is not"),
    ("main", "finite; main effect of factor 'b' is not"),
    ("pair", "finite; interaction of pair 'a'|'b' is not"),
])
@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_build_rejects_non_finite_effects(xor_setup, where, entry, bad):
    # table_from_dict reads -Infinity from JSON; the model marks a banned
    # level with -inf, so a non-finite main would act as a silent ban.
    table, sc = xor_setup
    data = table.to_dict()
    if where == "mu":
        data["mu"] = bad
    elif where == "main":
        data["mains"]["b"]["b1"] = bad
    else:
        data["pairs"]["a|b"]["a1|b0"] = bad
    broken = table_from_dict(data, table.space)
    with pytest.raises(ValueError, match=re.escape(entry)):
        PairwiseObjective.build(broken, sc, ObjectiveSpec())


def test_model_evaluators_reject_levels_outside_the_space(xor_setup):
    table, sc = xor_setup
    model = PairwiseObjective.build(table, sc, ObjectiveSpec())
    for X in ([[0, -1]], [[2, 0]], [[0, 0, 0]]):
        with pytest.raises(ValueError):
            model.at(X)
        with pytest.raises(ValueError):
            model.level_scores(0, X)
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"factor index {j}"):
            model.level_scores(j, [[0, 0]])
