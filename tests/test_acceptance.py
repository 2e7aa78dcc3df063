"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

Criteria cover exact recovery on enumerable grids, attribution identities
and concentration, directional claims of the simulation study, optimizer
guarantees, standardized-interaction properties, planner closed forms,
benchmark report fixtures, and least-squares stability.
"""

import itertools
import json
import math
import time

import numpy as np

from effectlab import (
    DesignPlan,
    ObjectiveSpec,
    PairwiseObjective,
    ReferenceDistribution,
    SearchSpec,
    ShrinkageSpec,
    SuiteConfig,
    TeacherSpec,
    ValueOracle,
    build_design_matrix,
    build_space,
    enumerate_grid,
    estimate_effects_cm,
    exact_shapley,
    exact_shapley_second_order,
    fit_effects_sf,
    gen_teacher,
    hoeffding_cell_n,
    log_from_arrays,
    mc_sample_size,
    mc_shapley,
    multistart,
    pci_matrix,
    predict_grid,
    run_trial,
    support_counts,
    uniform_cells_n,
    verify_1swap,
)
from effectlab.cli import main as cli_main
from conftest import full_grid_log
from oracles import projection_decomposition

TINY = ShrinkageSpec(1e-12)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def all_small_spaces(max_d=5):
    for d in range(1, max_d + 1):
        for counts in itertools.product((2, 3), repeat=d):
            yield build_space([(f"f{i}", [f"l{t}" for t in range(c)])
                               for i, c in enumerate(counts)])


def second_order_teacher(space, seed):
    return gen_teacher(TeacherSpec(space, main_scale=1.0, pair_scale=0.5,
                                   residual_scale=0.0, noise=0.0, seed=seed))


# ---------------------------------------------------------------------------
# 1. Exact recovery on every enumerable grid
# ---------------------------------------------------------------------------

def test_criterion_01_exact_recovery():
    start = time.monotonic()
    worst_cm = worst_sf = worst_oracle = 0.0
    count = 0
    for seed, space in enumerate(all_small_spaces()):
        teacher = second_order_teacher(space, seed)
        log = full_grid_log(space, teacher.values)
        cm = estimate_effects_cm(log, shrinkage=TINY)

        marginals = [np.full(L, 1.0 / L) for L in space.level_counts]
        mu_o, mains_o, pairs_o = projection_decomposition(teacher.values, marginals)
        worst_oracle = max(worst_oracle, abs(cm.mu - mu_o))
        for j in range(space.num_factors):
            worst_cm = max(worst_cm, float(np.abs(cm.mains[j] - teacher.truth.mains[j]).max()))
            worst_oracle = max(worst_oracle, float(np.abs(cm.mains[j] - mains_o[j]).max()))
        for jk in cm.pairs:
            worst_cm = max(worst_cm, float(np.abs(cm.pairs[jk] - teacher.truth.pairs[jk]).max()))
            worst_oracle = max(worst_oracle, float(np.abs(cm.pairs[jk] - pairs_o[jk]).max()))

        ref = ReferenceDistribution.uniform(space)
        oracle = ValueOracle.from_log(log, ref)
        grid = enumerate_grid(space)
        estimates = exact_shapley(oracle, grid)
        sf = fit_effects_sf(estimates, space, ref, TINY, mu=oracle.v_empty)
        for j in range(space.num_factors):
            worst_sf = max(worst_sf, float(np.abs(sf.mains[j] - teacher.truth.mains[j]).max()))
        for jk in sf.pairs:
            worst_sf = max(worst_sf, float(np.abs(sf.pairs[jk] - teacher.truth.pairs[jk]).max()))
        count += 1
    elapsed = time.monotonic() - start
    ok = worst_cm <= 1e-8 and worst_sf <= 1e-8 and worst_oracle <= 1e-10 and elapsed < 10
    report(1, ok,
           f"{count} grids: CM err {worst_cm:.2e} (<=1e-8), SF err {worst_sf:.2e} "
           f"(<=1e-8), projection-oracle gap {worst_oracle:.2e} (<=1e-10), {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. Attribution identities
# ---------------------------------------------------------------------------

def test_criterion_02_shapley_identities():
    worst_sum = 0.0
    rng = np.random.default_rng(2)
    for trial in range(50):
        d = int(rng.integers(2, 5))
        space = build_space([(f"f{i}", [f"l{t}" for t in range(int(rng.integers(2, 4)))])
                             for i in range(d)])
        teacher = second_order_teacher(space, 1000 + trial)
        table = teacher.truth
        pred = predict_grid(table)
        for x in enumerate_grid(space):
            phi = exact_shapley_second_order(table, x)
            worst_sum = max(worst_sum, abs(float(phi.sum()) - (float(pred[x]) - table.mu)))

    worst_tel = 0.0
    for trial in range(10):
        space = build_space([(f"f{i}", ["0", "1", "2"]) for i in range(4)])
        teacher = second_order_teacher(space, 2000 + trial)
        ref = ReferenceDistribution.uniform(space)
        oracle = ValueOracle(space, ref, teacher.values)
        x = enumerate_grid(space)[int(np.random.default_rng(trial).integers(0, space.grid_size))]
        _, delta = mc_shapley(oracle, x, M=100, seed=trial, return_contributions=True)
        target = teacher.response(x) - oracle.v_empty
        worst_tel = max(worst_tel, float(np.abs(delta.sum(axis=1) - target).max()))
    ok = worst_sum <= 1e-10 and worst_tel <= 1e-10
    report(2, ok, f"attribution sum identity {worst_sum:.2e} (<=1e-10), "
                  f"per-permutation telescoping {worst_tel:.2e} (<=1e-10)")


# ---------------------------------------------------------------------------
# 3. Monte Carlo concentration
# ---------------------------------------------------------------------------

def test_criterion_03_mc_concentration():
    start = time.monotonic()
    space = build_space([(f"f{i}", ["0", "1"]) for i in range(3)])
    teacher = second_order_teacher(space, 3)
    scale = 0.999 / float(np.abs(teacher.values).max())
    values = teacher.values * scale  # bound B = 1
    ref = ReferenceDistribution.uniform(space)
    oracle = ValueOracle(space, ref, values, bound=1.0)
    x = (0, 1, 0)
    phi_true = exact_shapley(oracle, [x]).phi

    M = mc_sample_size(1.0, 0.1, 0.05)
    assert M == 2952
    violations = 0
    runs = 500
    for r in range(runs):
        est = mc_shapley(oracle, x, M=M, seed=r)
        if float(np.abs(est.phi - phi_true).max()) > 0.1:
            violations += 1
    elapsed = time.monotonic() - start
    frac = violations / runs
    ok = frac <= 0.07 and elapsed < 120
    report(3, ok, f"{runs} runs at M={M}: violation fraction {frac:.4f} (<=0.07), "
                  f"{elapsed:.1f}s (<2min)")


# ---------------------------------------------------------------------------
# 4-7. Simulation study directions
# ---------------------------------------------------------------------------

def _paired_trials(cfg, plan, seeds_per_point, estimators, trials, **kw):
    # One space and uniform reference (with its pair centerers) serve every
    # trial, as in the suites.
    space = build_space([(f"f{i}", [f"l{v}" for v in range(2 if i % 2 == 0 else 3)])
                         for i in range(cfg.num_factors)])
    reference = ReferenceDistribution.uniform(space)
    out = {est: {"recon": [], "rho": [], "gap": []} for est in estimators}
    for t in range(trials):
        seed = int(np.random.SeedSequence((cfg.seed, t)).generate_state(1)[0])
        teacher = gen_teacher(TeacherSpec(space, seed=seed))
        for est in estimators:
            r = run_trial(teacher, plan, seeds_per_point, est, trial_seed=seed,
                          reference=reference, **kw)
            out[est]["recon"].append(r.recon_error)
            out[est]["rho"].append(r.rho)
            out[est]["gap"].append(r.gap)
    return out


def test_criterion_04_path_comparison_direction():
    start = time.monotonic()
    cfg = SuiteConfig(trials=100, seed=0)
    res = _paired_trials(cfg, DesignPlan.balanced(cfg.design_n),
                         cfg.seeds_per_point, ("CM", "SF"), cfg.trials)
    cm_recon = float(np.mean(res["CM"]["recon"]))
    sf_recon = float(np.mean(res["SF"]["recon"]))
    cm_rho = float(np.mean(res["CM"]["rho"]))
    sf_rho = float(np.mean(res["SF"]["rho"]))
    elapsed = time.monotonic() - start
    ok = sf_recon <= 0.7 * cm_recon and sf_rho >= cm_rho and elapsed < 300
    report(4, ok,
           f"100 balanced trials: recon SF {sf_recon:.4f} vs CM {cm_recon:.4f} "
           f"(ratio {sf_recon / cm_recon:.3f} <= 0.7), rho SF {sf_rho:.4f} >= CM {cm_rho:.4f}, "
           f"{elapsed:.0f}s (<5min)")


def test_criterion_05_effects_order_direction():
    cfg = SuiteConfig(trials=100, seed=0)
    plan = DesignPlan.balanced(cfg.design_n)
    margins = {}
    for est in ("CM", "SF"):
        pairwise = _paired_trials(cfg, plan, cfg.seeds_per_point, (est,), cfg.trials)
        mains = _paired_trials(cfg, plan, cfg.seeds_per_point, (est,), cfg.trials,
                               mains_only=True)
        margins[est] = float(np.mean(pairwise[est]["rho"]) - np.mean(mains[est]["rho"]))
    ok = all(m >= 0.1 for m in margins.values())
    report(5, ok, "pairwise-vs-mains-only rho margin over 100 trials: "
                  + ", ".join(f"{e} {m:+.4f}" for e, m in margins.items())
                  + " (each >= 0.1)")


def test_criterion_06_design_robustness_direction():
    cfg = SuiteConfig(trials=100, seed=0)
    plan = DesignPlan.skewed(cfg.robustness_n, cfg.skew_bias)
    res = _paired_trials(cfg, plan, cfg.robustness_seeds, ("CM", "SF"), cfg.trials)
    margin = float(np.mean(res["SF"]["rho"]) - np.mean(res["CM"]["rho"]))
    ok = margin >= 0.1
    report(6, ok, f"skewed design (n={cfg.robustness_n}, bias={cfg.skew_bias}): "
                  f"SF-CM rho margin {margin:+.4f} (>= 0.1)")


def test_criterion_07_seed_budget_trend():
    cfg = SuiteConfig(trials=100, seed=0)
    means = {}
    for budget in (4, 16):
        res = _paired_trials(cfg, DesignPlan.full(), budget, ("CM", "SF"), cfg.trials)
        means[budget] = {est: float(np.mean(res[est]["rho"])) for est in ("CM", "SF")}
    ok = all(means[16][est] >= means[4][est] for est in ("CM", "SF"))
    report(7, ok, "rho at 16 vs 4 seeds: "
                  + ", ".join(f"{est} {means[16][est]:.5f} >= {means[4][est]:.5f}"
                              for est in ("CM", "SF")))


# ---------------------------------------------------------------------------
# 8. Optimizer guarantees
# ---------------------------------------------------------------------------

def _random_instance(rng):
    d = int(rng.integers(2, 6))
    counts = [int(rng.integers(2, 4)) for _ in range(d)]
    space = build_space([(f"f{i}", [f"l{t}" for t in range(c)])
                         for i, c in enumerate(counts)])
    dominant = rng.random() < 0.4
    teacher = second_order_teacher(space, int(rng.integers(0, 2 ** 31)))
    table = teacher.truth
    if dominant:
        import dataclasses

        mains = []
        for L in space.level_counts:
            base = rng.permutation(L).astype(float) * 2.0
            mains.append(base - base.mean())
        pairs = {}
        for jk, mat in table.pairs.items():
            m = rng.normal(0, 0.02, size=mat.shape)
            m -= m.mean(axis=1, keepdims=True)
            m -= m.mean(axis=0, keepdims=True)
            pairs[jk] = m
        table = dataclasses.replace(table, mains=tuple(mains), pairs=pairs)
    grid = enumerate_grid(space)
    n = 2 * len(grid)
    idx = rng.integers(0, len(grid), size=n)
    log = log_from_arrays(space, [grid[i] for i in idx], rng.normal(size=n))
    lam = 0.0 if dominant else float(rng.uniform(0, 0.5))
    return table, support_counts(log), ObjectiveSpec(lambda_risk=lam)


def test_criterion_08_optimizer_guarantees():
    from effectlab import diag_dominance_check
    from effectlab.objective import objective_grid

    start = time.monotonic()
    rng = np.random.default_rng(8)
    checked = dominant_hits = 0
    for _ in range(200):
        table, sc, spec = _random_instance(rng)
        model = PairwiseObjective.build(table, sc, spec)
        best, traces = multistart(model, table.mains,
                                  SearchSpec(restarts=3, beam=2, seed=int(rng.integers(1 << 30))))
        ok1, violation = verify_1swap(model, best)
        assert ok1, f"solver output fails the 1-swap scan: {violation}"
        for trace in traces:
            vals = trace.values
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), "trace not monotone"
            assert trace.termination == "converged"
        dom = diag_dominance_check(model)
        if dom.holds:
            dominant_hits += 1
            J, feas = objective_grid(model)
            x_star = np.unravel_index(int(np.argmax(np.where(feas, J, -np.inf))), J.shape)
            assert best == tuple(int(v) for v in x_star), "dominant instance not at global optimum"
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 200 and dominant_hits >= 50 and elapsed < 60
    report(8, ok, f"200 instances all 1-swap optimal with monotone traces; "
                  f"{dominant_hits} dominance certificates all matched exhaustive search; "
                  f"{elapsed:.1f}s (<1min)")


# ---------------------------------------------------------------------------
# 9. Near-optimality bound
# ---------------------------------------------------------------------------

def test_criterion_09_near_optimality():
    import dataclasses

    from effectlab import near_opt_bound
    from effectlab.objective import objective_grid

    rng = np.random.default_rng(9)
    for _ in range(100):
        table, sc, spec = _random_instance(rng)
        noisy = dataclasses.replace(
            table,
            mains=tuple(g + rng.normal(0, 0.1, g.shape) for g in table.mains),
            pairs={jk: m + rng.normal(0, 0.1, m.shape) for jk, m in table.pairs.items()},
        )
        J_true, _ = objective_grid(PairwiseObjective.build(table, sc, spec))
        J_hat, _ = objective_grid(PairwiseObjective.build(noisy, sc, spec))
        eps = float(np.max(np.abs(J_hat - J_true)))
        x_hat = np.unravel_index(int(np.argmax(J_hat)), J_hat.shape)
        x_star = np.unravel_index(int(np.argmax(J_true)), J_true.shape)
        assert J_true[x_hat] >= J_true[x_star] - near_opt_bound(eps) - 1e-12
    report(9, True, "100 perturbed instances satisfy the 2-epsilon guarantee exactly")


# ---------------------------------------------------------------------------
# 10. Standardized-interaction property suite
# ---------------------------------------------------------------------------

def test_criterion_10_pci_properties():
    import dataclasses

    rng = np.random.default_rng(10)
    worst = {"energy": 0.0, "affine": 0.0, "shrink": 0.0, "separable": 0.0}
    range_ok = True
    for trial in range(100):
        d = int(rng.integers(2, 5))
        space = build_space([(f"f{i}", [f"l{t}" for t in range(int(rng.integers(2, 4)))])
                             for i in range(d)])
        table = second_order_teacher(space, 5000 + trial).truth
        a = float(rng.uniform(0.1, 5.0))
        scaled = dataclasses.replace(
            table,
            mu=a * table.mu + 1.0,
            mains=tuple(a * g for g in table.mains),
            pairs={jk: a * m for jk, m in table.pairs.items()},
        )
        eta = float(rng.uniform(0.05, 1.0))
        shrunk = dataclasses.replace(table, pairs={jk: eta * m for jk, m in table.pairs.items()})
        for (j, k) in table.pairs:
            pm = pci_matrix(table, j, k)
            if pm.s == 0.0:
                continue
            Lj, Lk = pm.values.shape
            worst["energy"] = max(worst["energy"],
                                  abs(float((pm.values ** 2).sum()) - Lj * Lk))
            peak = float(np.abs(pm.values).max())
            range_ok = range_ok and (1.0 - 1e-9 <= peak <= math.sqrt(Lj * Lk) + 1e-9)
            worst["affine"] = max(worst["affine"], float(
                np.abs(pci_matrix(scaled, j, k).values - pm.values).max()))
            worst["shrink"] = max(worst["shrink"], float(
                np.abs(pci_matrix(shrunk, j, k).values - pm.values).max()))

        # separable interaction: outer product of standardized vectors
        La, Lb = space.level_counts[0], space.level_counts[1]
        u = rng.normal(size=La)
        u -= u.mean()
        v = rng.normal(size=Lb)
        v -= v.mean()
        if np.abs(u).max() < 1e-12 or np.abs(v).max() < 1e-12:
            continue
        sep_table = dataclasses.replace(
            table, pairs={**table.pairs, (0, 1): np.outer(u, v)})
        pm = pci_matrix(sep_table, 0, 1)
        expected = np.outer(u / math.sqrt(np.mean(u * u)), v / math.sqrt(np.mean(v * v)))
        worst["separable"] = max(worst["separable"], float(np.abs(pm.values - expected).max()))

    ok = (worst["energy"] <= 1e-9 and range_ok and worst["affine"] <= 1e-10
          and worst["shrink"] <= 1e-12 and worst["separable"] <= 1e-10)
    report(10, ok,
           f"energy {worst['energy']:.2e} (<=1e-9), max-range ok={range_ok}, "
           f"affine {worst['affine']:.2e} (<=1e-10), uniform-shrink {worst['shrink']:.2e} "
           f"(<=1e-12), separable {worst['separable']:.2e} (<=1e-10)")


# ---------------------------------------------------------------------------
# 11. Planner closed forms
# ---------------------------------------------------------------------------

def test_criterion_11_planner_formulas():
    a = hoeffding_cell_n(1.0, 0.1, 0.05)
    b = mc_sample_size(1.0, 0.1, 0.05)
    c = uniform_cells_n(1.0, 0.1, 0.05, 3, 3)
    ok = (a, b, c) == (738, 2952, 1178)
    report(11, ok, f"hoeffding_cell_n={a} (738), mc_sample_size={b} (2952), "
                   f"uniform_cells_n={c} (1178)")


# ---------------------------------------------------------------------------
# 12. Benchmark report fixtures
# ---------------------------------------------------------------------------

# Reference per-level mean scores from the three benchmark sweeps; the
# training runs behind them are not reproduced, only the reporting path.
BENCHMARK_LEVEL_MEANS = {
    "concrete": {
        "batch_size": {"64": -8.7206, "256": -10.9667},
        "epochs": {"150": -8.7114, "50": -10.9758},
        "learning_rate": {"high": -7.7583, "mid": -9.3441, "low": -12.4283},
        "optimizer": {"adam": -8.5782, "sgd": -11.1091},
        "l2": {"0.0000": -9.8431, "0.0010": -9.8441},
    },
    "car": {
        "batch_size": {"64": 0.8902, "256": 0.7986},
        "epochs": {"150": 0.8878, "50": 0.8009},
        "learning_rate": {"high": 0.9227, "mid": 0.8632, "low": 0.7472},
        "optimizer": {"adam": 0.9006, "sgd": 0.7881},
        "l2": {"0.0000": 0.8444, "0.0010": 0.8443},
    },
    "fmnist": {
        "batch_size": {"64": 0.8872, "256": 0.8811},
        "epochs": {"30": 0.8869, "15": 0.8813},
        "learning_rate": {"high": 0.8866, "mid": 0.8851, "low": 0.8806},
        "optimizer": {"adam": 0.8892, "sgd": 0.8790},
        "l2": {"0.0000": 0.8842, "0.0001": 0.8841},
    },
}


def test_criterion_12_benchmark_fixtures(tmp_path):
    import csv as csvmod

    exact = 0
    for dataset, factors in BENCHMARK_LEVEL_MEANS.items():
        for factor, level_means in factors.items():
            case = tmp_path / f"{dataset}_{factor}"
            case.mkdir()
            space_file = case / "space.json"
            space_file.write_text(json.dumps(
                {"factors": [{"name": factor, "levels": list(level_means)}]}
            ))
            log_file = case / "runs.csv"
            lines = [f"{factor},response"]
            for level, mean in level_means.items():
                lines.append(f"{level},{mean!r}")
            log_file.write_text("\n".join(lines) + "\n")
            out = case / "out"
            rc = cli_main(["estimate", "--space", str(space_file),
                           "--log", str(log_file), "--out", str(out)])
            assert rc == 0
            with open(out / "main_effects.csv") as fh:
                rows = list(csvmod.DictReader(
                    l for l in fh if not l.startswith("#")))
            emitted = {r["level"]: r["mean"] for r in rows}
            for level, mean in level_means.items():
                assert float(emitted[level]) == float(mean), (dataset, factor, level)
                assert emitted[level] == repr(float(mean))  # bit-for-bit text
                exact += 1
    report(12, True, f"{exact} level means reproduced bit-for-bit across the "
                     "three benchmark report fixtures")


# ---------------------------------------------------------------------------
# 13. Least-squares stability
# ---------------------------------------------------------------------------

def test_criterion_13_ls_stability():
    rng = np.random.default_rng(13)
    checked = 0
    for inst in range(5):
        d = int(rng.integers(2, 5))
        space = build_space([(f"f{i}", [f"l{t}" for t in range(int(rng.integers(2, 4)))])
                             for i in range(d)])
        table = second_order_teacher(space, 7000 + inst).truth
        grid = enumerate_grid(space)
        dm = build_design_matrix(grid, space)
        clean = np.concatenate([exact_shapley_second_order(table, x) for x in grid])
        theta_clean, *_ = np.linalg.lstsq(dm.matrix, clean, rcond=None)
        for _ in range(100):
            noise = rng.normal(0, 0.05, size=clean.shape)
            theta, *_ = np.linalg.lstsq(dm.matrix, clean + noise, rcond=None)
            err = float(np.linalg.norm(theta - theta_clean))
            bound = float(np.linalg.norm(noise)) / dm.sigma_min
            assert err <= bound + 1e-12
            checked += 1
    report(13, True, f"{checked} noise draws within the sigma_min stability bound")
