"""Synthetic teachers with known ground truth, trial runner, and ablations.

A teacher is an exactly centered second-order function plus an optional
centered three-factor residual; observations add Gaussian noise. A trial
samples a design, builds a log, estimates effects through one of the two
paths, searches for the best configuration, and scores the outcome against
the ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .effects import EffectTable, ShrinkageSpec, estimate_effects_cm
from .objective import CostModel, ObjectiveSpec, predict_grid
from .optimize import SearchSpec, multistart
from .shapley import ValueOracle, exact_shapley, fit_effects_sf, mc_shapley
from .space import (
    Config,
    DesignPlan,
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    build_space,
    enumerate_grid,
    log_from_arrays,
    sample_design,
    support_counts,
)

EXACT_SHAPLEY_MAX_FACTORS = 10
EVAL_GRID_CAP = 4096


def default_space(d: int = 6) -> FactorSpace:
    """d factors with level counts alternating 2, 3, 2, 3, ..."""
    entries = []
    for i in range(d):
        count = 2 if i % 2 == 0 else 3
        entries.append((f"f{i + 1}", tuple(f"l{t}" for t in range(count))))
    return build_space(entries)


@dataclass(frozen=True, eq=False)
class TeacherSpec:
    space: FactorSpace
    main_scale: float = 1.0
    pair_scale: float = 0.5
    residual_scale: float = 0.1
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.residual_scale < 0 or self.noise < 0:
            raise ValueError("scales must be nonnegative")

    def describe(self) -> dict:
        return {
            "levels": list(self.space.level_counts),
            "main_scale": self.main_scale,
            "pair_scale": self.pair_scale,
            "residual_scale": self.residual_scale,
            "noise": self.noise,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class Teacher:
    spec: TeacherSpec
    truth: EffectTable
    values: np.ndarray          # noiseless responses over the grid
    residual: np.ndarray        # higher-order component over the grid
    bound: float

    @property
    def space(self) -> FactorSpace:
        return self.spec.space

    def response(self, x: Sequence[int]) -> float:
        return float(self.values[tuple(int(v) for v in x)])


def _triple_center(t: np.ndarray) -> np.ndarray:
    for ax in range(t.ndim):
        t = t - t.mean(axis=ax, keepdims=True)
    return t


def gen_teacher(spec: TeacherSpec) -> Teacher:
    """Draw a teacher with exactly centered effect tables.

    Mains and interactions are Gaussian draws projected onto the centered
    subspaces under the uniform reference; the residual is one random
    triple-centered three-factor term.
    """
    space = spec.space
    d = space.num_factors
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    mains = []
    for L in space.level_counts:
        g = rng.normal(0.0, spec.main_scale, size=L) if spec.main_scale > 0 else np.zeros(L)
        mains.append(g - g.mean())
    pairs = {}
    for j, k in space.pairs():
        Lj, Lk = space.level_counts[j], space.level_counts[k]
        if spec.pair_scale > 0:
            m = rng.normal(0.0, spec.pair_scale, size=(Lj, Lk))
            m = m - m.mean(axis=1, keepdims=True)
            m = m - m.mean(axis=0, keepdims=True)
        else:
            m = np.zeros((Lj, Lk))
        pairs[(j, k)] = m

    values = np.zeros(space.level_counts)
    for j, g in enumerate(mains):
        shape = [1] * d
        shape[j] = len(g)
        values = values + g.reshape(shape)
    for (j, k), m in pairs.items():
        shape = [1] * d
        shape[j], shape[k] = m.shape
        values = values + m.reshape(shape)

    residual = np.zeros(space.level_counts)
    if spec.residual_scale > 0 and d >= 3:
        triple = sorted(rng.choice(d, size=3, replace=False).tolist())
        t = rng.normal(0.0, spec.residual_scale,
                       size=tuple(space.level_counts[j] for j in triple))
        t = _triple_center(t)
        shape = [1] * d
        for pos, j in enumerate(triple):
            shape[j] = t.shape[pos]
        residual = residual + t.reshape(shape)
    values = values + residual

    truth = EffectTable(
        space=space,
        reference=ReferenceDistribution.uniform(space),
        mu=0.0,
        mains=tuple(mains),
        pairs=pairs,
        provenance="truth",
    )
    return Teacher(spec, truth, values, residual, bound=float(np.abs(values).max()))


@dataclass(frozen=True)
class TrialResult:
    estimator: str
    recon_error: float
    gap: float
    rho: float
    chosen: Config
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.gap < -1e-12:
            raise ValueError("optimality gap must be nonnegative")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks; ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score vectors must be one-dimensional and equally long")
    if len(a) < 2:
        raise ValueError("need at least two scores")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ValueError("rank correlation is undefined for constant input")
    ra, rb = _rankdata(a), _rankdata(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.dot(ra, rb) / math.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


def reconstruction_error(estimate: EffectTable, truth: EffectTable) -> float:
    """RMS over all main and pair entries of the table difference."""
    diffs = [estimate.mains[j] - truth.mains[j] for j in range(truth.space.num_factors)]
    flat = [d.ravel() for d in diffs]
    for jk in truth.pairs:
        flat.append((estimate.pairs[jk] - truth.pairs[jk]).ravel())
    stacked = np.concatenate(flat)
    return float(np.sqrt(np.mean(stacked * stacked)))


def error_decomposition(estimate: EffectTable, truth: EffectTable,
                        teacher: Teacher) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-config (prediction - truth), effect-estimation error, and the
    baseline deviation; prediction - truth = baseline_dev + eps - residual."""
    pred = predict_grid(estimate)
    lhs = pred - teacher.values
    eps = pred - predict_grid(truth) - (estimate.mu - truth.mu)
    baseline = np.full(teacher.values.shape, estimate.mu - truth.mu)
    return lhs, eps, baseline


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def make_log(teacher: Teacher, design: Sequence[Config], seeds_per_point: int,
             seed: int = 0) -> RunLog:
    """Evaluate the teacher at each design point under ``seeds_per_point``
    noise draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    configs = []
    responses = []
    seeds = []
    noise = rng.normal(0.0, teacher.spec.noise, size=(len(design), seeds_per_point)) \
        if teacher.spec.noise > 0 else np.zeros((len(design), seeds_per_point))
    for i, x in enumerate(design):
        base = teacher.response(x)
        for s in range(seeds_per_point):
            configs.append(x)
            responses.append(base + noise[i, s])
            seeds.append(s)
    return log_from_arrays(teacher.space, configs, responses, seeds=seeds)


def fit_from_oracle(oracle: ValueOracle, eval_set: Sequence[Config],
                    reference: ReferenceDistribution | None = None,
                    shrinkage: ShrinkageSpec | None = None, *,
                    support=None, shap_method: str = "auto",
                    mc_permutations: int = 2000, shap_seed: int = 0) -> EffectTable:
    """Attribution path: Shapley estimates at each evaluation point, then
    least-squares table recovery."""
    space = oracle.space
    reference = reference or oracle.reference
    method = shap_method
    if method == "auto":
        method = "exact" if space.num_factors <= EXACT_SHAPLEY_MAX_FACTORS else "permutation"
    if method == "exact":
        estimates = exact_shapley(oracle, eval_set)
    else:
        children = np.random.SeedSequence(shap_seed).spawn(len(eval_set))
        estimates = [
            mc_shapley(oracle, x, M=mc_permutations,
                       seed=int(child.generate_state(1)[0]), method=method)
            for x, child in zip(eval_set, children)
        ]
    return fit_effects_sf(
        estimates, space, reference, shrinkage, support=support, mu=oracle.v_empty,
    )


def _sf_eval_set(log: RunLog, eval_grid_cap: int) -> tuple[Config, ...]:
    space = log.space
    if space.grid_size <= eval_grid_cap:
        return tuple(enumerate_grid(space))
    return tuple(dict.fromkeys(tuple(c) for c in log.configs_array.tolist()))


def estimate_from_log(log: RunLog, estimator: str,
                      reference: ReferenceDistribution | None = None,
                      shrinkage: ShrinkageSpec | None = None,
                      shap_method: str = "auto", mc_permutations: int = 2000,
                      shap_seed: int = 0,
                      eval_grid_cap: int = EVAL_GRID_CAP) -> EffectTable:
    """Run one estimation path end to end on a log.

    The attribution path evaluates Shapley values of the log-backed value
    oracle over the full grid when it is small enough (always identifiable),
    otherwise over the observed configurations.
    """
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    estimator = estimator.upper()
    if estimator == "CM":
        return estimate_effects_cm(log, reference, shrinkage)
    if estimator != "SF":
        raise ValueError(f"unknown estimator {estimator!r}; expected CM or SF")
    oracle = ValueOracle.from_log(log, reference, warn=False)
    return fit_from_oracle(
        oracle, _sf_eval_set(log, eval_grid_cap), reference, shrinkage,
        support=support_counts(log), shap_method=shap_method,
        mc_permutations=mc_permutations, shap_seed=shap_seed,
    )


def run_trial(teacher: Teacher, plan: DesignPlan, seeds_per_point: int,
              estimator: str, objective_spec: ObjectiveSpec | None = None,
              search: SearchSpec | None = None, *, trial_seed: int = 0,
              reference: ReferenceDistribution | None = None,
              shrinkage: ShrinkageSpec | None = None,
              shap_method: str = "auto", mc_permutations: int = 2000,
              mains_only: bool = False, cost: CostModel | None = None,
              oracle_source: str = "teacher") -> TrialResult:
    """Design -> log -> estimate -> search -> score against ground truth.

    The attribution path's coalition values come from the simulation teacher
    under fresh observation noise (``oracle_source="teacher"``, the
    simulation protocol: the teacher is queryable at mixed configurations)
    or from the observed cell means only (``"log"``, the budget-matched mode
    used for ingested logs).
    """
    space = teacher.space
    root = np.random.SeedSequence(trial_seed)
    design_seed, noise_seed, shap_seed, search_seed, oracle_seed = (
        int(c.generate_state(1)[0]) for c in root.spawn(5)
    )
    design = sample_design(space, plan, design_seed)
    log = make_log(teacher, design, seeds_per_point, seed=noise_seed)
    estimator = estimator.upper()
    if estimator == "SF" and oracle_source == "teacher":
        ref = reference or ReferenceDistribution.uniform(space)
        rng = np.random.default_rng(np.random.SeedSequence(oracle_seed))
        values = teacher.values
        if teacher.spec.noise > 0:
            values = values + rng.normal(
                0.0, teacher.spec.noise / math.sqrt(seeds_per_point), size=values.shape
            )
        oracle = ValueOracle(space, ref, values)
        table = fit_from_oracle(
            oracle, _sf_eval_set(log, EVAL_GRID_CAP), ref, shrinkage,
            support=support_counts(log), shap_method=shap_method,
            mc_permutations=mc_permutations, shap_seed=shap_seed,
        )
    elif estimator == "SF" and oracle_source != "log":
        raise ValueError(f"unknown oracle source {oracle_source!r}")
    else:
        table = estimate_from_log(
            log, estimator, reference, shrinkage,
            shap_method=shap_method, mc_permutations=mc_permutations, shap_seed=shap_seed,
        )
    if mains_only:
        table = table.with_zero_pairs()

    objective_spec = objective_spec or ObjectiveSpec()
    search = search or SearchSpec(seed=search_seed)
    support = support_counts(log)
    chosen, _ = multistart(table, support, objective_spec, cost, search)

    truth_values = teacher.values
    best = np.unravel_index(int(np.argmax(truth_values)), truth_values.shape)
    gap = float(truth_values[best] - truth_values[chosen])
    rho = spearman(predict_grid(table).ravel(), truth_values.ravel())
    recon = reconstruction_error(table, teacher.truth)
    return TrialResult(
        estimator=estimator.upper(),
        recon_error=recon,
        gap=gap,
        rho=rho,
        chosen=tuple(int(v) for v in chosen),
        diagnostics=table.diagnostics,
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    trials: int = 100
    seed: int = 0
    num_factors: int = 6
    main_scale: float = 1.0
    pair_scale: float = 0.5
    residual_scale: float = 0.1
    noise: float = 0.1
    design_n: int = 432
    seeds_per_point: int = 2
    robustness_n: int = 24
    robustness_seeds: int = 4
    skew_bias: float = 3.0
    seed_budgets: tuple[int, ...] = (2, 4, 8, 16)
    mc_permutations: int = 2000

    def describe(self) -> dict:
        out = dict(self.__dict__)
        out["seed_budgets"] = list(self.seed_budgets)
        return out

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _teacher_for_trial(config: SuiteConfig, trial: int) -> Teacher:
    seed = int(np.random.SeedSequence((config.seed, trial)).generate_state(1)[0])
    spec = TeacherSpec(
        default_space(config.num_factors),
        main_scale=config.main_scale,
        pair_scale=config.pair_scale,
        residual_scale=config.residual_scale,
        noise=config.noise,
        seed=seed,
    )
    return gen_teacher(spec)


def _trial_seed(config: SuiteConfig, trial: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence((config.seed, trial, salt)).generate_state(1)[0])


def _summarize(rows: list[dict], axis: str, cell: str, estimator: str,
               metrics: Mapping[str, np.ndarray], n_trials: int, digest: str) -> None:
    for metric, values in metrics.items():
        values = np.asarray(values, dtype=float)
        rows.append({
            "axis": axis,
            "cell": cell,
            "estimator": estimator,
            "metric": metric,
            "mean": float(values.mean()),
            "ci_lo": float(np.percentile(values, 2.5)),
            "ci_hi": float(np.percentile(values, 97.5)),
            "n_trials": n_trials,
            "config_hash": digest,
        })


def comparison_suite(config: SuiteConfig | None = None) -> list[dict]:
    """Head-to-head CM vs SF on balanced designs: reconstruction error,
    optimality gap, and rank correlation, paired across trials."""
    config = config or SuiteConfig()
    digest = config.digest()
    results: dict[str, dict[str, list[float]]] = {
        est: {"recon": [], "gap": [], "rho": []} for est in ("CM", "SF")
    }
    plan = DesignPlan.balanced(config.design_n)
    for t in range(config.trials):
        teacher = _teacher_for_trial(config, t)
        seed = _trial_seed(config, t)
        for est in ("CM", "SF"):
            r = run_trial(teacher, plan, config.seeds_per_point, est,
                          trial_seed=seed, mc_permutations=config.mc_permutations)
            results[est]["recon"].append(r.recon_error)
            results[est]["gap"].append(r.gap)
            results[est]["rho"].append(r.rho)
    rows: list[dict] = []
    for est in ("CM", "SF"):
        _summarize(rows, "comparison", "balanced", est,
                   results[est], config.trials, digest)
    return rows


def ablation_suite(axis: str, config: SuiteConfig | None = None) -> list[dict]:
    """One ablation axis: effects order, design robustness, attribution
    background, or seed budget. Emits per-cell means with percentile CIs."""
    config = config or SuiteConfig()
    digest = config.digest()
    rows: list[dict] = []

    if axis == "effects-order":
        cells = {"pairwise": False, "mains-only": True}
        plan = DesignPlan.balanced(config.design_n)
        for cell, mains_only in cells.items():
            for est in ("CM", "SF"):
                gaps, rhos = [], []
                for t in range(config.trials):
                    teacher = _teacher_for_trial(config, t)
                    r = run_trial(teacher, plan, config.seeds_per_point, est,
                                  trial_seed=_trial_seed(config, t),
                                  mc_permutations=config.mc_permutations,
                                  mains_only=mains_only)
                    gaps.append(r.gap)
                    rhos.append(r.rho)
                _summarize(rows, axis, cell, est,
                           {"gap": gaps, "rho": rhos}, config.trials, digest)

    elif axis == "design-robustness":
        plans = {
            "balanced": DesignPlan.balanced(config.robustness_n),
            "skewed": DesignPlan.skewed(config.robustness_n, config.skew_bias),
        }
        for cell, plan in plans.items():
            for est in ("CM", "SF"):
                gaps, rhos = [], []
                for t in range(config.trials):
                    teacher = _teacher_for_trial(config, t)
                    r = run_trial(teacher, plan, config.robustness_seeds, est,
                                  trial_seed=_trial_seed(config, t),
                                  mc_permutations=config.mc_permutations)
                    gaps.append(r.gap)
                    rhos.append(r.rho)
                _summarize(rows, axis, cell, est,
                           {"gap": gaps, "rho": rhos}, config.trials, digest)

    elif axis == "shap-background":
        plan = DesignPlan.balanced(config.robustness_n)
        for cell in ("uniform", "empirical"):
            gaps, rhos = [], []
            for t in range(config.trials):
                teacher = _teacher_for_trial(config, t)
                seed = _trial_seed(config, t)
                if cell == "uniform":
                    reference = None
                else:
                    # Product of the log's per-factor marginals; built from the
                    # same design the trial will draw.
                    root = np.random.SeedSequence(seed)
                    design_seed = int(root.spawn(4)[0].generate_state(1)[0])
                    design = sample_design(teacher.space, plan, design_seed)
                    probe = log_from_arrays(teacher.space, design, [0.0] * len(design))
                    reference = ReferenceDistribution.empirical(probe).product_marginals()
                r = run_trial(teacher, plan, config.robustness_seeds, "SF",
                              trial_seed=seed, reference=reference,
                              mc_permutations=config.mc_permutations)
                gaps.append(r.gap)
                rhos.append(r.rho)
            _summarize(rows, axis, cell, "SF",
                       {"gap": gaps, "rho": rhos}, config.trials, digest)
        gaps, rhos = [], []
        for t in range(config.trials):
            teacher = _teacher_for_trial(config, t)
            r = run_trial(teacher, plan, config.robustness_seeds, "CM",
                          trial_seed=_trial_seed(config, t))
            gaps.append(r.gap)
            rhos.append(r.rho)
        _summarize(rows, axis, "cm-ref", "CM",
                   {"gap": gaps, "rho": rhos}, config.trials, digest)

    elif axis == "seed-budget":
        # The complete grid isolates the seed effect: both paths coincide on
        # full designs, so the curve reflects noise averaging alone.
        plan = DesignPlan.full()
        for budget in config.seed_budgets:
            for est in ("CM", "SF"):
                gaps, rhos = [], []
                for t in range(config.trials):
                    teacher = _teacher_for_trial(config, t)
                    r = run_trial(teacher, plan, budget, est,
                                  trial_seed=_trial_seed(config, t),
                                  mc_permutations=config.mc_permutations)
                    gaps.append(r.gap)
                    rhos.append(r.rho)
                _summarize(rows, axis, str(budget), est,
                           {"gap": gaps, "rho": rhos}, config.trials, digest)
    else:
        raise ValueError(
            f"unknown ablation axis {axis!r}; expected effects-order, "
            "design-robustness, shap-background, or seed-budget"
        )
    return rows
