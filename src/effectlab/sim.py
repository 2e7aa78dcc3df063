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
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .effects import EffectTable, ShrinkageSpec, estimate_from_log, percentile
from .objective import ObjectiveSpec, PairwiseObjective, broadcast_sum, predict_grid
from .optimize import SearchSpec, multistart
from .shapley import EffectDesignMatrix, ValueOracle, fit_from_oracle, grid_design
from .space import (
    Config,
    DesignPlan,
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    build_space,
    log_from_arrays,
    sample_design,
)


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

    truth = EffectTable(
        space=space,
        reference=ReferenceDistribution.uniform(space),
        mu=0.0,
        mains=tuple(mains),
        pairs=pairs,
        provenance="truth",
    )
    residual = np.zeros(space.level_counts)
    if spec.residual_scale > 0 and d >= 3:
        triple = sorted(rng.choice(d, size=3, replace=False).tolist())
        t = rng.normal(0.0, spec.residual_scale,
                       size=tuple(space.level_counts[j] for j in triple))
        residual = broadcast_sum(residual, [(triple, _triple_center(t))])
    values = predict_grid(truth) + residual
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
    """Average ranks; ties share the mean of their positions. A tie group
    at sorted positions i..j has j + 1 - (j - i) / 2 = (i + j) / 2 + 1."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


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


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def make_log(teacher: Teacher, design: ArrayLike, seeds_per_point: int,
             seed: int = 0) -> RunLog:
    """Evaluate the teacher at each design point under ``seeds_per_point``
    noise draws; point i's records come in seed order before point i + 1's."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = np.asarray(design, dtype=np.intp).reshape(len(design), teacher.space.num_factors)
    shape = (len(points), seeds_per_point)
    noise = rng.normal(0.0, teacher.spec.noise, size=shape) \
        if teacher.spec.noise > 0 else np.zeros(shape)
    base = teacher.values[tuple(points.T)]
    return log_from_arrays(teacher.space, np.repeat(points, seeds_per_point, axis=0),
                           (base[:, None] + noise).ravel(),
                           seeds=np.tile(np.arange(seeds_per_point), len(points)))


def _trial_seeds(trial_seed: int) -> tuple[int, int, int, int, int]:
    """Design, noise, attribution, search and oracle seeds of one trial.
    Attribution is exact and leaves its seed unused; it is still spawned so
    that the other four keep their values."""
    children = np.random.SeedSequence(trial_seed).spawn(5)
    return tuple(int(child.generate_state(1)[0]) for child in children)


def run_trial(teacher: Teacher, plan: DesignPlan, seeds_per_point: int,
              estimator: str, *, trial_seed: int = 0,
              reference: ReferenceDistribution | None = None,
              shrinkage: ShrinkageSpec | None = None, mains_only: bool = False,
              oracle_source: str = "teacher",
              design: EffectDesignMatrix | None = None) -> TrialResult:
    """Design -> log -> estimate -> search -> score against ground truth.

    The attribution path's coalition values come from the simulation teacher
    under fresh observation noise (``oracle_source="teacher"``, the
    simulation protocol: the teacher is queryable at mixed configurations)
    or from the observed cell means only (``"log"``, the budget-matched mode
    used for ingested logs). Trials given one ``reference`` share its pair
    centerers, and with its ``grid_design`` as ``design`` its SF design too.
    """
    space = teacher.space
    design_seed, noise_seed, _, search_seed, oracle_seed = _trial_seeds(trial_seed)
    points = sample_design(space, plan, design_seed)
    log = make_log(teacher, points, seeds_per_point, seed=noise_seed)
    estimator = estimator.upper()
    if estimator == "SF" and oracle_source == "teacher":
        ref = reference or ReferenceDistribution.uniform(space)
        rng = np.random.default_rng(np.random.SeedSequence(oracle_seed))
        values = teacher.values
        if teacher.spec.noise > 0:
            values = values + rng.normal(
                0.0, teacher.spec.noise / math.sqrt(seeds_per_point), size=values.shape
            )
        table = fit_from_oracle(ValueOracle(space, ref, values), log, shrinkage, design=design)
    elif estimator == "SF" and oracle_source != "log":
        raise ValueError(f"unknown oracle source {oracle_source!r}")
    else:
        table = estimate_from_log(log, estimator, reference, shrinkage)
    if mains_only:
        table = table.with_zero_pairs()

    model = PairwiseObjective.build(table, table.support, ObjectiveSpec())
    chosen, _ = multistart(model, table.mains, SearchSpec(seed=search_seed))

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
    # Recorded only: attribution is exact and samples no permutations. The
    # field stays because suite_config.json and config_hash include it.
    mc_permutations: int = 2000

    def __post_init__(self):
        for name in ("trials", "design_n", "seeds_per_point", "robustness_n", "robustness_seeds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if min(self.seed_budgets, default=1) < 1:
            raise ValueError(f"seed_budgets entries must be at least 1, got {self.seed_budgets!r}")

    def describe(self) -> dict:
        out = dict(self.__dict__)
        out["seed_budgets"] = list(self.seed_budgets)
        return out

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _teacher_for_trial(config: SuiteConfig, trial: int, space: FactorSpace) -> Teacher:
    seed = int(np.random.SeedSequence((config.seed, trial)).generate_state(1)[0])
    spec = TeacherSpec(
        space,
        main_scale=config.main_scale,
        pair_scale=config.pair_scale,
        residual_scale=config.residual_scale,
        noise=config.noise,
        seed=seed,
    )
    return gen_teacher(spec)


def _trial_seed(config: SuiteConfig, trial: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence((config.seed, trial, salt)).generate_state(1)[0])


# Metric name in the suite rows -> TrialResult field.
_TRIAL_METRICS = {"recon": "recon_error", "gap": "gap", "rho": "rho"}


def _suite_rows(axis: str, cells: list[tuple], config: SuiteConfig,
                metrics: Sequence[str]) -> list[dict]:
    """Run ``config.trials`` trials per estimator of every (cell, estimators,
    plan, seeds per point, background, mains only) cell, one teacher per
    trial index; each named metric gets its mean and 95% percentile interval.
    Uniform-background trials share one reference and its SF grid design."""
    digest = config.digest()
    space = default_space(config.num_factors)
    teachers = [_teacher_for_trial(config, t, space) for t in range(config.trials)]
    uniform = ReferenceDistribution.uniform(space)
    uniform_design = grid_design(space, uniform)
    rows: list[dict] = []
    for cell, estimators, plan, seeds_per_point, background, mains_only in cells:
        for est in estimators:
            results = []
            for t, teacher in enumerate(teachers):
                seed = _trial_seed(config, t)
                reference = uniform
                if background == "empirical":
                    # Product of the log's per-factor marginals; built from
                    # the same design the trial will draw.
                    points = sample_design(space, plan, _trial_seeds(seed)[0])
                    probe = log_from_arrays(space, points, np.zeros(len(points)))
                    reference = ReferenceDistribution.empirical(probe).product_marginals()
                results.append(run_trial(teacher, plan, seeds_per_point, est, trial_seed=seed,
                                         reference=reference, mains_only=mains_only,
                                         design=uniform_design if reference is uniform else None))
            for metric in metrics:
                values = np.array([getattr(r, _TRIAL_METRICS[metric]) for r in results])
                ci_lo, ci_hi = percentile(values, [2.5, 97.5]).tolist()
                rows.append({
                    "axis": axis,
                    "cell": cell,
                    "estimator": est,
                    "metric": metric,
                    "mean": float(values.mean()),
                    "ci_lo": ci_lo,
                    "ci_hi": ci_hi,
                    "n_trials": config.trials,
                    "config_hash": digest,
                })
    return rows


def comparison_suite(config: SuiteConfig | None = None) -> list[dict]:
    """Head-to-head CM vs SF on balanced designs: reconstruction error,
    optimality gap, and rank correlation, paired across trials."""
    config = config or SuiteConfig()
    cell = ("balanced", ("CM", "SF"), DesignPlan.balanced(config.design_n),
            config.seeds_per_point, "uniform", False)
    return _suite_rows("comparison", [cell], config, ("recon", "gap", "rho"))


def ablation_suite(axis: str, config: SuiteConfig | None = None) -> list[dict]:
    """One ablation axis: effects order, design robustness, attribution
    background, or seed budget. Emits per-cell means with percentile CIs."""
    config = config or SuiteConfig()
    both = ("CM", "SF")
    wide = DesignPlan.balanced(config.design_n)
    small = DesignPlan.balanced(config.robustness_n)
    skewed = DesignPlan.skewed(config.robustness_n, config.skew_bias)
    few = config.robustness_seeds
    # (cell, estimators, plan, seeds per point, background, mains only)
    axes = {
        "effects-order": [
            ("pairwise", both, wide, config.seeds_per_point, "uniform", False),
            ("mains-only", both, wide, config.seeds_per_point, "uniform", True),
        ],
        "design-robustness": [
            ("balanced", both, small, few, "uniform", False),
            ("skewed", both, skewed, few, "uniform", False),
        ],
        # A skewed design, so the empirical background differs from uniform.
        "shap-background": [
            ("uniform", ("SF",), skewed, few, "uniform", False),
            ("empirical", ("SF",), skewed, few, "empirical", False),
            ("cm-ref", ("CM",), skewed, few, "uniform", False),
        ],
        # The complete grid isolates the seed effect: both paths coincide on
        # full designs, so the curve reflects noise averaging alone.
        "seed-budget": [(str(budget), both, DesignPlan.full(), budget, "uniform", False)
                        for budget in config.seed_budgets],
    }
    if axis not in axes:
        raise ValueError(f"unknown ablation axis {axis!r}; expected {', '.join(axes)}")
    return _suite_rows(axis, axes[axis], config, ("gap", "rho"))
