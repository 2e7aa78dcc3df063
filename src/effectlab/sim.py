"""Synthetic teachers with known ground truth, trial runner, and ablations.

A teacher is an exactly centered second-order function plus an optional
centered three-factor residual; observations add Gaussian noise. A trial
samples a design, builds a log, estimates effects through one of the two
paths, searches for the best configuration, and scores the outcome against
the ground truth. An SF trial's tables are the reference projection of its
value tensor over the grid; under a uniform reference that is what least
squares recovers from exact Shapley values on the full grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .effects import EffectTable, ShrinkageSpec, _estimate_batch, _finalize, percentile
from .objective import ObjectiveSpec, PairwiseObjective, broadcast_sum, predict_grid
from .optimize import SearchSpec, multistart_each
from .shapley import ValueOracle, reference_projection
from .space import (
    Config,
    DesignPlan,
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    build_space,
    log_from_arrays,
    sample_design,
    support_counts,
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
    SF samples no attributions and leaves its seed unused; it is still
    spawned so that the other four keep their values."""
    children = np.random.SeedSequence(trial_seed).spawn(5)
    return tuple(int(child.generate_state(1)[0]) for child in children)


class _Trial(NamedTuple):
    """One trial of a batch: its teacher, design plan, noise draws per
    design point, seed, and whether its table keeps only main effects."""
    teacher: Teacher
    plan: DesignPlan
    seeds_per_point: int
    seed: int
    mains_only: bool


def _run_trials(trials: Sequence[_Trial], estimator: str,
                reference: ReferenceDistribution | None = None,
                shrinkage: ShrinkageSpec | None = None,
                oracle_source: str = "teacher") -> list[TrialResult]:
    """``run_trial`` of every trial at once, all on one space, estimator and
    reference. Each trial in turn samples its design and log and reduces
    them to cell sums, an SF trial also taking its value tensor over the
    grid, so one log is held at a time. Then one ``_estimate_batch`` (CM) or one
    ``reference_projection`` of the stacked tensors (SF) estimates every
    table, and one ``multistart_each`` searches all (trial, restart) rows.
    Each trial's result is its own within rounding, with the same chosen
    configuration."""
    space = trials[0].teacher.space
    estimator = estimator.upper()
    if estimator not in ("CM", "SF"):
        raise ValueError(f"unknown estimator {estimator!r}; expected CM or SF")
    if estimator == "SF" and oracle_source not in ("teacher", "log"):
        raise ValueError(f"unknown oracle source {oracle_source!r}")
    reference = reference or ReferenceDistribution.uniform(space)
    if estimator == "SF" and oracle_source == "log":
        reference = reference.product_marginals()
    seeds = [_trial_seeds(trial.seed) for trial in trials]
    supports, mu, values = [], [], []
    for trial, (design_seed, noise_seed, _, _, oracle_seed) in zip(trials, seeds):
        log = make_log(trial.teacher, sample_design(space, trial.plan, design_seed),
                       trial.seeds_per_point, seed=noise_seed)
        supports.append(support_counts(log))
        if estimator == "CM":
            mu.append((log.weights * log.responses).sum() / log.weights.sum())
        elif oracle_source == "teacher":
            # The simulation protocol queries the teacher at every
            # configuration under fresh noise.
            values.append(_noisy_values(trial, oracle_seed))
        else:  # the observed cell means only
            values.append(ValueOracle.from_log(log, reference).values)
    # One SupportCounts for the batch, each array with a trial axis after the first.
    support = SupportCounts(
        space, tuple(np.stack(s, axis=1) for s in zip(*(sc.level_sums for sc in supports))),
        {jk: np.stack([sc.pair_sums[jk] for sc in supports], axis=1) for jk in space.pairs()})
    shrinkage = shrinkage or ShrinkageSpec()
    if estimator == "CM":
        mu = np.array(mu)
        mains, pairs, _ = _estimate_batch(support.level_sums, support.pair_sums, mu, reference,
                                          shrinkage)
    else:
        mu, mains, pairs = reference_projection(np.stack(values), reference)
        mains, pairs = _finalize(reference, mains, pairs, shrinkage, support.level_counts,
                                 support.pair_counts)
    mains_only = np.array([trial.mains_only for trial in trials])
    if mains_only.any():
        for h in pairs.values():
            h[mains_only] = 0.0

    # The batch's tables, each array with a leading trial axis.
    tables = SimpleNamespace(mu=mu, mains=mains, pairs=pairs)
    model = PairwiseObjective.build(tables, support, ObjectiveSpec())
    searched = multistart_each(model, mains, SearchSpec(), [s[3] for s in seeds])
    results = []
    for t, (trial, (chosen, _)) in enumerate(zip(trials, searched)):
        table = EffectTable(space, reference, float(mu[t]), tuple(g[t] for g in mains),
                            {jk: h[t] for jk, h in pairs.items()}, provenance=estimator)
        truth = trial.teacher.values
        results.append(TrialResult(
            estimator=estimator,
            recon_error=reconstruction_error(table, trial.teacher.truth),
            gap=float(truth.max() - truth[chosen]),
            rho=spearman(predict_grid(table).ravel(), truth.ravel()),
            chosen=chosen,
        ))
    return results


def _noisy_values(trial: _Trial, oracle_seed: int) -> np.ndarray:
    """The teacher's grid values under one fresh draw of observation noise,
    averaged over the trial's seeds per point."""
    values = trial.teacher.values
    noise = trial.teacher.spec.noise
    if noise > 0:
        rng = np.random.default_rng(np.random.SeedSequence(oracle_seed))
        values = values + rng.normal(0.0, noise / math.sqrt(trial.seeds_per_point),
                                     size=values.shape)
    return values


def run_trial(teacher: Teacher, plan: DesignPlan, seeds_per_point: int,
              estimator: str, *, trial_seed: int = 0,
              reference: ReferenceDistribution | None = None,
              shrinkage: ShrinkageSpec | None = None, mains_only: bool = False,
              oracle_source: str = "teacher") -> TrialResult:
    """Design -> log -> estimate -> search -> score against ground truth:
    the suites' batch code on a batch of one.

    The SF path's tables are the reference projection of a value tensor
    over the grid: the simulation teacher's values under fresh observation
    noise (``oracle_source="teacher"``, the simulation protocol: the teacher
    is queryable at every configuration) or the observed cell means, the
    unobserved cells padded with the log's mean response (``"log"``, the
    budget-matched mode). Trials given one ``reference`` share its pair
    centerers.
    """
    (result,) = _run_trials([_Trial(teacher, plan, seeds_per_point, trial_seed, mains_only)],
                            estimator, reference, shrinkage, oracle_source)
    return result


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

# Trial indices per suite batch. A batch holds these trials of every
# uniform-background cell of one estimator, so no array grows with the
# trial count.
TRIAL_CHUNK = 16


def _suite_rows(axis: str, cells: list[tuple], config: SuiteConfig, metrics: Sequence[str],
                batch_sizes: list[int] | None = None) -> list[dict]:
    """Run ``config.trials`` trials per estimator of every (cell, estimators,
    plan, seeds per point, background, mains only) cell, one teacher per
    trial index; each named metric gets its mean and 95% percentile interval.

    Trial indices go in chunks of ``TRIAL_CHUNK``. Per chunk and estimator,
    the uniform-background trials of every cell run as one batch on one
    reference; an empirical-background trial runs alone on its own
    reference. Each batch's size is appended to ``batch_sizes`` when given.
    """
    digest = config.digest()
    space = default_space(config.num_factors)
    uniform = ReferenceDistribution.uniform(space)
    results: dict[tuple[str, str], list[TrialResult]] = {
        (cell[0], est): [] for cell in cells for est in cell[1]}
    for first in range(0, config.trials, TRIAL_CHUNK):
        chunk = range(first, min(first + TRIAL_CHUNK, config.trials))
        teachers = [_teacher_for_trial(config, t, space) for t in chunk]
        for est in dict.fromkeys(est for cell in cells for est in cell[1]):
            shared, batches = [], []
            for cell, estimators, plan, seeds_per_point, background, mains_only in cells:
                if est not in estimators:
                    continue
                for t, teacher in zip(chunk, teachers):
                    job = (cell, _Trial(teacher, plan, seeds_per_point, _trial_seed(config, t),
                                        mains_only))
                    if background == "empirical":
                        batches.append((_empirical_reference(space, job[1]), [job]))
                    else:
                        shared.append(job)
            if shared:
                batches.append((uniform, shared))
            for reference, jobs in batches:
                done = _run_trials([trial for _, trial in jobs], est, reference)
                for (cell, _), result in zip(jobs, done):
                    results[(cell, est)].append(result)
                if batch_sizes is not None:
                    batch_sizes.append(len(jobs))
    rows: list[dict] = []
    for (cell, est), got in results.items():
        for metric in metrics:
            values = np.array([getattr(r, _TRIAL_METRICS[metric]) for r in got])
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


def _empirical_reference(space: FactorSpace, trial: _Trial) -> ReferenceDistribution:
    """Product of the per-factor level shares of the design the trial will draw."""
    points = sample_design(space, trial.plan, _trial_seeds(trial.seed)[0])
    return ReferenceDistribution.from_marginals(space, [
        np.bincount(points[:, j], minlength=L) / len(points)
        for j, L in enumerate(space.level_counts)])


def comparison_suite(config: SuiteConfig | None = None,
                     batch_sizes: list[int] | None = None) -> list[dict]:
    """Head-to-head CM vs SF on balanced designs: reconstruction error,
    optimality gap, and rank correlation, paired across trials. The size of
    every trial batch run is appended to ``batch_sizes`` when given."""
    config = config or SuiteConfig()
    cell = ("balanced", ("CM", "SF"), DesignPlan.balanced(config.design_n),
            config.seeds_per_point, "uniform", False)
    return _suite_rows("comparison", [cell], config, ("recon", "gap", "rho"), batch_sizes)


def ablation_suite(axis: str, config: SuiteConfig | None = None,
                   batch_sizes: list[int] | None = None) -> list[dict]:
    """One ablation axis: effects order, design robustness, attribution
    background, or seed budget. Emits per-cell means with percentile CIs,
    and appends the size of every trial batch run to ``batch_sizes`` when
    given."""
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
    return _suite_rows(axis, axes[axis], config, ("gap", "rho"), batch_sizes)
