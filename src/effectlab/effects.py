"""Cell-mean estimation of main effects and pairwise interactions.

The estimators follow the plug-in recipe: a weighted baseline, weighted
conditional means per level and per level pair, differencing to raw effects,
exact re-centering under the reference distribution, multiplicative
shrinkage of weakly supported entries, and a final re-centering so the
table invariants hold exactly. Uncertainty comes from resampling whole
records with replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .space import (
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    cell_sums,
    distinct_configs,
    pair_cell_labels,
    support_counts,
)


class EmptyCellError(LookupError):
    """A conditional mean was requested for a cell with no support."""


@dataclass(frozen=True)
class ShrinkageSpec:
    """Pseudo-count shrinkage strengths: eta = n / (n + tau).

    Scalars apply to every factor / pair; mappings override per factor name
    or per ``"name_j|name_k"`` pair key.
    """

    tau_main: float | Mapping[str, float] = 1.0
    tau_pair: float | Mapping[str, float] = 1.0

    def __post_init__(self):
        for name in ("tau_main", "tau_pair"):
            tau = getattr(self, name)
            values = tau.values() if isinstance(tau, Mapping) else [tau]
            for v in values:
                if not (math.isfinite(v) and v > 0):
                    raise ValueError(f"{name} must be finite and strictly positive, got {v!r}")

    def main(self, space: FactorSpace, j: int) -> float:
        if isinstance(self.tau_main, Mapping):
            return float(self.tau_main[space.names[j]])
        return float(self.tau_main)

    def pair(self, space: FactorSpace, j: int, k: int) -> float:
        if isinstance(self.tau_pair, Mapping):
            return float(self.tau_pair[f"{space.names[j]}|{space.names[k]}"])
        return float(self.tau_pair)


@dataclass(eq=False)
class EffectTable:
    """Baseline plus centered main-effect and pair-interaction tables.

    ``mains[j]`` holds the centered, shrunk effect per level of factor ``j``;
    ``pairs[(j, k)]`` (j < k) holds the doubly centered interaction matrix.
    ``level_means[j]`` keeps the raw weighted conditional means that the
    effects were derived from (NaN where unsupported). A cell is unsupported
    where its summed weight in ``support`` is zero. ``replicates`` holds
    the bootstrap estimates behind the intervals, when there are any;
    ``attributions`` holds the Shapley estimates an SF table was fit to.
    """

    space: FactorSpace
    reference: ReferenceDistribution
    mu: float
    mains: tuple[np.ndarray, ...]
    pairs: dict[tuple[int, int], np.ndarray]
    support: SupportCounts | None = None
    provenance: str = "CM"
    level_means: tuple[np.ndarray, ...] | None = None
    mu_ci: np.ndarray | None = None
    mains_ci: tuple[np.ndarray, ...] | None = None
    pairs_ci: dict[tuple[int, int], np.ndarray] | None = None
    level_means_ci: tuple[np.ndarray, ...] | None = None
    diagnostics: dict | None = None
    replicates: BootstrapReplicates | None = None
    attributions: tuple | None = None

    def main(self, j: int) -> np.ndarray:
        return self.mains[j]

    def pair(self, j: int, k: int) -> np.ndarray:
        if j < k:
            return self.pairs[(j, k)]
        return self.pairs[(k, j)].T

    def with_zero_pairs(self) -> "EffectTable":
        zeros = {jk: np.zeros_like(mat) for jk, mat in self.pairs.items()}
        return replace(self, pairs=zeros)

    def to_dict(self) -> dict:
        space = self.space
        mains = {
            f.name: {lbl: float(v) for lbl, v in zip(f.levels, g)}
            for f, g in zip(space.factors, self.mains)
        }
        pairs = {
            f"{space.names[j]}|{space.names[k]}":
                dict(zip(pair_cell_labels(space, j, k), mat.ravel().tolist()))
            for (j, k), mat in self.pairs.items()
        }
        out = {
            "mu": self.mu,
            "mains": mains,
            "pairs": pairs,
            "provenance": self.provenance,
            "reference": self.reference.describe(),
            "support": self.support.to_dict() if self.support is not None else None,
        }
        ci = {}
        if self.mu_ci is not None:
            ci["mu"] = [float(self.mu_ci[0]), float(self.mu_ci[1])]
        if self.mains_ci is not None:
            ci["mains"] = {
                f.name: {lbl: [float(lo), float(hi)] for lbl, (lo, hi) in zip(f.levels, arr)}
                for f, arr in zip(space.factors, self.mains_ci)
            }
        if self.pairs_ci is not None:
            ci["pairs"] = {
                f"{space.names[j]}|{space.names[k]}":
                    dict(zip(pair_cell_labels(space, j, k), mat.reshape(-1, 2).tolist()))
                for (j, k), mat in self.pairs_ci.items()
            }
        out["ci"] = ci or None
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


def table_from_dict(data: Mapping, space: FactorSpace,
                    reference: ReferenceDistribution | None = None) -> EffectTable:
    reference = reference or ReferenceDistribution.uniform(space)
    mains = []
    for f in space.factors:
        row = data["mains"][f.name]
        mains.append(np.array([float(row[lbl]) for lbl in f.levels]))
    pairs = {}
    for j, k in space.pairs():
        cell = data["pairs"][f"{space.names[j]}|{space.names[k]}"]
        values = [float(cell[key]) for key in pair_cell_labels(space, j, k)]
        pairs[(j, k)] = np.array(values).reshape(space.level_counts[j], space.level_counts[k])
    return EffectTable(
        space=space,
        reference=reference,
        mu=float(data["mu"]),
        mains=tuple(mains),
        pairs=pairs,
        provenance=str(data.get("provenance", "CM")),
    )


# ---------------------------------------------------------------------------
# Baseline and conditional means
# ---------------------------------------------------------------------------

def weighted_baseline(log: RunLog) -> float:
    total = float(log.weights.sum())
    if total <= 0:
        raise ValueError("total weight is zero")
    return float(np.dot(log.weights, log.responses) / total)


def conditional_mean(log: RunLog, j: int, level: int) -> float:
    mask = log.configs_array[:, j] == level
    wsum = float(log.weights[mask].sum())
    if wsum <= 0:
        raise EmptyCellError(f"no support for factor {log.space.names[j]!r} level {level}")
    return float(np.dot(log.weights[mask], log.responses[mask]) / wsum)


def conditional_pair_mean(log: RunLog, j: int, lj: int, k: int, lk: int) -> float:
    cfg = log.configs_array
    mask = (cfg[:, j] == lj) & (cfg[:, k] == lk)
    wsum = float(log.weights[mask].sum())
    if wsum <= 0:
        raise EmptyCellError(
            f"no support for pair ({log.space.names[j]!r}={lj}, {log.space.names[k]!r}={lk})"
        )
    return float(np.dot(log.weights[mask], log.responses[mask]) / wsum)


# ---------------------------------------------------------------------------
# Centering
# ---------------------------------------------------------------------------

def center_main(g: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Shift so the pi-weighted mean is exactly zero (along the last axis)."""
    return g - np.expand_dims(np.dot(g, pi), -1)


def double_centerer(joint: np.ndarray):
    """Removal of row and column effects under the joint weights, exactly.

    Returns a function of ``mat``, one matrix or a stack along leading axes,
    that gives each matrix's joint-weighted least-squares residual on row
    plus column effects. A row pass, one solve with the normalized column
    Laplacian (spectrum in [0, 1], a null vector per connected block of the
    support) and a row pass give the limit of alternating passes: zero-mass
    rows and columns get no effect of their own, and per block the column
    effects have zero mass-weighted mean. The solve depends only on the
    joint, so it is built once here.
    """
    row_mass = joint.sum(axis=1)
    col_mass = joint.sum(axis=0)
    cols = col_mass > 0
    # A zero-mass row sums to zero, so any nonzero divisor leaves it as it is.
    row_div = np.where(row_mass > 0, row_mass, 1.0)
    c = col_mass[cols]
    root = np.sqrt(c)
    p = joint[:, cols] / root
    w = (p.T / row_div) @ p
    block = np.linalg.matrix_power((w > 0) | np.eye(len(c), dtype=bool), len(c))
    null = block * (root[:, None] * root) / (block @ c)[:, None]
    solve = (np.linalg.inv(np.eye(len(c)) - w + null) - null) / (root[:, None] * root)

    def center(mat: np.ndarray) -> np.ndarray:
        out = np.array(mat, dtype=float)
        out -= ((joint * out).sum(axis=-1) / row_div)[..., None]
        col_sums = (joint * out).sum(axis=-2)[..., cols]
        # An elementwise product keeps each matrix's result independent of the batch.
        out[..., cols] -= (solve * col_sums[..., None, :]).sum(axis=-1)[..., None, :]
        out -= ((joint * out).sum(axis=-1) / row_div)[..., None]
        return out

    return center


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

BOOTSTRAP_CHUNK = 16  # replicates per batch; bounds the per-configuration sums held at once


def _estimate_batch(level_sums, pair_sums, mu: np.ndarray, space: FactorSpace,
                    marginals: list[np.ndarray], centerers: dict,
                    shrinkage: ShrinkageSpec):
    """The CM estimator on C samples at once.

    ``level_sums`` (one (S, C, L_j) array per factor) and ``pair_sums`` (one
    (S, C, L_j, L_k) array per pair) start with each cell's summed weight,
    weight x response and positive-weight record count, which sets the
    shrinkage. ``mu`` (C,) is each sample's weighted mean response; the
    reference's ``marginals`` and pair ``centerers`` (see ``_centering``)
    center exactly. Returns mains
    (C, L_j), pairs (C, L_j, L_k) and level means (C, L_j) with NaN where a
    level has no weight.
    """
    def means_of(s):
        return np.divide(s[1], s[0], out=np.full(s[0].shape, np.nan), where=s[0] > 0)

    level_means = tuple(means_of(s) for s in level_sums)
    pair_means = {jk: means_of(s) for jk, s in pair_sums.items()}
    mains_missing = tuple(np.isnan(m) for m in level_means)
    pairs_missing = {jk: np.isnan(m) for jk, m in pair_means.items()}

    # Raw differenced effects; empty cells contribute zero.
    mains = [np.where(miss, 0.0, m - mu[:, None]) for m, miss in zip(level_means, mains_missing)]
    filled = [np.where(miss, mu[:, None], m) for m, miss in zip(level_means, mains_missing)]
    pairs = {}
    for (j, k), means in pair_means.items():
        g = means - filled[j][:, :, None] - filled[k][:, None, :] + mu[:, None, None]
        pairs[(j, k)] = np.where(pairs_missing[(j, k)], 0.0, g)

    mains, pairs = _finalize(
        space, mains, pairs, marginals, centerers, shrinkage,
        [s[2] for s in level_sums], {jk: s[2] for jk, s in pair_sums.items()},
        mains_missing, pairs_missing,
    )
    return mains, pairs, level_means


def _finalize(space: FactorSpace, mains, pairs, marginals, centerers, shrinkage: ShrinkageSpec,
              main_counts, pair_counts, mains_missing, pairs_missing):
    """Re-center, shrink every entry by eta = n / (n + tau), re-center.

    ``mains`` and ``pairs`` are raw effect tables with or without a leading
    batch axis; the counts and the masks broadcast against them. Entries
    flagged in the missing masks are zeroed after shrinking. Returns the
    mains as a tuple and the pairs as a new dict.
    """
    mains, pairs = list(mains), dict(pairs)

    def recenter():
        for j in range(space.num_factors):
            mains[j] = center_main(mains[j], marginals[j])
        for jk in pairs:
            pairs[jk] = centerers[jk](pairs[jk])

    recenter()
    for j, n in enumerate(main_counts):
        mains[j] = n / (n + shrinkage.main(space, j)) * mains[j]
        mains[j][mains_missing[j]] = 0.0
    for (j, k), n in pair_counts.items():
        pairs[(j, k)] = n / (n + shrinkage.pair(space, j, k)) * pairs[(j, k)]
        pairs[(j, k)][pairs_missing[(j, k)]] = 0.0
    recenter()
    return tuple(mains), pairs


def _centering(space: FactorSpace, reference: ReferenceDistribution):
    """The reference's marginals and one ``double_centerer`` per pair."""
    marginals = [reference.marginal(j) for j in range(space.num_factors)]
    centerers = {jk: double_centerer(reference.pair(*jk)) for jk in space.pairs()}
    return marginals, centerers


def estimate_effects_cm(log: RunLog, reference: ReferenceDistribution | None = None,
                        shrinkage: ShrinkageSpec | None = None) -> EffectTable:
    """Conditional-mean effect table: raw estimates, exact re-centering,
    pseudo-count shrinkage, and a final re-centering, all from the log's
    per-cell sums."""
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    support = support_counts(log)
    w = log.weights
    mu = (w * log.responses).sum() / w.sum()
    mains, pairs, level_means = _estimate_batch(
        tuple(s[:, None] for s in support.level_sums),
        {jk: s[:, None] for jk, s in support.pair_sums.items()},
        np.array([mu]), space, *_centering(space, reference), shrinkage,
    )
    return EffectTable(
        space=space,
        reference=reference,
        mu=float(mu),
        mains=tuple(g[0] for g in mains),
        pairs={jk: g[0] for jk, g in pairs.items()},
        support=support,
        provenance="CM",
        level_means=tuple(m[0] for m in level_means),
    )


def estimate_from_log(log: RunLog, estimator: str,
                      reference: ReferenceDistribution | None = None,
                      shrinkage: ShrinkageSpec | None = None) -> EffectTable:
    """Run one estimation path end to end on a log.

    CM takes the cell means under ``reference``. SF attributes the log-backed
    value oracle (see ``shapley.fit_from_oracle``) under the product of the
    reference's marginals, so an empirical reference is accepted on both. The
    attribution layer is imported only when SF runs.
    """
    reference = reference or ReferenceDistribution.uniform(log.space)
    estimator = estimator.upper()
    if estimator == "CM":
        return estimate_effects_cm(log, reference, shrinkage)
    if estimator != "SF":
        raise ValueError(f"unknown estimator {estimator!r}; expected CM or SF")
    from .shapley import ValueOracle, fit_from_oracle

    reference = reference.product_marginals()
    oracle = ValueOracle.from_log(log, reference, warn=False)
    return fit_from_oracle(oracle, log, reference, shrinkage)


@dataclass(frozen=True, eq=False)
class BootstrapReplicates:
    """CM estimates of B resamples; every array has a leading replicate axis.

    ``fallback_draws`` counts the draws that picked no weighted record and so
    were replaced by the original sample.
    """

    mu: np.ndarray
    mains: tuple[np.ndarray, ...]
    pairs: dict[tuple[int, int], np.ndarray]
    level_means: tuple[np.ndarray, ...]
    fallback_draws: int


def bootstrap_replicates(log: RunLog, reference: ReferenceDistribution | None = None,
                         shrinkage: ShrinkageSpec | None = None, B: int = 200,
                         seed: int = 0) -> BootstrapReplicates:
    """CM estimates of B resamples of whole records, drawn with replacement.

    Replicate b draws n record indices with the generator of child b of the
    seed sequence, so results do not depend on evaluation order; a draw with
    no positive weight falls back to the original sample. Each draw is
    reduced to weight, weight x response and positive-weight record count
    per distinct configuration, and ``BOOTSTRAP_CHUNK`` draws at a time are
    summed into cells and estimated in one batch.
    """
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    centering = _centering(space, reference)
    w = log.weights
    wy = w * log.responses
    n = len(log)
    units, unit_of = distinct_configs(log.configs_array)
    U = len(units)

    mu = np.empty(B)
    mains = tuple(np.empty((B, L)) for L in space.level_counts)
    pairs = {(j, k): np.empty((B, space.level_counts[j], space.level_counts[k]))
             for j, k in space.pairs()}
    level_means = tuple(np.empty((B, L)) for L in space.level_counts)
    fallback = 0
    children = np.random.SeedSequence(seed).spawn(B)
    for start in range(0, B, BOOTSTRAP_CHUNK):
        chunk = children[start:start + BOOTSTRAP_CHUNK]
        stats = np.empty((3, len(chunk), U))
        for c, child in enumerate(chunk):
            idx = np.random.default_rng(child).integers(0, n, size=n)
            wb = w[idx]
            if not wb.any():  # pathological draw under zero-heavy weights
                idx, wb = np.arange(n), w
                fallback += 1
            key = unit_of[idx]
            stats[0, c] = np.bincount(key, weights=wb, minlength=U)
            stats[1, c] = np.bincount(key, weights=wy[idx], minlength=U)
            stats[2, c] = np.bincount(key[wb > 0], minlength=U)
        totals = stats[:2].sum(axis=-1)
        rows = slice(start, start + len(chunk))
        mu[rows] = totals[1] / totals[0]
        mains_c, pairs_c, means_c = _estimate_batch(
            *cell_sums(units, stats, space), mu[rows], space, *centering, shrinkage
        )
        for j in range(space.num_factors):
            mains[j][rows] = mains_c[j]
            level_means[j][rows] = means_c[j]
        for jk in pairs:
            pairs[jk][rows] = pairs_c[jk]
    return BootstrapReplicates(mu, mains, pairs, level_means, fallback)


def bootstrap_cis(log: RunLog, reference: ReferenceDistribution | None = None,
                  shrinkage: ShrinkageSpec | None = None, B: int = 200,
                  level: float = 0.95, seed: int = 0) -> EffectTable:
    """Percentile intervals from ``bootstrap_replicates``.

    The returned table keeps the replicates, so intervals of other functions
    of the estimates (the objective at a configuration, say) can reuse them.
    """
    if B < 100:
        raise ValueError("bootstrap needs at least 100 replicates")
    if not 0 < level < 1:
        raise ValueError("coverage level must be in (0, 1)")
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    base = estimate_effects_cm(log, reference, shrinkage)
    reps = bootstrap_replicates(log, reference, shrinkage, B, seed)

    lo_q = 100.0 * (1.0 - level) / 2.0
    q = [lo_q, 100.0 - lo_q]

    def pct(arr):
        return np.moveaxis(np.percentile(arr, q, axis=0), 0, -1)

    def nan_pct(arr):
        # A level no replicate observes keeps a NaN interval.
        out = np.full(arr.shape[1:] + (2,), np.nan)
        seen = ~np.isnan(arr).all(axis=0)
        out[seen] = np.moveaxis(np.nanpercentile(arr[:, seen], q, axis=0), 0, -1)
        return out

    return replace(
        base,
        mu_ci=np.percentile(reps.mu, q),
        mains_ci=tuple(pct(g) for g in reps.mains),
        pairs_ci={jk: pct(g) for jk, g in reps.pairs.items()},
        level_means_ci=tuple(nan_pct(m) for m in reps.level_means),
        replicates=reps,
    )


def shrinkage_risk(eta: float, variance_estimate: float, effect_value: float) -> float:
    """Mean squared risk of multiplicative shrinkage at strength eta."""
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    return eta * eta * variance_estimate + (1.0 - eta) ** 2 * effect_value * effect_value
