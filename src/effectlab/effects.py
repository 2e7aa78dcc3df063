"""Cell-mean estimation of main effects and pairwise interactions.

The estimators follow the plug-in recipe: a weighted baseline, weighted
conditional means per level and per level pair, differencing to raw effects,
exact re-centering under the reference distribution, multiplicative
shrinkage of weakly supported entries, and a final re-centering so the
table invariants hold exactly. Uncertainty comes from resampling whole
records with replacement; a table keeps the replicates and reads
percentile intervals from them when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .space import (
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    cell_reducer,
    center_main,
    distinct_configs,
    pair_cell_labels,
)

if TYPE_CHECKING:
    from .shapley import ShapleyEstimate


@dataclass(frozen=True)
class ShrinkageSpec:
    """Pseudo-count shrinkage strength: eta = n / (n + tau), one tau for
    every main-effect and pair entry."""

    tau: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.tau, Real) and math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a finite, strictly positive number, got {self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(eq=False)
class EffectTable:
    """Baseline plus centered main-effect and pair-interaction tables.

    ``mains[j]`` holds the centered, shrunk effect per level of factor ``j``;
    ``pairs[(j, k)]`` (j < k) holds the doubly centered interaction matrix.
    ``level_means[j]`` keeps the raw weighted conditional means that the
    effects were derived from (NaN where unsupported). A cell is unsupported
    where its summed weight in ``support`` is zero. ``replicates`` holds
    bootstrap estimates, when there are any; ``interval`` reads percentile
    intervals at ``ci_level`` from them. ``attributions`` holds the
    ShapleyEstimate batch an SF table was fit to.
    """

    space: FactorSpace
    reference: ReferenceDistribution
    mu: float
    mains: tuple[np.ndarray, ...]
    pairs: dict[tuple[int, int], np.ndarray]
    support: SupportCounts | None = None
    provenance: str = "CM"
    level_means: tuple[np.ndarray, ...] | None = None
    diagnostics: dict | None = None
    replicates: BootstrapReplicates | None = None
    ci_level: float = 0.95
    attributions: ShapleyEstimate | None = None

    def pair(self, j: int, k: int) -> np.ndarray:
        if j < k:
            return self.pairs[(j, k)]
        return self.pairs[(k, j)].T

    def interval(self, samples: np.ndarray) -> np.ndarray:
        """Efron's percentile interval at ``ci_level`` over the leading
        replicate axis of ``samples``, as a trailing (lo, hi) axis, by
        ``percentile``. NaN replicates are skipped by ``np.nanpercentile``;
        where no replicate has a value the interval is NaN."""
        lo_q = 100.0 * (1.0 - self.ci_level) / 2.0
        q = [lo_q, 100.0 - lo_q]
        if not np.isnan(samples).any():  # same bits as nanpercentile, many times faster
            return np.moveaxis(percentile(samples, q), 0, -1)
        flat = samples.reshape(len(samples), -1)
        seen = ~np.isnan(flat).all(axis=0)
        out = np.full((flat.shape[1], 2), np.nan)
        if seen.any():
            out[seen] = np.nanpercentile(flat[:, seen], q, axis=0).T
        return out.reshape(samples.shape[1:] + (2,))

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
        reps = self.replicates
        out["ci"] = None if reps is None else {
            "mu": self.interval(reps.mu).tolist(),
            "mains": {f.name: dict(zip(f.levels, self.interval(g).tolist()))
                      for f, g in zip(space.factors, reps.mains)},
            "pairs": {
                f"{space.names[j]}|{space.names[k]}": dict(zip(
                    pair_cell_labels(space, j, k), self.interval(g).reshape(-1, 2).tolist()))
                for (j, k), g in reps.pairs.items()
            },
        }
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


def percentile(samples: np.ndarray, q) -> np.ndarray:
    """``np.percentile(samples, q, axis=0)`` of NaN-free samples, bit for bit:
    Hyndman and Fan's method 7, numpy's ``linear``, with numpy's partition
    indices (so equal zeros of either sign land where numpy puts them) and its
    ``_lerp``, but without its ``np.unique`` of those indices, which loads numpy.ma."""
    a = np.array(samples, dtype=float)
    pos = (len(a) - 1) * (np.asarray(q, dtype=float) / 100)
    lo = np.where(pos >= len(a) - 1, -1, np.floor(pos)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    a.partition(sorted({0, -1, *lo.ravel().tolist(), *hi.ravel().tolist()}), axis=0)
    g = (pos - lo).reshape(pos.shape + (1,) * (a.ndim - 1))
    d = a[hi] - a[lo]
    return np.where(g >= 0.5, a[hi] - d * (1 - g), a[lo] + d * g)


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
# Estimation
# ---------------------------------------------------------------------------

BOOTSTRAP_CHUNK = 16  # draws per cell reduction; bounds the per-configuration sums held at once


def _estimate_batch(level_sums, pair_sums, mu: np.ndarray, reference: ReferenceDistribution,
                    shrinkage: ShrinkageSpec):
    """The CM estimator on C samples at once.

    ``level_sums`` (one (S, C, L_j) array per factor) and ``pair_sums`` (one
    (S, C, L_j, L_k) array per pair) start with each cell's summed weight,
    weight x response and positive-weight record count, which sets the
    shrinkage. ``mu`` (C,) is each sample's weighted mean response; the
    reference's marginals and pair ``centerers`` (closed form, or a Laplacian
    solve for an empirical reference) center exactly. Returns mains
    (C, L_j), pairs (C, L_j, L_k) and level means (C, L_j) with NaN where a
    level has no weight.
    """
    def means_of(s):
        return np.divide(s[1], s[0], out=np.full(s[0].shape, np.nan), where=s[0] > 0)

    level_means = tuple(means_of(s) for s in level_sums)
    pair_means = {jk: means_of(s) for jk, s in pair_sums.items()}

    # Raw differenced effects; empty cells contribute zero.
    mains = [np.where(np.isnan(m), 0.0, m - mu[:, None]) for m in level_means]
    filled = [np.where(np.isnan(m), mu[:, None], m) for m in level_means]
    pairs = {}
    for (j, k), means in pair_means.items():
        g = means - filled[j][:, :, None] - filled[k][:, None, :] + mu[:, None, None]
        pairs[(j, k)] = np.where(np.isnan(means), 0.0, g)

    mains, pairs = _finalize(
        reference, mains, pairs, shrinkage,
        [s[2] for s in level_sums], {jk: s[2] for jk, s in pair_sums.items()},
    )
    return mains, pairs, level_means


def _finalize(reference: ReferenceDistribution, mains, pairs, shrinkage: ShrinkageSpec,
              main_counts, pair_counts):
    """Re-center, shrink every entry by eta = n / (n + tau), re-center.

    ``mains`` and ``pairs`` are raw effect tables with or without a leading
    batch axis; the record counts n broadcast against them. Entries with
    n == 0 are zeroed after shrinking. Returns the mains as a tuple and the
    pairs as a new dict.
    """
    mains, pairs = list(mains), dict(pairs)

    def recenter():
        for j in range(len(mains)):
            mains[j] = center_main(mains[j], reference.marginal(j))
        for jk in pairs:
            pairs[jk] = reference.centerers[jk](pairs[jk])

    recenter()
    for j, n in enumerate(main_counts):
        mains[j] = np.where(n == 0, 0.0, n / (n + shrinkage.tau) * mains[j])
    for jk, n in pair_counts.items():
        pairs[jk] = np.where(n == 0, 0.0, n / (n + shrinkage.tau) * pairs[jk])
    recenter()
    return tuple(mains), pairs


def estimate_effects_cm(log: RunLog, reference: ReferenceDistribution | None = None,
                        shrinkage: ShrinkageSpec | None = None) -> EffectTable:
    """Conditional-mean effect table: raw estimates, exact re-centering,
    pseudo-count shrinkage, and a final re-centering, all from the log's
    per-cell sums."""
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    support = log.support
    w = log.weights
    mu = (w * log.responses).sum() / w.sum()
    mains, pairs, level_means = _estimate_batch(
        tuple(s[:, None] for s in support.level_sums),
        {jk: s[:, None] for jk, s in support.pair_sums.items()},
        np.array([mu]), reference, shrinkage,
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
    oracle = ValueOracle.from_log(log, reference)
    return fit_from_oracle(oracle, log, shrinkage)


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
    per distinct configuration; chunks of at most ``BOOTSTRAP_CHUNK`` draws,
    of sizes that differ by at most one, are summed into cells by one
    ``cell_reducer``, and all B are estimated in one batch.
    """
    space = log.space
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    w = log.weights
    wy = w * log.responses
    n = len(log)
    positive = bool((w > 0).all())  # then every draw is weighted and n counts every record
    units, unit_of = distinct_configs(log.configs_array)
    U = len(units)
    reduce = cell_reducer(units, space)

    mu = np.empty(B)
    level_sums = tuple(np.empty((3, B, L)) for L in space.level_counts)
    pair_sums = {(j, k): np.empty((3, B, space.level_counts[j], space.level_counts[k]))
                 for j, k in space.pairs()}
    fallback = 0
    children = np.random.SeedSequence(seed).spawn(B)
    chunks = -(-B // BOOTSTRAP_CHUNK) or 1
    bounds = [B * i // chunks for i in range(chunks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        stats = np.empty((3, stop - start, U))
        for c, child in enumerate(children[start:stop]):
            idx = np.random.default_rng(child).integers(0, n, size=n)
            wb = w[idx]
            if not wb.any():  # pathological draw under zero-heavy weights
                idx, wb = np.arange(n), w
                fallback += 1
            key = unit_of[idx]
            stats[0, c] = np.bincount(key, weights=wb, minlength=U)
            stats[1, c] = np.bincount(key, weights=wy[idx], minlength=U)
            stats[2, c] = np.bincount(key if positive else key[wb > 0], minlength=U)
        totals = stats[:2].sum(axis=-1)
        mu[start:stop] = totals[1] / totals[0]
        levels, pairs = reduce(stats)
        for out, got in zip((*level_sums, *pair_sums.values()), (*levels, *pairs.values())):
            out[:, start:stop] = got
    mains, pairs, level_means = _estimate_batch(level_sums, pair_sums, mu, reference, shrinkage)
    return BootstrapReplicates(mu, mains, pairs, level_means, fallback)


def bootstrap_cis(log: RunLog, reference: ReferenceDistribution | None = None,
                  shrinkage: ShrinkageSpec | None = None, B: int = 200,
                  level: float = 0.95, seed: int = 0) -> EffectTable:
    """The CM table with B ``bootstrap_replicates`` attached and
    ``ci_level`` set to ``level``; ``EffectTable.interval`` reads the
    percentile intervals of the effects, or of any function of them (the
    objective at a configuration, say), from the replicates."""
    if B < 100:
        raise ValueError("bootstrap needs at least 100 replicates")
    if not 0 < level < 1:
        raise ValueError("coverage level must be in (0, 1)")
    reference = reference or ReferenceDistribution.uniform(log.space)
    return replace(estimate_effects_cm(log, reference, shrinkage),
                   replicates=bootstrap_replicates(log, reference, shrinkage, B, seed),
                   ci_level=level)
