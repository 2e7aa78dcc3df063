"""Factor spaces, reference distributions, designs, and run-log ingestion.

A factor space is an ordered set of named factors, each with at least two
ordered discrete levels. Levels are opaque text labels externally and dense
integer indices internally; the declaration order is the canonical order used
for tables and tie-breaking. All containers here are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

Config = tuple[int, ...]

GRID_ENUMERATION_CAP = 10_000_000


class LogSchemaError(ValueError):
    """A run-log file does not match the expected CSV schema."""


@dataclass(frozen=True)
class Factor:
    name: str
    levels: tuple[str, ...]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class FactorSpace:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a factor space needs at least one factor")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate factor names: {sorted(names)}")
        for f in self.factors:
            if f.num_levels < 2:
                raise ValueError(f"factor {f.name!r} has {f.num_levels} level(s); need at least 2")
            if len(set(f.levels)) != f.num_levels:
                raise ValueError(f"duplicate level labels in factor {f.name!r}")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    # Built once per space; cached values live outside the compared fields.
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    @cached_property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(f.num_levels for f in self.factors)

    @property
    def grid_size(self) -> int:
        return math.prod(self.level_counts)

    def pairs(self) -> list[tuple[int, int]]:
        d = self.num_factors
        return [(j, k) for j in range(d) for k in range(j + 1, d)]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown factor {name!r}") from None

    def level_index(self, j: int, label: str) -> int:
        try:
            return self.factors[j].levels.index(label)
        except ValueError:
            raise KeyError(f"unknown level {label!r} for factor {self.factors[j].name!r}") from None

    def validate_config(self, config: Sequence[int]) -> Config:
        if len(config) != self.num_factors:
            raise ValueError(f"config has {len(config)} coordinates, expected {self.num_factors}")
        for j, (lvl, count) in enumerate(zip(config, self.level_counts)):
            if not 0 <= int(lvl) < count:
                raise ValueError(f"level index {lvl} out of range for factor {self.factors[j].name!r}")
        return tuple(int(v) for v in config)

    def validate_configs(self, configs: ArrayLike) -> np.ndarray:
        """``validate_config`` for many configurations in one pass: an
        ``(n, d)`` level-index matrix."""
        X = np.asarray(configs, dtype=np.intp)
        if X.ndim != 2 or X.shape[1] != self.num_factors:
            raise ValueError(f"configs have shape {X.shape}, expected (n, {self.num_factors})")
        bad = (X < 0) | (X >= np.array(self.level_counts))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"level index {X[i, j]} out of range for factor "
                             f"{self.factors[j].name!r}")
        return X

    def labels_for(self, config: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.factors[j].levels[lvl] for j, lvl in enumerate(config))

    def to_dict(self) -> dict:
        return {"factors": [{"name": f.name, "levels": list(f.levels)} for f in self.factors]}


def build_space(spec: Mapping | Sequence[tuple[str, Sequence[str]]]) -> FactorSpace:
    """Build a FactorSpace from a declaration.

    Accepts either the JSON-document shape ``{"factors": [{"name":..,
    "levels": [...]}, ...]}`` or a sequence of ``(name, levels)`` pairs.
    """
    if isinstance(spec, Mapping):
        entries = [(e["name"], e["levels"]) for e in spec["factors"]]
    else:
        entries = [(name, levels) for name, levels in spec]
    factors = tuple(Factor(str(name), tuple(str(l) for l in levels)) for name, levels in entries)
    return FactorSpace(factors)


def load_space(path: str | Path) -> FactorSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return build_space(json.load(fh))


def save_space(space: FactorSpace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def enumerate_grid(space: FactorSpace, cap: int = GRID_ENUMERATION_CAP) -> list[Config]:
    """All configurations in lexicographic order (first factor slowest)."""
    if space.grid_size > cap:
        raise ValueError(f"grid size {space.grid_size} exceeds enumeration cap {cap}")
    return list(itertools.product(*[range(n) for n in space.level_counts]))


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReferenceDistribution:
    """Distribution over configurations under which expectations and
    centering are defined.

    ``uniform`` and ``product`` kinds factorize across factors
    (pi_jk(l,m) = pi_j(l) * pi_k(m)); the ``empirical`` kind stores a
    normalized joint histogram over observed configurations.
    """

    space: FactorSpace
    kind: str  # "uniform" | "product" | "empirical"
    marginals: tuple[np.ndarray, ...] | None = None
    joint: Mapping[Config, float] | None = None

    def __post_init__(self):
        if self.kind in ("uniform", "product"):
            if self.marginals is None or len(self.marginals) != self.space.num_factors:
                raise ValueError("product-form reference needs one marginal per factor")
            for j, pi in enumerate(self.marginals):
                if len(pi) != self.space.level_counts[j]:
                    raise ValueError(f"marginal {j} has wrong length")
                if np.any(pi < 0):
                    raise ValueError("marginal probabilities must be nonnegative")
                if abs(float(pi.sum()) - 1.0) > 1e-12:
                    raise ValueError(f"marginal {j} sums to {pi.sum()}, not 1")
        elif self.kind == "empirical":
            if self.joint is None or not self.joint:
                raise ValueError("empirical reference needs a nonempty joint histogram")
            configs = np.array(list(self.joint), dtype=np.intp)
            probs = np.array(list(self.joint.values()), dtype=float)
            if configs.shape[1:] != (self.space.num_factors,) or (configs < 0).any() \
                    or (configs >= np.array(self.space.level_counts)).any():
                raise ValueError("joint histogram has a configuration outside the space")
            if (probs < 0).any():
                raise ValueError("joint probabilities must be nonnegative")
            total = probs.sum()
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"joint histogram sums to {total}, not 1")
            # marginal and pair read the probability mass of every level and
            # pair cell, summed in dict order; read-only, as they are shared.
            levels, pairs = cell_sums(configs, probs[None, None], self.space)
            for mass in (*levels, *pairs.values()):
                mass.flags.writeable = False
            object.__setattr__(self, "_level_mass", tuple(m[0, 0] for m in levels))
            object.__setattr__(self, "_pair_mass", {jk: m[0, 0] for jk, m in pairs.items()})
        else:
            raise ValueError(f"unknown reference kind {self.kind!r}")

    @property
    def is_product(self) -> bool:
        return self.kind in ("uniform", "product")

    @classmethod
    def uniform(cls, space: FactorSpace) -> "ReferenceDistribution":
        margs = tuple(np.full(n, 1.0 / n) for n in space.level_counts)
        return cls(space, "uniform", marginals=margs)

    @classmethod
    def from_marginals(cls, space: FactorSpace, marginals: Sequence[np.ndarray]) -> "ReferenceDistribution":
        return cls(space, "product", marginals=tuple(np.asarray(m, dtype=float) for m in marginals))

    @classmethod
    def empirical(cls, log: "RunLog") -> "ReferenceDistribution":
        """Normalized weight histogram of a run log, keyed in order of first
        appearance."""
        units, unit_of = distinct_configs(log.configs_array)
        hist = np.bincount(unit_of, weights=log.weights, minlength=len(units))
        total = np.add.accumulate(log.weights)[-1]  # record order, like the histogram
        first_seen = np.argsort(np.unique(unit_of, return_index=True)[1])
        keep = first_seen[hist[first_seen] > 0]
        joint = dict(zip(map(tuple, units[keep].tolist()), (hist[keep] / total).tolist()))
        return cls(log.space, "empirical", joint=joint)

    def marginal(self, j: int) -> np.ndarray:
        if self.is_product:
            return self.marginals[j]
        return self._level_mass[j]

    def pair(self, j: int, k: int) -> np.ndarray:
        """Joint pi_jk(l, m) as an (L_j, L_k) matrix."""
        if self.is_product:
            return np.outer(self.marginals[j], self.marginals[k])
        return self._pair_mass[(j, k)] if j < k else self._pair_mass[(k, j)].T

    def product_marginals(self) -> "ReferenceDistribution":
        """Product-form reference built from this distribution's marginals."""
        if self.is_product:
            return self
        margs = tuple(self.marginal(j) for j in range(self.space.num_factors))
        return ReferenceDistribution.from_marginals(self.space, margs)

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.is_product:
            out["marginals"] = {
                f.name: {lbl: float(p) for lbl, p in zip(f.levels, pi)}
                for f, pi in zip(self.space.factors, self.marginals)
            }
        return out


# ---------------------------------------------------------------------------
# Run logs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunLog:
    """Weighted observations bound to a factor space, stored as columns.

    Record i is row i of the ``(n, d)`` level-index matrix ``configs_array``
    with ``responses[i]``, ``weights[i]`` and ``seeds[i]``. The columns are
    copied on construction and read-only afterwards.
    """

    space: FactorSpace
    configs_array: np.ndarray
    responses: np.ndarray
    weights: np.ndarray
    seeds: np.ndarray

    def __post_init__(self):
        dtypes = {"configs_array": np.intp, "responses": float, "weights": float,
                  "seeds": np.int64}
        for name, dtype in dtypes.items():
            col = np.array(getattr(self, name), dtype=dtype)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        configs, y, w = self.configs_array, self.responses, self.weights
        n, d = len(y), self.space.num_factors
        if n == 0:
            raise ValueError("run log is empty")
        if configs.shape != (n, d) or not y.shape == w.shape == self.seeds.shape == (n,):
            raise ValueError(f"columns do not line up: configs {configs.shape}, responses "
                             f"{y.shape}, weights {w.shape}, seeds {self.seeds.shape}")
        out_of_range = (configs < 0) | (configs >= np.array(self.space.level_counts))
        bad = out_of_range.any(axis=1) | ~np.isfinite(y) | ~np.isfinite(w) | (w < 0)
        if bad.any():
            i = int(np.argmax(bad))
            if out_of_range[i].any():
                j = int(np.argmax(out_of_range[i]))
                problem = (f"level index {configs[i, j]} out of range for factor "
                           f"{self.space.factors[j].name!r}")
            elif not math.isfinite(y[i]):
                problem = f"non-finite response {float(y[i])!r}"
            elif not math.isfinite(w[i]):
                problem = f"non-finite weight {float(w[i])!r}"
            else:
                problem = f"negative weight {float(w[i])!r}"
            raise ValueError(f"record {i}: {problem}")
        if not (w > 0).any():
            raise ValueError("run log needs at least one record with positive weight")

    def __len__(self) -> int:
        return len(self.responses)


def log_from_arrays(space: FactorSpace, configs: ArrayLike, responses: ArrayLike,
                    weights: ArrayLike | None = None,
                    seeds: ArrayLike | None = None) -> RunLog:
    """A run log from columns; weights default to 1 and seeds to 0."""
    responses = np.asarray(responses, dtype=float)
    n = len(responses)
    return RunLog(space, np.asarray(configs, dtype=np.intp), responses,
                  np.ones(n) if weights is None else np.asarray(weights, dtype=float),
                  np.zeros(n, dtype=np.int64) if seeds is None else np.asarray(seeds))


# CSV rows that ingest_log converts at a time; bounds the cell strings held.
INGEST_BLOCK = 1024


def _parse(cells: list[str], convert, blank: str = "") -> tuple[list, int | None]:
    """``convert`` applied to the cells of one column, each stripped of
    surrounding whitespace and, when blank, read as ``blank``. Returns the
    values up to the first cell that ``convert`` rejects with ``KeyError`` or
    ``ValueError``, and that cell's index, or None if it rejects none.

    A column of unpadded cells converts in one call: ``float`` and ``int``
    ignore the whitespace that ``str.strip`` removes, and a label lookup must
    hold only labels without it. Any other column goes cell by cell.
    """
    try:
        return list(map(convert, cells)), None
    except (KeyError, ValueError):
        pass
    values = []
    for i, cell in enumerate(cells):
        try:
            values.append(convert(cell.strip() or blank))
        except (KeyError, ValueError):
            return values, i
    return values, None


def _log_columns(space: FactorSpace, header: list[str], rows: list[list[str]],
                 first: int) -> tuple[list[tuple[int, str]], tuple[np.ndarray, ...]]:
    """Convert CSV rows a column at a time. ``first`` is the CSV row number
    of ``rows[0]``. Returns the faults, as (CSV row, problem) of the first bad
    cell of each check in check order, and the level, response, weight and
    seed columns of the rows, blank ones skipped."""
    nonblank = list(map(str.strip, map("".join, rows)))
    rownums = list(itertools.compress(range(first, first + len(rows)), nonblank))
    rows = list(itertools.compress(rows, nonblank))
    faults = []
    width, n = len(header), len(rows)
    lengths = list(map(len, rows))
    if min(lengths, default=width) < width:
        n = next(i for i, k in enumerate(lengths) if k < width)
        faults.append((n, f"missing value in column {header[lengths[n]]!r}"))
    rows = rows[:n]
    if max(lengths[:n], default=width) > width:
        rows = [row[:width] for row in rows]
    flat = list(itertools.chain.from_iterable(rows))
    columns = {name: flat[c::width] for c, name in enumerate(header)}

    levels = np.empty((n, space.num_factors), dtype=np.intp)
    for j, f in enumerate(space.factors):
        lookup = {label: lvl for lvl, label in enumerate(f.levels) if label == label.strip()}
        values, bad = _parse(columns[f.name], lookup.__getitem__)
        if bad is None:
            levels[:, j] = values
        else:
            label = columns[f.name][bad].strip()
            faults.append((bad, f"unknown level {label!r} in column {f.name!r}"))

    raw = columns["response"]
    values, bad = _parse(raw, float)
    responses = np.array(values, dtype=float)
    wrong = np.flatnonzero(~np.isfinite(responses))
    if wrong.size:
        faults.append((wrong[0], f"non-finite response {raw[wrong[0]].strip()!r}"))
    elif bad is not None:
        faults.append((bad, f"non-numeric response {raw[bad].strip()!r}"))

    weights = np.ones(n)
    if "weight" in columns:
        raw = columns["weight"]
        values, bad = _parse(raw, float, blank="1")
        weights = np.array(values, dtype=float)
        wrong = np.flatnonzero(~np.isfinite(weights) | (weights < 0))
        if wrong.size:
            i = wrong[0]
            faults.append((i, "non-finite weight" if not math.isfinite(weights[i])
                           else f"negative weight {raw[i].strip()!r}"))
        elif bad is not None:
            faults.append((bad, "non-numeric weight"))

    seeds = np.zeros(n, dtype=np.int64)
    if "seed" in columns:
        raw = columns["seed"]
        values, bad = _parse(raw, int, blank="0")
        try:
            seeds = np.array(values, dtype=np.int64)
        except OverflowError:
            i = next(i for i, v in enumerate(values) if not -2**63 <= v < 2**63)
            faults.append((i, f"seed {raw[i].strip()} outside the 64-bit range"))
        else:
            if bad is not None:
                faults.append((bad, "non-integer seed"))
    return [(rownums[i], problem) for i, problem in faults], (levels, responses, weights, seeds)


def ingest_log(path: str | Path, space: FactorSpace) -> RunLog:
    """Read a run-log CSV into columns.

    The header must contain one column per factor name plus ``response``;
    ``weight`` (default 1) and ``seed`` (default 0) columns are optional and
    may be left blank. Blank lines are skipped. A bad row is rejected with a
    ``LogSchemaError`` naming its CSV row (the header is row 1).

    One ``csv.reader`` pass hands over ``INGEST_BLOCK`` rows at a time, and
    each block is converted a column at a time. A file with several bad rows
    is rejected for the earliest; within a row the checks run in the order:
    row length, factors (in space order), response, weight, seed.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LogSchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        known = set(space.names) | {"response", "weight", "seed"}
        for col in header:
            if col not in known:
                raise LogSchemaError(f"{path}: unknown column {col!r}")
            if header.count(col) > 1:
                raise LogSchemaError(f"{path}: duplicate column {col!r}")
        for name in space.names:
            if name not in header:
                raise LogSchemaError(f"{path}: missing factor column {name!r}")
        if "response" not in header:
            raise LogSchemaError(f"{path}: missing 'response' column")
        blocks, first = [], 2
        while True:
            rows, unreadable = [], None
            try:
                rows.extend(itertools.islice(reader, INGEST_BLOCK))
            except csv.Error as exc:  # rows keeps the rows before the unreadable one
                unreadable = exc
            faults, columns = _log_columns(space, header, rows, first)
            if faults:
                rownum, problem = min(faults, key=lambda fault: fault[0])
                raise LogSchemaError(f"{path}: row {rownum}: {problem}")
            if unreadable is not None:
                raise unreadable
            blocks.append(columns)
            if len(rows) < INGEST_BLOCK:
                break
            first += len(rows)
    levels, responses, weights, seeds = map(np.concatenate, zip(*blocks))
    if not len(responses):
        raise LogSchemaError(f"{path}: no data rows")
    return RunLog(space, levels, responses, weights, seeds)


def write_log(log: RunLog, path: str | Path) -> None:
    """Write a run log as CSV; floats round-trip exactly through repr."""
    labels = [np.array(f.levels, dtype=object)[log.configs_array[:, j]]
              for j, f in enumerate(log.space.factors)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(log.space.names) + ["response", "weight", "seed"])
        writer.writerows(zip(*labels, map(repr, log.responses.tolist()),
                             map(repr, log.weights.tolist()), map(str, log.seeds.tolist())))


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignPlan:
    kind: str  # "full" | "balanced" | "skewed"
    n: int = 0
    bias: float = 1.0

    @classmethod
    def full(cls) -> "DesignPlan":
        return cls("full")

    @classmethod
    def balanced(cls, n: int) -> "DesignPlan":
        return cls("balanced", n=n)

    @classmethod
    def skewed(cls, n: int, bias: float = 3.0) -> "DesignPlan":
        return cls("skewed", n=n, bias=bias)

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind != "full":
            out["n"] = self.n
        if self.kind == "skewed":
            out["bias"] = self.bias
        return out


def sample_design(space: FactorSpace, plan: DesignPlan, seed: int = 0) -> np.ndarray:
    """Draw a design per the plan as an ``(n, d)`` level-index matrix,
    deterministically for a given seed.

    ``balanced(n)`` equalizes per-level counts of every factor within +-1 by
    shuffling a balanced column per factor independently; duplicate configs
    act as replicates. ``skewed(n, bias)`` samples each factor independently
    with the first level weighted by ``bias``.
    """
    if plan.kind == "full":
        return np.array(enumerate_grid(space), dtype=np.intp)
    n = int(plan.n)
    if n < 1:
        raise ValueError("design size must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    columns = []
    if plan.kind == "balanced":
        for count in space.level_counts:
            base, extra = divmod(n, count)
            col = np.repeat(np.arange(count), base)
            if extra:
                col = np.concatenate([col, rng.choice(count, size=extra, replace=False)])
            rng.shuffle(col)
            columns.append(col)
    elif plan.kind == "skewed":
        if plan.bias <= 0:
            raise ValueError("bias must be positive")
        for count in space.level_counts:
            probs = np.ones(count)
            probs[0] = plan.bias
            probs /= probs.sum()
            columns.append(rng.choice(count, size=n, p=probs))
    else:
        raise ValueError(f"unknown design plan {plan.kind!r}")
    return np.stack(columns, axis=1).astype(np.intp, copy=False)


# ---------------------------------------------------------------------------
# Support statistics
# ---------------------------------------------------------------------------

# Rows per block of the batched cell reduction; bounds its one-hot matrix and
# the block's sorted copy of the statistics.
CELL_BLOCK = 512


def cell_sums(configs: np.ndarray, stats: np.ndarray, space: FactorSpace
              ) -> tuple[tuple[np.ndarray, ...], dict[tuple[int, int], np.ndarray]]:
    """Sum additive row statistics into every level and pair cell.

    ``configs`` (U, d) holds each row's configuration, where a row is one
    record or one distinct configuration, and ``stats`` (S, C, U) holds S
    statistics of C samples per row. Returns one (S, C, L_j) array per
    factor and a dict of one (S, C, L_j, L_k) array per pair, keyed in
    ``space.pairs()`` order.

    One sample (C == 1) is summed with one ``bincount`` per statistic and
    cell key, in row order. A batch (C > 1) is summed with matrix products
    over blocks of ``CELL_BLOCK`` rows: the statistics times the block's
    one-hot level matrix give the level sums, and for each factor j and
    level a, the statistics of the rows at a times their one-hot columns of
    the factors after j give pair row (j, a). The batch's sums differ from
    the one-sample sums by rounding only, within 1e-12 x (1 + the largest
    sum); sums of integers, such as counts, and empty cells are exact.
    """
    S, C, U = stats.shape
    L = space.level_counts
    d = len(L)
    if C > 1:
        offsets = np.cumsum((0,) + L)
        M = stats.reshape(S * C, U)
        mains = np.zeros((S * C, offsets[-1]))
        # tails[j][a] is pair row (j, a): its sums over the levels of every k > j.
        tails = [np.zeros((L[j], S * C, offsets[-1] - offsets[j + 1])) for j in range(d - 1)]
        for start in range(0, U, CELL_BLOCK):
            cfg = configs[start:start + CELL_BLOCK]
            m = M[:, start:start + CELL_BLOCK]
            onehot = np.zeros((len(cfg), offsets[-1]))
            onehot[np.arange(len(cfg))[:, None], cfg + offsets[:-1]] = 1.0
            mains += m @ onehot
            for j in range(d - 1):
                order = np.argsort(cfg[:, j], kind="stable")
                m_j, rest = m[:, order], onehot[order, offsets[j + 1]:]
                bounds = np.searchsorted(cfg[order, j], range(L[j] + 1)).tolist()
                for a in range(L[j]):
                    at = slice(bounds[a], bounds[a + 1])
                    tails[j][a] += m_j[:, at] @ rest[at]
        levels = tuple(mains[:, offsets[j]:offsets[j + 1]].reshape(S, C, L[j])
                       for j in range(d))
        pairs = {(j, k): np.moveaxis(tails[j][..., offsets[k] - offsets[j + 1]:
                                              offsets[k + 1] - offsets[j + 1]], 0, 1)
                 .reshape(S, C, L[j], L[k]) for j, k in space.pairs()}
        return levels, pairs

    flat = stats.reshape(S, U)

    def reduce(cell, size):
        return np.stack([np.bincount(cell, weights=s, minlength=size) for s in flat])

    levels = tuple(reduce(configs[:, j], L[j]).reshape(S, 1, L[j]) for j in range(d))
    pairs = {(j, k): reduce(configs[:, j] * L[k] + configs[:, k], L[j] * L[k]
                            ).reshape(S, 1, L[j], L[k])
             for j, k in space.pairs()}
    return levels, pairs


def pair_cell_labels(space: FactorSpace, j: int, k: int) -> list[str]:
    """The ``"level_j|level_k"`` label of every cell of pair (j, k), in the
    row-major order of its (L_j, L_k) tables."""
    return [f"{a}|{b}" for a in space.factors[j].levels for b in space.factors[k].levels]


@dataclass(frozen=True, eq=False)
class SupportCounts:
    """A log's sufficient statistics per level and per pair cell.

    ``level_sums[j]`` (4, L_j) and ``pair_sums[(j, k)]`` (4, L_j, L_k), j < k,
    hold each cell's summed weight w, weight x response, positive-weight
    record count n and squared weight. The CM estimate, its shrinkage, the
    risk term and the effective sizes all read them.
    """

    space: FactorSpace
    level_sums: tuple[np.ndarray, ...]
    pair_sums: dict[tuple[int, int], np.ndarray]

    @cached_property
    def level_counts(self) -> tuple[np.ndarray, ...]:
        return tuple(s[2].astype(np.intp) for s in self.level_sums)

    @cached_property
    def pair_counts(self) -> dict[tuple[int, int], np.ndarray]:
        return {jk: s[2].astype(np.intp) for jk, s in self.pair_sums.items()}

    @cached_property
    def pair_eff(self) -> dict[tuple[int, int], np.ndarray]:
        """Kish effective size (sum w)^2 / sum w^2 per pair cell; 0 where empty."""
        return {jk: np.divide(w * w, w2, out=np.zeros(w.shape), where=w2 > 0)
                for jk, (w, _, _, w2) in self.pair_sums.items()}

    def pair(self, j: int, k: int) -> np.ndarray:
        if j < k:
            return self.pair_counts[(j, k)]
        return self.pair_counts[(k, j)].T

    def to_dict(self) -> dict:
        space = self.space
        levels = {
            f.name: {lbl: int(c) for lbl, c in zip(f.levels, counts)}
            for f, counts in zip(space.factors, self.level_counts)
        }
        pairs = {}
        eff = {}
        for (j, k), mat in self.pair_counts.items():
            key = f"{space.names[j]}|{space.names[k]}"
            cells = pair_cell_labels(space, j, k)
            pairs[key] = dict(zip(cells, mat.ravel().tolist()))
            eff[key] = dict(zip(cells, self.pair_eff[(j, k)].ravel().tolist()))
        return {"levels": levels, "pairs": pairs, "eff": eff}


def distinct_configs(configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``configs`` in lexicographic order and, per row,
    the index of its own."""
    code = np.zeros(len(configs), dtype=np.intp)
    for col in configs.T:  # codes stay below the row count, so never overflow
        _, first, code = np.unique(code * (int(col.max()) + 1) + col,
                                   return_index=True, return_inverse=True)
    return configs[first], code


def effective_sample_size(weights: Sequence[float]) -> float:
    """1 / sum(alpha^2) for normalized weights alpha; count for equal weights."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and nonempty")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    alpha = w / total
    return float(1.0 / np.sum(alpha * alpha))


def support_counts(log: RunLog) -> SupportCounts:
    """One pass over the log's records into its per-level and per-pair-cell sums."""
    w = log.weights
    stats = np.stack([w, w * log.responses, (w > 0).astype(float), w * w])[:, None]
    levels, pairs = cell_sums(log.configs_array, stats, log.space)
    return SupportCounts(log.space, tuple(s[:, 0] for s in levels),
                         {jk: s[:, 0] for jk, s in pairs.items()})
