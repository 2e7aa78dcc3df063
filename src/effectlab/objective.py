"""Two-factor prediction and the risk- and cost-adjusted objective.

J(x) = prediction(x) - lambda_risk * R(x) - lambda_cost * C(x), where R sums
a support-driven penalty over factor pairs and C is additive over factor
levels. Infeasible configurations are excluded from the search set rather
than scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .effects import EffectTable
from .space import Config, FactorSpace, SupportCounts


class InfeasibleConfigError(ValueError):
    """The configuration is outside the feasible set."""


# Top-level keys of an objective document, read by ObjectiveSpec and CostModel.
OBJECTIVE_KEYS = ("lambda_risk", "lambda_cost", "gamma", "banned_levels", "banned_configs",
                  "costs", "cost_offset")


def _check_document(space: FactorSpace, data: Mapping) -> None:
    """Reject an unknown top-level key, an unknown factor or level label
    under ``costs`` or ``banned_levels``, a banned config that does not give
    one known label per factor, and a per-pair ``gamma`` mapping without
    exactly one ``"a|b"`` key per factor pair (``a`` declared before ``b``),
    naming the first one."""
    bad = [f"unknown key {key!r}; the top-level keys are {', '.join(OBJECTIVE_KEYS)}"
           for key in data if key not in OBJECTIVE_KEYS]
    for section in ("costs", "banned_levels"):
        for name, labels in data.get(section, {}).items():
            if name not in space.names:
                bad.append(f"unknown factor {name!r} under {section}")
                continue
            levels = space.factors[space.index_of(name)].levels
            bad += [f"unknown level {lbl!r} of factor {name!r} under {section}"
                    for lbl in labels if lbl not in levels]
    for cfg in data.get("banned_configs", []):
        if len(cfg) != space.num_factors:
            bad.append(f"banned config {cfg!r} has {len(cfg)} labels, not {space.num_factors}")
            continue
        bad += [f"unknown level {lbl!r} of factor {f.name!r} in banned config {cfg!r}"
                for f, lbl in zip(space.factors, cfg) if lbl not in f.levels]
    if isinstance(gamma := data.get("gamma"), Mapping):
        keys = [f"{space.names[j]}|{space.names[k]}" for j, k in space.pairs()]
        hint = "; pairs are keyed 'a|b' with factor a declared before b"
        bad += [f"unknown factor pair {k!r} under gamma{hint}" for k in gamma if k not in keys]
        bad += [f"missing factor pair {k!r} under gamma{hint}" for k in keys if k not in gamma]
    if bad:
        raise ValueError(f"objective document: {bad[0]}")


@dataclass(frozen=True, eq=False)
class CostModel:
    """Additive cost: a fixed offset plus one term per factor level."""

    space: FactorSpace
    level_costs: tuple[np.ndarray, ...]
    offset: float = 0.0

    def __post_init__(self):
        if len(self.level_costs) != self.space.num_factors:
            raise ValueError("need one cost vector per factor")
        for j, c in enumerate(self.level_costs):
            if len(c) != self.space.level_counts[j]:
                raise ValueError(f"cost vector {j} has wrong length")
            if not np.all(np.isfinite(c)):
                raise ValueError("costs must be finite")
        if not math.isfinite(self.offset):
            raise ValueError(f"cost offset must be finite, got {self.offset!r}")

    @classmethod
    def zero(cls, space: FactorSpace) -> "CostModel":
        return cls(space, tuple(np.zeros(n) for n in space.level_counts))

    @classmethod
    def from_dict(cls, space: FactorSpace, data: Mapping) -> "CostModel":
        _check_document(space, data)
        costs = []
        table = data.get("costs", {})
        for f in space.factors:
            row = table.get(f.name, {})
            costs.append(np.array([float(row.get(lbl, 0.0)) for lbl in f.levels]))
        return cls(space, tuple(costs), offset=float(data.get("cost_offset", 0.0)))

    def total(self, x: Sequence[int]) -> float:
        return self.offset + sum(float(self.level_costs[j][x[j]]) for j in range(len(x)))

    def to_dict(self) -> dict:
        return {
            "costs": {
                f.name: {lbl: float(c) for lbl, c in zip(f.levels, vec)}
                for f, vec in zip(self.space.factors, self.level_costs)
            },
            "cost_offset": self.offset,
        }


def delta_cost(cost: CostModel, j: int, level: int, x: Sequence[int]) -> float:
    """Cost change from switching factor j to the given level."""
    return float(cost.level_costs[j][level] - cost.level_costs[j][x[j]])


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Penalty weights, pair penalty constants, and the feasible set.

    Feasibility is banned levels per factor plus an explicit banned-config
    list; everything else is feasible.
    """

    lambda_risk: float = 1.0
    lambda_cost: float = 0.0
    gamma: float | Mapping[str, float] = 1.0
    banned_levels: Mapping[int, frozenset[int]] = field(default_factory=dict)
    banned_configs: frozenset[Config] = frozenset()

    def __post_init__(self):
        for name in ("lambda_risk", "lambda_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        gammas = self.gamma.values() if isinstance(self.gamma, Mapping) else [self.gamma]
        for g in gammas:
            if not (math.isfinite(g) and g > 0):
                raise ValueError(f"gamma must be finite and strictly positive, got {g!r}")

    @classmethod
    def from_dict(cls, space: FactorSpace, data: Mapping) -> "ObjectiveSpec":
        """Load a spec from an objective document ``_check_document`` accepts."""
        _check_document(space, data)
        banned_levels: dict[int, frozenset[int]] = {}
        for name, labels in data.get("banned_levels", {}).items():
            j = space.index_of(name)
            banned_levels[j] = frozenset(space.level_index(j, lbl) for lbl in labels)
        banned_configs = frozenset(
            tuple(space.level_index(j, lbl) for j, lbl in enumerate(cfg))
            for cfg in data.get("banned_configs", [])
        )
        return cls(
            lambda_risk=float(data.get("lambda_risk", 1.0)),
            lambda_cost=float(data.get("lambda_cost", 0.0)),
            gamma=data.get("gamma", 1.0),
            banned_levels=banned_levels,
            banned_configs=banned_configs,
        )

    def gamma_for(self, space: FactorSpace, j: int, k: int) -> float:
        if isinstance(self.gamma, Mapping):
            a, b = sorted((j, k))
            return float(self.gamma[f"{space.names[a]}|{space.names[b]}"])
        return float(self.gamma)

    def level_allowed(self, j: int, level: int) -> bool:
        return level not in self.banned_levels.get(j, frozenset())

    def allowed_levels(self, space: FactorSpace, j: int) -> list[int]:
        banned = self.banned_levels.get(j, frozenset())
        return [l for l in range(space.level_counts[j]) if l not in banned]

    def feasible(self, x: Sequence[int]) -> bool:
        xt = tuple(int(v) for v in x)
        if xt in self.banned_configs:
            return False
        return all(self.level_allowed(j, lvl) for j, lvl in enumerate(xt))


def two_factor_predict(table: EffectTable, x: Sequence[int]) -> float:
    """Baseline plus main effects plus pairwise interactions at x."""
    x = table.space.validate_config(x)
    total = table.mu
    for j, g in enumerate(table.mains):
        total += float(g[x[j]])
    for (j, k), mat in table.pairs.items():
        total += float(mat[x[j], x[k]])
    return total


def broadcast_sum(out: np.ndarray, terms) -> np.ndarray:
    """``out`` plus each ``(axes, term)`` in order, the term spanning those
    axes of ``out`` and broadcast along the rest."""
    for axes, term in terms:
        shape = [1] * out.ndim
        for ax, n in zip(axes, term.shape):
            shape[ax] = n
        out = out + term.reshape(shape)
    return out


def predict_grid(table: EffectTable) -> np.ndarray:
    """Two-factor prediction over the whole grid as a tensor."""
    out = np.full(table.space.level_counts, table.mu, dtype=float)
    out = broadcast_sum(out, (((j,), g) for j, g in enumerate(table.mains)))
    return broadcast_sum(out, table.pairs.items())


def pair_risk(support: SupportCounts, spec: ObjectiveSpec,
              scale: float = 1.0) -> dict[tuple[int, int], np.ndarray]:
    """The support risk of every factor pair j < k as an (L_j, L_k) matrix,
    ``scale * g / (n + g)`` evaluated left to right, with g the pair's gamma
    and n its record counts.

    This is the one place the risk term is written. The objective side reads
    it at ``scale`` 1 and multiplies the sum by ``lambda_risk``; the search
    side passes ``lambda_risk`` as ``scale``, which rounds differently.
    """
    space = support.space
    risk = {}
    for j, k in space.pairs():
        g = spec.gamma_for(space, j, k)
        risk[(j, k)] = scale * g / (support.pair_counts[(j, k)] + g)
    return risk


def risk_penalty(support: SupportCounts, x: Sequence[int],
                 gamma: float | ObjectiveSpec = 1.0) -> float:
    """Sum over factor pairs of gamma / (n_jk + gamma); each term in (0, 1]."""
    spec = gamma if isinstance(gamma, ObjectiveSpec) else ObjectiveSpec(gamma=gamma)
    return sum((r[x[j], x[k]] for (j, k), r in pair_risk(support, spec).items()), 0.0)


def risk_grid(support: SupportCounts, spec: ObjectiveSpec) -> np.ndarray:
    return broadcast_sum(np.zeros(support.space.level_counts), pair_risk(support, spec).items())


def cost_grid(cost: CostModel) -> np.ndarray:
    out = np.full(cost.space.level_counts, cost.offset, dtype=float)
    return broadcast_sum(out, (((j,), c) for j, c in enumerate(cost.level_costs)))


def feasible_mask(space: FactorSpace, spec: ObjectiveSpec) -> np.ndarray:
    mask = np.ones(space.level_counts, dtype=bool)
    d = space.num_factors
    for j, banned in spec.banned_levels.items():
        for lvl in banned:
            index: list = [slice(None)] * d
            index[j] = lvl
            mask[tuple(index)] = False
    for cfg in spec.banned_configs:
        mask[cfg] = False
    return mask


def objective(table: EffectTable, x: Sequence[int], support: SupportCounts,
              spec: ObjectiveSpec, cost: CostModel | None = None) -> float:
    """Risk- and cost-adjusted score of a feasible configuration."""
    x = table.space.validate_config(x)
    if not spec.feasible(x):
        raise InfeasibleConfigError(f"configuration {x} is outside the feasible set")
    return _objective_at(table, np.array([x]), pair_risk(support, spec), spec,
                         cost or CostModel.zero(table.space))[0]


def _objective_at(table: EffectTable, X: np.ndarray, risk: dict[tuple[int, int], np.ndarray],
                  spec: ObjectiveSpec, cost: CostModel) -> np.ndarray:
    """``objective`` at each feasible row of the (R, d) level array X, adding
    terms in the order of ``two_factor_predict``, ``risk_penalty`` and
    ``CostModel.total``. ``risk`` is ``pair_risk`` at scale 1, built once
    per search."""
    value = np.full(len(X), table.mu, dtype=float)
    for j, g in enumerate(table.mains):
        value += g[X[:, j]]
    for (j, k), mat in table.pairs.items():
        value += mat[X[:, j], X[:, k]]
    total = np.zeros(len(X))
    for (j, k), r in risk.items():
        total += r[X[:, j], X[:, k]]
    value -= spec.lambda_risk * total
    costs = sum(c[X[:, j]] for j, c in enumerate(cost.level_costs))
    value -= spec.lambda_cost * (cost.offset + costs)
    return value


def objective_grid(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
                   cost: CostModel | None = None) -> tuple[np.ndarray, np.ndarray]:
    """J over the whole grid plus the feasibility mask."""
    cost = cost or CostModel.zero(table.space)
    J = predict_grid(table)
    if spec.lambda_risk:
        J = J - spec.lambda_risk * risk_grid(support, spec)
    if spec.lambda_cost:
        J = J - spec.lambda_cost * cost_grid(cost)
    return J, feasible_mask(table.space, spec)
