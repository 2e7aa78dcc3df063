"""Two-factor prediction and the risk- and cost-adjusted objective.

J(x) = prediction(x) - lambda_risk * R(x) - lambda_cost * C(x), where R sums
a support-driven penalty over factor pairs and C is additive over factor
levels, so J is one pairwise model (``PairwiseObjective``) that every search,
certificate, bound and grid reads. Infeasible configurations score -inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .effects import BootstrapReplicates, EffectTable
from .space import Config, FactorSpace, SupportCounts


class InfeasibleConfigError(ValueError):
    """The configuration is outside the feasible set."""


def _number(value) -> bool:
    # NaN and infinities pass, for the finiteness checks to name; an integer
    # beyond float range does not, since float() of it overflows.
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _numbers(value) -> bool:
    return isinstance(value, Mapping) and all(map(_number, value.values()))


def _labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(label, str) for label in value)


# Top-level keys of an objective document, read by ObjectiveSpec and CostModel:
# the JSON type each holds, and a test for it.
OBJECTIVE_KEYS = {
    "lambda_risk": ("a number", _number),
    "lambda_cost": ("a number", _number),
    "gamma": ("a number or an object of numbers", lambda v: _number(v) or _numbers(v)),
    "banned_levels": ("an object of label lists",
                      lambda v: isinstance(v, Mapping) and all(map(_labels, v.values()))),
    "banned_configs": ("a list of label lists", lambda v: isinstance(v, list) and all(map(_labels, v))),
    "costs": ("an object of objects of numbers",
              lambda v: isinstance(v, Mapping) and all(map(_numbers, v.values()))),
    "cost_offset": ("a number", _number),
}


def _check_document(space: FactorSpace, data: Mapping) -> None:
    """Reject a document that is not an object, an unknown top-level key or
    one of the wrong JSON type (named in document order), an unknown factor
    or level label under ``costs`` or ``banned_levels``, a banned config that
    does not give one known label per factor, and a per-pair ``gamma``
    mapping without exactly one ``"a|b"`` key per factor pair (``a`` declared
    before ``b``), naming the first one."""
    if not isinstance(data, Mapping):
        raise ValueError(f"objective document: the top level must be an object, "
                         f"got {type(data).__name__}")
    for key, value in data.items():
        if key not in OBJECTIVE_KEYS:
            raise ValueError(f"objective document: unknown key {key!r}; the top-level keys "
                             f"are {', '.join(OBJECTIVE_KEYS)}")
        kind, fits = OBJECTIVE_KEYS[key]
        if not fits(value):
            raise ValueError(f"objective document: {key} must be {kind}")
    bad = []
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


def pair_risk(support: SupportCounts, spec: ObjectiveSpec) -> dict[tuple[int, int], np.ndarray]:
    """The support risk of every factor pair j < k as an (L_j, L_k) matrix
    ``g / (n + g)``, with g the pair's gamma and n its record counts. This is
    the one place the risk term is written."""
    space = support.space
    risk = {}
    for j, k in space.pairs():
        g = spec.gamma_for(space, j, k)
        risk[(j, k)] = g / (support.pair_counts[(j, k)] + g)
    return risk


def _check_bans(space: FactorSpace, spec: ObjectiveSpec) -> None:
    """Reject a banned level or banned config that names no cell of the
    space, naming the first one."""
    d = space.num_factors
    for j, levels in spec.banned_levels.items():
        if not 0 <= j < d:
            raise ValueError(f"banned levels of factor {j}: the space has factors 0..{d - 1}")
        L = space.level_counts[j]
        for lvl in sorted(levels):
            if not 0 <= lvl < L:
                raise ValueError(f"banned level {lvl} of factor {space.names[j]!r} "
                                 f"is out of range 0..{L - 1}")
    for cfg in spec.banned_configs:
        if len(cfg) != d:
            raise ValueError(f"banned config {cfg} has {len(cfg)} levels, not {d}")
        if not all(0 <= lvl < L for lvl, L in zip(cfg, space.level_counts)):
            raise ValueError(f"banned config {cfg} has a level out of range")


def _check_finite(space: FactorSpace, effects: EffectTable | BootstrapReplicates) -> None:
    """Reject a non-finite baseline, main entry or pair entry, naming the
    first factor or pair that holds one: -inf is how J marks a banned level."""
    bad = [] if np.isfinite(effects.mu).all() else ["mu"]
    bad += [f"main effect of factor {space.names[j]!r}"
            for j, g in enumerate(effects.mains) if not np.isfinite(g).all()]
    bad += [f"interaction of pair {space.names[j]!r}|{space.names[k]!r}"
            for (j, k), h in sorted(effects.pairs.items()) if not np.isfinite(h).all()]
    if bad:
        raise ValueError(f"effects must be finite; {bad[0]} is not")


@dataclass(frozen=True, eq=False)
class PairwiseObjective:
    """J as one pairwise model: ``const + sum_j unary[j][x_j] + sum_{j<k}
    pairs[j, k][x_j, x_k]``, with

    - ``unary[j] = main_j - lambda_cost * cost_j``, -inf on banned levels;
    - ``pairs[j, k] = pair_jk - lambda_risk * pair_risk_jk``;
    - ``const = mu - lambda_cost * cost offset``.

    Built from an ``EffectTable`` the terms are plain arrays; built from a
    stack of tables (``BootstrapReplicates``, or a batch of simulation
    trials with a support stacked alike) each carries a leading axis, and
    ``entry(t)`` is one table's model. Every evaluator adds the terms in that
    order and reads -inf where the configuration is infeasible.
    """

    space: FactorSpace
    const: np.ndarray
    unary: tuple[np.ndarray, ...]
    pairs: dict[tuple[int, int], np.ndarray]
    banned_configs: frozenset[Config]

    @classmethod
    def build(cls, effects: EffectTable | BootstrapReplicates, support: SupportCounts,
              spec: ObjectiveSpec, cost: CostModel | None = None) -> "PairwiseObjective":
        space = support.space
        _check_bans(space, spec)
        _check_finite(space, effects)
        cost = cost or CostModel.zero(space)
        unary = []
        for j, (g, c) in enumerate(zip(effects.mains, cost.level_costs)):
            u = g - spec.lambda_cost * c
            u[..., sorted(spec.banned_levels.get(j, ()))] = -np.inf
            unary.append(u)
        pairs = {jk: effects.pairs[jk] - spec.lambda_risk * r
                 for jk, r in pair_risk(support, spec).items()}
        const = np.asarray(effects.mu - spec.lambda_cost * cost.offset)
        return cls(space, const, tuple(unary), pairs, spec.banned_configs)

    def allowed_levels(self) -> list[list[int]]:
        """Per factor, the levels that are not banned: those where
        ``unary[j]`` is above -inf."""
        allowed = [np.flatnonzero(u > -np.inf).tolist() for u in self.unary]
        for name, levels in zip(self.space.names, allowed):
            if not levels:
                raise InfeasibleConfigError(f"factor {name!r} has no allowed levels")
        return allowed

    def entry(self, t: int) -> "PairwiseObjective":
        """Entry t of the leading axis of a stacked model, as a model."""
        return PairwiseObjective(self.space, self.const[t], tuple(u[t] for u in self.unary),
                                 {jk: h[t] for jk, h in self.pairs.items()}, self.banned_configs)

    def at(self, X: np.ndarray, which: np.ndarray | None = None) -> np.ndarray:
        """J at each row of the (R, d) level array X, shape (..., R). With
        ``which``, row r is scored by entry ``which[r]`` of a stacked model
        alone, shape (R,)."""
        X = self.space.validate_configs(X)
        lead = (...,) if which is None else (which,)
        value = (np.add.outer(self.const, np.zeros(len(X))) if which is None
                 else self.const[which] + np.zeros(len(X)))
        for j, u in enumerate(self.unary):
            value += u[lead + (X[:, j],)]
        for (j, k), h in self.pairs.items():
            value += h[lead + (X[:, j], X[:, k])]
        for cfg in self.banned_configs:
            value[..., (X == cfg).all(axis=1)] = -np.inf
        return value

    def level_scores(self, j: int, X: np.ndarray, which: np.ndarray | None = None) -> np.ndarray:
        """The terms of J that depend on factor j, over all its levels, one
        row per context in the (R, d) level array X: ``unary[j]`` plus each
        other factor's pair term in declaration order. Differences across a
        row equal differences of J. With ``which``, row r reads entry
        ``which[r]`` of a stacked model."""
        if not 0 <= j < self.space.num_factors:
            raise ValueError(f"factor index {j} is out of range 0..{self.space.num_factors - 1}")
        X = self.space.validate_configs(X)
        lead = () if which is None else (which,)
        scores = np.tile(self.unary[j], (len(X), 1)) if which is None else self.unary[j][which]
        for k in range(self.space.num_factors):
            if k < j:
                scores += self.pairs[(k, j)][lead + (X[:, k],)]
            elif k > j:
                h = self.pairs[(j, k)]
                scores += h[:, X[:, k]].T if which is None else h[which, :, X[:, k]]
        if self.banned_configs:
            others = np.delete(X, j, axis=1)
            for cfg in self.banned_configs:
                scores[(others == np.delete(cfg, j)).all(axis=1), cfg[j]] = -np.inf
        return scores

    def grid(self) -> np.ndarray:
        """J over the whole grid as a tensor."""
        J = np.full(self.space.level_counts, float(self.const))
        J = broadcast_sum(J, (((j,), u) for j, u in enumerate(self.unary)))
        J = broadcast_sum(J, self.pairs.items())
        for cfg in self.banned_configs:
            J[cfg] = -np.inf
        return J


def objective(model: PairwiseObjective, x: Sequence[int]) -> float:
    """Risk- and cost-adjusted score of a feasible configuration."""
    x = model.space.validate_config(x)
    value = float(model.at([x])[0])
    if value == -np.inf:
        raise InfeasibleConfigError(f"configuration {x} is outside the feasible set")
    return value


def objective_grid(model: PairwiseObjective) -> tuple[np.ndarray, np.ndarray]:
    """J over the whole grid (-inf where infeasible) plus the feasibility mask."""
    J = model.grid()
    return J, J > -np.inf
