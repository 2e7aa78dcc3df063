"""Coordinate-ascent search over the feasible set with optimality diagnostics.

One sweep updates each factor in declaration order to the level with the
largest local gain, accepting only strict improvements and breaking ties by
lowest level index. The endpoint of a converged run is 1-swap optimal; a
diagonal-dominance certificate upgrades that to global optimality.

A search call builds its tables once and advances every restart together as
one level array; each score adds its terms in the same order whatever the
restart count, so a restart's trace equals its one-start ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .effects import EffectTable
from .objective import (
    CostModel,
    InfeasibleConfigError,
    ObjectiveSpec,
    _objective_at,
    broadcast_sum,
    pair_risk,
)
from .space import Config, FactorSpace, SupportCounts

DOMINANCE_CONTEXT_CAP = 100_000


@dataclass(frozen=True)
class SearchSpec:
    restarts: int = 4
    beam: int = 2
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        if self.beam < 1:
            raise ValueError("beam width must be at least 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass
class SearchTrace:
    steps: list[tuple[int, Config, float]]
    final: Config
    termination: str  # "converged" | "max_sweeps"
    verified_1swap: bool | None = None

    @property
    def values(self) -> list[float]:
        return [v for _, _, v in self.steps]


@dataclass(eq=False)
class DominanceReport:
    margins: np.ndarray            # m_j per factor
    influence: np.ndarray          # L_jk, zero diagonal
    holds: bool
    exact: bool
    contexts_checked: tuple[int, ...]

    def to_dict(self, space: FactorSpace) -> dict:
        return {
            "holds": bool(self.holds),
            "exact": bool(self.exact),
            "margins": {name: float(m) for name, m in zip(space.names, self.margins)},
            "influence": {
                f"{space.names[j]}|{space.names[k]}": float(self.influence[j, k])
                for j in range(len(space.names))
                for k in range(len(space.names))
                if j != k
            },
            "contexts_checked": list(self.contexts_checked),
        }


# ---------------------------------------------------------------------------
# Local objective
# ---------------------------------------------------------------------------

def _search_tables(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec
                   ) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Per ordered factor pair j != k, factor k's interaction and scaled risk
    in factor j's local objective, each an (L_j, L_k) matrix."""
    tables = {}
    for (j, k), risk in pair_risk(support, spec, spec.lambda_risk).items():
        tables[(j, k)] = (table.pair(j, k), risk)
        tables[(k, j)] = (table.pair(k, j), risk.T)
    return tables


def _level_scores(tables, table: EffectTable, spec: ObjectiveSpec, cost: CostModel,
                  j: int, X: np.ndarray) -> np.ndarray:
    """Local objectives over all levels of factor j (NaN = banned), one row
    per context in the (R, d) level array X. Every entry adds its terms in
    the same order whatever R is: main, then pair and risk of each other
    factor in declaration order, then cost."""
    scores = np.tile(table.mains[j].astype(float), (len(X), 1))
    for k in range(table.space.num_factors):
        if k == j:
            continue
        pair, risk = tables[(j, k)]
        scores += pair[:, X[:, k]].T
        scores -= risk[:, X[:, k]].T
    c = cost.level_costs[j]
    scores -= spec.lambda_cost * (c - c[X[:, j], None])
    scores[:, sorted(spec.banned_levels.get(j, ()))] = np.nan
    if spec.banned_configs:
        others = np.delete(X, j, axis=1)
        for cfg in spec.banned_configs:
            scores[(others == np.delete(cfg, j)).all(axis=1), cfg[j]] = np.nan
    return scores


def _local_scores(tables, table: EffectTable, spec: ObjectiveSpec, cost: CostModel,
                  j: int, x: Config) -> np.ndarray:
    """Vector of local objectives over all levels of factor j (NaN = banned)."""
    return _level_scores(tables, table, spec, cost, j, np.array([x]))[0]


def local_gain(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
               cost: CostModel | None, j: int, level: int, x: Sequence[int]) -> float:
    """Local objective of setting factor j to ``level`` in context x.

    Differences of this function across levels equal the corresponding
    differences of the full objective.
    """
    x = table.space.validate_config(x)
    if not spec.level_allowed(j, level):
        raise InfeasibleConfigError(f"level {level} of factor {j} is banned")
    swapped = x[:j] + (level,) + x[j + 1:]
    if swapped in spec.banned_configs:
        raise InfeasibleConfigError(f"configuration {swapped} is banned")
    cost = cost or CostModel.zero(table.space)
    tables = _search_tables(table, support, spec)
    return float(_local_scores(tables, table, spec, cost, j, x)[level])


def _ascend(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
            cost: CostModel, starts: list[Config], max_sweeps: int) -> list[SearchTrace]:
    """Coordinate ascent from every feasible start at once, the starts
    advancing together as the rows of one level array.

    The tables and pair risks are built once. A row leaves the batch after a
    sweep with no move; that sweep scored every single-factor swap at its
    endpoint and found no strict gain, so the endpoint is 1-swap optimal.
    """
    tables = _search_tables(table, support, spec)
    risk = pair_risk(support, spec)
    X = np.array(starts, dtype=np.intp)
    steps = [[(0, x, v)] for x, v in zip(starts, _objective_at(table, X, risk, spec, cost))]
    converged = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
    for sweep in range(1, max_sweeps + 1):
        rows, moved = X[live], np.zeros(len(live), dtype=bool)
        for j in range(table.space.num_factors):
            scores = _level_scores(tables, table, spec, cost, j, rows)
            best = np.nanargmax(scores, axis=1)
            at = np.arange(len(rows))
            move = (best != rows[:, j]) & (scores[at, best] - scores[at, rows[:, j]] > 0)
            rows[move, j] = best[move]
            moved |= move
        X[live] = rows
        for r, x, v in zip(live, rows.tolist(), _objective_at(table, rows, risk, spec, cost)):
            steps[r].append((sweep, tuple(x), v))
        converged[live[~moved]] = True
        live = live[moved]
        if not len(live):
            break
    return [SearchTrace(s, s[-1][1], "converged" if done else "max_sweeps", True if done else None)
            for s, done in zip(steps, converged.tolist())]


def coordinate_ascent(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
                      cost: CostModel | None, start: Sequence[int],
                      search: SearchSpec | None = None) -> tuple[Config, SearchTrace]:
    """Sweep factors in declaration order until no strict improvement.

    Ties between equally good levels go to the lowest index, and a move is
    accepted only when its gain is strictly positive, which rules out
    equal-value cycles. A converged endpoint is 1-swap optimal.
    """
    search = search or SearchSpec()
    space = table.space
    x = space.validate_config(start)
    if not spec.feasible(x):
        raise InfeasibleConfigError(f"start configuration {x} is infeasible")
    (trace,) = _ascend(table, support, spec, cost or CostModel.zero(space), [x],
                       search.max_sweeps)
    return trace.final, trace


def _greedy_start(table: EffectTable, spec: ObjectiveSpec) -> Config:
    """Per-factor argmax of the main effects over allowed levels."""
    space = table.space
    start = []
    for j in range(space.num_factors):
        allowed = spec.allowed_levels(space, j)
        if not allowed:
            raise InfeasibleConfigError(f"factor {space.names[j]!r} has no allowed levels")
        g = table.mains[j]
        start.append(max(allowed, key=lambda l: (g[l], -l)))
    return tuple(start)


def multistart(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
               cost: CostModel | None, search: SearchSpec | None = None
               ) -> tuple[Config, list[SearchTrace]]:
    """Greedy start plus random restarts drawn from per-factor top levels.

    Restart r derives its RNG from (seed, r), so results do not depend on
    scheduling. A restart whose 100 draws find no feasible start, like an
    infeasible greedy start, is dropped. All restarts then ascend together.
    The winner is the endpoint with the best objective; exact ties go to the
    lexicographically smallest configuration.
    """
    search = search or SearchSpec()
    space = table.space
    cost = cost or CostModel.zero(space)

    starts = [_greedy_start(table, spec)]
    tops = [sorted(spec.allowed_levels(space, j), key=lambda l: (-table.mains[j][l], l))
            [: search.beam] for j in range(space.num_factors)]
    children = np.random.SeedSequence(search.seed).spawn(max(search.restarts - 1, 0))
    for child in children:
        rng = np.random.default_rng(child)
        for _ in range(100):
            cand = tuple(int(top[rng.integers(0, len(top))]) for top in tops)
            if spec.feasible(cand):
                starts.append(cand)
                break

    starts = [x for x in starts if spec.feasible(x)]
    if not starts:
        raise InfeasibleConfigError("no feasible start configuration found")
    traces = _ascend(table, support, spec, cost, starts, search.max_sweeps)
    best = max(traces, key=lambda t: (t.steps[-1][2], tuple(-c for c in t.final)))
    return best.final, traces


def verify_1swap(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
                 cost: CostModel | None, x: Sequence[int]
                 ) -> tuple[bool, tuple[int, int, float] | None]:
    """Exhaustive scan of all single-factor substitutions.

    Returns (True, None) when no feasible swap strictly increases the
    objective, else (False, (factor, level, gain)) for the best violation,
    ties going to the first factor and then the lowest level.
    """
    space = table.space
    cost = cost or CostModel.zero(space)
    x = space.validate_config(x)
    if not spec.feasible(x):
        raise InfeasibleConfigError(f"configuration {x} is infeasible")
    tables = _search_tables(table, support, spec)
    best: tuple[int, int, float] | None = None
    for j in range(space.num_factors):
        scores = _local_scores(tables, table, spec, cost, j, x)
        gains = scores - scores[x[j]]
        lvl = int(np.nanargmax(gains))
        if gains[lvl] > 0 and (best is None or gains[lvl] > best[2]):
            best = (j, lvl, float(gains[lvl]))
    return best is None, best


# ---------------------------------------------------------------------------
# Dominance certificate
# ---------------------------------------------------------------------------

def diag_dominance_check(table: EffectTable, support: SupportCounts,
                         spec: ObjectiveSpec, cost: CostModel | None = None,
                         context_cap: int = DOMINANCE_CONTEXT_CAP,
                         sample_contexts: int = 2048, seed: int = 0) -> DominanceReport:
    """Certificate that every 1-swap optimum is the global optimum.

    ``influence[j, k]`` bounds how much a change in factor k can move factor
    j's local objective at any level. ``margins[j]`` is the smallest gap
    between the best and second-best local objective of factor j over
    feasible contexts, enumerated exactly when the context count is within
    ``context_cap`` and otherwise sampled (then the certificate is
    approximate and marked non-exact). Banned configs break the product
    structure of contexts, so their presence voids the certificate.
    """
    space = table.space
    cost = cost or CostModel.zero(space)
    d = space.num_factors
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    allowed = [spec.allowed_levels(space, j) for j in range(d)]
    for j in range(d):
        if not allowed[j]:
            raise InfeasibleConfigError(f"factor {space.names[j]!r} has no allowed levels")

    # Interaction-plus-risk score of factor k on factor j's allowed levels,
    # shared by the influence bounds and the margins.
    pair_scores = {
        (j, k): (pair - risk)[np.ix_(allowed[j], allowed[k])]
        for (j, k), (pair, risk) in _search_tables(table, support, spec).items()
    }
    influence = np.zeros((d, d))
    for (j, k), h in pair_scores.items():
        influence[j, k] = float((h.max(axis=1) - h.min(axis=1)).max())

    margins = np.full(d, math.inf)
    contexts_checked = []
    exact = not spec.banned_configs
    for j in range(d):
        if len(allowed[j]) < 2:
            contexts_checked.append(0)
            continue
        others = [k for k in range(d) if k != j]
        sizes = [len(allowed[k]) for k in others]
        n_contexts = math.prod(sizes)
        base = table.mains[j][allowed[j]] - spec.lambda_cost * cost.level_costs[j][allowed[j]]
        if n_contexts <= context_cap:
            # Tensor of local objectives: level axis first, one axis per context factor.
            terms = [((0,), base)] + [((0, 1 + pos), pair_scores[j, k])
                                      for pos, k in enumerate(others)]
            scores = broadcast_sum(np.zeros([len(allowed[j])] + sizes), terms)
            flat = scores.reshape(len(allowed[j]), -1)
            contexts_checked.append(int(flat.shape[1]))
        else:
            # All contexts in one call, context-major: the same stream as one
            # scalar draw per context factor per context.
            exact = False
            idx = rng.integers(0, np.tile(sizes, sample_contexts))
            idx = idx.reshape(sample_contexts, len(others))
            flat = base[:, None]
            for pos, k in enumerate(others):
                flat = flat + pair_scores[j, k][:, idx[:, pos]]
            contexts_checked.append(sample_contexts)
        top2 = np.sort(flat, axis=0)[-2:, :]
        margins[j] = float((top2[1] - top2[0]).min())

    holds = bool(np.all(influence.sum(axis=1) < margins)) and not spec.banned_configs
    return DominanceReport(margins, influence, holds, exact, tuple(contexts_checked))


# ---------------------------------------------------------------------------
# Gap bounds
# ---------------------------------------------------------------------------

def near_opt_bound(epsilon: float) -> float:
    """Value loss of maximizing a surrogate within epsilon of the truth."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return 2.0 * epsilon


def two_swap_bound(table: EffectTable, support: SupportCounts, spec: ObjectiveSpec,
                   cost: CostModel | None, x_hat: Sequence[int]) -> float:
    """Upper bound on J(y) - J(x_hat) over the feasible set for a 1-swap
    optimal x_hat: positive-part maxima of main, interaction, risk-saving,
    and cost-saving terms."""
    space = table.space
    cost = cost or CostModel.zero(space)
    x = space.validate_config(x_hat)
    ok, violation = verify_1swap(table, support, spec, cost, x)
    if not ok:
        raise ValueError(f"x_hat is not 1-swap optimal; improving swap {violation}")

    total = 0.0
    for j in range(space.num_factors):
        allowed = spec.allowed_levels(space, j)
        g = table.mains[j]
        total += max(max(float(g[l] - g[x[j]]) for l in allowed), 0.0)
        if spec.lambda_cost:
            c = cost.level_costs[j]
            total += spec.lambda_cost * max(
                max(float(c[x[j]] - c[l]) for l in allowed), 0.0
            )
    for (j, k), r in pair_risk(support, spec).items():
        cells = np.ix_(spec.allowed_levels(space, j), spec.allowed_levels(space, k))
        mat = table.pairs[(j, k)]
        total += max(float(mat[cells].max() - mat[x[j], x[k]]), 0.0)
        if spec.lambda_risk:
            total += spec.lambda_risk * max(float(r[x[j], x[k]] - r[cells].min()), 0.0)
    return total
