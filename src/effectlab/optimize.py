"""Coordinate-ascent search over the feasible set with optimality diagnostics.

One sweep updates each factor in declaration order to the level with the
largest local gain, accepting only strict improvements and breaking ties by
lowest level index. The endpoint of a converged run is 1-swap optimal; a
diagonal-dominance certificate upgrades that to global optimality.

Every function here reads one built ``PairwiseObjective`` (the model):
allowed levels, feasibility and bans come from it, so a command builds J once
and passes it to the search, the certificate and the bounds. A search
advances every restart together as one level array; each score adds its
terms in the same order whatever the restart count, so a restart's trace
equals its one-start ascent. ``multistart_each`` runs the restarts of every
entry of a stacked model (a batch of simulation trials) the same way, each
row scored against its own entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .objective import InfeasibleConfigError, PairwiseObjective
from .space import Config, FactorSpace

# The dominance certificate enumerates a factor's contexts up to this many;
# above it, it samples this many from a fixed SeedSequence(0).
DOMINANCE_CONTEXT_CAP = 100_000
DOMINANCE_SAMPLE_CONTEXTS = 2048


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
            # A factor with one allowed level has no second best: its margin
            # is infinite, and JSON has no infinity, so it is written as null.
            "margins": {name: float(m) if m < math.inf else None
                        for name, m in zip(space.names, self.margins)},
            "influence": {
                f"{space.names[j]}|{space.names[k]}": float(self.influence[j, k])
                for j in range(len(space.names))
                for k in range(len(space.names))
                if j != k
            },
            "contexts_checked": list(self.contexts_checked),
        }


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def _ascend(model: PairwiseObjective, starts: list[Config], max_sweeps: int,
            which: np.ndarray | None = None) -> list[SearchTrace]:
    """Coordinate ascent from every feasible start at once, the starts
    advancing together as the rows of one level array; with ``which``, row r
    ascends entry ``which[r]`` of a stacked model.

    A row leaves the batch after a sweep with no move; that sweep scored
    every single-factor swap at its endpoint and found no strict gain, so
    the endpoint is 1-swap optimal.
    """
    X = np.array(starts, dtype=np.intp)
    steps = [[(0, x, v)] for x, v in zip(starts, model.at(X, which).tolist())]
    converged = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
    for sweep in range(1, max_sweeps + 1):
        rows, moved = X[live], np.zeros(len(live), dtype=bool)
        entries = None if which is None else which[live]
        for j in range(model.space.num_factors):
            scores = model.level_scores(j, rows, entries)
            best = np.argmax(scores, axis=1)
            at = np.arange(len(rows))
            move = (best != rows[:, j]) & (scores[at, best] - scores[at, rows[:, j]] > 0)
            rows[move, j] = best[move]
            moved |= move
        X[live] = rows
        for r, x, v in zip(live, rows.tolist(), model.at(rows, entries).tolist()):
            steps[r].append((sweep, tuple(x), v))
        converged[live[~moved]] = True
        live = live[moved]
        if not len(live):
            break
    return [SearchTrace(s, s[-1][1], "converged" if done else "max_sweeps", True if done else None)
            for s, done in zip(steps, converged.tolist())]


def coordinate_ascent(model: PairwiseObjective, start: Sequence[int],
                      search: SearchSpec | None = None) -> tuple[Config, SearchTrace]:
    """Sweep factors in declaration order until no strict improvement.

    Ties between equally good levels go to the lowest index, and a move is
    accepted only when its gain is strictly positive, which rules out
    equal-value cycles. A converged endpoint is 1-swap optimal.
    """
    search = search or SearchSpec()
    x = model.space.validate_config(start)
    if model.at([x])[0] == -np.inf:
        raise InfeasibleConfigError(f"start configuration {x} is infeasible")
    (trace,) = _ascend(model, [x], search.max_sweeps)
    return trace.final, trace


def multistart(model: PairwiseObjective, mains: Sequence[np.ndarray],
               search: SearchSpec | None = None) -> tuple[Config, list[SearchTrace]]:
    """Greedy start plus random restarts drawn from per-factor top levels.

    Levels rank by ``mains``, the table's main effects, ties going to the
    lowest index: the greedy start takes each factor's best allowed level,
    and the restarts draw from its ``search.beam`` best. Restart r derives
    its RNG from (seed, r), so results do not depend on scheduling. A
    restart whose 100 draws find no feasible start, like an infeasible
    greedy start, is dropped. All restarts then ascend together.
    The winner is the endpoint with the best objective; exact ties go to the
    lexicographically smallest configuration.
    """
    search = search or SearchSpec()
    traces = _ascend(model, _starts(model, mains, search), search.max_sweeps)
    return _winner(traces), traces


def multistart_each(model: PairwiseObjective, mains: Sequence[np.ndarray], search: SearchSpec,
                    seeds: Sequence[int]) -> list[tuple[Config, list[SearchTrace]]]:
    """``multistart`` of every entry t of a stacked model (``model.entry(t)``)
    at once: entry t ranks levels by ``[g[t] for g in mains]`` and draws its
    restarts with ``seeds[t]`` in place of ``search.seed``, then every
    (entry, restart) row ascends in one lockstep batch, each scored against
    its own entry. Entry t's winner and traces are its own ``multistart``'s."""
    starts = [_starts(model.entry(t), [g[t] for g in mains], replace(search, seed=seed))
              for t, seed in enumerate(seeds)]
    which = np.repeat(np.arange(len(starts)), [len(s) for s in starts])
    traces = _ascend(model, [x for s in starts for x in s], search.max_sweeps, which)
    bounds = np.cumsum([0] + [len(s) for s in starts]).tolist()
    return [(_winner(traces[a:b]), traces[a:b]) for a, b in zip(bounds, bounds[1:])]


def _starts(model: PairwiseObjective, mains: Sequence[np.ndarray],
            search: SearchSpec) -> list[Config]:
    """``multistart``'s feasible starts: the greedy one, then one per restart."""
    ranked = [sorted(levels, key=lambda l: (-g[l], l))
              for g, levels in zip(mains, model.allowed_levels())]
    starts = [tuple(top[0] for top in ranked)]
    tops = [top[: search.beam] for top in ranked]
    children = np.random.SeedSequence(search.seed).spawn(max(search.restarts - 1, 0))
    for child in children:
        rng = np.random.default_rng(child)
        for _ in range(100):
            cand = tuple(int(top[rng.integers(0, len(top))]) for top in tops)
            if cand not in model.banned_configs:
                starts.append(cand)
                break

    # Every start takes allowed levels only, so a ban can only be a config.
    starts = [x for x in starts if x not in model.banned_configs]
    if not starts:
        raise InfeasibleConfigError("no feasible start configuration found")
    return starts


def _winner(traces: list[SearchTrace]) -> Config:
    """The endpoint with the best objective, exact ties going to the
    lexicographically smallest configuration."""
    return max(traces, key=lambda t: (t.steps[-1][2], tuple(-c for c in t.final))).final


def verify_1swap(model: PairwiseObjective, x: Sequence[int]
                 ) -> tuple[bool, tuple[int, int, float] | None]:
    """Exhaustive scan of all single-factor substitutions.

    Returns (True, None) when no feasible swap strictly increases the
    objective, else (False, (factor, level, gain)) for the best violation,
    ties going to the first factor and then the lowest level.
    """
    x = model.space.validate_config(x)
    if model.at([x])[0] == -np.inf:
        raise InfeasibleConfigError(f"configuration {x} is infeasible")
    best: tuple[int, int, float] | None = None
    for j in range(model.space.num_factors):
        scores = model.level_scores(j, [x])[0]
        gains = scores - scores[x[j]]
        lvl = int(np.argmax(gains))
        if gains[lvl] > 0 and (best is None or gains[lvl] > best[2]):
            best = (j, lvl, float(gains[lvl]))
    return best is None, best


# ---------------------------------------------------------------------------
# Dominance certificate
# ---------------------------------------------------------------------------

def diag_dominance_check(model: PairwiseObjective) -> DominanceReport:
    """Certificate that every 1-swap optimum is the global optimum.

    ``influence[j, k]`` bounds how much a change in factor k can move factor
    j's local objective at any level. ``margins[j]`` is the smallest gap
    between the best and second-best local objective of factor j over
    feasible contexts, enumerated exactly when the context count is within
    ``DOMINANCE_CONTEXT_CAP`` and otherwise sampled,
    ``DOMINANCE_SAMPLE_CONTEXTS`` of them (then the certificate is
    approximate and marked non-exact). Banned configs break the product
    structure of contexts, so their presence voids the certificate.
    """
    d = model.space.num_factors
    rng = np.random.default_rng(np.random.SeedSequence(0))
    allowed = model.allowed_levels()

    # Pair term of factor k on factor j's allowed levels, per ordered pair,
    # shared by the influence bounds and the margins.
    pair_scores = {}
    for (j, k), h in model.pairs.items():
        pair_scores[(j, k)] = h[np.ix_(allowed[j], allowed[k])]
        pair_scores[(k, j)] = pair_scores[(j, k)].T
    influence = np.zeros((d, d))
    for (j, k), h in pair_scores.items():
        influence[j, k] = float((h.max(axis=1) - h.min(axis=1)).max())

    margins = np.full(d, math.inf)
    contexts_checked = []
    exact = not model.banned_configs
    for j in range(d):
        if len(allowed[j]) < 2:
            contexts_checked.append(0)
            continue
        others = [k for k in range(d) if k != j]
        sizes = [len(allowed[k]) for k in others]
        n_contexts = math.prod(sizes)
        if n_contexts <= DOMINANCE_CONTEXT_CAP:
            # Every context as a row of level positions, in C order.
            idx = np.indices(sizes, np.min_scalar_type(max(sizes, default=0)))
            idx = idx.reshape(-1, n_contexts).T
        else:
            # All contexts in one call, context-major: the same stream as one
            # scalar draw per context factor per context.
            exact = False
            samples = DOMINANCE_SAMPLE_CONTEXTS
            idx = rng.integers(0, np.tile(sizes, samples)).reshape(samples, len(others))
        # Local objectives: one row per allowed level of j, one column per context;
        # in mode "clip", take writes into `gathered` unbuffered (idx is in range).
        flat = np.repeat(model.unary[j][allowed[j]][:, None], len(idx), axis=1)
        gathered = np.empty_like(flat)
        for pos, k in enumerate(others):
            flat += np.take(pair_scores[j, k], idx[:, pos], axis=1, out=gathered, mode="clip")
        contexts_checked.append(len(idx))
        top2 = np.sort(flat, axis=0)[-2:, :]
        margins[j] = float((top2[1] - top2[0]).min())

    holds = bool(np.all(influence.sum(axis=1) < margins)) and not model.banned_configs
    return DominanceReport(margins, influence, holds, exact, tuple(contexts_checked))


# ---------------------------------------------------------------------------
# Gap bounds
# ---------------------------------------------------------------------------

def near_opt_bound(epsilon: float) -> float:
    """Value loss of maximizing a surrogate within epsilon of the truth."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return 2.0 * epsilon


def two_swap_bound(model: PairwiseObjective, x_hat: Sequence[int]) -> float:
    """Upper bound on J(y) - J(x_hat) over the feasible set for a 1-swap
    optimal x_hat: the positive part of each unary and pair term's best
    allowed improvement over its value at x_hat, summed."""
    x = model.space.validate_config(x_hat)
    ok, violation = verify_1swap(model, x)
    if not ok:
        raise ValueError(f"x_hat is not 1-swap optimal; improving swap {violation}")

    allowed = model.allowed_levels()
    total = 0.0
    for j, u in enumerate(model.unary):
        total += max(float(u.max() - u[x[j]]), 0.0)
    for (j, k), h in model.pairs.items():
        total += max(float(h[np.ix_(allowed[j], allowed[k])].max() - h[x[j], x[k]]), 0.0)
    return total
