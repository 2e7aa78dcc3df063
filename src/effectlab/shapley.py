"""Shapley attribution of factor effects and least-squares table recovery.

The coalition value of a fixed configuration x and factor subset T is the
expectation of the response with the T coordinates pinned to x and the rest
drawn from a product-form background. For enumerable grids all coalition
values sit in one tensor, filled by one contraction per factor, so
attribution is exact at every factor count: each point's 2^d values are one
gather. Permutation sampling (``mc_shapley``) reads the same values. Both
return one ``ShapleyEstimate`` holding (n, d) arrays for all their points,
and the fit and the ``shapley.csv`` writer read those arrays as they are.
``reference_projection`` takes tables from value tensors with no attribution.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .effects import EffectTable, ShrinkageSpec, _finalize
from .space import (
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    enumerate_grid,
    log_from_arrays,
    open_atomic,
    support_counts,
)

EXACT_CELL_CAP = 1_000_000
# Cells of the coalition-value tensor, prod(L_j + 1): 1 GiB of float64.
TENSOR_CELL_CAP = 1 << 27
RANK_TOLERANCE = 1e-8
# fit_from_oracle evaluates on the full grid up to this many cells.
EVAL_GRID_CAP = 4096
# Coalition values per v_rows gather in exact attribution: a 16 MB buffer,
# 2048 points at d = 10.
GATHER_VALUES = 1 << 21
# Evaluation points per write in write_shapley_csv.
WRITE_POINTS = 1024


class RankDeficiencyError(ValueError):
    def __init__(self, message: str, blocks: list[str] | None = None):
        super().__init__(message)
        self.blocks = blocks or []


# ---------------------------------------------------------------------------
# Coalition values
# ---------------------------------------------------------------------------

class ValueOracle:
    """Evaluates v(T) = E[f(x_T, X_rest)] under a product background.

    Built from response values over the grid, or from the cell means of a
    run log (``from_log``). Every coalition value sits in one (L_1+1) x ... x
    (L_d+1) tensor: index L_j on axis j means factor j averaged out under
    its background marginal, so v(T) at x reads x_j on the axes in T and L_j
    on the rest. The tensor is filled by one contraction per axis, last axis
    first, and ``values`` is a view of its first L_j levels.
    """

    def __init__(self, space: FactorSpace, reference: ReferenceDistribution,
                 values: np.ndarray, bound: float | None = None,
                 padded_cells: int = 0):
        self._check(space, reference)
        self.space = space
        self.reference = reference
        levels = space.level_counts
        self._tensor = np.empty(tuple(L + 1 for L in levels))
        self.values = self._tensor[tuple(slice(L) for L in levels)]
        self.values[...] = np.asarray(values, dtype=float).reshape(levels)
        for j in reversed(range(space.num_factors)):
            head = tuple(slice(L) for L in levels[:j])
            np.einsum("...l,l->...", np.moveaxis(self._tensor[head + (slice(levels[j]),)], j, -1),
                      reference.marginal(j), out=self._tensor[head + (levels[j], ...)])
        self.bound = float(np.abs(self.values).max()) if bound is None else float(bound)
        self.padded_cells = padded_cells

    @staticmethod
    def _check(space: FactorSpace, reference: ReferenceDistribution) -> None:
        if not reference.is_product:
            raise ValueError(
                "coalition values need a product-form background; "
                "use reference.product_marginals() to convert an empirical one"
            )
        if space.grid_size > EXACT_CELL_CAP:
            raise ValueError(
                f"grid size {space.grid_size} exceeds the exact-evaluation cap {EXACT_CELL_CAP}"
            )
        cells = math.prod(L + 1 for L in space.level_counts)
        if cells > TENSOR_CELL_CAP:
            raise ValueError(
                f"coalition-value tensor of {cells} cells ({cells * 8 / 2**30:.2f} GiB) exceeds "
                f"the exact-evaluation cap of {TENSOR_CELL_CAP} cells"
            )

    @classmethod
    def from_log(cls, log: RunLog, reference: ReferenceDistribution) -> "ValueOracle":
        """The log's cell means; ``padded_cells`` counts the unobserved cells,
        which take the weighted baseline."""
        space = log.space
        cls._check(space, reference)  # before any grid-sized array
        size = space.grid_size
        flat = np.ravel_multi_index(log.configs_array.T, space.level_counts)
        w = log.weights
        sw = np.bincount(flat, weights=w, minlength=size)
        swf = np.bincount(flat, weights=w * log.responses, minlength=size)
        total = w.sum()
        mu = float(swf.sum() / total)
        values = np.full(size, mu)
        mask = sw > 0
        values[mask] = swf[mask] / sw[mask]
        return cls(space, reference, values, padded_cells=int(size - mask.sum()))

    @property
    def v_empty(self) -> float:
        return float(self._tensor[self.space.level_counts])

    def v(self, x: Sequence[int], subset: Iterable[int]) -> float:
        """Coalition value with the ``subset`` coordinates fixed to x."""
        x = self.space.validate_config(x)
        d = self.space.num_factors
        members = set()
        for j in subset:
            if not 0 <= int(j) < d:
                raise ValueError(f"subset index {j} out of range 0..{d - 1}")
            members.add(int(j))
        return float(self._tensor[tuple(x[j] if j in members else L
                                        for j, L in enumerate(self.space.level_counts))])

    def v_rows(self, points: np.ndarray) -> np.ndarray:
        """Coalition values at each row of an (n, d) level-index array:
        column ``mask`` holds the value of that factor subset. The flat
        tensor offsets double once per factor, so one gather reads them all."""
        X = self.space.validate_configs(points)
        levels = np.array(self.space.level_counts)
        strides = np.array(self._tensor.strides) // self._tensor.itemsize
        flat = np.full((len(X), 1), int(strides @ levels))
        for j in range(self.space.num_factors):
            step = strides[j] * (X[:, j] - levels[j])
            flat = np.concatenate([flat, flat + step[:, None]], axis=1)
        return self._tensor.take(flat)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShapleyEstimate:
    """Attributions at n evaluation points: row i of ``phi`` and
    ``variance`` holds the per-factor values at the level indices ``x[i]``,
    each from ``M`` marginal contributions (orderings sampled, or the
    2^(d-1) weighted subsets of exact attribution)."""

    x: np.ndarray
    phi: np.ndarray
    variance: np.ndarray
    M: int

    def __post_init__(self):
        arrays = (np.asarray(self.x, dtype=np.intp), np.asarray(self.phi, dtype=float),
                  np.asarray(self.variance, dtype=float))
        if arrays[0].ndim != 2 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("x, phi and variance must share one (n, d) shape; got "
                             + ", ".join(str(a.shape) for a in arrays))
        for name, a in zip(("x", "phi", "variance"), arrays):
            object.__setattr__(self, name, a)


def mc_shapley(oracle: ValueOracle, x: Sequence[int], M: int = 1000, seed: int = 0,
               return_contributions: bool = False):
    """Per-factor attribution of f(x) - v(empty), averaged over M uniformly
    random orderings: a batch of one point. Deterministic for a given seed;
    ``exact_shapley`` has no sampling error."""
    x = oracle.space.validate_config(x)
    d = len(x)
    if M < 1:
        raise ValueError("M must be at least 1")
    vx = oracle.v_rows(np.asarray([x]))[0]  # indexed by subset bitmask
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perms = np.argsort(rng.random((M, d)), axis=1)
    delta = np.empty((M, d))
    pre = np.zeros(M, dtype=np.int64)
    rows = np.arange(M)
    for t in range(d):
        j = perms[:, t]
        new = pre | (1 << j)
        delta[rows, j] = vx[new] - vx[pre]
        pre = new

    phi = delta.mean(axis=0)
    variance = delta.var(axis=0, ddof=1) if M > 1 else np.zeros(d)
    est = ShapleyEstimate([x], [phi], [variance], M=M)
    return (est, delta) if return_contributions else est


def exact_shapley(oracle: ValueOracle, points: Sequence[Sequence[int]]) -> ShapleyEstimate:
    """Exact attribution at every point: all subsets with their ordering
    weights, no sampling error. Coalition values are gathered for a chunk of
    points at a time, at most ``GATHER_VALUES`` values, then each factor's
    weighted marginal contributions are reduced for the whole chunk at once."""
    space = oracle.space
    d = space.num_factors
    X = space.validate_configs(points)
    sizes = sum((np.arange(1 << d) >> j) & 1 for j in range(d))
    fact = [math.factorial(i) for i in range(d + 1)]
    weight_of_size = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    # In a (..., -1, 2, 2**j) view of the subset axis, index 0 of the size-2
    # axis holds the subsets without factor j and index 1 the same subsets
    # with it.
    weights = [weight_of_size[sizes.reshape(-1, 2, 1 << j)[:, 0].ravel()] for j in range(d)]

    chunk = max(1, GATHER_VALUES >> d)
    phi = np.empty(X.shape, dtype=float)
    variance = np.empty(X.shape, dtype=float)
    for start in range(0, len(X), chunk):
        rows = slice(start, start + chunk)
        vx = oracle.v_rows(X[rows])
        for j, w in enumerate(weights):
            halves = vx.reshape(len(vx), -1, 2, 1 << j)
            delta = (halves[:, :, 1] - halves[:, :, 0]).reshape(len(vx), -1)
            phi[rows, j] = delta @ w
            variance[rows, j] = (delta - phi[rows, j, None]) ** 2 @ w
    return ShapleyEstimate(X, phi, variance, M=1 << (d - 1))


def exact_shapley_second_order(table: EffectTable, x: Sequence[int]) -> np.ndarray:
    """Closed-form attribution for a second-order table: each factor takes
    its main effect plus half of every interaction it participates in."""
    x = table.space.validate_config(x)
    d = table.space.num_factors
    phi = np.array([float(table.mains[j][x[j]]) for j in range(d)])
    for (j, k), mat in table.pairs.items():
        half = 0.5 * float(mat[x[j], x[k]])
        phi[j] += half
        phi[k] += half
    return phi


# ---------------------------------------------------------------------------
# Design matrix and least-squares recovery
# ---------------------------------------------------------------------------

def _centered_basis(pi: np.ndarray) -> np.ndarray:
    """L x (L-1) basis of the pi-mean-zero subspace: the first level with
    positive mass, the pivot p, absorbs -pi_l/pi_p of each other level l,
    which is free; the columns follow the free levels in order."""
    L = len(pi)
    p = int(np.argmax(pi > 0))
    free = [l for l in range(L) if l != p]
    U = np.zeros((L, L - 1))
    U[free, range(L - 1)] = 1.0
    U[p] = -pi[free] / pi[p]
    return U


def _design_terms(X: np.ndarray, space: FactorSpace, reference: ReferenceDistribution):
    """(factor indices, n x w coefficient block) of every parameter block of
    the design at the (n, d) points X, in column order: U_j for main j, then
    1/2 U_j (x) U_k for each pair j < k, U_j being the basis rows at X[:, j]."""
    U = [_centered_basis(reference.marginal(j))[X[:, j]] for j in range(space.num_factors)]
    return [((j,), u) for j, u in enumerate(U)] + [
        ((j, k), 0.5 * (U[j][:, :, None] * U[k][:, None, :]).reshape(len(X), -1))
        for j, k in space.pairs()]


@dataclass(eq=False)
class EffectDesignMatrix:
    """Linear system mapping free effect parameters to attributions.

    Rows are (evaluation point, factor) pairs; columns are the sum-to-zero
    reparametrized main and pair parameters. Pre-reparametrization each row
    touches one main entry with coefficient 1 and d-1 pair entries with
    coefficient 1/2.

    The system is kept factored block by block. Factor j's rows touch only
    its own w_j columns (main block j and every pair block holding j); that
    n x w_j block has the thin QR ``q_blocks[j] @ R_j``, and the R_j,
    stacked in the full columns, have the QR ``q_stack @ r``. So up to a row
    permutation the matrix is diag(q_blocks) @ q_stack @ r, and the p x p
    factor ``r`` carries its singular values; ``sigma_min`` is structurally
    0 when the stack has fewer than p rows. ``matrix`` is built when read;
    nothing in the fit or the rank diagnosis reads it.
    """

    space: FactorSpace
    reference: ReferenceDistribution
    eval_set: np.ndarray  # (n, d) level indices
    blocks: list[tuple[str, tuple[int, ...], slice]]
    sigma_min: float
    q_blocks: list[np.ndarray]
    q_stack: np.ndarray
    r: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.eval_set) * self.space.num_factors, self.r.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Row i*d + j is factor j's attribution at point i: its own main
        block, and half of every pair block it belongs to."""
        A3 = np.zeros((*self.eval_set.shape, self.shape[1]))
        for (idx, coeff), (_, _, sl) in zip(_design_terms(self.eval_set, self.space,
                                                          self.reference),
                                            self.blocks):
            A3[:, list(idx), sl] = coeff[:, None]
        return A3.reshape(self.shape)

    def block_names(self) -> list[str]:
        return ["|".join(self.space.names[j] for j in idx) for _, idx, _ in self.blocks]

    def deficient_blocks(self) -> list[str]:
        """Names of parameter blocks with weight in the near-null space. The
        design is r times factors with orthonormal columns, so r has its
        singular values and right singular vectors; with fewer rows than
        parameters, the extra rows of r's full vt span the structural null
        space."""
        _, s, vt = np.linalg.svd(self.r)
        rank = int((s >= RANK_TOLERANCE).sum())
        null_rows = vt[rank:]
        if null_rows.size == 0:
            return []
        return [name for (_, _, sl), name in zip(self.blocks, self.block_names())
                if np.abs(null_rows[:, sl]).max() > 1e-6]


def build_design_matrix(eval_set: Sequence[Sequence[int]], space: FactorSpace,
                        reference: ReferenceDistribution | None = None) -> EffectDesignMatrix:
    """The design of ``eval_set`` under a product reference, factored once:
    one thin QR per factor's n x w_j block of coefficients, one QR of the
    stacked triangular factors, and ``sigma_min`` from the SVD of the p x p
    result. The (n d) x p matrix itself is never built here."""
    if len(eval_set) == 0:
        raise ValueError("evaluation set is empty")
    reference = reference or ReferenceDistribution.uniform(space)
    if not reference.is_product:
        raise ValueError("design matrix needs a product-form reference")
    X = space.validate_configs(eval_set)

    blocks: list[tuple[str, tuple[int, ...], slice]] = []
    own: list[list[tuple[slice, np.ndarray]]] = [[] for _ in range(space.num_factors)]
    p = 0
    for idx, coeff in _design_terms(X, space, reference):
        sl = slice(p, p + coeff.shape[1])
        blocks.append(("main" if len(idx) == 1 else "pair", idx, sl))
        for j in idx:
            own[j].append((sl, coeff))
        p = sl.stop
    q_blocks, stack = [], []
    for mine in own:
        q_j, r_j = np.linalg.qr(np.hstack([coeff for _, coeff in mine]))
        q_blocks.append(q_j)
        stack.append(np.zeros((len(r_j), p)))
        stack[-1][:, np.r_[tuple(sl for sl, _ in mine)]] = r_j
    q_stack, r = np.linalg.qr(np.vstack(stack))
    # Fewer stacked rows than parameters: the null space is structural.
    sigma_min = float(np.linalg.svd(r, compute_uv=False)[-1]) if len(r) == p else 0.0
    return EffectDesignMatrix(space, reference, X, blocks, sigma_min, q_blocks, q_stack, r)


def fit_effects_sf(estimates: ShapleyEstimate, space: FactorSpace,
                   reference: ReferenceDistribution | None = None,
                   shrinkage: ShrinkageSpec | None = None, *,
                   support: SupportCounts | None = None, mu: float = 0.0) -> EffectTable:
    """Least squares in the sum-to-zero basis, mapped back to full tables,
    re-centered, then shrunk the same way as the cell-mean path.

    The solve reuses the design's factors, theta = r^-1 q_stack^T
    [q_blocks[j]^T phi_j], and so does the residual; it never builds the
    dense design. ``support`` supplies the shrinkage counts (defaults to
    counting the evaluation points); ``mu`` is the baseline to attach,
    typically the oracle's empty-coalition value.
    """
    X, phi = estimates.x, estimates.phi  # column j of phi is factor j's rows
    if not len(X):
        raise ValueError("no attribution estimates to fit")
    reference = reference or ReferenceDistribution.uniform(space)
    if X.shape[1] != space.num_factors:
        raise ValueError("estimate evaluated on an inconsistent space")

    design = build_design_matrix(X, space, reference)
    if design.sigma_min <= RANK_TOLERANCE:
        blocks = design.deficient_blocks()
        raise RankDeficiencyError(
            f"design matrix is rank deficient (sigma_min={design.sigma_min:.3e}); "
            f"unidentified blocks: {blocks}",
            blocks,
        )
    d = space.num_factors
    z = np.concatenate([q.T @ phi[:, j] for j, q in enumerate(design.q_blocks)])
    theta = np.linalg.solve(design.r, design.q_stack.T @ z)
    # Factor j's fitted rows are q_blocks[j] @ R_j theta; q_stack @ r stacks the R_j.
    r_theta = np.split(design.q_stack @ (design.r @ theta),
                       np.cumsum([q.shape[1] for q in design.q_blocks])[:-1])
    misfit = np.stack([q @ rt for q, rt in zip(design.q_blocks, r_theta)], axis=1) - phi

    bases = [_centered_basis(reference.marginal(j)) for j in range(d)]
    mains = [bases[j] @ theta[sl] for _, (j,), sl in design.blocks[:d]]
    pairs = {(j, k): bases[j] @ theta[sl].reshape(bases[j].shape[1], -1) @ bases[k].T
             for _, (j, k), sl in design.blocks[d:]}
    if support is None:
        support = support_counts(log_from_arrays(space, X, np.zeros(len(X))))
    mains, pairs = _finalize(reference, mains, pairs, shrinkage or ShrinkageSpec(),
                             support.level_counts, support.pair_counts)
    rows, params = design.shape
    return EffectTable(
        space=space,
        reference=reference,
        mu=float(mu),
        mains=mains,
        pairs=pairs,
        support=support,
        provenance="SF",
        diagnostics={"sigma_min": design.sigma_min, "rows": rows, "params": params,
                     "residual_norm": float(np.linalg.norm(misfit))},
        attributions=estimates,
    )


def fit_from_oracle(oracle: ValueOracle, log: RunLog,
                    shrinkage: ShrinkageSpec | None = None) -> EffectTable:
    """Attribution path: exact Shapley values of the oracle, then
    least-squares table recovery under the oracle's reference, shrunk by the
    log's support. The evaluation points are the full grid in lexicographic
    order when it has at most ``EVAL_GRID_CAP`` cells (always identifiable),
    otherwise the log's distinct configurations in order of first
    appearance. Nothing is sampled, so the table is seed-free.
    """
    space = log.space
    if space.grid_size <= EVAL_GRID_CAP:
        points = enumerate_grid(space)
    else:
        points = list(dict.fromkeys(tuple(c) for c in log.configs_array.tolist()))
    return fit_effects_sf(exact_shapley(oracle, points), oracle.space, oracle.reference,
                          shrinkage, support=log.support, mu=oracle.v_empty)


def reference_projection(values: np.ndarray, reference: ReferenceDistribution):
    """Order-2 functional-ANOVA tables of C value tensors F, stacked as
    (C, L_1, ..., L_d), under a product reference, raw, before ``_finalize``:
    mu = E[F], mains_j = E[F | x_j] - mu and pairs_jk = E[F | x_j, x_k] -
    mains_j - mains_k - mu. Under the uniform reference, least squares on
    exact Shapley values at every grid point recovers the same (Owen, 2014).
    Factors are averaged out last to first; ``means`` maps each set K of at
    most two factors passed so far to E[F | x_K], indexed by the rest, then K."""
    d = reference.space.num_factors
    means = {(): values}
    for j in reversed(range(d)):
        averaged = {}
        for keep, t in means.items():
            axes = list(range(t.ndim))
            averaged[keep] = np.einsum(t, axes, reference.marginal(j), [j + 1],
                                       axes[:j + 1] + axes[j + 2:])
            if len(keep) < 2:
                averaged[(j, *keep)] = t
        means = averaged
    mu = means[()]
    pairs = {(j, k): means[(j, k)] - means[(j,)][:, :, None] - means[(k,)][:, None, :]
             + mu[:, None, None] for j, k in reference.space.pairs()}
    return mu, [means[(j,)] - mu[:, None] for j in range(d)], pairs


def write_shapley_csv(estimates: ShapleyEstimate, space: FactorSpace,
                      path: str | Path, header_note: str | None = None) -> None:
    """Long-form dump: one row per (evaluation point, factor), the bytes a
    csv.writer row loop writes. The points' levels are checked against the
    space before the file is opened. Labels and names are quoted once, each
    point's label prefix is joined once, and rows go out ``WRITE_POINTS``
    points at a time to a file that replaces ``path`` once it is complete."""
    def quoted(text: str) -> str:
        # As csv.writer writes a field within a row of several: a row of one
        # empty field would be quoted.
        buf = io.StringIO()
        csv.writer(buf).writerow([text, ""])
        return buf.getvalue()[:-len(",\r\n")]

    labels = [[quoted(label) + "," for label in f.levels] for f in space.factors]
    names = [quoted(name) for name in space.names]
    X = space.validate_configs(estimates.x).tolist()
    M = estimates.M
    with open_atomic(path) as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        csv.writer(fh).writerow(list(space.names) + ["factor", "phi_hat", "variance", "M"])
        for start in range(0, len(X), WRITE_POINTS):
            block = slice(start, start + WRITE_POINTS)
            lines = []
            for x, phis, variances in zip(X[block], estimates.phi[block].tolist(),
                                          estimates.variance[block].tolist()):
                prefix = "".join([labels[j][level] for j, level in enumerate(x)])
                lines += [f"{prefix}{name},{value!r},{var!r},{M}\r\n"
                          for name, value, var in zip(names, phis, variances)]
            fh.write("".join(lines))
