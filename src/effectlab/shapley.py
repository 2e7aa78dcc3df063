"""Shapley attribution of factor effects and least-squares table recovery.

The coalition value of a fixed configuration x and factor subset T is the
expectation of the response with the T coordinates pinned to x and the rest
drawn from a product-form background. For enumerable grids all coalition
values sit in one tensor, filled by one contraction per factor, so
attribution is exact at every factor count: each point's 2^d values are one
gather. Permutation sampling (``mc_shapley``) reads the same values.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .effects import EffectTable, ShrinkageSpec, _centering, _finalize
from .space import (
    Config,
    FactorSpace,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    log_from_arrays,
    support_counts,
)

EXACT_CELL_CAP = 1_000_000
# Cells of the coalition-value tensor, prod(L_j + 1): 1 GiB of float64.
TENSOR_CELL_CAP = 1 << 27
RANK_TOLERANCE = 1e-8
# Coalition values per v_rows gather in exact attribution: a 16 MB buffer,
# 2048 points at d = 10.
GATHER_VALUES = 1 << 21


class RankDeficiencyError(ValueError):
    def __init__(self, message: str, blocks: list[str] | None = None):
        super().__init__(message)
        self.blocks = blocks or []


# ---------------------------------------------------------------------------
# Coalition values
# ---------------------------------------------------------------------------

class ValueOracle:
    """Evaluates v(T) = E[f(x_T, X_rest)] under a product background.

    Backed either by a callable response function or by the cell means of a
    run log; unobserved cells of a log-backed oracle fall back to the
    weighted baseline. Every coalition value sits in one (L_1+1) x ... x
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
    def from_function(cls, space: FactorSpace, reference: ReferenceDistribution,
                      fn: Callable[[Config], float], bound: float | None = None) -> "ValueOracle":
        from .space import enumerate_grid

        cls._check(space, reference)  # before the grid is enumerated and fn called on it
        grid = enumerate_grid(space, cap=EXACT_CELL_CAP)
        values = np.array([fn(x) for x in grid], dtype=float)
        return cls(space, reference, values, bound=bound)

    @classmethod
    def from_log(cls, log: RunLog, reference: ReferenceDistribution,
                 warn: bool = True) -> "ValueOracle":
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
        padded = int(size - mask.sum())
        oracle = cls(space, reference, values, padded_cells=padded)
        if padded and warn:
            warnings.warn(
                f"{padded} of {size} grid cells unobserved; coalition values "
                "fall back to the weighted baseline there",
                stacklevel=2,
            )
        return oracle

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


def coalition_value(oracle: ValueOracle, x: Sequence[int], subset: Iterable[int]) -> float:
    return oracle.v(x, subset)


# ---------------------------------------------------------------------------
# Monte Carlo attribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShapleyEstimate:
    x: Config
    phi: np.ndarray
    variance: np.ndarray
    M: int
    method: str = "permutation"


def mc_shapley(oracle: ValueOracle, x: Sequence[int], M: int = 1000, seed: int = 0,
               method: str = "permutation", return_contributions: bool = False):
    """Per-factor attribution of f(x) - v(empty) from marginal contributions.

    ``permutation`` averages M uniformly random orderings; ``subset`` draws
    M prefix sets per factor (size uniform, then a uniform subset of that
    size); ``exact`` enumerates all subsets with their ordering weights and
    has no sampling error. Deterministic for a given seed.
    """
    x = oracle.space.validate_config(x)
    if method == "exact":
        (est,) = exact_shapley(oracle, [x])
        return (est, None) if return_contributions else est
    d = len(x)
    if M < 1:
        raise ValueError("M must be at least 1")
    vx = oracle.v_rows(np.asarray([x]))[0]  # indexed by subset bitmask
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if method == "permutation":
        perms = np.argsort(rng.random((M, d)), axis=1)
        delta = np.empty((M, d))
        pre = np.zeros(M, dtype=np.int64)
        rows = np.arange(M)
        for t in range(d):
            j = perms[:, t]
            new = pre | (1 << j)
            delta[rows, j] = vx[new] - vx[pre]
            pre = new
    elif method == "subset":
        delta = np.empty((M, d))
        for j in range(d):
            others = [k for k in range(d) if k != j]
            sizes = rng.integers(0, d, size=M)
            scores = rng.random((M, d - 1)) if d > 1 else np.zeros((M, 0))
            order = np.argsort(scores, axis=1)
            pre = np.zeros(M, dtype=np.int64)
            for pos in range(d - 1):
                take = sizes > pos
                member = np.array(others, dtype=np.int64)[order[:, pos]]
                pre = np.where(take, pre | (1 << member), pre)
            bit = 1 << j
            delta[:, j] = vx[pre | bit] - vx[pre]
    else:
        raise ValueError(f"unknown sampling method {method!r}")

    phi = delta.mean(axis=0)
    variance = delta.var(axis=0, ddof=1) if M > 1 else np.zeros(d)
    est = ShapleyEstimate(x, phi, variance, M=M, method=method)
    return (est, delta) if return_contributions else est


def exact_shapley(oracle: ValueOracle, points: Sequence[Sequence[int]]) -> list[ShapleyEstimate]:
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
    M = 1 << (d - 1)
    return [ShapleyEstimate(tuple(x), phi[i], variance[i], M=M, method="exact")
            for i, x in enumerate(X.tolist())]


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


def mc_sample_bound(B: float, eps: float, delta: float,
                    union_items: int | None = None) -> float:
    if B <= 0:
        raise ValueError("B must be positive")
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must be in (0, 1)")
    items = 1 if union_items is None else int(union_items)
    if items < 1:
        raise ValueError("union_items must be at least 1")
    return 8.0 * B * B / (eps * eps) * math.log(2.0 * items / delta)


def mc_sample_size(B: float, eps: float, delta: float,
                   union_items: int | None = None) -> int:
    """Permutation count sufficient for |phi_hat - phi| <= eps with
    probability 1 - delta; union mode covers ``union_items`` estimates."""
    return math.ceil(mc_sample_bound(B, eps, delta, union_items))


# ---------------------------------------------------------------------------
# Design matrix and least-squares recovery
# ---------------------------------------------------------------------------

def _centered_basis(pi: np.ndarray) -> np.ndarray:
    """L x (L-1) basis of the pi-mean-zero subspace: level l >= 1 is free,
    level 0 absorbs -pi_l/pi_0 of it."""
    L = len(pi)
    if pi[0] <= 0:
        raise ValueError("reference marginal must give level 0 positive mass")
    U = np.zeros((L, L - 1))
    for l in range(1, L):
        U[l, l - 1] = 1.0
        U[0, l - 1] = -pi[l] / pi[0]
    return U


@dataclass(eq=False)
class EffectDesignMatrix:
    """Linear system mapping free effect parameters to attributions.

    Rows are (evaluation point, factor) pairs; columns are the sum-to-zero
    reparametrized main and pair parameters. Pre-reparametrization each row
    touches one main entry with coefficient 1 and d-1 pair entries with
    coefficient 1/2.

    The system is factored block by block. Factor j's rows touch only its
    own w_j columns (main block j and every pair block holding j); that
    n x w_j block has the thin QR ``q_blocks[j] @ R_j``, and the R_j,
    stacked in the full columns, have the QR ``q_stack @ r``. So up to a row
    permutation the matrix is diag(q_blocks) @ q_stack @ r, and the p x p
    factor ``r`` carries its singular values. ``sigma_min`` is structurally
    0 when the stack has fewer than p rows.
    """

    space: FactorSpace
    reference: ReferenceDistribution
    eval_set: tuple[Config, ...]
    matrix: np.ndarray
    blocks: list[tuple[str, tuple[int, ...], slice]]
    sigma_min: float
    q_blocks: list[np.ndarray]
    q_stack: np.ndarray
    r: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def block_names(self) -> list[str]:
        return ["|".join(self.space.names[j] for j in idx) for _, idx, _ in self.blocks]

    def deficient_blocks(self, tol: float = RANK_TOLERANCE) -> list[str]:
        """Names of parameter blocks with weight in the near-null space."""
        # A tall design only needs the thin factors; a wide one needs the full
        # vt, whose extra rows span the structural null space.
        rows, params = self.matrix.shape
        _, s, vt = np.linalg.svd(self.matrix, full_matrices=rows < params)
        rank = int((s >= tol).sum())
        null_rows = vt[rank:]
        if null_rows.size == 0:
            return []
        return [name for (_, _, sl), name in zip(self.blocks, self.block_names())
                if np.abs(null_rows[:, sl]).max() > 1e-6]

    def diagnostics(self) -> dict:
        rows, params = self.matrix.shape
        return {"sigma_min": self.sigma_min, "rows": int(rows), "params": int(params)}


def build_design_matrix(eval_set: Sequence[Sequence[int]], space: FactorSpace,
                        reference: ReferenceDistribution | None = None) -> EffectDesignMatrix:
    """The design of ``eval_set`` under a product reference, factored once:
    one thin QR per factor's n x w_j row block, one QR of the stacked
    triangular factors, and ``sigma_min`` from the SVD of the p x p result.
    The (n d) x p matrix itself is only filled in, never factored."""
    if not eval_set:
        raise ValueError("evaluation set is empty")
    reference = reference or ReferenceDistribution.uniform(space)
    if not reference.is_product:
        raise ValueError("design matrix needs a product-form reference")
    X = space.validate_configs(eval_set)
    configs = tuple(map(tuple, X.tolist()))
    d = space.num_factors

    # Row i*d + j is factor j's attribution at point i: its own main block,
    # and half of every pair block it belongs to.
    n = len(configs)
    U = [_centered_basis(reference.marginal(j))[X[:, j]] for j in range(d)]
    terms = [((j,), U[j]) for j in range(d)] + [
        ((j, k), 0.5 * (U[j][:, :, None] * U[k][:, None, :]).reshape(n, -1))
        for j, k in space.pairs()]
    p = sum(coeff.shape[1] for _, coeff in terms)
    A3 = np.zeros((n, d, p))
    blocks: list[tuple[str, tuple[int, ...], slice]] = []
    own: list[list[slice]] = [[] for _ in range(d)]  # the column blocks factor j touches
    col = 0
    for idx, coeff in terms:
        sl = slice(col, col + coeff.shape[1])
        blocks.append(("main" if len(idx) == 1 else "pair", idx, sl))
        for j in idx:
            A3[:, j, sl] = coeff
            own[j].append(sl)
        col = sl.stop
    q_blocks, stack = [], []
    for j in range(d):
        cols = np.r_[tuple(own[j])]
        q_j, r_j = np.linalg.qr(A3[:, j, cols])
        q_blocks.append(q_j)
        stack.append(np.zeros((len(r_j), p)))
        stack[-1][:, cols] = r_j
    q_stack, r = np.linalg.qr(np.vstack(stack))
    # Fewer stacked rows than parameters: the null space is structural.
    sigma_min = float(np.linalg.svd(r, compute_uv=False)[-1]) if len(r) == p else 0.0
    return EffectDesignMatrix(space, reference, configs, A3.reshape(n * d, p), blocks,
                              sigma_min, q_blocks, q_stack, r)


def fit_effects_sf(estimates: Sequence[ShapleyEstimate], space: FactorSpace,
                   reference: ReferenceDistribution | None = None,
                   shrinkage: ShrinkageSpec | None = None, *,
                   support: SupportCounts | None = None, mu: float = 0.0,
                   design: EffectDesignMatrix | None = None) -> EffectTable:
    """Least squares in the sum-to-zero basis, mapped back to full tables,
    re-centered, then shrunk the same way as the cell-mean path. The solve
    reuses the design's factors, theta = r^-1 q_stack^T [q_blocks[j]^T phi_j],
    and factors nothing sized by the evaluation set.

    ``support`` supplies the shrinkage counts (defaults to counting the
    evaluation points); ``mu`` is the baseline to attach, typically the
    oracle's empty-coalition value.
    """
    if not estimates:
        raise ValueError("no attribution estimates to fit")
    reference = reference or ReferenceDistribution.uniform(space)
    shrinkage = shrinkage or ShrinkageSpec()
    d = space.num_factors
    for est in estimates:
        if len(est.x) != d:
            raise ValueError("estimate evaluated on an inconsistent space")

    eval_set = tuple(est.x for est in estimates)
    if design is None:
        design = build_design_matrix(eval_set, space, reference)
    elif design.eval_set != eval_set:
        raise ValueError("design matrix was built for a different evaluation set")
    if design.sigma_min <= RANK_TOLERANCE:
        blocks = design.deficient_blocks()
        raise RankDeficiencyError(
            f"design matrix is rank deficient (sigma_min={design.sigma_min:.3e}); "
            f"unidentified blocks: {blocks}",
            blocks,
        )

    phi = np.concatenate([est.phi for est in estimates])
    z = np.concatenate([q.T @ phi[j::d] for j, q in enumerate(design.q_blocks)])
    theta = np.linalg.solve(design.r, design.q_stack.T @ z)
    residual = float(np.linalg.norm(design.matrix @ theta - phi))

    bases = [_centered_basis(reference.marginal(j)) for j in range(d)]
    mains = []
    pairs = {}
    for kind, idx, sl in design.blocks:
        if kind == "main":
            (j,) = idx
            mains.append(bases[j] @ theta[sl])
        else:
            j, k = idx
            Lj, Lk = space.level_counts[j], space.level_counts[k]
            theta_mat = theta[sl].reshape(Lj - 1, Lk - 1)
            pairs[(j, k)] = bases[j] @ theta_mat @ bases[k].T

    if support is None:
        support = support_counts(log_from_arrays(space, eval_set, np.zeros(len(eval_set))))
    # An unsupported entry is already shrunk to zero; its mask changes nothing.
    counts, pair_counts = support.level_counts, support.pair_counts
    mains, pairs = _finalize(space, mains, pairs, *_centering(space, reference),
                             shrinkage, counts, pair_counts, [n == 0 for n in counts],
                             {jk: n == 0 for jk, n in pair_counts.items()})

    diag = design.diagnostics()
    diag["residual_norm"] = residual
    return EffectTable(
        space=space,
        reference=reference,
        mu=float(mu),
        mains=tuple(mains),
        pairs=pairs,
        support=support,
        provenance="SF",
        diagnostics=diag,
        attributions=tuple(estimates),
    )


def stability_bound(design: EffectDesignMatrix, observation_error_norm: float) -> float:
    """Worst-case parameter error given an attribution error of the stated
    Euclidean norm."""
    if design.sigma_min <= 0:
        raise ValueError("stability bound undefined for a singular design matrix")
    return float(observation_error_norm) / design.sigma_min


def write_shapley_csv(estimates: Sequence[ShapleyEstimate], space: FactorSpace,
                      path: str | Path, header_note: str | None = None) -> None:
    """Long-form dump: one row per (evaluation point, factor)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow(list(space.names) + ["factor", "phi_hat", "variance", "M"])
        for est in estimates:
            labels = list(space.labels_for(est.x))
            for j, name in enumerate(space.names):
                writer.writerow(
                    labels + [name, repr(float(est.phi[j])), repr(float(est.variance[j])), est.M]
                )
