"""Independent brute-force oracles used to freeze expected values.

Everything here is computed from first principles on full tensors or by
explicit enumeration and deliberately shares no code path with the library,
except ``suite_rows_loop``: it runs the simulation suites one trial at a
time through the library's single-log entry points, as the suites did
before they batched their trials.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from array import array

import numpy as np

from effectlab.space import LogSchemaError, RunLog


def projection_decomposition(values: np.ndarray, marginals: list[np.ndarray]):
    """Orthogonal projection of a grid tensor onto baseline, univariate, and
    bivariate components under a product distribution.

    Returns (mu, mains, pairs) with mains[j] the centered conditional-mean
    deviation per level and pairs[(j, k)] the doubly differenced remainder.
    """
    d = values.ndim
    weight = np.ones_like(values)
    for j, pi in enumerate(marginals):
        shape = [1] * d
        shape[j] = len(pi)
        weight = weight * np.asarray(pi).reshape(shape)
    mu = float((weight * values).sum())

    def cond_mean(axes_keep):
        drop = [ax for ax in range(d) if ax not in axes_keep]
        out = values
        w = weight
        for ax in sorted(drop, reverse=True):
            pi = np.asarray(marginals[ax])
            out = np.tensordot(out, pi, axes=([ax], [0]))
        return out

    mains = [cond_mean([j]) - mu for j in range(d)]
    pairs = {}
    for j in range(d):
        for k in range(j + 1, d):
            cm = cond_mean([j, k])
            pairs[(j, k)] = cm - mains[j][:, None] - mains[k][None, :] - mu
    return mu, mains, pairs


def predict_from_tables(mu, mains, pairs, x):
    total = mu
    for j, g in enumerate(mains):
        total += g[x[j]]
    for (j, k), mat in pairs.items():
        total += mat[x[j], x[k]]
    return float(total)


def exhaustive_objective(space_levels, mu, mains, pairs, pair_counts, lam_risk,
                         gamma, lam_cost=0.0, level_costs=None, feasible=None):
    """J over every configuration by direct per-config summation.

    ``pair_counts[(j, k)]`` are record counts per pair cell; ``feasible`` is
    an optional predicate. Returns (configs, values) skipping infeasible.
    """
    d = len(space_levels)
    configs = []
    values = []
    for x in itertools.product(*[range(L) for L in space_levels]):
        if feasible is not None and not feasible(x):
            continue
        val = mu
        for j in range(d):
            val += mains[j][x[j]]
        for (j, k), mat in pairs.items():
            val += mat[x[j], x[k]]
            n = pair_counts[(j, k)][x[j], x[k]]
            val -= lam_risk * gamma / (n + gamma)
        if lam_cost and level_costs is not None:
            val -= lam_cost * sum(level_costs[j][x[j]] for j in range(d))
        configs.append(x)
        values.append(val)
    return configs, np.array(values)


def rank_formula_spearman(a, b):
    """Spearman via explicit average ranks and the covariance formula."""
    a = list(map(float, a))
    b = list(map(float, b))
    n = len(a)

    def ranks(v):
        out = []
        for x in v:
            less = sum(1 for y in v if y < x)
            equal = sum(1 for y in v if y == x)
            out.append(less + (equal + 1) / 2.0)
        return out

    ra, rb = ranks(a), ranks(b)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def shapley_by_definition(value_fn, d):
    """phi_j = sum over subsets S of [d]\\{j} of |S|!(d-|S|-1)!/d! * marginal."""
    phi = np.zeros(d)
    players = list(range(d))
    for j in players:
        others = [k for k in players if k != j]
        for r in range(len(others) + 1):
            for S in itertools.combinations(others, r):
                w = math.factorial(len(S)) * math.factorial(d - len(S) - 1) / math.factorial(d)
                phi[j] += w * (value_fn(frozenset(S) | {j}) - value_fn(frozenset(S)))
    return phi


def coalition_values_by_contraction(values: np.ndarray, marginals, x) -> np.ndarray:
    """v(T) for every subset bitmask T at point x: pin T's coordinates to x
    and average the others under the product of ``marginals``, one full
    contraction per subset."""
    d = values.ndim
    out = np.empty(1 << d)
    for mask in range(1 << d):
        t = values
        for ax in reversed(range(d)):
            if mask >> ax & 1:
                t = np.take(t, x[ax], axis=ax)
            else:
                t = np.tensordot(t, np.asarray(marginals[ax]), axes=([ax], [0]))
        out[mask] = t
    return out


def exact_shapley_loop(vx: np.ndarray, d: int):
    """Exact attribution of one point from its subset values ``vx``
    (indexed by bitmask): per factor, the ordering-weighted mean and variance
    of its marginal contributions. Returns (phi, variance)."""
    masks = np.arange(1 << d)
    sizes = np.array([bin(m).count("1") for m in masks])
    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.empty(d)
    variance = np.empty(d)
    for j in range(d):
        bit = 1 << j
        pre = masks[(masks & bit) == 0]
        weights = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in sizes[pre]])
        delta = vx[pre | bit] - vx[pre]
        phi[j] = float(np.dot(weights, delta))
        variance[j] = float(np.dot(weights, (delta - phi[j]) ** 2))
    return phi, variance


def basis_loop(pi) -> np.ndarray:
    """L x (L-1) sum-to-zero basis: level l >= 1 free, level 0 takes -pi_l / pi_0."""
    L = len(pi)
    U = np.zeros((L, L - 1))
    for l in range(1, L):
        U[l, l - 1] = 1.0
        U[0, l - 1] = -pi[l] / pi[0]
    return U


def design_matrix_loop(configs, level_counts, marginals) -> np.ndarray:
    """Attribution design matrix filled row by row. Columns are the main
    blocks in factor order, then the pair blocks (j < k) in lexicographic
    order, each in the basis where level l >= 1 is free and level 0 takes
    -pi_l / pi_0; row i*d + j is factor j at point i, holding its main entry
    and half of every pair entry it takes part in."""
    d = len(level_counts)
    bases = [basis_loop(pi) for pi in marginals]
    offsets = {}
    col = 0
    for j in range(d):
        offsets[(j,)] = col
        col += level_counts[j] - 1
    for j, k in itertools.combinations(range(d), 2):
        offsets[(j, k)] = col
        col += (level_counts[j] - 1) * (level_counts[k] - 1)
    A = np.zeros((len(configs) * d, col))
    for i, x in enumerate(configs):
        row_u = [bases[j][x[j]] for j in range(d)]
        for j in range(d):
            r = i * d + j
            A[r, offsets[(j,)]:offsets[(j,)] + len(row_u[j])] = row_u[j]
            for k in range(d):
                if k == j:
                    continue
                a, b = (j, k) if j < k else (k, j)
                coeff = 0.5 * np.outer(row_u[a], row_u[b]).ravel()
                A[r, offsets[(a, b)]:offsets[(a, b)] + len(coeff)] = coeff
    return A


def sf_fit_lstsq(configs, phi, level_counts, marginals, tol=1e-8):
    """The dense route to the SF least-squares fit, as it stood before the
    blockwise factorization: the full SVD of the row-by-row design gives
    sigma_min (0 with fewer rows than columns); at or below ``tol`` the
    deficient blocks are those (mains in factor order, then pairs j < k)
    with weight above 1e-6 in the numerical null space, otherwise lstsq
    gives theta. Returns (sigma_min, sigma_max, theta or None, deficient
    block indices, residual norm or None)."""
    A = design_matrix_loop(configs, level_counts, marginals)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    sigma_min = 0.0 if A.shape[0] < A.shape[1] else float(s[-1])
    if sigma_min > tol:
        theta = np.linalg.lstsq(A, phi, rcond=None)[0]
        return sigma_min, float(s[0]), theta, [], float(np.linalg.norm(A @ theta - phi))
    d = len(level_counts)
    widths = [L - 1 for L in level_counts] + [
        (level_counts[j] - 1) * (level_counts[k] - 1)
        for j, k in itertools.combinations(range(d), 2)]
    ends = np.cumsum(widths)
    null = vt[int((s >= tol).sum()):]
    blocks = [b for b, (end, w) in enumerate(zip(ends, widths))
              if null.size and np.abs(null[:, end - w:end]).max() > 1e-6]
    return sigma_min, float(s[0]) if s.size else 0.0, None, blocks, None


def write_shapley_csv_loop(estimates, space, path, header_note=None):
    """The shapley.csv writer as a csv.writer row loop over a batch of
    estimates: one row per (evaluation point, factor), each float formatted
    by repr on its own."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow([f.name for f in space.factors] + ["factor", "phi_hat", "variance", "M"])
        for x, phi, variance in zip(estimates.x, estimates.phi, estimates.variance):
            labels = [f.levels[level] for f, level in zip(space.factors, x)]
            for j, f in enumerate(space.factors):
                writer.writerow(
                    labels + [f.name, repr(float(phi[j])), repr(float(variance[j])), estimates.M]
                )


def double_center_loop(mat: np.ndarray, joint: np.ndarray,
                       tol: float = 1e-13, max_rounds: int = 500) -> np.ndarray:
    """One matrix at a time: alternate row and column passes under the joint
    weights until both conditional means are within tol. Runs in the wider
    of float and the inputs' dtype."""
    out = np.array(mat, dtype=np.result_type(mat, joint, float))
    row_mass = joint.sum(axis=1)
    col_mass = joint.sum(axis=0)
    rows = row_mass > 0
    cols = col_mass > 0
    for _ in range(max_rounds):
        row_means = np.zeros(out.shape[0])
        row_means[rows] = (joint * out).sum(axis=1)[rows] / row_mass[rows]
        out[rows, :] -= row_means[rows, None]
        col_means = np.zeros(out.shape[1])
        col_means[cols] = (joint * out).sum(axis=0)[cols] / col_mass[cols]
        out[:, cols] -= col_means[None, cols]
        row_dev = np.abs((joint * out).sum(axis=1)[rows] / row_mass[rows]).max(initial=0.0)
        col_dev = np.abs((joint * out).sum(axis=0)[cols] / col_mass[cols]).max(initial=0.0)
        if max(row_dev, col_dev) <= tol:
            break
    return out


def estimate_arrays_loop(configs, resp, w, space, reference, shrinkage):
    """Cell-mean estimate of one sample, record by record: per-cell bincounts,
    differenced effects, re-centering, pseudo-count shrinkage by the count of
    positive-weight records, re-centering. Returns (mu, mains, pairs,
    level_means)."""
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight is zero")
    mu = float(np.dot(w, resp) / total)

    def means_of(cell, size):
        sw = np.bincount(cell, weights=w, minlength=size)
        swf = np.bincount(cell, weights=w * resp, minlength=size)
        means = np.full(size, np.nan)
        mask = sw > 0
        means[mask] = swf[mask] / sw[mask]
        return means

    counts = space.level_counts
    level_means = [means_of(configs[:, j], L) for j, L in enumerate(counts)]
    pair_cells = {(j, k): configs[:, j] * counts[k] + configs[:, k] for j, k in space.pairs()}
    pair_means = {(j, k): means_of(cell, counts[j] * counts[k]).reshape(counts[j], counts[k])
                  for (j, k), cell in pair_cells.items()}

    mains = [np.where(np.isnan(m), 0.0, m - mu) for m in level_means]
    pairs = {}
    for (j, k), means in pair_means.items():
        mj = np.where(np.isnan(level_means[j]), mu, level_means[j])
        mk = np.where(np.isnan(level_means[k]), mu, level_means[k])
        g = means - mj[:, None] - mk[None, :] + mu
        pairs[(j, k)] = np.where(np.isnan(means), 0.0, g)

    def recenter():
        for j in range(space.num_factors):
            mains[j] = mains[j] - float(np.dot(reference.marginal(j), mains[j]))
        for jk in pairs:
            # Stopping near rounding leaves the loop about tol over the spectral
            # gap from its limit, the exact projection.
            tol = 1e-15 * (1.0 + np.abs(pairs[jk]).max())
            pairs[jk] = double_center_loop(pairs[jk], reference.pair(*jk), tol, 100_000)

    recenter()
    weighted = configs[w > 0]
    for j, L in enumerate(counts):
        n = np.bincount(weighted[:, j], minlength=L)
        mains[j] = n / (n + shrinkage.tau) * mains[j]
        mains[j][np.isnan(level_means[j])] = 0.0
    for (j, k), cell in pair_cells.items():
        n = np.bincount(cell[w > 0], minlength=counts[j] * counts[k])
        n = n.reshape(counts[j], counts[k])
        pairs[(j, k)] = n / (n + shrinkage.tau) * pairs[(j, k)]
        pairs[(j, k)][np.isnan(pair_means[(j, k)])] = 0.0
    recenter()
    return mu, mains, pairs, level_means


def bootstrap_replicates_loop(configs, resp, w, space, reference, shrinkage, B, seed):
    """One estimate per replicate. Replicate b resamples all n records with
    the generator of child b of the seed; a draw with no weight falls back to
    the original sample. Returns (mu, mains, pairs, level_means, fallbacks)
    with a leading replicate axis."""
    n = len(resp)
    reps = []
    fallbacks = 0
    for child in np.random.SeedSequence(seed).spawn(B):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        if w[idx].sum() <= 0:
            idx = np.arange(n)
            fallbacks += 1
        reps.append(estimate_arrays_loop(configs[idx], resp[idx], w[idx],
                                         space, reference, shrinkage))
    d = space.num_factors
    mu = np.array([r[0] for r in reps])
    mains = [np.stack([r[1][j] for r in reps]) for j in range(d)]
    pairs = {jk: np.stack([r[2][jk] for r in reps]) for jk in reps[0][2]}
    level_means = [np.stack([r[3][j] for r in reps]) for j in range(d)]
    return mu, mains, pairs, level_means, fallbacks


def percentile_interval_eager(samples, level):
    """The rule that once filled every stored bootstrap interval: the
    percentiles at (1 - level) / 2 and its mirror over the leading replicate
    axis, as a trailing (lo, hi) axis."""
    lo_q = 100.0 * (1.0 - level) / 2.0
    return np.moveaxis(np.percentile(samples, [lo_q, 100.0 - lo_q], axis=0), 0, -1)


def nan_percentile_interval_eager(samples, level):
    """The stored level-mean interval rule: ``np.nanpercentile`` on the
    columns some replicate observes, NaN on the others. Needs at least two
    axes and one observed column."""
    lo_q = 100.0 * (1.0 - level) / 2.0
    out = np.full(samples.shape[1:] + (2,), np.nan)
    seen = ~np.isnan(samples).all(axis=0)
    out[seen] = np.moveaxis(np.nanpercentile(samples[:, seen], [lo_q, 100.0 - lo_q], axis=0),
                            0, -1)
    return out


def rankdata_loop(values):
    """Average ranks by a walk over the sorted values: a tie group at sorted
    positions i..j gets (i + j) / 2 + 1."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def topk_intervals_loop(mu, mains, pairs, risk, cost, configs, lo_q):
    """Percentile interval of the objective at each configuration, one
    configuration and one replicate at a time. ``risk`` and ``cost`` map a
    configuration to its (already scaled) penalties."""
    out = {}
    for x in configs:
        values = []
        for b in range(len(mu)):
            val = mu[b] + sum(mains[j][b, x[j]] for j in range(len(mains)))
            val += sum(mat[b, x[j], x[k]] for (j, k), mat in pairs.items())
            val -= risk[x]
            val -= cost[x]
            values.append(val)
        out[x] = (float(np.percentile(values, lo_q)), float(np.percentile(values, 100.0 - lo_q)))
    return out


def allowed_levels_loop(spec, space, j):
    """Factor j's levels that ``spec`` does not ban, in index order."""
    return [l for l in range(space.level_counts[j])
            if l not in spec.banned_levels.get(j, frozenset())]


def feasible_loop(spec, x):
    """Whether configuration x is outside ``spec``'s banned configurations
    and uses no banned level."""
    xt = tuple(int(v) for v in x)
    if xt in spec.banned_configs:
        return False
    return all(lvl not in spec.banned_levels.get(j, frozenset()) for j, lvl in enumerate(xt))


def dominance_loop(table, support, spec, cost, context_cap, sample_contexts, seed):
    """Dominance certificate one context at a time: every context when a
    factor has at most ``context_cap`` of them, else ``sample_contexts``
    contexts drawn with one scalar draw per context factor. Returns
    (margins, influence, holds, exact, contexts_checked)."""
    space = table.space
    d = space.num_factors
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    allowed = [allowed_levels_loop(spec, space, j) for j in range(d)]

    def score(j, k):
        return np.array([[pair_term_loop(table, support, spec, j, k, a, b) for b in allowed[k]]
                         for a in allowed[j]])

    influence = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            if j != k:
                h = score(j, k)
                influence[j, k] = float((h.max(axis=1) - h.min(axis=1)).max())

    margins = np.full(d, math.inf)
    checked = []
    exact = not spec.banned_configs
    for j in range(d):
        if len(allowed[j]) < 2:
            checked.append(0)
            continue
        others = [k for k in range(d) if k != j]
        base = np.array([unary_loop(table, spec, cost, j, a) for a in allowed[j]])
        scores = {k: score(j, k) for k in others}
        if math.prod(len(allowed[k]) for k in others) <= context_cap:
            contexts = list(itertools.product(*(range(len(allowed[k])) for k in others)))
        else:
            exact = False
            contexts = [[rng.integers(0, len(allowed[k])) for k in others]
                        for _ in range(sample_contexts)]
        gaps = []
        for ctx in contexts:
            col = base.copy()
            for pos, k in enumerate(others):
                col = col + scores[k][:, ctx[pos]]
            srt = np.sort(col)
            gaps.append(srt[-1] - srt[-2])
        margins[j] = float(min(gaps))
        checked.append(len(contexts))
    holds = bool(np.all(influence.sum(axis=1) < margins)) and not spec.banned_configs
    return margins, influence, holds, exact, tuple(checked)


def log_columns_loop(level_counts, configs, responses, weights=None, seeds=None):
    """Run-log columns record by record: each config checked and converted
    to a tuple of ints, then stacked. Returns (configs, responses, weights,
    seeds) arrays."""
    recs = []
    weights = [1.0] * len(configs) if weights is None else weights
    seeds = [0] * len(configs) if seeds is None else seeds
    for c, r, w, s in zip(configs, responses, weights, seeds):
        cfg = tuple(int(v) for v in c)
        if len(cfg) != len(level_counts) or not all(0 <= v < L for v, L in zip(cfg, level_counts)):
            raise ValueError(f"config {cfg} out of range")
        recs.append((cfg, float(r), float(w), int(s)))
    return (np.array([rec[0] for rec in recs], dtype=np.intp),
            np.array([rec[1] for rec in recs], dtype=float),
            np.array([rec[2] for rec in recs], dtype=float),
            np.array([rec[3] for rec in recs], dtype=np.int64))


def ingest_log_loop(path, space):
    """Run-log CSV read row by row, every check made on each row before the
    next is read: the reader ``space.ingest_log`` replaced. Returns the
    library's RunLog of the columns, or raises the ``LogSchemaError`` of the
    first bad row."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
        col_idx = {name: i for i, name in enumerate(header)}
        factor_cols = [(col_idx[f.name], {label: lvl for lvl, label in enumerate(f.levels)})
                       for f in space.factors]
        r_col, w_col, s_col = col_idx["response"], col_idx.get("weight"), col_idx.get("seed")

        def bad(problem: str) -> LogSchemaError:
            return LogSchemaError(f"{path}: row {rownum}: {problem}")

        levels, responses, weights, seeds = array("q"), array("d"), array("d"), array("q")
        for rownum, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) < len(header):
                raise bad(f"missing value in column {header[len(row)]!r}")
            for cell in row[len(header):]:
                if cell.strip():
                    raise bad(f"value {cell.strip()!r} past the last column {header[-1]!r}")
            try:
                levels.extend([lookup[row[c].strip()] for c, lookup in factor_cols])
            except KeyError:
                name, label = next((header[c], row[c].strip()) for c, lookup in factor_cols
                                   if row[c].strip() not in lookup)
                raise bad(f"unknown level {label!r} in column {name!r}") from None
            raw = row[r_col].strip()
            try:
                response = float(raw)
            except ValueError:
                raise bad(f"non-numeric response {raw!r}") from None
            if not math.isfinite(response):
                raise bad(f"non-finite response {raw!r}")
            raw = row[w_col].strip() if w_col is not None else ""
            try:
                weight = float(raw) if raw else 1.0
            except ValueError:
                raise bad("non-numeric weight") from None
            if not math.isfinite(weight):
                raise bad("non-finite weight")
            if weight < 0:
                raise bad(f"negative weight {raw!r}")
            raw = row[s_col].strip() if s_col is not None else ""
            try:
                seeds.append(int(raw) if raw else 0)
            except ValueError:
                raise bad("non-integer seed") from None
            except OverflowError:
                raise bad(f"seed {raw} outside the 64-bit range") from None
            responses.append(response)
            weights.append(weight)
    if not responses:
        raise LogSchemaError(f"{path}: no data rows")
    configs = np.frombuffer(levels, dtype=np.int64).reshape(len(responses), space.num_factors)
    return RunLog(space, configs, np.frombuffer(responses), np.frombuffer(weights),
                  np.frombuffer(seeds, dtype=np.int64))


def sample_design_loop(level_counts, kind, n=0, bias=1.0, seed=0):
    """Design as a list of config tuples: the full grid in lexicographic
    order, or one column per factor drawn in factor order (a shuffled
    balanced column, or independent draws with the first level weighted by
    ``bias``) and zipped into rows."""
    if kind == "full":
        return list(itertools.product(*[range(L) for L in level_counts]))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    columns = []
    for count in level_counts:
        if kind == "balanced":
            base, extra = divmod(n, count)
            col = np.repeat(np.arange(count), base)
            if extra:
                col = np.concatenate([col, rng.choice(count, size=extra, replace=False)])
            rng.shuffle(col)
        else:
            probs = np.ones(count)
            probs[0] = bias
            probs /= probs.sum()
            col = rng.choice(count, size=n, p=probs)
        columns.append(col)
    return [tuple(int(col[i]) for col in columns) for i in range(n)]


def make_log_loop(values, noise_sd, design, seeds_per_point, seed=0):
    """Teacher log point by point: the noiseless grid value of each design
    point plus one noise draw per seed. Returns (configs, responses, seeds)
    lists, point-major."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shape = (len(design), seeds_per_point)
    noise = rng.normal(0.0, noise_sd, size=shape) if noise_sd > 0 else np.zeros(shape)
    configs, responses, seeds = [], [], []
    for i, x in enumerate(design):
        base = float(values[tuple(int(v) for v in x)])
        for s in range(seeds_per_point):
            configs.append(tuple(int(v) for v in x))
            responses.append(base + noise[i, s])
            seeds.append(s)
    return configs, responses, seeds


def empirical_joint_loop(configs, weights):
    """Normalized weight histogram record by record, keyed in order of first
    appearance, zero-weight configurations dropped."""
    hist = {}
    total = 0.0
    for cfg, w in zip(configs, weights):
        cfg = tuple(int(v) for v in cfg)
        hist[cfg] = hist.get(cfg, 0.0) + float(w)
        total += float(w)
    return {cfg: w / total for cfg, w in hist.items() if w > 0}


def reference_marginal_loop(joint, level_count, j):
    """Marginal of factor j of a joint histogram, summed in dict order."""
    out = np.zeros(level_count)
    for cfg, p in joint.items():
        out[cfg[j]] += p
    return out


def reference_pair_loop(joint, level_counts, j, k):
    """Joint of factors j and k of a joint histogram, summed in dict order."""
    out = np.zeros((level_counts[j], level_counts[k]))
    for cfg, p in joint.items():
        out[cfg[j], cfg[k]] += p
    return out


def cell_sums(configs: np.ndarray, stats: np.ndarray, space
              ) -> tuple[tuple[np.ndarray, ...], dict[tuple[int, int], np.ndarray]]:
    """Sum additive row statistics into every level and pair cell, with one
    ``bincount`` per statistic and cell key, in row order.

    ``configs`` (U, d) holds each row's configuration and ``stats`` (S, U) S
    statistics per row. Returns one (S, L_j) array per factor and a dict of
    one (S, L_j, L_k) array per pair, keyed in ``space.pairs()`` order.
    """
    L = space.level_counts

    def reduce(cell, size):
        return np.stack([np.bincount(cell, weights=s, minlength=size) for s in stats])

    return (tuple(reduce(configs[:, j], L[j]) for j in range(len(L))),
            {(j, k): reduce(configs[:, j] * L[k] + configs[:, k], L[j] * L[k])
             .reshape(-1, L[j], L[k]) for j, k in space.pairs()})


def support_counts_loop(configs, weights, level_counts):
    """Positive-weight record counts per level and per pair cell plus the
    pair cells' Kish sizes, one bincount per statistic and cell key.
    Returns (level_counts, pair_counts, pair_eff)."""
    configs, w = np.asarray(configs), np.asarray(weights, dtype=float)
    d = len(level_counts)
    counts = tuple(np.bincount(configs[w > 0, j], minlength=L).astype(np.intp)
                   for j, L in enumerate(level_counts))
    pair_counts, pair_eff = {}, {}
    for j, k in itertools.combinations(range(d), 2):
        Lj, Lk = level_counts[j], level_counts[k]
        cell = configs[:, j] * Lk + configs[:, k]
        raw = np.bincount(cell[w > 0], minlength=Lj * Lk).astype(np.intp)
        s1 = np.bincount(cell, weights=w, minlength=Lj * Lk)
        s2 = np.bincount(cell, weights=w * w, minlength=Lj * Lk)
        eff = np.zeros(Lj * Lk)
        mask = s2 > 0
        eff[mask] = (s1[mask] ** 2) / s2[mask]
        pair_counts[(j, k)] = raw.reshape(Lj, Lk)
        pair_eff[(j, k)] = eff.reshape(Lj, Lk)
    return counts, pair_counts, pair_eff


# ---------------------------------------------------------------------------
# Objective and search, one pair and one gamma lookup at a time
# ---------------------------------------------------------------------------

def risk_penalty_loop(support, x, spec):
    """Sum over factor pairs of gamma / (n_jk + gamma) at x."""
    space = support.space
    total = 0.0
    for j, k in space.pairs():
        g = spec.gamma_for(space, j, k)
        n = support.pair_counts[(j, k)][x[j], x[k]]
        total += g / (n + g)
    return total


def _grid_add(out, term, axes):
    shape = [1] * out.ndim
    for ax, n in zip(axes, term.shape):
        shape[ax] = n
    return out + term.reshape(shape)


def predict_grid_loop(table):
    out = np.full(table.space.level_counts, table.mu, dtype=float)
    for j, g in enumerate(table.mains):
        out = _grid_add(out, g, (j,))
    for (j, k), mat in table.pairs.items():
        out = _grid_add(out, mat, (j, k))
    return out


def unary_loop(table, spec, cost, j, level):
    """Factor j's folded unary term at ``level``: main effect minus the
    scaled cost, -inf on a banned level."""
    if level in spec.banned_levels.get(j, frozenset()):
        return -math.inf
    return float(table.mains[j][level]) - spec.lambda_cost * float(cost.level_costs[j][level])


def pair_term_loop(table, support, spec, j, k, a, b):
    """The folded pair term of the ordered pair (j, k) at levels (a, b):
    interaction minus the scaled risk of the cell, gamma looked up afresh."""
    g = spec.gamma_for(table.space, j, k)
    n = support.pair_counts[(j, k)][a, b] if j < k else support.pair_counts[(k, j)][b, a]
    return float(table.pair(j, k)[a, b]) - spec.lambda_risk * (g / (n + g))


def objective_loop(table, support, spec, cost, x):
    """J(x) as the folded sum: the constant, each factor's unary term in
    order, then each pair's term in order; -inf when x is infeasible."""
    x = tuple(x)
    if x in spec.banned_configs:
        return -math.inf
    value = table.mu - spec.lambda_cost * cost.offset
    for j in range(len(x)):
        value += unary_loop(table, spec, cost, j, x[j])
    for j, k in table.space.pairs():
        value += pair_term_loop(table, support, spec, j, k, x[j], x[k])
    return value


def objective_grid_loop(table, support, spec, cost):
    """``objective_loop`` at every cell of the grid."""
    out = np.empty(table.space.level_counts)
    for x in itertools.product(*(range(L) for L in table.space.level_counts)):
        out[x] = objective_loop(table, support, spec, cost, x)
    return out


def local_scores_loop(table, support, spec, cost, j, x):
    """The terms of J that depend on factor j, over its levels in context x:
    the unary term, then each other factor's pair term in order; -inf for a
    banned level or a banned swapped configuration."""
    space = table.space
    L = space.level_counts[j]
    scores = np.array([unary_loop(table, spec, cost, j, lvl) for lvl in range(L)])
    for k in range(space.num_factors):
        if k != j:
            scores += [pair_term_loop(table, support, spec, j, k, lvl, x[k]) for lvl in range(L)]
    for lvl in range(L):
        if x[:j] + (lvl,) + x[j + 1:] in spec.banned_configs:
            scores[lvl] = -math.inf
    return scores


def local_gain_loop(table, support, spec, cost, j, level, x):
    """One entry of ``local_scores_loop`` as a scalar sum."""
    total = unary_loop(table, spec, cost, j, level)
    for k in range(table.space.num_factors):
        if k != j:
            total += pair_term_loop(table, support, spec, j, k, level, x[k])
    return total


def ascent_loop(table, support, spec, cost, start, max_sweeps):
    """Coordinate ascent from ``start``: per sweep, each factor in order moves
    to its best level (lowest index on ties) when the gain is strictly
    positive. Returns (steps, final, termination)."""
    x = tuple(start)
    steps = [(0, x, objective_loop(table, support, spec, cost, x))]
    for sweep in range(1, max_sweeps + 1):
        improved = False
        for j in range(len(x)):
            scores = local_scores_loop(table, support, spec, cost, j, x)
            best = int(np.argmax(scores))
            if best != x[j] and scores[best] - scores[x[j]] > 0:
                x = x[:j] + (best,) + x[j + 1:]
                improved = True
        steps.append((sweep, x, objective_loop(table, support, spec, cost, x)))
        if not improved:
            return steps, x, "converged"
    return steps, x, "max_sweeps"


def two_swap_bound_loop(table, support, spec, cost, x):
    """Positive part of each folded unary and pair term's best allowed
    improvement over its value at x, summed factors first, then pairs."""
    space = table.space
    allowed = [allowed_levels_loop(spec, space, j) for j in range(space.num_factors)]
    total = 0.0
    for j in range(space.num_factors):
        best = max(unary_loop(table, spec, cost, j, a) for a in allowed[j])
        total += max(best - unary_loop(table, spec, cost, j, x[j]), 0.0)
    for j, k in space.pairs():
        best = max(pair_term_loop(table, support, spec, j, k, a, b)
                   for a in allowed[j] for b in allowed[k])
        total += max(best - pair_term_loop(table, support, spec, j, k, x[j], x[k]), 0.0)
    return total


def split_two_swap_bound_loop(table, support, spec, cost, x):
    """The bound with main, interaction, risk-saving and cost-saving terms
    each given its own positive part, over the allowed levels, for a 1-swap
    optimal x; never tighter than ``two_swap_bound_loop``."""
    space = table.space
    total = 0.0
    for j in range(space.num_factors):
        allowed = allowed_levels_loop(spec, space, j)
        g = table.mains[j]
        total += max(max(float(g[l] - g[x[j]]) for l in allowed), 0.0)
        if spec.lambda_cost:
            c = cost.level_costs[j]
            total += spec.lambda_cost * max(max(float(c[x[j]] - c[l]) for l in allowed), 0.0)
    for j, k in space.pairs():
        cells = np.ix_(allowed_levels_loop(spec, space, j), allowed_levels_loop(spec, space, k))
        mat = table.pairs[(j, k)]
        total += max(float(mat[cells].max() - mat[x[j], x[k]]), 0.0)
        if spec.lambda_risk:
            gam = spec.gamma_for(space, j, k)
            r = gam / (support.pair_counts[(j, k)] + gam)
            total += spec.lambda_risk * max(float(r[x[j], x[k]] - r[cells].min()), 0.0)
    return total


def run_trial_loop(teacher, plan, seeds_per_point, estimator, trial_seed, reference,
                   mains_only):
    """One simulation trial alone: its design and log, its table from
    ``estimate_from_log`` (CM) or from the teacher's values under fresh noise
    (SF), its own ``multistart``, and its metrics. The SF table is
    ``fit_from_oracle``'s under the uniform reference, where the attribution
    route is the reference projection, and ``projection_decomposition``
    finalized by the log's counts under any other. Returns (recon, gap, rho)."""
    from effectlab.effects import EffectTable, ShrinkageSpec, _finalize, estimate_from_log
    from effectlab.objective import ObjectiveSpec, PairwiseObjective, predict_grid
    from effectlab.optimize import SearchSpec, multistart
    from effectlab.shapley import ValueOracle, fit_from_oracle
    from effectlab.sim import _trial_seeds, make_log, reconstruction_error, spearman
    from effectlab.space import sample_design

    space = teacher.space
    design_seed, noise_seed, _, search_seed, oracle_seed = _trial_seeds(trial_seed)
    log = make_log(teacher, sample_design(space, plan, design_seed), seeds_per_point,
                   seed=noise_seed)
    if estimator == "SF":
        rng = np.random.default_rng(np.random.SeedSequence(oracle_seed))
        values = teacher.values
        if teacher.spec.noise > 0:
            values = values + rng.normal(0.0, teacher.spec.noise / math.sqrt(seeds_per_point),
                                         size=values.shape)
        if reference.kind == "uniform":
            table = fit_from_oracle(ValueOracle(space, reference, values), log)
        else:
            mu, mains, pairs = projection_decomposition(
                values, [reference.marginal(j) for j in range(space.num_factors)])
            mains, pairs = _finalize(reference, mains, pairs, ShrinkageSpec(),
                                     log.support.level_counts, log.support.pair_counts)
            table = EffectTable(space, reference, mu, mains, pairs, support=log.support,
                                provenance="SF")
    else:
        table = estimate_from_log(log, estimator, reference)
    if mains_only:
        table = dataclasses.replace(
            table, pairs={jk: np.zeros_like(mat) for jk, mat in table.pairs.items()})
    model = PairwiseObjective.build(table, table.support, ObjectiveSpec())
    chosen, _ = multistart(model, table.mains, SearchSpec(seed=search_seed))
    truth = teacher.values
    best = np.unravel_index(int(np.argmax(truth)), truth.shape)
    return (reconstruction_error(table, teacher.truth), float(truth[best] - truth[chosen]),
            spearman(predict_grid(table).ravel(), truth.ravel()))


def suite_rows_loop(axis, cells, config, metrics):
    """The suite rows of ``sim._suite_rows``' arguments, one trial at a time
    with ``run_trial_loop``: uniform-background trials share one reference;
    an empirical-background trial takes the product of the marginals of the
    design it will draw."""
    from effectlab.sim import _teacher_for_trial, _trial_seed, _trial_seeds, default_space
    from effectlab.space import ReferenceDistribution, log_from_arrays, sample_design

    space = default_space(config.num_factors)
    teachers = [_teacher_for_trial(config, t, space) for t in range(config.trials)]
    uniform = ReferenceDistribution.uniform(space)
    index = {"recon": 0, "gap": 1, "rho": 2}
    rows = []
    for cell, estimators, plan, seeds_per_point, background, mains_only in cells:
        for est in estimators:
            results = []
            for t, teacher in enumerate(teachers):
                seed = _trial_seed(config, t)
                reference = uniform
                if background == "empirical":
                    points = sample_design(space, plan, _trial_seeds(seed)[0])
                    probe = log_from_arrays(space, points, np.zeros(len(points)))
                    reference = ReferenceDistribution.empirical(probe).product_marginals()
                results.append(run_trial_loop(teacher, plan, seeds_per_point, est, seed,
                                              reference, mains_only))
            for metric in metrics:
                values = np.array([r[index[metric]] for r in results])
                ci_lo, ci_hi = np.percentile(values, [2.5, 97.5]).tolist()
                rows.append({"axis": axis, "cell": cell, "estimator": est, "metric": metric,
                             "mean": float(values.mean()), "ci_lo": ci_lo, "ci_hi": ci_hi,
                             "n_trials": config.trials, "config_hash": config.digest()})
    return rows
