"""Factor spaces, reference distributions and their centering, designs, and run logs.

A factor space is an ordered set of named factors, each with at least two
ordered discrete levels. Levels are opaque text labels externally and dense
integer indices internally; the declaration order is the canonical order used
for tables and tie-breaking. All containers here are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

Config = tuple[int, ...]

GRID_ENUMERATION_CAP = 10_000_000
# Run-log columns besides the factors.
LOG_COLUMNS = ("response", "weight", "seed")


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
            # ingest_log must read back what write_log writes; it strips every
            # cell and skips a byte-order mark at the start of the file.
            if f.name in LOG_COLUMNS:
                raise ValueError(f"factor name {f.name!r} is a run-log column name")
            if f.name != f.name.strip() or f.name.startswith("\ufeff"):
                raise ValueError(f"factor name {f.name!r} has leading or trailing whitespace "
                                 "or a leading byte-order mark")
            for label in f.levels:
                if label != label.strip():
                    raise ValueError(f"level label {label!r} of factor {f.name!r} has "
                                     "leading or trailing whitespace")

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
    """A space from its JSON document; a leading byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return build_space(json.load(fh))


def enumerate_grid(space: FactorSpace) -> list[Config]:
    """All configurations in lexicographic order (first factor slowest), up
    to ``GRID_ENUMERATION_CAP`` of them."""
    if space.grid_size > GRID_ENUMERATION_CAP:
        raise ValueError(f"grid size {space.grid_size} exceeds enumeration cap "
                         f"{GRID_ENUMERATION_CAP}")
    return list(itertools.product(*[range(n) for n in space.level_counts]))


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReferenceDistribution:
    """Distribution over configurations under which expectations and
    centering are defined, held as its level and pair masses.

    Every kind stores one marginal per factor. ``uniform`` and ``product``
    kinds factorize across factors (pi_jk(l,m) = pi_j(l) * pi_k(m)); the
    ``empirical`` kind, a run log's weight shares, also stores ``pair_mass``,
    the read-only (L_j, L_k) mass of every pair j < k.
    """

    space: FactorSpace
    kind: str  # "uniform" | "product" | "empirical"
    marginals: tuple[np.ndarray, ...]
    pair_mass: Mapping[tuple[int, int], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "product", "empirical"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if (self.pair_mass is None) != self.is_product:
            raise ValueError("an empirical reference needs pair masses; a product one has none")
        if len(self.marginals) != self.space.num_factors:
            raise ValueError("reference needs one marginal per factor")
        for j, pi in enumerate(self.marginals):
            if len(pi) != self.space.level_counts[j]:
                raise ValueError(f"marginal {j} has wrong length")
            if not (np.isfinite(pi) & (pi >= 0)).all():
                raise ValueError(f"marginal {j} ({self.space.names[j]!r}) must be finite and "
                                 "nonnegative")
            if abs(float(pi.sum()) - 1.0) > 1e-12:
                raise ValueError(f"marginal {j} sums to {pi.sum()}, not 1")

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
        """The log's weight shares: ``support_counts``' summed weight of
        every level and pair cell over the log's total weight."""
        support, total = log.support, log.weights.sum()
        margs = tuple(s[0] / total for s in support.level_sums)
        pair_mass = {jk: s[0] / total for jk, s in support.pair_sums.items()}
        for mass in (*margs, *pair_mass.values()):  # shared, so read-only
            mass.flags.writeable = False
        return cls(log.space, "empirical", margs, MappingProxyType(pair_mass))

    def marginal(self, j: int) -> np.ndarray:
        return self.marginals[j]

    def pair(self, j: int, k: int) -> np.ndarray:
        """Joint pi_jk(l, m) as an (L_j, L_k) matrix."""
        if self.is_product:
            return np.outer(self.marginals[j], self.marginals[k])
        return self.pair_mass[(j, k)] if j < k else self.pair_mass[(k, j)].T

    @cached_property
    def centerers(self) -> dict[tuple[int, int], Callable[[np.ndarray], np.ndarray]]:
        """One centerer per pair, built on first use and kept: the closed-form
        ``product_centerer`` for a product reference, else ``double_centerer``."""
        if self.is_product:
            m = self.marginals
            return {(j, k): product_centerer(m[j], m[k]) for j, k in self.space.pairs()}
        return {jk: double_centerer(self.pair(*jk)) for jk in self.space.pairs()}

    def product_marginals(self) -> "ReferenceDistribution":
        """Product-form reference built from this distribution's marginals."""
        if self.is_product:
            return self
        return ReferenceDistribution.from_marginals(self.space, self.marginals)

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.is_product:
            out["marginals"] = {
                f.name: {lbl: float(p) for lbl, p in zip(f.levels, pi)}
                for f, pi in zip(self.space.factors, self.marginals)
            }
        return out


def center_main(g: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Shift so the pi-weighted mean is exactly zero (along the last axis)."""
    return g - np.expand_dims(np.dot(g, pi), -1)


def product_centerer(pi_j: np.ndarray, pi_k: np.ndarray):
    """``double_centerer(np.outer(pi_j, pi_k))`` in closed form: each row with
    mass loses its pi_k-weighted mean, then each column with mass its
    pi_j-weighted mean, by elementwise products and axis sums (batch-free)."""
    row_weights = np.outer(pi_j > 0, pi_k / pi_k.sum())
    col_weights = np.outer(pi_j / pi_j.sum(), pi_k > 0)

    def center(mat: np.ndarray) -> np.ndarray:
        out = np.array(mat, dtype=float)
        out -= (row_weights * out).sum(axis=-1)[..., None]
        out -= (col_weights * out).sum(axis=-2)[..., None, :]
        return out

    return center


def double_centerer(joint: np.ndarray):
    """Removal of row and column effects under the joint weights, exactly.

    Returns a function of ``mat``, one matrix or a stack along leading axes,
    that gives each matrix's joint-weighted least-squares residual on row
    plus column effects. A row pass, one solve with the normalized column
    Laplacian (spectrum in [0, 1], a null vector per connected block of the
    support) and a row pass give the limit of alternating passes: zero-mass
    rows and columns get no effect of their own, and per block the column
    effects have zero mass-weighted mean. The solve depends only on the
    joint, so it is built once here; references build it for empirical
    joints only, as ``product_centerer`` needs no solve.
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
    if cols.all():  # a view in place of a gather, for a stack of matrices too
        cols = slice(None)

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
# Run logs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunLog:
    """Weighted observations bound to a factor space, stored as columns.

    Record i is row i of the ``(n, d)`` level-index matrix ``configs_array``
    with ``responses[i]``, ``weights[i]`` and ``seeds[i]``. The columns are
    copied on construction and read-only afterwards. ``support`` holds the
    log's ``support_counts``, reduced on first use: the empirical reference
    and every estimator read that one pass.
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

    @cached_property
    def support(self) -> "SupportCounts":
        return support_counts(self)


def log_from_arrays(space: FactorSpace, configs: ArrayLike, responses: ArrayLike,
                    weights: ArrayLike | None = None,
                    seeds: ArrayLike | None = None) -> RunLog:
    """A run log from columns; weights default to 1 and seeds to 0."""
    responses = np.asarray(responses, dtype=float)
    n = len(responses)
    return RunLog(space, np.asarray(configs, dtype=np.intp), responses,
                  np.ones(n) if weights is None else np.asarray(weights, dtype=float),
                  np.zeros(n, dtype=np.int64) if seeds is None else np.asarray(seeds))


# Lines that ingest_log hands numpy's reader at a time; bounds the text held.
INGEST_BLOCK = 1024


def _row_columns(rows: Iterable[list[str]], space: FactorSpace, header: list[str],
                 first: int, path: str | Path) -> tuple[np.ndarray, ...]:
    """The level, response, weight and seed columns of CSV rows, read one row
    at a time; ``first`` is the CSV row number of the first row. Every cell is
    stripped, blank rows are skipped, and a blank weight reads as 1 and a
    blank seed as 0. The first bad row raises a ``LogSchemaError``; within a
    row the checks run in the order: row length, factors (in space order),
    response, weight, seed."""
    # Imported here: a clean log never needs it, and loading its shared
    # library adds about 0.15 MB to every CLI process's peak RSS.
    from array import array

    at = {name: c for c, name in enumerate(header)}
    factors = [(at[f.name], f.name, {label: lvl for lvl, label in enumerate(f.levels)})
               for f in space.factors]
    y_at, w_at, s_at = at["response"], at.get("weight"), at.get("seed")
    levels, responses, weights, seeds = array("q"), array("d"), array("d"), array("q")

    def bad(problem: str) -> LogSchemaError:
        return LogSchemaError(f"{path}: row {rownum}: {problem}")

    for rownum, row in enumerate(rows, first):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) < len(header):
            raise bad(f"missing value in column {header[len(cells)]!r}")
        for c, name, lookup in factors:
            if cells[c] not in lookup:
                raise bad(f"unknown level {cells[c]!r} in column {name!r}")
            levels.append(lookup[cells[c]])
        try:
            y = float(cells[y_at])
        except ValueError:
            raise bad(f"non-numeric response {cells[y_at]!r}") from None
        if not math.isfinite(y):
            raise bad(f"non-finite response {cells[y_at]!r}")
        raw = cells[w_at] if w_at is not None else ""
        try:
            w = float(raw) if raw else 1.0
        except ValueError:
            raise bad("non-numeric weight") from None
        if not math.isfinite(w):
            raise bad("non-finite weight")
        if w < 0:
            raise bad(f"negative weight {raw!r}")
        raw = cells[s_at] if s_at is not None else ""
        try:
            seeds.append(int(raw) if raw else 0)
        except ValueError:
            raise bad("non-integer seed") from None
        except OverflowError:
            raise bad(f"seed {raw} outside the 64-bit range") from None
        responses.append(y)
        weights.append(w)
    return (np.array(levels, dtype=np.intp).reshape(-1, space.num_factors),
            np.array(responses), np.array(weights), np.array(seeds, dtype=np.int64))


def _clean_columns(lines: list[str], header: list[str], dtype: np.dtype,
                   labels: dict[str, tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...] | None:
    """The level, response, weight and seed columns of CSV lines, read by one
    ``np.loadtxt`` call, or None when the ``csv`` row path must read them:
    when numpy could read a cell otherwise (a quote; a NUL, which it drops
    when trailing; a non-ASCII character, some of which it takes for
    digits; a seed such as 1.5, which older numpy releases truncate with
    only a ``DeprecationWarning``), cannot convert one or finds no data
    line, and when the row path would strip, default or reject a cell (a
    padded or unknown label, a blank cell, a line over the csv field size
    limit, a non-finite response or weight, a negative weight). ``labels``
    maps a factor to its sorted labels and their levels."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or "," not in text or not text.isascii()
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cells = dict(zip(header, np.loadtxt(lines, dtype, delimiter=",", comments=None,
                                                 unpack=True, ndmin=1)))
    except (ValueError, DeprecationWarning):
        return None
    y = cells["response"]
    w = cells.get("weight", np.ones(len(y)))
    if not (np.isfinite(y).all() and np.isfinite(w).all() and (w >= 0).all()):
        return None
    levels = np.empty((len(y), len(labels)), dtype=np.intp)
    for j, (name, (sorted_labels, level_of)) in enumerate(labels.items()):
        at = np.searchsorted(sorted_labels, cells[name]).clip(max=len(sorted_labels) - 1)
        if not (sorted_labels[at] == cells[name]).all():
            return None
        levels[:, j] = level_of[at]
    return levels, y, w, cells.get("seed", np.zeros(len(y), dtype=np.int64))


def ingest_log(path: str | Path, space: FactorSpace) -> RunLog:
    """Read a run-log CSV into columns.

    The header must contain one column per factor name plus ``response``;
    ``weight`` (default 1) and ``seed`` (default 0) columns are optional and
    may be left blank. Blank lines are skipped. A bad row is rejected with a
    ``LogSchemaError`` naming its CSV row (the header is row 1). A leading
    byte-order mark, as Excel writes one, is skipped.

    Blocks of ``INGEST_BLOCK`` lines go to ``_clean_columns``, one
    ``np.loadtxt`` call each. From the first block it declines, a
    ``csv.reader`` pass reads the rest and ``_row_columns`` converts it one
    row at a time; only this path reports errors, and the values are the
    same either way. A file with several bad rows is rejected for the
    earliest; within a row the checks run in the order: row length, factors
    (in space order), response, weight, seed.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LogSchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        known = set(space.names) | set(LOG_COLUMNS)
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
        blocks, first, lines = [], 2, []
        # numpy would drop a label's trailing NULs, so only the row path reads such labels.
        nul = any("\0" in label for f in space.factors for label in f.levels)
        if not nul:
            factors = dict(zip(space.names, space.factors))
            dtype = np.dtype([("", f"U{max(map(len, factors[name].levels)) + 1}") if name in factors
                              else ("", np.int64 if name == "seed" else float) for name in header])
            labels = {f.name: (np.sort(f.levels), np.argsort(f.levels)) for f in space.factors}
            while lines := list(itertools.islice(fh, INGEST_BLOCK)):
                columns = _clean_columns(lines, header, dtype, labels)
                if columns is None:
                    break
                blocks.append(columns)
                first += len(lines)
        if lines or nul:
            rows = csv.reader(itertools.chain(lines, fh))
            blocks.append(_row_columns(rows, space, header, first, path))
    columns = [np.concatenate(column) for column in zip(*blocks)]
    if not columns or not len(columns[1]):
        raise LogSchemaError(f"{path}: no data rows")
    return RunLog(space, *columns)


@contextlib.contextmanager
def open_atomic(path: str | Path):
    """A text handle on a new file beside ``path`` that replaces it once the
    block ends; if the block raises, ``path`` is left as it was. The file is
    created as open() creates one, so its mode is 0o666 less the umask."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str | Path, header_note: str | None, columns: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """A CSV file written through ``open_atomic``: a ``# note`` line when
    there is a note, the column names, then the rows."""
    with open_atomic(path) as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_log(log: RunLog, path: str | Path) -> None:
    """Write a run log as CSV; floats round-trip exactly through repr."""
    labels = [np.array(f.levels, dtype=object)[log.configs_array[:, j]]
              for j, f in enumerate(log.space.factors)]
    write_csv(path, None, list(log.space.names) + list(LOG_COLUMNS),
              zip(*labels, map(repr, log.responses.tolist()),
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

CELL_BLOCK = 512  # rows per block of cell_reducer's products, which bounds their copies


def cell_reducer(configs: np.ndarray, space: FactorSpace):
    """``reduce(stats)``: the level and pair cell sums of S additive row
    statistics, as ``support_counts`` takes them for one log, for C samples at
    once over the rows ``configs`` (U, d). ``stats`` is (S, C, U); it returns
    one (S, C, L_j) array per factor and a dict of one (S, C, L_j, L_k) array
    per pair, keyed in ``space.pairs()`` order.

    It sums with matrix products over blocks of ``CELL_BLOCK`` rows: the
    statistics times the block's one-hot level matrix give the level sums,
    and for each factor j and level a, the statistics of the rows at a times
    their one-hot columns of the factors after j give pair row (j, a). Each
    block's stable order and level bounds per factor are found once, here;
    ``reduce`` rebuilds only the one-hot. Its sums are one ``bincount`` per
    sample's within 1e-12 x (1 + the largest sum); counts and empty cells
    exactly.
    """
    L, d = space.level_counts, space.num_factors
    offsets = np.cumsum((0,) + L)
    blocks = []
    for start in range(0, len(configs), CELL_BLOCK):
        cfg = configs[start:start + CELL_BLOCK]
        orders = [np.argsort(cfg[:, j], kind="stable") for j in range(d - 1)]
        bounds = [np.searchsorted(cfg[o, j], range(L[j] + 1)).tolist()
                  for j, o in enumerate(orders)]
        blocks.append((slice(start, start + len(cfg)), cfg + offsets[:-1], orders, bounds))

    def reduce(stats: np.ndarray):
        S, C, U = stats.shape
        M = stats.reshape(S * C, U)
        mains = np.zeros((S * C, offsets[-1]))
        # tails[j][a] is pair row (j, a): its sums over the levels of every k > j.
        tails = [np.zeros((L[j], S * C, offsets[-1] - offsets[j + 1])) for j in range(d - 1)]
        for rows, cols, orders, bounds in blocks:
            m = M[:, rows]
            onehot = np.zeros((len(cols), offsets[-1]))
            onehot[np.arange(len(cols))[:, None], cols] = 1.0
            mains += m @ onehot
            for j, (order, at) in enumerate(zip(orders, bounds)):
                m_j, rest = m[:, order], onehot[order, offsets[j + 1]:]
                for a in range(L[j]):
                    tails[j][a] += m_j[:, at[a]:at[a + 1]] @ rest[at[a]:at[a + 1]]
        levels = tuple(mains[:, offsets[j]:offsets[j + 1]].reshape(S, C, -1) for j in range(d))
        pairs = {(j, k): np.moveaxis(tails[j][..., offsets[k] - offsets[j + 1]:
                                              offsets[k + 1] - offsets[j + 1]], 0, 1)
                 .reshape(S, C, L[j], L[k]) for j, k in space.pairs()}
        return levels, pairs

    return reduce


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
    risk term and the effective sizes all read them. Stacked over logs (a
    batch of simulation trials), each array has a log axis after the first.
    ``scaled_pair_w2``, when not None, is (e, {(j, k): (L_j, L_k) array}):
    each pair cell's squared weights summed in units of 4^e, which
    ``pair_eff`` reads in place of Σw² where that may overflow.
    """

    space: FactorSpace
    level_sums: tuple[np.ndarray, ...]
    pair_sums: dict[tuple[int, int], np.ndarray]
    scaled_pair_w2: tuple[int, dict[tuple[int, int], np.ndarray]] | None = None

    @cached_property
    def level_counts(self) -> tuple[np.ndarray, ...]:
        return tuple(s[2].astype(np.intp) for s in self.level_sums)

    @cached_property
    def pair_counts(self) -> dict[tuple[int, int], np.ndarray]:
        return {jk: s[2].astype(np.intp) for jk, s in self.pair_sums.items()}

    @cached_property
    def pair_eff(self) -> dict[tuple[int, int], np.ndarray]:
        """Kish effective size (sum w)^2 / sum w^2 per pair cell; 0 where empty."""
        e, w2 = self.scaled_pair_w2 or (0, {jk: s[3] for jk, s in self.pair_sums.items()})
        return {jk: np.divide(np.ldexp(s[0], -e) ** 2, w2[jk], out=np.zeros(w2[jk].shape),
                              where=w2[jk] > 0)
                for jk, s in self.pair_sums.items()}

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
    the index of its own. The columns fold into one mixed-radix key; before
    it would pass 2^63 the key is renumbered by rank, below the row count."""
    key, span = np.zeros(len(configs), dtype=np.int64), 1
    for col in configs.T:
        radix = int(col.max()) + 1
        if span * radix > 1 << 63:
            key, span = np.unique(key, return_inverse=True)[1], len(configs)
        key, span = key * radix + col, span * radix
    _, first, code = np.unique(key, return_index=True, return_inverse=True)
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
    """One pass over the log's records into its per-level and per-pair-cell
    sums, with one ``bincount`` per statistic and cell key, in record order.

    When the largest weight passes 2^256, squared weights may overflow, so
    each pair cell's are summed once more in units of 4^e, 2^e that weight's
    binary magnitude, for ``pair_eff``; a power of two scales exactly."""
    configs, w, L = log.configs_array, log.weights, log.space.level_counts
    stats = (w, w * log.responses, (w > 0).astype(float), w * w)

    def reduce(cell, size, stats=stats):
        return np.stack([np.bincount(cell, weights=s, minlength=size) for s in stats])

    def pair_sums(stats=stats):
        return {(j, k): reduce(configs[:, j] * L[k] + configs[:, k], L[j] * L[k],
                               stats).reshape(-1, L[j], L[k]) for j, k in log.space.pairs()}

    e, scaled = math.frexp(w.max())[1], None
    if e > 256:
        scaled = e, {jk: s[0] for jk, s in pair_sums([np.ldexp(w, -e) ** 2]).items()}
    return SupportCounts(log.space, tuple(reduce(configs[:, j], L[j]) for j in range(len(L))),
                         pair_sums(), scaled)
