"""Sample-size planning and error budgeting from concentration bounds.

All planners return integer ceilings of the closed forms; half-widths are
reals in response units. Inputs: a bound B on |response|, per-cell target
accuracy eps, and failure probability delta.
"""

from __future__ import annotations

import math


def _check_budget(B: float, eps: float, delta: float) -> None:
    if not (math.isfinite(B) and B > 0):
        raise ValueError("B must be finite and positive")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive (response units)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")


def hoeffding_cell_n(B: float, eps: float, delta: float) -> int:
    """Cell size sufficient for a cell-mean error of at most eps."""
    _check_budget(B, eps, delta)
    return math.ceil(2.0 * B * B / (eps * eps) * math.log(2.0 / delta))


def uniform_cells_n(B: float, eps: float, delta: float, L_j: int, L_k: int) -> int:
    """Minimum cell size making every cell of an L_j x L_k pair accurate at
    once (union bound over cells)."""
    _check_budget(B, eps, delta)
    if L_j < 1 or L_k < 1:
        raise ValueError("level counts must be at least 1")
    return math.ceil(2.0 * B * B / (eps * eps) * math.log(2.0 * L_j * L_k / delta))


def mc_sample_size(B: float, eps: float, delta: float,
                   union_items: int | None = None) -> int:
    """Permutation count sufficient for |phi_hat - phi| <= eps with
    probability 1 - delta; union mode covers ``union_items`` estimates."""
    _check_budget(B, eps, delta)
    items = 1 if union_items is None else int(union_items)
    if items < 1:
        raise ValueError("union_items must be at least 1")
    return math.ceil(8.0 * B * B / (eps * eps) * math.log(2.0 * items / delta))


def bernstein_halfwidth(sigma_hat: float, B: float, n: int, delta: float) -> float:
    """Variance-adaptive half-width for a cell mean from n samples."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (math.isfinite(sigma_hat) and sigma_hat >= 0 and math.isfinite(B) and B > 0):
        raise ValueError("sigma_hat must be finite and nonnegative, and B finite and positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    log_term = math.log(3.0 / delta)
    return math.sqrt(2.0 * sigma_hat * sigma_hat * log_term / n) + 3.0 * B * log_term / n


def effect_error_budget(eps0: float, eps1: float) -> tuple[float, float]:
    """Worst-case (main, pair) effect errors from a baseline error of eps0
    and cell-mean errors of eps1."""
    if eps0 < 0 or eps1 < 0:
        raise ValueError("error targets must be nonnegative")
    return (eps1 + eps0, 3.0 * eps1 + eps0)

