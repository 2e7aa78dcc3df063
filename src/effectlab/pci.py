"""Dimensionless standardization of interaction matrices.

Dividing a pair's interaction table by its root-mean-square strength makes
entries comparable across factor pairs of different scales. The index is
reporting-only: selection decisions keep using the raw interaction values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .effects import EffectTable
from .space import write_csv


@dataclass(frozen=True, eq=False)
class PciMatrix:
    j: int
    k: int
    values: np.ndarray
    s: float
    mode: str  # "uniform" | "weighted"


def interaction_strength(table: EffectTable, j: int, k: int) -> float:
    """Root-mean-square of the pair's interaction entries."""
    mat = table.pair(j, k)
    return float(np.sqrt(np.mean(mat * mat)))


def pci_matrix(table: EffectTable, j: int, k: int, mode: str = "uniform") -> PciMatrix:
    """Standardized interaction matrix for one factor pair.

    ``uniform`` divides by the plain RMS over cells; ``weighted`` uses the
    reference pair weights instead. A pair with no interaction is all zeros
    by convention.
    """
    if j == k:
        raise ValueError("need two distinct factors")
    mat = table.pair(j, k)
    if mode == "uniform":
        s = float(np.sqrt(np.mean(mat * mat)))
    elif mode == "weighted":
        w = table.reference.pair(j, k)
        s = float(np.sqrt(np.sum(w * mat * mat)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    values = np.zeros_like(mat) if s == 0.0 else mat / s
    return PciMatrix(j, k, values, s, mode)


def pci_rank_pairs(table: EffectTable) -> list[tuple[tuple[str, str], float]]:
    """Factor pairs ordered by descending interaction strength; ties break
    by lexicographic pair name."""
    if not table.pairs:
        raise ValueError("table has no factor pairs")
    names = table.space.names
    rows = []
    for (j, k) in table.pairs:
        s = interaction_strength(table, j, k)
        rows.append(((names[j], names[k]), s))
    rows.sort(key=lambda item: (-item[1], item[0]))
    return rows


def write_pci_csv(table: EffectTable, path: str | Path, mode: str = "uniform",
                  header_note: str | None = None) -> None:
    """Long-form heatmap data: one row per pair cell."""
    space = table.space
    rows = []
    for (j, k) in sorted(table.pairs):
        pm = pci_matrix(table, j, k, mode)
        fj, fk = space.factors[j], space.factors[k]
        for a, la in enumerate(fj.levels):
            for b, lb in enumerate(fk.levels):
                rows.append([fj.name, fk.name, la, lb, repr(float(pm.values[a, b])),
                             repr(pm.s), mode])
    write_csv(path, header_note,
              ["factor_j", "factor_k", "level_j", "level_k", "pci", "s_jk", "mode"], rows)
