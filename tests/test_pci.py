import dataclasses

import numpy as np
import pytest

from effectlab import (
    ShrinkageSpec,
    TeacherSpec,
    build_space,
    estimate_effects_cm,
    gen_teacher,
    interaction_strength,
    pci_matrix,
    pci_rank_pairs,
    write_pci_csv,
)
from conftest import full_grid_log, random_space

TINY_TAU = ShrinkageSpec(1e-12)


def random_truth(seed, d=None, pair_scale=0.5):
    rng = np.random.default_rng(seed)
    space = random_space(rng, d=d)
    teacher = gen_teacher(TeacherSpec(space, pair_scale=pair_scale,
                                      residual_scale=0.0, noise=0.0, seed=seed))
    return teacher.truth


def test_pci_xor_unit_entries(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    pm = pci_matrix(table, 0, 1)
    assert np.max(np.abs(np.abs(pm.values) - 1.0)) < 1e-10
    assert float((pm.values ** 2).sum()) == pytest.approx(4.0)


def test_pci_zero_pair_convention(space_2x2):
    log = full_grid_log(space_2x2, np.zeros((2, 2)))
    table = estimate_effects_cm(log, shrinkage=TINY_TAU)
    pm = pci_matrix(table, 0, 1)
    assert pm.s == 0.0
    assert np.all(pm.values == 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_pci_energy_and_max_range(seed):
    table = random_truth(seed)
    for (j, k) in table.pairs:
        pm = pci_matrix(table, j, k)
        if pm.s == 0.0:
            continue
        Lj, Lk = pm.values.shape
        assert float((pm.values ** 2).sum()) == pytest.approx(Lj * Lk, abs=1e-9)
        peak = float(np.abs(pm.values).max())
        assert 1.0 - 1e-9 <= peak <= np.sqrt(Lj * Lk) + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_pci_affine_invariance(seed):
    table = random_truth(seed)
    a, b = 3.7, -2.0
    scaled = dataclasses.replace(
        table,
        mu=a * table.mu + b,
        mains=tuple(a * g for g in table.mains),
        pairs={jk: a * m for jk, m in table.pairs.items()},
    )
    for (j, k) in table.pairs:
        p1 = pci_matrix(table, j, k)
        p2 = pci_matrix(scaled, j, k)
        assert np.max(np.abs(p1.values - p2.values)) < 1e-10
    # negative scaling flips signs only
    flipped = dataclasses.replace(
        table, pairs={jk: -m for jk, m in table.pairs.items()}
    )
    for (j, k) in table.pairs:
        p1 = pci_matrix(table, j, k)
        p3 = pci_matrix(flipped, j, k)
        assert np.max(np.abs(p1.values + p3.values)) < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_pci_uniform_shrinkage_invariance(seed):
    table = random_truth(seed)
    eta = 0.42
    shrunk = dataclasses.replace(
        table, pairs={jk: eta * m for jk, m in table.pairs.items()}
    )
    for (j, k) in table.pairs:
        p1 = pci_matrix(table, j, k)
        p2 = pci_matrix(shrunk, j, k)
        assert np.max(np.abs(p1.values - p2.values)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_pci_cellwise_shrinkage_bound(seed):
    rng = np.random.default_rng(seed)
    table = random_truth(seed)
    eta_min, eta_max = 0.5, 0.9
    factor = max(eta_max / eta_min - 1.0, 1.0 - eta_min / eta_max)
    for (j, k) in list(table.pairs):
        base = table.pairs[(j, k)]
        if not base.any():
            continue
        eta = rng.uniform(eta_min, eta_max, size=base.shape)
        shrunk = dataclasses.replace(table, pairs={**table.pairs, (j, k): eta * base})
        p1 = pci_matrix(table, j, k).values
        p2 = pci_matrix(shrunk, j, k).values
        assert np.all(np.abs(p2 - p1) <= factor * np.abs(p1) + 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_pci_separable_outer_product(seed):
    rng = np.random.default_rng(1000 + seed)
    space = build_space([("a", ["0", "1", "2"]), ("b", ["0", "1"])])
    a = rng.normal(size=3)
    a -= a.mean()
    b = rng.normal(size=2)
    b -= b.mean()
    sep = np.outer(a, b)
    truth = random_truth(seed, d=2)
    table = dataclasses.replace(
        gen_teacher(TeacherSpec(space, pair_scale=0.0, residual_scale=0.0,
                                noise=0.0, seed=seed)).truth,
        pairs={(0, 1): sep},
    )
    pm = pci_matrix(table, 0, 1)
    ua = a / np.sqrt(np.mean(a * a))
    ub = b / np.sqrt(np.mean(b * b))
    assert np.max(np.abs(pm.values - np.outer(ua, ub))) < 1e-10


def test_pci_symmetry_and_centering(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    p01 = pci_matrix(table, 0, 1)
    p10 = pci_matrix(table, 1, 0)
    assert np.max(np.abs(p01.values - p10.values.T)) < 1e-12
    # double centering carries over from the interaction table
    assert np.max(np.abs(p01.values.mean(axis=0))) < 1e-9
    assert np.max(np.abs(p01.values.mean(axis=1))) < 1e-9


def test_pci_within_pair_rank_agreement():
    table = random_truth(3)
    for (j, k) in table.pairs:
        pm = pci_matrix(table, j, k)
        if pm.s == 0.0:
            continue
        raw = np.abs(table.pairs[(j, k)]).ravel()
        std = np.abs(pm.values).ravel()
        assert np.array_equal(np.argsort(raw, kind="stable"), np.argsort(std, kind="stable"))


def test_pci_weighted_mode_energy(xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    pm = pci_matrix(table, 0, 1, mode="weighted")
    w = table.reference.pair(0, 1)
    assert float((w * pm.values ** 2).sum()) == pytest.approx(1.0)


def test_rank_pairs_ordering():
    table = random_truth(9, d=3)
    scaled_pairs = {}
    keys = sorted(table.pairs)
    targets = [0.5, 0.1, 0.0]
    for key, target in zip(keys, targets):
        base = table.pairs[key]
        s = interaction_strength(table, *key)
        scaled_pairs[key] = base * (target / s) if s > 0 else base * 0.0
    table2 = dataclasses.replace(table, pairs=scaled_pairs)
    ranked = pci_rank_pairs(table2)
    strengths = [s for _, s in ranked]
    assert strengths == sorted(strengths, reverse=True)
    assert strengths[0] == pytest.approx(0.5, abs=1e-9)
    assert strengths[-1] == pytest.approx(0.0, abs=1e-12)


def test_rank_pairs_affine_invariant():
    table = random_truth(10)
    scaled = dataclasses.replace(
        table, pairs={jk: 2.5 * m for jk, m in table.pairs.items()}
    )
    r1 = [pair for pair, _ in pci_rank_pairs(table)]
    r2 = [pair for pair, _ in pci_rank_pairs(scaled)]
    assert r1 == r2


def test_rank_pairs_single_pair(space_2x2, xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    ranked = pci_rank_pairs(table)
    assert len(ranked) == 1
    assert ranked[0][0] == ("a", "b")


def test_pci_csv_export(tmp_path, xor_log):
    table = estimate_effects_cm(xor_log, shrinkage=TINY_TAU)
    path = tmp_path / "pci.csv"
    write_pci_csv(table, path, header_note="dimensionless; estimator=cm")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "factor_j,factor_k,level_j,level_k,pci,s_jk,mode"
    assert len(lines) == 2 + 4
