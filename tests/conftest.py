import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from effectlab import (
    FactorSpace,
    build_space,
    enumerate_grid,
    log_from_arrays,
)


@pytest.fixture
def space_2x2():
    return build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])


@pytest.fixture
def xor_log(space_2x2):
    grid = enumerate_grid(space_2x2)
    responses = [float(x[0] ^ x[1]) for x in grid]
    return log_from_arrays(space_2x2, grid, responses)


def random_space(rng: np.random.Generator, d: int | None = None,
                 max_levels: int = 3) -> FactorSpace:
    d = d or int(rng.integers(2, 5))
    entries = []
    for i in range(d):
        L = int(rng.integers(2, max_levels + 1))
        entries.append((f"f{i}", [f"l{t}" for t in range(L)]))
    return build_space(entries)


def full_grid_log(space: FactorSpace, values: np.ndarray, replicates: int = 1):
    grid = enumerate_grid(space)
    configs = []
    responses = []
    seeds = []
    for x in grid:
        for s in range(replicates):
            configs.append(x)
            responses.append(float(values[x]))
            seeds.append(s)
    return log_from_arrays(space, configs, responses, seeds=seeds)


def count_centerer_builds(monkeypatch) -> list:
    """Record the marginals or joint of every pair centerer built from now on,
    closed-form (product references) or by Laplacian solve (empirical)."""
    from effectlab import space as space_module

    built = []
    for name in ("product_centerer", "double_centerer"):
        build = getattr(space_module, name)
        monkeypatch.setattr(space_module, name,
                            lambda *args, _build=build: built.append(args) or _build(*args))
    return built
