"""What each CLI command loads, and the package's lazily resolved names.

A command imports only the library layers it runs, so a later eager
module-level import shows up here as a module that should not be loaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effectlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The names ``effectlab`` exports, each resolved on first use.
PUBLIC_NAMES = (
    "Config CostModel DesignPlan DominanceReport EffectDesignMatrix EffectTable Factor "
    "FactorSpace InfeasibleConfigError LogSchemaError ObjectiveSpec PairwiseObjective "
    "PciMatrix RankDeficiencyError ReferenceDistribution RunLog SearchSpec SearchTrace "
    "ShapleyEstimate ShrinkageSpec SuiteConfig SupportCounts Teacher TeacherSpec "
    "TrialResult ValueOracle ablation_suite bernstein_halfwidth bootstrap_cis "
    "build_design_matrix build_space comparison_suite coordinate_ascent default_space "
    "diag_dominance_check effect_error_budget effective_sample_size enumerate_grid "
    "estimate_effects_cm estimate_from_log exact_shapley exact_shapley_second_order "
    "fit_effects_sf gen_teacher hoeffding_cell_n ingest_log interaction_strength load_space "
    "log_from_arrays make_log mc_sample_size mc_shapley multistart near_opt_bound objective "
    "objective_grid pci_matrix pci_rank_pairs predict_grid reconstruction_error run_trial "
    "sample_design spearman support_counts table_from_dict two_swap_bound uniform_cells_n "
    "verify_1swap write_log write_pci_csv write_shapley_csv"
).split()

# Public entry points for a user's own code that no command, demo or
# criterion calls.
ENTRY_POINTS = {"coordinate_ascent", "table_from_dict"}

# ``import effectlab`` binds the function ``objective``, which loads its
# module and the layers that module imports.
PACKAGE = {"effectlab", "effectlab.objective", "effectlab.effects", "effectlab.space"}
# The CLI also loads attribution: the per-layer tracer (perfbench/spans.py)
# reads effectlab.shapley from sys.modules once it has imported the CLI.
CLI = PACKAGE | {"effectlab.cli", "effectlab.shapley"}

# Runs the CLI in this interpreter, then prints the effectlab modules loaded.
PROBE = """
import json, sys
from effectlab import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "effectlab")))
"""


def fresh_python(code: str, *argv: str) -> str:
    """Last stdout line of ``code`` run in a new interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def loaded_by(*argv: str) -> set[str]:
    return set(json.loads(fresh_python(PROBE, *argv)))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    space = tmp / "space.json"
    space.write_text(json.dumps({"factors": [{"name": "a", "levels": ["a0", "a1"]},
                                             {"name": "b", "levels": ["b0", "b1", "b2"]}]}))
    log = tmp / "log.csv"
    log.write_text("a,b,response\n" + "".join(
        f"a{i % 2},b{i % 3},{(i * 7) % 5 / 4}\n" for i in range(24)))
    return tmp, ["--space", str(space), "--log", str(log)]


def test_package_import_loads_only_the_objective_binding():
    assert set(json.loads(fresh_python(
        "import json, sys, effectlab; "
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'effectlab']))"
    ))) == PACKAGE


def test_version_loads_only_the_cli():
    assert loaded_by("--version") == CLI


def test_estimate_cm_loads_no_search_or_simulator(inputs):
    tmp, io = inputs
    loaded = loaded_by("estimate", "--path", "cm", *io, "--out", str(tmp / "cm"))
    assert (tmp / "cm" / "manifest.json").exists()
    assert loaded == CLI


@pytest.mark.parametrize("extra", [[], ["--bootstrap", "100"]])
def test_optimize_cm_loads_the_search_but_not_the_simulator(inputs, extra):
    tmp, io = inputs
    out = tmp / f"opt{len(extra)}"
    loaded = loaded_by("optimize", "--path", "cm", *extra, *io, "--out", str(out))
    assert (out / "topk.csv").exists()
    assert loaded == CLI | {"effectlab.optimize"}


def test_pci_and_plan_load_only_their_layers(inputs):
    tmp, io = inputs
    assert loaded_by("pci", *io, "--out", str(tmp / "pci")) == CLI | {"effectlab.pci"}
    assert loaded_by("plan", "--B", "1", "--eps", "0.1", "--delta", "0.05") == (
        CLI | {"effectlab.planning"})


def test_package_lists_every_public_name():
    assert sorted(effectlab.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == 71
    assert set(PUBLIC_NAMES) <= set(dir(effectlab))


def names_used(paths) -> set[str]:
    """Identifiers the code in ``paths`` reads or imports: loaded names,
    attributes and imported names, not the names a def, class or
    assignment binds."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_is_used_by_the_program_a_demo_or_a_criterion():
    """A public name that only unit tests call is surface kept for tests; its
    code belongs with the test oracles. ``__init__`` only lists the names."""
    used = names_used(p for p in (SRC / "effectlab").glob("*.py") if p.name != "__init__.py")
    used |= names_used((ROOT / "demos").glob("*.py"))
    used |= names_used([ROOT / "tests" / "test_acceptance.py"])
    assert ENTRY_POINTS <= set(effectlab.__all__)
    assert sorted(set(effectlab.__all__) - used - ENTRY_POINTS) == []


def test_public_names_are_their_submodule_attributes():
    for module, names in effectlab._EXPORTS.items():
        source = importlib.import_module(f"effectlab.{module}")
        for name in names:
            assert getattr(effectlab, name) is getattr(source, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        effectlab.no_such_name


@pytest.mark.parametrize("first", ["effectlab.optimize", "effectlab.objective",
                                   "effectlab.sim", "effectlab.cli"])
def test_objective_stays_the_function_whatever_loads_first(first):
    got = fresh_python(
        f"import sys, {first}\n"
        "from effectlab import objective\n"
        "print(objective is sys.modules['effectlab.objective'].objective)"
    )
    assert got == "True"


# Runs the CLI in this interpreter, then prints whether numpy.ma was loaded.
MA_PROBE = """
import sys
from effectlab import cli
assert cli.main(sys.argv[1:]) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "2", "--design-n", "24"],
    ["ablate", "--axis", "seed-budget", "--trials", "2"],
    ["optimize", "--path", "cm", "--bootstrap", "100"],
])
def test_suites_and_bootstrap_never_load_numpy_ma(inputs, argv):
    """Their percentile intervals are exact without np.percentile, whose
    np.unique call imports numpy.ma."""
    tmp, io = inputs
    io = io if argv[0] == "optimize" else []
    out = tmp / f"ma-{argv[0]}"
    assert fresh_python(MA_PROBE, *argv, *io, "--out", str(out)) == "False"
