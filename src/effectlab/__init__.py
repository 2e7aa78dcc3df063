"""Factorial effect estimation, Shapley attribution, and configuration search.

The library ingests weighted experiment logs over discrete factor grids,
estimates main effects and pairwise interactions through two routes
(conditional cell means; least-squares recovery from Shapley attributions),
scores configurations with a risk- and cost-adjusted objective, and searches
the feasible set with coordinate ascent plus optimality diagnostics.

``import effectlab`` loads only ``objective`` and the layers it imports;
every other public name is imported from its submodule on first use
(PEP 562), so a program pays only for the layers it runs.
"""

import importlib

# When the import system first loads a submodule it sets it as an attribute
# of this package, which would shadow the function ``objective`` with its
# module. Loading that module here, before anything else can, and binding the
# function over it keeps the function: the module is never loaded again.
from .objective import objective

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "space": (
        "Config", "DesignPlan", "Factor", "FactorSpace", "LogSchemaError",
        "ReferenceDistribution", "RunLog", "SupportCounts", "build_space",
        "effective_sample_size", "enumerate_grid", "ingest_log", "load_space",
        "log_from_arrays", "sample_design", "save_space", "support_counts", "write_log",
    ),
    "effects": (
        "EffectTable", "EmptyCellError", "ShrinkageSpec", "bootstrap_cis",
        "conditional_mean", "conditional_pair_mean", "estimate_effects_cm",
        "estimate_from_log", "shrinkage_risk", "table_from_dict", "weighted_baseline",
    ),
    "shapley": (
        "EffectDesignMatrix", "RankDeficiencyError", "ShapleyEstimate", "ValueOracle",
        "build_design_matrix", "coalition_value", "exact_shapley",
        "exact_shapley_second_order", "fit_effects_sf", "mc_sample_size", "mc_shapley",
        "stability_bound", "write_shapley_csv",
    ),
    "objective": (
        "CostModel", "InfeasibleConfigError", "ObjectiveSpec", "PairwiseObjective",
        "delta_cost", "objective", "objective_grid", "predict_grid", "risk_penalty",
        "two_factor_predict",
    ),
    "optimize": (
        "DominanceReport", "SearchSpec", "SearchTrace", "coordinate_ascent",
        "diag_dominance_check", "local_gain", "multistart", "near_opt_bound",
        "two_swap_bound", "verify_1swap",
    ),
    "pci": ("PciMatrix", "interaction_strength", "pci_matrix", "pci_rank_pairs",
            "write_pci_csv"),
    "planning": ("bernstein_halfwidth", "effect_error_budget", "hoeffding_cell_n",
                 "infer_bound", "uniform_cells_n"),
    "sim": (
        "SuiteConfig", "Teacher", "TeacherSpec", "TrialResult", "ablation_suite",
        "comparison_suite", "default_space", "gen_teacher", "make_log",
        "reconstruction_error", "run_trial", "spearman",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
