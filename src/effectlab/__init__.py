"""Factorial effect estimation, Shapley attribution, and configuration search.

The library ingests weighted experiment logs over discrete factor grids,
estimates main effects and pairwise interactions through two routes
(conditional cell means; least-squares recovery from Shapley attributions),
scores configurations with a risk- and cost-adjusted objective, and searches
the feasible set with coordinate ascent plus optimality diagnostics.
"""

from .space import (
    Config,
    DesignPlan,
    Factor,
    FactorSpace,
    LogSchemaError,
    ReferenceDistribution,
    RunLog,
    SupportCounts,
    build_space,
    effective_sample_size,
    enumerate_grid,
    ingest_log,
    load_space,
    log_from_arrays,
    sample_design,
    save_space,
    support_counts,
    write_log,
)
from .effects import (
    EffectTable,
    EmptyCellError,
    ShrinkageSpec,
    bootstrap_cis,
    conditional_mean,
    conditional_pair_mean,
    estimate_effects_cm,
    shrinkage_risk,
    table_from_dict,
    weighted_baseline,
)
from .shapley import (
    EffectDesignMatrix,
    RankDeficiencyError,
    ShapleyEstimate,
    ValueOracle,
    build_design_matrix,
    coalition_value,
    exact_shapley,
    exact_shapley_second_order,
    fit_effects_sf,
    mc_sample_size,
    mc_shapley,
    stability_bound,
    write_shapley_csv,
)
from .objective import (
    CostModel,
    InfeasibleConfigError,
    ObjectiveSpec,
    PairwiseObjective,
    delta_cost,
    objective,
    objective_grid,
    predict_grid,
    risk_penalty,
    two_factor_predict,
)
from .optimize import (
    DominanceReport,
    SearchSpec,
    SearchTrace,
    coordinate_ascent,
    diag_dominance_check,
    local_gain,
    multistart,
    near_opt_bound,
    two_swap_bound,
    verify_1swap,
)
from .pci import PciMatrix, interaction_strength, pci_matrix, pci_rank_pairs, write_pci_csv
from .planning import (
    bernstein_halfwidth,
    effect_error_budget,
    hoeffding_cell_n,
    infer_bound,
    uniform_cells_n,
)
from .sim import (
    SuiteConfig,
    Teacher,
    TeacherSpec,
    TrialResult,
    ablation_suite,
    comparison_suite,
    default_space,
    estimate_from_log,
    gen_teacher,
    make_log,
    reconstruction_error,
    run_trial,
    spearman,
)

__version__ = "0.1.0"
