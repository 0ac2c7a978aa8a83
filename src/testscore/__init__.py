"""Test-score based team selection under stochastic, submodular production.

Agents have per-project performance distributions; a project's utility is
the expected value of a symmetric monotone submodular function of its
team's realized performances. Score tables compress each agent-project
pair to a handful of numbers (mean, tail quantile, replication scores),
and selection routines work from those tables alone, with verifiable
approximation guarantees.
"""

import types

from .core import (
    Assignment,
    BudgetExceededError,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    ValidationError,
    dist_mean,
    enumeration_budget,
)
from .production import (
    BspResult,
    ConcaveFn,
    InverseUnboundedError,
    UnitFn,
    ValueFunction,
    bsp_check,
    evaluate,
    evaluate_batch,
    single_inverse,
)
from .utility import (
    SubmodularityReport,
    UtilityEstimate,
    mc_utility,
    project_utility,
    submodularity_check,
)
from .scores import (
    ScoreTable,
    build_score_table,
    mean_score,
    quantile_score,
    replication_score,
)
from .sketch import (
    BoundWitness,
    SketchBoundReport,
    SketchEval,
    minmax_sketch,
    strong_sketch,
    verify_goodness_sandwich,
    verify_strong_sketch_bounds,
)
from .optimize import (
    ApproxReport,
    SINGLE_GREEDY_BOUND,
    SelectionResult,
    TraceStep,
    approximation_report,
    baseline_max_sketch_welfare,
    baseline_min_sketch_welfare,
    best_strong_sketch_assignment,
    brute_force_single,
    brute_force_welfare,
    greedy_topk,
    greedy_welfare,
    welfare_greedy_bound,
)
from .adversarial import (
    CATALOGUE_POOL,
    GENERATORS,
    AdversarialInstance,
    InstanceReport,
    gen_ces_mean_tightness,
    gen_mean_fails_bestshot,
    gen_quantile_ces,
    gen_quantile_fails_linear,
    gen_welfare_example1,
    gen_welfare_example2,
    random_bsp_scenario,
    random_single_scenario,
    random_welfare_scenario,
    validate_instance,
)
from .scenario_io import (
    LoadedScenario,
    ingest_ratings,
    load_scenario,
    parse_value_fn,
    read_ratings,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    value_fn_tag,
)

__version__ = "0.1.0"

# every name imported above, the submodules aside
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
