"""Source hygiene: every name a module imports is used in that module, and
the package exports exactly its public names."""

import ast
from pathlib import Path

import pytest

import testscore

MODULES = sorted(
    path
    for path in Path(testscore.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # the package's imports are its re-exports
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "sep (line 2)"]


# the package's public names, in the order testscore/__init__.py imports them
PUBLIC_NAMES = """
Assignment BudgetExceededError Distribution ProjectStore RngSpec Scenario
ValidationError dist_mean empirical_distribution enumeration_budget
BspResult ConcaveFn InverseUnboundedError UnitFn ValueFunction bsp_check
diminishing_across_check evaluate evaluate_batch single_inverse
value_submodularity_check SubmodularityReport UtilityEstimate mc_utility
project_utility submodularity_check ScoreDiag ScoreTable build_score_table
mean_score quantile_level quantile_score replication_score BoundWitness MaxTermBound
SketchBoundReport SketchEval max_term_bound minmax_sketch strong_sketch
verify_goodness_sandwich verify_strong_sketch_bounds ApproxReport
SINGLE_GREEDY_BOUND SelectionResult TraceStep approximation_report
baseline_max_sketch_welfare baseline_min_sketch_welfare
best_strong_sketch_assignment brute_force_single brute_force_welfare greedy_topk
greedy_welfare welfare_greedy_bound CATALOGUE_POOL GENERATORS AdversarialInstance
InstanceReport gen_ces_mean_tightness gen_mean_fails_bestshot gen_quantile_ces
gen_quantile_fails_linear gen_welfare_example1 gen_welfare_example2
random_bsp_scenario random_single_scenario random_welfare_scenario validate_instance
LoadedScenario ingest_ratings load_scenario parse_value_fn read_ratings
save_scenario scenario_from_dict scenario_to_dict value_fn_tag
""".split()


def test_public_names_are_pinned():
    assert testscore.__all__ == PUBLIC_NAMES
    assert all(hasattr(testscore, name) for name in PUBLIC_NAMES)
