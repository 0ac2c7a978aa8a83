"""Source hygiene: every name a module imports is used in that module,
every private module-level name is used somewhere in the package, and the
package exports exactly its public names."""

import ast
import re
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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level _private functions, classes and constants of
    ``sources`` (module name -> source) that no line names as a word
    outside their own definition."""
    defined = []  # (name, module, first line, last line)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (name, module, node.lineno, node.end_lineno)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    lines = {module: source.splitlines() for module, source in sources.items()}
    return [
        f"{name} ({module} line {first})"
        for name, module, first, last in defined
        if not any(
            re.search(rf"\b{name}\b", line)
            for other, text in lines.items()
            for number, line in enumerate(text, 1)
            if other != module or not first <= number <= last
        )
    ]


def test_private_names_are_used():
    sources = {path.stem: path.read_text() for path in Path(testscore.__file__).parent.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_finds_an_unreferenced_private_name():
    sources = {
        "a": "def _self(n):\n    return _self(n - 1)\n\n\nclass _Kept:\n    pass\n_LIMIT: int = 1\n",
        "b": "from .a import _Kept\n_TABLE = {}\nprint(_TABLE, __name__)\n",
    }
    assert unreferenced_private_names(sources) == ["_self (a line 1)", "_LIMIT (a line 7)"]


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
