"""Source hygiene: every name a module imports is used in that module,
every private module-level name is used somewhere in the package, every
public function, class and method is referred to by code somewhere in
the package outside its own definition, and the package exports exactly
its public names. A name in a docstring, a string or a comment is no
reference."""

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


def references(source: str) -> list[tuple[str, int]]:
    """Each name the code of ``source`` refers to, with its line: names,
    attributes and the names a ``from`` import binds. Docstrings, other
    strings and comments refer to nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
    return found


def unreferenced(sources: dict[str, str], defined) -> list[str]:
    """The ``defined`` names, each given as (name, module, first line,
    last line) of its definition, that no code of ``sources`` (module name
    -> source) refers to outside that definition."""
    where: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line) of each reference
    for module, source in sources.items():
        for name, line in references(source):
            where.setdefault(name, []).append((module, line))
    return [
        f"{name} ({module} line {first})"
        for name, module, first, last in defined
        if not any(
            other != module or not first <= line <= last for other, line in where.get(name, ())
        )
    ]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level _private functions, classes and constants of
    ``sources`` (module name -> source) that no line names as a word
    outside their own definition."""
    defined = []
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
    return unreferenced(sources, defined)


def test_private_names_are_used():
    sources = {path.stem: path.read_text() for path in Path(testscore.__file__).parent.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_finds_an_unreferenced_private_name():
    sources = {
        "a": "def _self(n):\n    return _self(n - 1)\n\n\nclass _Kept:\n    pass\n_LIMIT: int = 1\n",
        "b": "from .a import _Kept\n_TABLE = {}\nprint(_TABLE, __name__)\n",
    }
    assert unreferenced_private_names(sources) == ["_self (a line 1)", "_LIMIT (a line 7)"]


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """The public module-level functions and classes of ``sources``, and
    the public methods of those classes, that no line names as a word
    outside their own definition."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            body = node.body if isinstance(node, ast.ClassDef) else []
            defined += [
                (d.name, module, d.lineno, d.end_lineno)
                for d in [node] + [m for m in body if isinstance(m, ast.FunctionDef)]
                if not d.name.startswith("_")
            ]
    return unreferenced(sources, defined)


# public names no other package code calls, each kept for a reason
UNCALLED_PUBLIC = {
    # the benchmark's check_suites workload draws its welfare scenarios with it
    "random_welfare_scenario",
    # the tests' reference for min/max sketch values; the benchmark traces it
    "minmax_sketch",
    # the tests' reference for _strong_sketch_values; the benchmark traces it
    "strong_sketch",
    # the harmonic-sketch assignment oracle, named in the package only by the
    # string keys of the shared DP's oracles; the benchmark traces it
    "best_strong_sketch_assignment",
    # the min/max-sketch welfare baselines, named in the package only by those
    # strings; demos/assign_projects.py calls them and the benchmark traces them
    "baseline_min_sketch_welfare",
    "baseline_max_sketch_welfare",
    # the checked entries for outside callers; package code, whose vectors
    # are drawn from valid supports or checked once, calls the unchecked
    # production._evaluate and _evaluate_rows. The benchmark traces both
    "evaluate",
    "evaluate_batch",
}


def test_public_names_are_used():
    # the package's __init__.py only re-exports, so it names every public name
    sources = {path.stem: path.read_text() for path in MODULES}
    found = unreferenced_public_names(sources)
    assert sorted(entry.split()[0] for entry in found) == sorted(UNCALLED_PUBLIC), found


def test_finds_an_unreferenced_public_name():
    sources = {
        "a": (
            "class Kept:\n    def used(self):\n        return Kept()\n\n"
            "    def dead(self):\n        return self.used()\n\n\n"
            "def lonely(n):\n    return lonely(n - 1)\n\n\ndef _hidden():\n    pass\n"
        ),
        "b": "from .a import Kept\nKept().used()\n",
    }
    assert unreferenced_public_names(sources) == ["dead (a line 5)", "lonely (a line 9)"]


def test_a_docstring_or_a_string_is_no_reference():
    sources = {
        "a": 'def lonely():\n    """Not named by lonely() below."""\n\n\ndef _quiet():\n    pass\n',
        "b": '"""Calls lonely and _quiet."""\nTABLE = {"lonely": "_quiet"}  # lonely, _quiet\nprint(TABLE)\n',
    }
    assert unreferenced_public_names(sources) == ["lonely (a line 1)"]
    assert unreferenced_private_names(sources) == ["_quiet (a line 5)"]


# the package's public names, in the order testscore/__init__.py imports them
PUBLIC_NAMES = """
Assignment BudgetExceededError Distribution ProjectStore RngSpec Scenario
ValidationError dist_mean enumeration_budget
BspResult ConcaveFn InverseUnboundedError UnitFn ValueFunction bsp_check
evaluate evaluate_batch single_inverse SubmodularityReport UtilityEstimate
mc_utility project_utility submodularity_check ScoreTable build_score_table
mean_score quantile_score replication_score BoundWitness SketchBoundReport
SketchEval minmax_sketch strong_sketch
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


def indented_dumps(source: str) -> list[int]:
    """The lines of the ``json.dumps`` calls in ``source`` that pass
    ``indent``, which sends ``json`` to its pure-Python encoder."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]


def test_cli_reports_use_the_c_encoder():
    cli = Path(testscore.__file__).parent / "cli.py"
    assert indented_dumps(cli.read_text()) == []


def test_finds_an_indented_dumps():
    source = "import json\njson.dumps(1)\nx = json.dumps(\n  {}, indent=2)\njson.loads('1')\n"
    assert indented_dumps(source) == [3]


def path_writes(source: str) -> list[int]:
    """The lines of the ``open`` calls in ``source`` that may write to a
    file that exists: a mode holding "w", "a" or "+", or one that is not a
    string constant. ``scenario_io.write_text`` rewrites a path in place;
    mode "x" only creates a new file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(
                not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wa+")
                for mode in modes
            ):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_the_writer_writes_a_path(path):
    assert path_writes(path.read_text()) == []


def test_finds_a_writing_open():
    source = (
        'open(p)\nopen(p, "w")\nopen(p, mode="wb")\nopen(p, "x", newline="")\n'
        'open(p, mode)\nwith open(\n  p, "r+") as fh:\n    fh.read()\nopen(p, "a")\nopen(p, "rb")\n'
    )
    assert path_writes(source) == [2, 3, 5, 6, 9]
