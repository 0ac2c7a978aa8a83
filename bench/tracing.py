"""Per-layer spans and work counters for the benchmark's traced runs.

A traced run rebinds each listed public function in every ``testscore``
module that holds the name, so calls the program makes internally are
seen as well as the benchmark's own. The two core types are traced by
wrapping their ``__init__``, which covers construction and validation
without replacing the classes that ``isinstance`` checks rely on.

Every wrapped call is a span. Its self time is its duration minus the
duration of the spans it caused. Work counters are computed from each
call's arguments and result, never read from inside the program, so the
program is unchanged by tracing except for the time the wrappers take.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

from testscore import core


def _members(S) -> tuple[int, ...]:
    return tuple(sorted(set(int(i) for i in S)))


@functools.lru_cache(maxsize=None)
def _multisets(r: int, s: int) -> int:
    # count of size-r multisets over s atoms: the replication enumeration size
    return math.comb(r + s - 1, s - 1)


def _rows(dur, result, g, X):
    return {"rows": len(result)}


def _outcomes(dur, result, scn, j, S):
    return {"outcomes": math.prod(len(scn.dist(i, j)) for i in _members(S))}


def _atoms(dur, result, scn, j, S):
    return {"atoms": sum(len(scn.dist(i, j)) for i in _members(S))}


def _samples(dur, result, *args, **kwargs):
    return {"samples": result.samples}


def _table_work(dur, result, scn, kind, max_r, **kwargs):
    # exact non-best-shot cells enumerate C(r+s-1, s-1) multisets; cells
    # whose count exceeds the budget fall back to Monte Carlo
    exact_terms = 0
    mc_cells = 0
    if kind == "replication":
        budget = core.enumeration_budget()
        for j in scn.projects:
            if scn.value_fns[j].kind == "best_shot":
                continue
            for i in scn.agents:
                s = len(scn.dist(i, j))
                for r in range(1, max_r + 1):
                    terms = _multisets(r, s)
                    if terms <= budget:
                        exact_terms += terms
                    else:
                        mc_cells += 1
    return {
        "cells": scn.n_agents * scn.n_projects * max_r,
        "exact_terms": exact_terms,
        "mc_cells": mc_cells,
    }


def _subsets(dur, result, scn, j, k):
    return {"subsets": math.comb(scn.n_agents, k)}


def _dp_transitions(dur, result, scn):
    # one stage per project: every set of agents already used, times every
    # team for this project drawn from the rest
    n = scn.n_agents
    used = 0
    total = 0
    for k in scn.cardinalities:
        total += math.comb(n, used) * math.comb(n - used, k)
        used += k
    return {"dp_transitions": total}


def _pair_scans(dur, result, scn, *args, **kwargs):
    # replay the pick order: each step scans every available agent against
    # every project that still has an open slot
    filled = [0] * scn.n_projects
    open_projects = scn.n_projects
    available = scn.n_agents
    scans = 0
    for step in result.score_trace:
        scans += available * open_projects
        available -= 1
        filled[step.project] += 1
        if filled[step.project] >= scn.cardinalities[step.project]:
            open_projects -= 1
    return {"pair_scans": scans}


def _instance_time(dur, result, inst):
    return {f"{inst.name}.total_s": dur}


INSTANCE_NAMES = (
    "mean_bestshot",
    "quantile_linear",
    "ces_mean",
    "quantile_ces",
    "welfare_ex1",
    "welfare_ex2",
)

# (module, name, reported metrics, counter function). Reported metrics are
# "calls", "self_s", keys the counter function returns, and "distinct_frac".
SPANS = (
    ("scenario_io", "read_ratings", ("self_s",), None),
    ("scenario_io", "ingest_ratings", ("self_s",), None),
    ("scenario_io", "load_scenario", ("calls", "self_s"), None),
    ("core", "Distribution", ("calls", "self_s"), None),
    ("core", "Scenario", ("calls", "self_s"), None),
    ("production", "evaluate", ("calls", "self_s"), None),
    ("production", "evaluate_batch", ("calls", "rows", "self_s"), _rows),
    ("utility", "exact_utility", ("calls", "outcomes", "self_s"), _outcomes),
    ("utility", "exact_utility_best_shot", ("calls", "atoms", "self_s"), _atoms),
    # distinct teams per op need the tracer's per-op state: Tracer._distinct
    ("utility", "project_utility", ("calls", "distinct_frac"), None),
    ("utility", "mc_utility", ("calls", "samples"), _samples),
    ("utility", "submodularity_check", ("calls", "self_s"), None),
    (
        "scores",
        "build_score_table",
        ("calls", "cells", "exact_terms", "mc_cells", "self_s"),
        _table_work,
    ),
    ("scores", "replication_score", ("calls", "self_s"), None),
    ("optimize", "greedy_topk", ("calls", "self_s"), None),
    ("optimize", "greedy_welfare", ("calls", "pair_scans", "self_s"), _pair_scans),
    ("optimize", "brute_force_single", ("calls", "subsets", "self_s"), _subsets),
    (
        "optimize",
        "brute_force_welfare",
        ("calls", "dp_transitions", "self_s"),
        _dp_transitions,
    ),
    ("optimize", "approximation_report", ("calls", "self_s"), None),
    ("optimize", "best_strong_sketch_assignment", ("self_s",), None),
    ("optimize", "baseline_min_sketch_welfare", ("self_s",), None),
    ("optimize", "baseline_max_sketch_welfare", ("self_s",), None),
    ("sketch", "strong_sketch", ("calls", "self_s"), None),
    ("sketch", "minmax_sketch", ("calls", "self_s"), None),
    ("sketch", "verify_strong_sketch_bounds", ("calls", "self_s"), None),
    ("sketch", "verify_goodness_sandwich", ("calls", "self_s"), None),
    (
        "adversarial",
        "validate_instance",
        ("calls", "self_s") + tuple(f"{name}.total_s" for name in INSTANCE_NAMES),
        _instance_time,
    ),
    ("cli", "main", ("calls", "self_s"), None),
)

OVERHEAD_METRIC = "trace.overhead_frac"


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [
        f"{module}.{attr}.{metric}"
        for module, attr, reported, _count in SPANS
        for metric in reported
    ]
    return names + [OVERHEAD_METRIC]


def is_time(name: str) -> bool:
    return metric_unit(name) == "s"


class Tracer:
    """Collects spans and counters while installed.

    Figures accumulate until ``take`` returns and resets them, so a caller
    can split them by phase (set-up, then each pass over the ops).
    """

    def __init__(self):
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._op_self = [0.0]
        # (scenario id, project, team) keys met in the current op; the
        # scenarios are pinned so an id is not reused within the op
        self._seen: set[tuple] = set()
        self._pinned: list[object] = []
        self.values: dict[str, float] = defaultdict(float)

    def take(self) -> dict[str, float]:
        out = dict(self.values)
        self.values.clear()
        return out

    def begin_op(self) -> None:
        self._seen.clear()
        self._pinned.clear()
        self._op_self[0] = 0.0

    def end_op(self) -> float:
        """Sum of the self times of the spans recorded since begin_op."""
        return self._op_self[0]

    def _distinct(self, dur, result, scn, j, S):
        key = (id(scn), int(j), _members(S))
        if key in self._seen:
            return {"distinct": 0}
        self._seen.add(key)
        self._pinned.append(scn)
        return {"distinct": 1}

    def _wrap(self, label: str, fn, count):
        stack = self._stack
        op_self = self._op_self
        values = self.values
        perf = time.perf_counter
        calls_key = f"{label}.calls"
        self_key = f"{label}.self_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                dur = perf() - t0
                own = dur - stack.pop()
                values[calls_key] += 1
                values[self_key] += own
                op_self[0] += own
                if done and count is not None:
                    for key, v in count(dur, result, *args, **kwargs).items():
                        values[f"{label}.{key}"] += v
                if stack:
                    # the caller's self time excludes this span and the
                    # time spent computing its counters
                    stack[-1] += perf() - t0
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "testscore" or name.startswith("testscore."))
        ]
        for module, attr, _reported, count in SPANS:
            label = f"{module}.{attr}"
            if label == "utility.project_utility":
                count = self._distinct
            original = getattr(sys.modules[f"testscore.{module}"], attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = self._wrap(label, init, count)
                self._undo.append((original, "__init__", init))
                continue
            wrapped = self._wrap(label, original, count)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(setup: dict[str, float], passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass over the ops.

    Counters are identical in every pass (the caller checks), so the first
    pass gives them; times are averaged over the passes.
    """
    merged: dict[str, float] = defaultdict(float, setup)
    for key in set().union(*passes):
        if is_time(key):
            merged[key] += sum(part.get(key, 0.0) for part in passes) / len(passes)
        else:
            merged[key] += passes[0].get(key, 0)
    out = {}
    for name in metric_names():
        if name == OVERHEAD_METRIC:
            continue
        if name.endswith(".distinct_frac"):
            label = name[: -len(".distinct_frac")]
            calls = merged[f"{label}.calls"]
            out[name] = merged[f"{label}.distinct"] / calls if calls else 0.0
        else:
            out[name] = merged[name]
    return out


def counter_view(part: dict[str, float]) -> dict[str, float]:
    """The work counters of one phase: every figure that is not a time."""
    return {key: v for key, v in sorted(part.items()) if not is_time(key)}
