"""Selection and assignment algorithms driven by score tables, plus the
exact brute-force oracles used to measure them.

The greedy routines never evaluate joint utilities while choosing; they
read precomputed scores only. Utilities enter afterwards, to report the
objective actually achieved.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, combinations
from typing import Callable, Optional

import numpy as np

from .core import (
    Assignment,
    BudgetExceededError,
    RngSpec,
    Scenario,
    ValidationError,
    enumeration_budget,
)
from .scores import ScoreTable
from .sketch import minmax_sketch, strong_sketch
from .utility import (
    UtilityEstimate,
    _batch_expectation,
    _grid,
    _linear,
    _row_work,
    mc_utility,
    project_utility,
)

BOUND_TOL = 1e-9
MC_OBJECTIVE_SAMPLES = 200_000
# batched oracle values within this relative distance of the largest are
# rescored one team at a time
SCREEN_TOL = 1e-9

# single-selection guarantee for replication-score greedy on balanced
# substitution objectives: (1 - 1/e) / (5 - 1/e), about 1/7.33
SINGLE_GREEDY_BOUND = (1.0 - 1.0 / math.e) / (5.0 - 1.0 / math.e)


def welfare_greedy_bound(k: int) -> float:
    """Assignment guarantee 1 / (24 (ln k + 1)) for max team size k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return 1.0 / (24.0 * (math.log(k) + 1.0))


@dataclass(frozen=True)
class TraceStep:
    step: int
    agent: int
    project: int
    score: float  # the per-pick score the algorithm maximized


@dataclass(frozen=True)
class SelectionResult:
    """An algorithm's output: who was placed where, and what it is worth.

    score_trace is present for greedy runs (one entry per placement, in
    pick order) and empty for brute-force oracles. sketch_objective, when
    set, is the sketch value the run optimized or accumulated.
    """

    assignment: Assignment
    per_project: tuple[UtilityEstimate, ...]
    total: float
    score_trace: tuple[TraceStep, ...] = ()
    sketch_objective: Optional[float] = None

    def __post_init__(self):
        if self.score_trace and len(self.score_trace) != self.assignment.total_assigned():
            raise ValidationError("trace length must match number of placements")

    def to_json(self) -> dict:
        out = {
            "assignment": [list(S) for S in self.assignment.sets],
            "per_project": [asdict(est) for est in self.per_project],
            "total": self.total,
            "trace": [
                {"step": t.step, "agent": t.agent, "project": t.project, "score": t.score}
                for t in self.score_trace
            ],
        }
        if self.sketch_objective is not None:
            out["sketch_objective"] = self.sketch_objective
        return out


def _objective(
    scn: Scenario, j: int, S, rng: Optional[RngSpec]
) -> UtilityEstimate:
    # exact when the outcome space fits the budget, sampled otherwise
    try:
        return project_utility(scn, j, S)
    except BudgetExceededError:
        mc_rng = rng if rng is not None else RngSpec(seed=0)
        return mc_utility(scn, j, S, mc_rng, samples=MC_OBJECTIVE_SAMPLES, stream=j)


def _result(
    scn: Scenario,
    sets: list[tuple[int, ...]],
    trace: tuple[TraceStep, ...] = (),
    rng: Optional[RngSpec] = None,
    sketch_objective: Optional[float] = None,
) -> SelectionResult:
    # insertion order is part of the contract; callers sort where they mean to
    assignment = Assignment(sets=tuple(tuple(S) for S in sets))
    per_project = tuple(
        _objective(scn, j, assignment.sets[j], rng) for j in scn.projects
    )
    return SelectionResult(
        assignment=assignment,
        per_project=per_project,
        total=float(sum(est.value for est in per_project)),
        score_trace=trace,
        sketch_objective=sketch_objective,
    )


def greedy_topk(
    scn: Scenario,
    j: int,
    k: int,
    table: ScoreTable,
    *,
    rng: Optional[RngSpec] = None,
) -> SelectionResult:
    """Pick the k agents with the largest size-k score for project j.

    Ties go to the smaller agent id. The reported objective is exact when
    the joint outcome space fits the enumeration budget and Monte Carlo
    (seeded, default seed 0) past it.
    """
    if k < 1 or k > scn.n_agents:
        raise ValidationError(f"k must be in 1..{scn.n_agents}, got {k}")
    table.get(scn.n_agents - 1, j, k)  # the table covers every agent at size k
    scores = table.scores[: scn.n_agents, j, k - 1]
    # a stable sort keeps equal scores in id order
    ranked = np.argsort(-scores, kind="stable")[:k].tolist()
    trace = tuple(
        TraceStep(step=t + 1, agent=i, project=j, score=s)
        for t, (i, s) in enumerate(zip(ranked, scores[ranked].tolist()))
    )
    sets = [() if jj != j else tuple(sorted(ranked)) for jj in scn.projects]
    return _result(scn, sets, trace=trace, rng=rng)


def greedy_welfare(
    scn: Scenario,
    table: ScoreTable,
    *,
    tie_rng: Optional[RngSpec] = None,
) -> SelectionResult:
    """Assign agents to projects by repeatedly taking the pair (i, j) whose
    next-slot score a_{i,j}^{r} / r is largest, with r the slot index the
    agent would fill on project j.

    Filled projects drop out; the loop ends when every project is full.
    Ties break deterministically toward the smaller agent id then the
    smaller project id, or uniformly at random when tie_rng is given.
    The accumulated per-pick scores equal the harmonic-sketch value of the
    final assignment, exposed as sketch_objective.
    """
    if table.kind != "replication":
        raise ValidationError(
            f"welfare greedy needs a replication table, got {table.kind!r}"
        )
    if max(scn.cardinalities) > table.max_r:
        raise ValidationError("table max_r does not cover the largest project")
    n, m, ks = scn.n_agents, scn.n_projects, scn.cardinalities
    table.get(n - 1, m - 1, 1)  # the table covers every agent and project
    a = table.scores[:n, :m]
    gen = tie_rng.generator(0) if tie_rng is not None else None
    # nxt[i, j] = a[i, j, r_j - 1] / r_j for the slot r_j project j fills
    # next; -inf once agent i is placed or project j is full
    nxt = a[:, :, 0].copy()  # every project fills slot 1 first: a / 1 = a
    placed = np.zeros(n, dtype=bool)
    sets: list[list[int]] = [[] for _ in scn.projects]
    trace: list[TraceStep] = []
    for step in range(1, sum(ks) + 1):
        # the row-major argmax and candidate order break ties toward the
        # smaller agent id, then the smaller project id
        if gen is None:
            pick = int(nxt.argmax())
        else:
            cands = np.flatnonzero(nxt == nxt.max())
            pick = int(cands[int(gen.integers(len(cands)))])
        i, j = divmod(pick, m)
        trace.append(TraceStep(step=step, agent=i, project=j, score=float(nxt[i, j])))
        sets[j].append(i)
        placed[i] = True
        nxt[i] = -np.inf
        r = len(sets[j]) + 1
        if r > ks[j]:
            nxt[:, j] = -np.inf
        else:
            nxt[:, j] = np.where(placed, -np.inf, a[:, j, r - 1] / r)
    return _result(
        scn,
        [tuple(S) for S in sets],
        trace=tuple(trace),
        sketch_objective=float(sum(t.score for t in trace)),
    )


def _subset_enum_cost(scn: Scenario, j: int, k: int) -> int:
    # the work brute_force_single's routes charge over all C(n, k) teams
    g = scn.value_fns[j]
    pool = [scn.dist(i, j) for i in scn.agents]
    teams = math.comb(len(pool), k)
    sizes = [len(d) for d in pool]
    if g.kind in ("best_shot", "top_r"):
        # one-member teams each run on their own support
        cells = sum(sizes) if k == 1 else teams * len(_grid(pool, teams))
        return _row_work(g, cells, k, 1)
    if g.kind == "success_prob":
        return sum(sizes) + teams * k
    if _linear(g):  # each agent's support is read once per team it joins
        return math.comb(len(pool) - 1, k - 1) * sum(sizes) + teams
    # sum route: a DP over the agents in id order sums, over the size-c
    # teams, the engine's charge (work[c]) and the partial-sum atoms
    # (size[c], the product of the supports stepped in; point masses only
    # shift the sum). It ignores the merge of equal sums, so it is exact
    # until a partial sum passes the merge size. Each team also costs one
    # unit for the loop itself.
    size, work = [1] + [0] * k, [0] * (k + 1)
    for s in sizes:
        s = s if s > 1 else 0
        for c in range(k, 0, -1):
            work[c] += work[c - 1] + size[c - 1] * s
            size[c] += size[c - 1] * max(s, 1)
    return work[k] + teams


def brute_force_single(scn: Scenario, j: int, k: int) -> SelectionResult:
    """Exact best size-k team for project j, by exhausting all subsets.

    Ties resolve to the lexicographically smallest subset. Raises when the
    total enumeration work would exceed the budget. Best-shot, top-r and
    success-probability projects score every team in blocks on the pool's
    merged grid, then confirm the teams within SCREEN_TOL of the best with
    ``project_utility``; ``total`` and ``ces`` score one team at a time.
    """
    if k < 1 or k > scn.n_agents:
        raise ValidationError(f"k must be in 1..{scn.n_agents}, got {k}")
    budget = enumeration_budget()
    cost = _subset_enum_cost(scn, j, k)
    if cost > budget:
        raise BudgetExceededError(cost, budget, what="subset enumeration")
    g = scn.value_fns[j]
    if g.kind in ("total", "ces"):
        candidates = combinations(scn.agents, k)
    else:
        pool = [scn.dist(i, j) for i in scn.agents]
        flat = chain.from_iterable(combinations(scn.agents, k))
        teams = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
        values = _batch_expectation(g, pool, teams, 1, budget)
        top = values.max()
        near = np.flatnonzero(values >= top - SCREEN_TOL * abs(top))
        candidates = (tuple(int(i) for i in teams[c]) for c in near)
    # batched values can round differently from a team's own, so the
    # screened candidates are rescored before the strict-> tie rule
    best_S: Optional[tuple[int, ...]] = None
    best_u = -math.inf
    for S in candidates:
        u = project_utility(scn, j, S).value
        if u > best_u:
            best_u = u
            best_S = S
    assert best_S is not None
    sets = [() if jj != j else best_S for jj in scn.projects]
    return _result(scn, sets)


def _mask_of(members) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def _dp_transition_count(n: int, ks) -> int:
    total = 0
    used = 0
    for k in ks:
        total += math.comb(n, used) * math.comb(n - used, k)
        used += k
    return total


def _maximize_assignment(
    scn: Scenario, value_of: Callable[[int, tuple[int, ...]], float]
) -> tuple[list[tuple[int, ...]], float]:
    """Exact argmax of sum_j value_of(j, S_j) over disjoint assignments.

    Dynamic program over sets of already-used agents, one stage per
    project; equivalent to full enumeration but shares suffixes, so the
    budget is checked against the transition count rather than the raw
    assignment count. Ties resolve to the lexicographically smallest
    (S_0, S_1, ...).
    """
    n = scn.n_agents
    ks = scn.cardinalities
    m = len(ks)
    budget = enumeration_budget()
    trans = _dp_transition_count(n, ks)
    if trans > budget:
        raise BudgetExceededError(trans, budget, what="assignment optimization")
    prefix = [0]
    for k in ks:
        prefix.append(prefix[-1] + k)
    memo: list[dict[tuple[int, ...], float]] = [dict() for _ in range(m)]

    def val(j: int, S: tuple[int, ...]) -> float:
        d = memo[j]
        if S not in d:
            d[S] = value_of(j, S)
        return d[S]

    # tables[j][mask] = best value of projects j.. given mask's agents taken
    tables: list[dict[int, float]] = [dict() for _ in range(m + 1)]
    for combo in combinations(scn.agents, prefix[m]):
        tables[m][_mask_of(combo)] = 0.0
    for j in range(m - 1, -1, -1):
        stage = tables[j]
        nxt = tables[j + 1]
        for combo in combinations(scn.agents, prefix[j]):
            mask = _mask_of(combo)
            comp = [i for i in scn.agents if not (mask >> i) & 1]
            best = -math.inf
            for S in combinations(comp, ks[j]):
                v = val(j, S) + nxt[mask | _mask_of(S)]
                if v > best:
                    best = v
            stage[mask] = best
    # walk forward, taking the smallest team that attains the table value
    sets: list[tuple[int, ...]] = []
    mask = 0
    for j in range(m):
        target = tables[j][mask]
        comp = [i for i in scn.agents if not (mask >> i) & 1]
        for S in combinations(comp, ks[j]):
            if val(j, S) + tables[j + 1][mask | _mask_of(S)] == target:
                sets.append(S)
                mask |= _mask_of(S)
                break
    return sets, tables[0][0]


def brute_force_welfare(scn: Scenario) -> SelectionResult:
    """Exact best disjoint assignment filling every project's slots.

    Ties resolve to the lexicographically smallest assignment. Raises when
    the optimization work would exceed the budget."""
    sets, _total = _maximize_assignment(
        scn, lambda j, S: project_utility(scn, j, S).value
    )
    return _result(scn, sets)


def _best_assignment_by_sketch(
    scn: Scenario, table: ScoreTable, sketch_of: str
) -> SelectionResult:
    def value(j: int, S: tuple[int, ...]) -> float:
        if sketch_of == "strong":
            return strong_sketch(table, j, S).strong
        lo, hi = minmax_sketch(table, j, S, scn.cardinalities[j])
        return lo if sketch_of == "min" else hi

    sets, best_v = _maximize_assignment(scn, value)
    return _result(scn, sets, sketch_objective=float(best_v))


def baseline_min_sketch_welfare(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed min-score sketch; its true welfare
    can be badly off, which is the point of keeping it around."""
    return _best_assignment_by_sketch(scn, table, "min")


def baseline_max_sketch_welfare(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed max-score sketch."""
    return _best_assignment_by_sketch(scn, table, "max")


def best_strong_sketch_assignment(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed harmonic sketch, for comparing the
    welfare greedy's accumulated sketch value against the sketch optimum."""
    return _best_assignment_by_sketch(scn, table, "strong")


@dataclass(frozen=True)
class ApproxReport:
    ratio: float
    bound: float
    satisfied: bool
    problem: str  # single | welfare

    def to_json(self) -> dict:
        return {
            "ratio": self.ratio,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "problem": self.problem,
        }


def approximation_report(
    scn: Scenario, method: SelectionResult, oracle: SelectionResult
) -> ApproxReport:
    """Ratio of an algorithm's objective to the exact optimum, against the
    guarantee for the problem class.

    Single-project scenarios use the constant selection bound; multi-project
    scenarios use the assignment bound at k = largest cardinality. A zero
    optimum means every choice is optimal, reported as ratio 1.
    """
    if oracle.total <= 0.0:
        ratio = 1.0
    else:
        ratio = method.total / oracle.total
    if scn.n_projects == 1:
        problem, bound = "single", SINGLE_GREEDY_BOUND
    else:
        problem, bound = "welfare", welfare_greedy_bound(max(scn.cardinalities))
    return ApproxReport(
        ratio=ratio,
        bound=bound,
        satisfied=ratio >= bound - BOUND_TOL,
        problem=problem,
    )
