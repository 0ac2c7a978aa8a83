"""Selection and assignment algorithms driven by score tables, plus the
exact brute-force oracles used to measure them.

The greedy routines never evaluate joint utilities while choosing; they
read precomputed scores only. Utilities enter afterwards, to report the
objective actually achieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Assignment,
    BudgetExceededError,
    RngSpec,
    Scenario,
    ValidationError,
    charge,
    check_count,
    check_index,
    enumeration_budget,
)
from . import utility
from .scores import ScoreTable
from .sketch import BOUND_TOL, _strong_sketch_values
from .utility import (
    UtilityEstimate,
    _exact_rows,
    _linear,
    _h,
    _means,
    _merged_rows,
    _phi,
    _row_sums,
    _row_work,
    _subsets,
    _team_blocks,
    mc_utility,
    project_utility,
    team_values,
)

MC_OBJECTIVE_SAMPLES = 200_000
# batched oracle values within this relative distance of the largest are
# rescored with each team's own bits
SCREEN_TOL = 1e-9

# single-selection guarantee for replication-score greedy on balanced
# substitution objectives: (1 - 1/e) / (5 - 1/e), about 1/7.33
SINGLE_GREEDY_BOUND = (1.0 - 1.0 / math.e) / (5.0 - 1.0 / math.e)


def welfare_greedy_bound(k: int) -> float:
    """Assignment guarantee 1 / (24 (ln k + 1)) for max team size k."""
    return 1.0 / (24.0 * (math.log(check_count(k, 1, "k")) + 1.0))


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
        # neither UtilityEstimate nor TraceStep holds a nested dataclass, so
        # a copy of each one's fields is what asdict would give
        out = {
            "assignment": [list(S) for S in self.assignment.sets],
            "per_project": [dict(vars(est)) for est in self.per_project],
            "total": self.total,
            "trace": [dict(vars(step)) for step in self.score_trace],
        }
        if self.sketch_objective is not None:
            out["sketch_objective"] = self.sketch_objective
        return out


def _objective(scn: Scenario, j: int, S) -> UtilityEstimate:
    # exact when the outcome space fits the budget, sampled otherwise
    try:
        return project_utility(scn, j, S)
    except BudgetExceededError:
        return mc_utility(scn, j, S, RngSpec(seed=0), samples=MC_OBJECTIVE_SAMPLES, stream=j)


def _result(
    scn: Scenario,
    sets: list[tuple[int, ...]],
    trace: tuple[TraceStep, ...] = (),
    sketch_objective: Optional[float] = None,
    known: Optional[dict[int, UtilityEstimate]] = None,
) -> SelectionResult:
    """The result of assignment ``sets``, each objective equal to its
    project's ``_objective`` bit for bit. ``known`` holds the objectives a
    caller has already scored, by project. The other non-empty teams are
    scored per class of projects with equal value functions and team
    sizes, each class in one ``_exact_rows`` block on its
    ``Scenario.class_store`` (a class of one on its project's own store,
    as ``project_utility`` scores it), whose rows each equal a lone call.
    Empty teams, and the teams of a class whose block passes the budget,
    are scored project by project (``_objective``)."""
    # insertion order is part of the contract; callers sort where they mean to
    assignment = Assignment(sets=tuple(tuple(S) for S in sets))
    scored = dict(known or {})
    classes: dict[tuple, list[int]] = {}
    for j, S in enumerate(assignment.sets):
        if S and j not in scored:
            classes.setdefault((scn.value_fns[j], len(S)), []).append(j)
    for (g, _), js in classes.items():
        # each team's sorted members, offset to its project's place in the class store
        rows = np.array([sorted(assignment.sets[j]) for j in js]) + scn.n_agents * np.arange(len(js))[:, None]
        try:
            values = _exact_rows(g, scn.class_store(js), rows, 1, enumeration_budget())
        except BudgetExceededError:
            continue  # each team is scored alone, so one past the budget keeps its own MC stream
        method = "exact_best_shot" if g.kind == "best_shot" else "exact"
        scored.update((j, UtilityEstimate(v, method)) for j, v in zip(js, values.tolist()))
    per_project = tuple(
        scored[j] if j in scored else _objective(scn, j, assignment.sets[j])
        for j in scn.projects
    )
    return SelectionResult(
        assignment=assignment,
        per_project=per_project,
        total=float(sum(est.value for est in per_project)),
        score_trace=trace,
        sketch_objective=sketch_objective,
    )


def greedy_topk(
    scn: Scenario, j: int, k: int, table: ScoreTable, known: Optional[SelectionResult] = None
) -> SelectionResult:
    """Pick the k agents with the largest size-k score for project j.

    Ties go to the smaller agent id. The reported objective is exact when
    the joint outcome space fits the enumeration budget and Monte Carlo
    (seed 0) past it. ``known``, another selection on the same scenario
    (the oracle's, say), lends its objective for project j when it picked
    the same team, which is then not scored again.
    """
    j = check_index(j, scn.n_projects, "project")
    k = check_count(k, 1, "k", scn.n_agents)
    if k > scn.cardinalities[j]:  # a team past k_j must sum inside the float range too
        scn._check_team_size(j, k)
    scores = table.block(scn.n_agents, j, k, k)[:, 0]
    # a stable sort keeps equal scores in id order
    ranked = np.argsort(-scores, kind="stable")[:k].tolist()
    trace = tuple(
        TraceStep(step=t + 1, agent=i, project=j, score=s)
        for t, (i, s) in enumerate(zip(ranked, scores[ranked].tolist()))
    )
    team = tuple(sorted(ranked))
    sets = [() if jj != j else team for jj in scn.projects]
    same = known is not None and known.assignment.sets[j] == team
    return _result(scn, sets, trace=trace, known={j: known.per_project[j]} if same else None)


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
    final assignment, exposed as sketch_objective. The objectives are
    scored per class block (``_result``): the teams of projects with equal
    value functions and team sizes in one engine call, each equal to its
    own ``project_utility`` bit for bit.
    """
    if table.kind != "replication":
        raise ValidationError(
            f"welfare greedy needs a replication table, got {table.kind!r}"
        )
    if max(scn.cardinalities) > table.max_r:
        raise ValidationError("table max_r does not cover the largest project")
    n, m, ks = scn.n_agents, scn.n_projects, scn.cardinalities
    # the table covers every agent at sizes 1..k_j
    blocks = [table.block(n, j, 1, k) for j, k in enumerate(ks)]
    gen = tie_rng.generator(0) if tie_rng is not None else None
    # nxt[i, j] = a[i, j, r_j - 1] / r_j for the slot r_j project j fills
    # next, slot 1 first (a / 1 = a); -inf once agent i is placed or
    # project j is full
    nxt = np.stack([block[:, 0] for block in blocks], axis=1)
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
            nxt[:, j] = np.where(placed, -np.inf, blocks[j][:, r - 1] / r)
    return _result(
        scn,
        [tuple(S) for S in sets],
        trace=tuple(trace),
        sketch_objective=float(sum(t.score for t in trace)),
    )


def _subset_enum_cost(scn: Scenario, j: int, k: int) -> int:
    # the work brute_force_single's routes charge over all C(n, k) teams
    g, store = scn.value_fns[j], scn.store(j)
    teams = math.comb(scn.n_agents, k)
    sizes = store.lengths.tolist()
    if g.kind in ("best_shot", "top_r"):
        # one-member teams, and a lone team, run on their own supports; teams
        # of several members on the project's merged grid (``ProjectStore.points``)
        return _row_work(g, sum(sizes) if k == 1 or teams == 1 else teams * len(store.points), k, 1)
    if g.kind == "success_prob":
        return sum(sizes) + teams * k
    if _linear(g):
        # each agent's support is read once per team it joins; this also
        # bounds the blocked sums of means, since C(n-1, k-1) * sum(sizes)
        # >= C(n, k) * k (every support has at least one atom)
        return math.comb(scn.n_agents - 1, k - 1) * sum(sizes) + teams
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


def _cut(top: float) -> float:
    # the least value within SCREEN_TOL of top; an infinite top keeps its ties
    return top - SCREEN_TOL * abs(top) if top < math.inf else top


def _near_best(scored) -> tuple[np.ndarray, np.ndarray]:
    """The values and teams, in their given order, whose value is within
    SCREEN_TOL of the largest, from an iterable of (values, teams) blocks.
    Only the teams near the running maximum are kept from block to block."""
    top = -math.inf
    values = teams = None
    for block_values, block in scored:
        top = max(top, float(block_values.max()))
        cut = _cut(top)
        keep = block_values >= cut
        if teams is None:
            values, teams = block_values[keep], block[keep]
        else:
            old = values >= cut
            values = np.concatenate((values[old], block_values[keep]))
            teams = np.concatenate((teams[old], block[keep]))
    return values, teams


def _bound_screen(scn: Scenario, j: int, k: int):
    """The size-k teams that can reach the best on a non-linear ``total``
    or ``ces`` project, as (values, teams) lexicographic blocks, each value
    the team's own ``team_values`` bits. Its value E[h(sum phi(x_i))] has
    h concave (f for total, y^(1/r) with r > 1 for ces), so by Jensen's
    inequality each team's value is at most h(sum E[phi(x_i)]), a sum of
    per-agent means. A team whose bound falls SCREEN_TOL short of a value
    already scored is worth less than that team, so it can neither beat
    nor tie it. In one walk over the blocks, each block's team with the
    largest bound, its lead, is scored exactly when that bound reaches the
    cut of the best value so far, and only the block's teams whose bounds
    reach the cut are kept. The kept teams are cut once more by the final
    best, and those not yet scored are scored in one batch; a lead keeps
    the value it was scored at.

    The bound holds in floats only while every mean rounds far inside
    SCREEN_TOL, so every team is kept when phi(x) * p of an atom x > 0
    falls short of the normal range: a subnormal product keeps few or none
    of its bits, and h, a root say, lifts the sum it leaves out to a value
    that counts. A team's sum of phi(x) is checked to fit the float range."""
    g, store = scn.value_fns[j], scn.store(j)
    phi = _phi(g, store.values)
    small = (phi * store.probs < np.finfo(float).tiny) & (store.values > 0)
    if small.any():
        for block in _team_blocks(scn.n_agents, k):
            yield team_values(scn, j, block), block
        return
    means = _means(store, scn.agents, partial(_phi, g))
    best, kept = -math.inf, []  # kept: each block's bounds, teams and values (NaN: unscored)
    for block in _team_blocks(scn.n_agents, k):
        bounds = _h(g, _row_sums(means, block))
        values = np.full(len(block), np.nan)
        lead = int(bounds.argmax())
        if bounds[lead] >= _cut(best):
            values[lead] = team_values(scn, j, block[lead : lead + 1])[0]
            best = max(best, float(values[lead]))
        keep = bounds >= _cut(best)
        kept.append((bounds[keep], block[keep], values[keep]))
    bounds, teams, values = (np.concatenate(parts) for parts in zip(*kept))
    keep = bounds >= _cut(best)
    teams, values = teams[keep], values[keep]
    unscored = np.isnan(values)
    values[unscored] = team_values(scn, j, teams[unscored])
    yield values, teams


def _shape(scn: Scenario, projects, sizes: str) -> str:
    support = max(max(scn.store(j).lengths.tolist()) for j in projects)
    return f"n={scn.n_agents}, {sizes}, largest support {support}"


def brute_force_single(scn: Scenario, j: int, k: int) -> SelectionResult:
    """Exact best size-k team for project j, by exhausting all subsets.

    Ties resolve to the lexicographically smallest subset. Raises when the
    total enumeration work would exceed the budget. The teams are streamed
    in lexicographic order, in blocks, and each block is screened in one
    array pass: best-shot and top-r teams of several members, when there
    is more than one team, on the store's merged grid
    (``ProjectStore.merged``, built once for every k), every other team
    by ``team_values``, which scores each team on its own bits. Non-linear ``total`` and ``ces``
    teams first pass ``_bound_screen``: only the teams whose Jensen bound
    reaches the exact value of a team already scored are scored, and every
    other team is worth less than that value, so the screen is exact.
    The up-front price still covers scoring every team. The teams within
    SCREEN_TOL of the best are kept; merged-grid values among them
    are rescored on their own bits, in one ``team_values`` block, and the
    first best wins. The winner's value on its own bits is its reported
    objective.
    """
    j = check_index(j, scn.n_projects, "project")
    k = check_count(k, 1, "k", scn.n_agents)
    if k > scn.cardinalities[j]:
        scn._check_team_size(j, k)
    budget = enumeration_budget()
    g, store = scn.value_fns[j], scn.store(j)
    # teams of several members, but not a lone team, are screened on the
    # store's merged grid, built once for every k
    merged = g.kind in ("best_shot", "top_r") and 1 < k < scn.n_agents
    cost = _subset_enum_cost(scn, j, k)
    charge(cost, budget, "brute_force_single subset enumeration", _shape(scn, [j], f"k={k}"))
    # the up-front price covers every block's own charge, so no screen raises
    if merged:
        scored = ((_merged_rows(g, store, block), block) for block in _team_blocks(scn.n_agents, k))
    elif g.kind in ("total", "ces") and not _linear(g):
        scored = _bound_screen(scn, j, k)
    else:
        scored = ((team_values(scn, j, block), block) for block in _team_blocks(scn.n_agents, k))
    values, teams = _near_best(scored)
    # merged-grid values can round differently from a team's own; on the
    # own bits the first argmax keeps the lexicographically smallest tied team
    if merged:
        values = team_values(scn, j, teams)
    best = int(values.argmax())
    best_S = tuple(teams[best].tolist())
    sets = [() if jj != j else best_S for jj in scn.projects]
    # team_values equals project_utility bit for bit: the winner is not scored again
    method = "exact_best_shot" if g.kind == "best_shot" else "exact"
    return _result(scn, sets, known={j: UtilityEstimate(float(values[best]), method)})


@lru_cache(maxsize=64)
def _binomials(n: int, c: int) -> np.ndarray:
    """binom[x, d] = C(x, d) for x < n and d <= c, the widest team or
    leftover ranked, by Pascal's rule. Past int64 the entries wrap modulo
    2^64; colex ranks only add and subtract them, and every rank is below
    its stage's size (at most the transition count), so the ranks come
    out exact."""
    binom = np.zeros((n, c + 1), dtype=np.int64)
    binom[:, 0] = 1
    for x in range(1, n):
        binom[x, 1:] = binom[x - 1, 1:] + binom[x - 1, :-1]
    binom.flags.writeable = False
    return binom


@lru_cache(maxsize=256)
def _team_cells(f: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-k teams among f free agents as positions in lexicographic
    order, (teams, k), and as flat cells of a free set's (f, k) table of
    per-position terms, (k, teams)."""
    places = _subsets(f, k)
    cells = places.T * k + np.arange(k)[:, None]
    places.flags.writeable = cells.flags.writeable = False
    return places, cells


def _best_teams(
    binom: np.ndarray, free_sets: np.ndarray, k: int, vals: list, after: Optional[list],
) -> tuple[list, list]:
    """One stage of ``_maximize_assignment``: per objective, each used
    set's best size-k team value (``vals``) plus next-stage value at the
    union (``after``; None past the last stage), and the position of the
    first team that attains it. A used set is the row of its free agents
    in ``free_sets``.

    A team's union with the used set is the complement of the f - k free
    agents it leaves, so its colex rank is C(n, f - k) - 1 less theirs
    (complements reverse the colex order); the t-th lexicographic team
    leaves the (C(f, k) - 1 - t)-th (f - k)-subset of positions. With no
    agent used the union is the team itself.

    The block buffers are made once per stage, so no block allocates its
    own (the larger ones would come and go through mmap). The takes into
    them clip: every index is in range, and "raise" would copy through a
    buffer."""
    n, f = len(binom), free_sets.shape[1]
    cells = _team_cells(f, k)[1]
    n_teams = cells.shape[1]
    left = f - k if after is not None and f < n else 0  # 0: no leftover ranked
    if left:
        left_cells = np.ascontiguousarray(_team_cells(f, left)[1][:, ::-1])
        last = math.comb(n, left) - 1
    rows = min(len(free_sets), max(1, utility._BLOCK // (n_teams * max(k, left))))
    terms = np.empty(rows * max(k, left) * n_teams, dtype=np.int64)
    rank, union = np.empty((2, rows, n_teams), dtype=np.int64)
    total, gathered = np.empty((2, rows, n_teams))
    best = [np.empty(len(free_sets)) for _ in vals]
    picks = [np.empty(len(free_sets), dtype=np.intp) for _ in vals]

    def colex(F, width, cells, out):
        # per team, its colex rank: C(F[p], d) summed over its cells p * width + d - 1
        block = terms[: len(F) * width * n_teams].reshape(len(F), width, n_teams)
        binom[F, 1 : width + 1].reshape(len(F), -1).take(cells, 1, block, "clip")
        return block.sum(axis=1, out=out)

    for lo in range(0, len(free_sets), rows):
        # stored small, gathered with as index-sized integers
        F = free_sets[lo : lo + rows].astype(np.intp)
        b = len(F)
        t, g = total[:b], gathered[:b]
        # a team t_1 < ... < t_k has colex rank sum_d C(t_d, d)
        team = to = colex(F, k, cells, rank[:b])
        if left:
            to = np.subtract(last, colex(F, left, left_cells, union[:b]), out=union[:b])
        at = np.arange(b)
        for o, v in enumerate(vals):
            v.take(team, out=t, mode="clip")
            if after is None:
                t += 0.0  # as v + 0.0 in the recurrence: -0.0 becomes 0.0
            else:
                t += after[o].take(to, out=g, mode="clip")
            # argmax takes the first largest: the smallest team in lex order
            p = t.argmax(axis=1)
            picks[o][lo : lo + b] = p
            best[o][lo : lo + b] = t[at, p]
    return best, picks


def _maximize_assignment(
    scn: Scenario,
    objectives: Sequence[Callable[[int, np.ndarray], np.ndarray]],
    oracle: str,
) -> list[tuple[list[tuple[int, ...]], float]]:
    """Exact argmax of sum_j value_j(S_j) over disjoint assignments, for
    each of several objectives in one pass: one (sets, total) per entry
    of ``objectives``, in their order.

    Dynamic program over the sets of already-used agents, one stage per
    project from the last back; equivalent to full enumeration but shares
    suffixes, so the budget is checked, once for the whole pass, against
    the transition count rather than the raw assignment count. Each stage
    asks each objective's ``values_of(j, teams)``, in order, once for the
    values of all size-k_j teams, a (C(n, k_j), k_j) array of ascending
    rows in descending colex order (the order in which ``combinations``
    lists the teams of the descending range), and takes one value per row
    back.

    A stage holds one value per used set and objective, indexed by the
    set's colex rank (its bitmask's place among the masks of its size). A
    used set's teams sit at fixed positions among its free agents (a
    lexicographic position table); a team's rank sums one term per member
    and its union's one per free agent it leaves. ``_best_teams`` forms
    these ranks once per block of used sets (about _BLOCK team-member
    cells) and scores the disjoint (set, team) pairs for every objective.
    Ties resolve to the lexicographically smallest (S_0, S_1, ...).
    ``oracle`` names the pass in budget errors.
    """
    n = scn.n_agents
    ks = scn.cardinalities
    budget = enumeration_budget()
    used = [0]
    for k in ks:
        used.append(used[-1] + k)
    # the (used set, disjoint team) pairs summed over the stages
    trans = sum(math.comb(n, u) * math.comb(n - u, k) for u, k in zip(used, ks))
    shape = _shape(scn, scn.projects, f"cardinalities {tuple(ks)}")
    charge(trans, budget, f"{oracle} assignment DP", shape)
    # the widest ranked set: a team, or a leftover of stage 1, the first to rank unions
    binom = _binomials(n, max(max(ks), n - used[2] if len(ks) > 2 else 0))
    agent = np.min_scalar_type(-n)  # the smallest integer type holding an agent id
    # stages[j] = (free_sets, places, picks): the free agents of each used
    # set project j may see, in the sets' colex order, the team positions
    # among them, and per objective the position of each set's best team
    stages = []
    after = None  # per objective, the next stage's values by colex rank; 0 past the last
    for j in range(len(ks) - 1, -1, -1):
        k, f = ks[j], n - used[j]
        # team values by colex rank, asked for in descending colex order
        teams = _subsets(n, k, True)[::-1]
        vals = [np.asarray(values_of(j, teams), dtype=float)[::-1] for values_of in objectives]
        # complements reverse the colex order
        free_sets = _subsets(n, f, True, agent)[::-1]
        best, picks = _best_teams(binom, free_sets, k, vals, after)
        stages.append((free_sets, _team_cells(f, k)[0], picks))
        after = best
    # walk forward from no agent used (rank 0), taking each stage's
    # recorded team and moving to the rank of the union
    found = []
    for o in range(len(objectives)):
        sets: list[tuple[int, ...]] = []
        taken: list[int] = []
        row = 0
        for free_sets, places, picks in reversed(stages):
            S = free_sets[row, places[picks[o][row]]].tolist()
            sets.append(tuple(S))
            taken = sorted(taken + S)
            row = sum(math.comb(a, i + 1) for i, a in enumerate(taken))
        found.append((sets, float(after[o][0])))
    return found


# the sketch each sketch-maximizing assignment oracle sums
_SKETCHES = {
    "baseline_min_sketch_welfare": "min",
    "baseline_max_sketch_welfare": "max",
    "best_strong_sketch_assignment": "strong",
}


def _assignment_oracles(
    scn: Scenario, table: Optional[ScoreTable], oracles: Sequence[str]
) -> list[SelectionResult]:
    """The named assignment oracles' results, in order, from one DP pass:
    ``brute_force_welfare`` and the sketch maximizers of ``_SKETCHES``,
    which read ``table``. A budget error names the oracles joined by +."""

    def objective(oracle: str) -> Callable[[int, np.ndarray], np.ndarray]:
        if oracle == "brute_force_welfare":
            return partial(team_values, scn)
        sketch_of = _SKETCHES[oracle]

        def values(j: int, teams: np.ndarray) -> np.ndarray:
            if sketch_of == "strong":
                return _strong_sketch_values(table, j, teams)
            k = teams.shape[1]
            scores = table.block(scn.n_agents, j, k, k)[teams, 0]
            return scores.min(axis=1) if sketch_of == "min" else scores.max(axis=1)

        return values

    found = _maximize_assignment(scn, [objective(o) for o in oracles], "+".join(oracles))
    return [
        _result(scn, sets, sketch_objective=None if o == "brute_force_welfare" else total)
        for o, (sets, total) in zip(oracles, found)
    ]


def brute_force_welfare(scn: Scenario) -> SelectionResult:
    """Exact best disjoint assignment filling every project's slots.

    Ties resolve to the lexicographically smallest assignment. Raises when
    the optimization work would exceed the budget. Each project's teams of
    its size are valued in one ``team_values`` batch, equal to their
    ``project_utility`` values bit for bit and priced one team at a time,
    so the first team past the enumeration budget, in the DP's descending
    colex order, raises the error its own call would."""
    return _assignment_oracles(scn, None, ("brute_force_welfare",))[0]


def baseline_min_sketch_welfare(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed min-score sketch; its true welfare
    can be badly off, which is the point of keeping it around."""
    return _assignment_oracles(scn, table, ("baseline_min_sketch_welfare",))[0]


def baseline_max_sketch_welfare(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed max-score sketch."""
    return _assignment_oracles(scn, table, ("baseline_max_sketch_welfare",))[0]


def best_strong_sketch_assignment(scn: Scenario, table: ScoreTable) -> SelectionResult:
    """Assignment maximizing the summed harmonic sketch, for comparing the
    welfare greedy's accumulated sketch value against the sketch optimum."""
    return _assignment_oracles(scn, table, ("best_strong_sketch_assignment",))[0]


@dataclass(frozen=True)
class ApproxReport:
    ratio: float
    bound: float
    satisfied: bool
    problem: str  # single | welfare


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
