"""Per-agent test scores: mean, quantile, and replication, plus the score
table a[i, j, r] for every agent, project and team size r = 1..max_r.

A test score summarizes one agent's distribution against one project's value
function; it never looks at joint evaluations, which is the whole point of
the approach. The replication score a^r is the expected value of g on r
i.i.d. copies of the agent, computed by the same exact engine as team
utilities (see ``utility``), with Monte Carlo past the budget.

A ScoreTable is one dense (n, m, max_r) array with two arrays of the same
shape saying how each cell was computed. ``build_score_table`` fills it
with one engine call per r for the projects of each value function, so the
greedy routines read whole columns while the sketches read single cells
through ``ScoreTable.get``. Only cells that can fall back to Monte Carlo,
and sum-route cells large enough to merge equal partial sums, are scored
one at a time. A caller that reads only some columns asks for a range of
r per project; the cells outside it stay unbuilt. An unbuilt cell is a NaN
score, with method None and standard error NaN, and ``get``, ``block`` and
the greedy routines, sketches and oracles that read the table refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BudgetExceededError,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    ValidationError,
    check_count,
    dist_mean,
    enumeration_budget,
)
from .production import ValueFunction
from .utility import _batchable, _exact_rows, _mc, _member_rows

MC_TARGET_REL_SE = 1e-3
MC_BASE_SAMPLES = 100_000
MC_MAX_ROUNDS = 4


def mean_score(d: Distribution) -> float:
    """Mean test score: the expected performance."""
    return dist_mean(d)


def quantile_score(d: Distribution, theta: float) -> float:
    """Expected performance conditional on the top (1 - theta) probability mass.

    Computed as the tail integral of the quantile function,
    (1/(1-theta)) * integral_theta^1 Q(u) du, which splits an atom
    fractionally when theta lands inside it. theta = 0 recovers the mean.
    """
    if not (0 <= theta < 1):
        raise ValidationError(f"theta must be in [0, 1), got {theta}")
    if theta == 0:
        return dist_mean(d)
    cdf = d.cdf_array
    lows = np.concatenate(([0.0], cdf[:-1]))
    overlap = np.clip(cdf - np.maximum(lows, theta), 0.0, None)
    return float(np.dot(d.values_array, overlap) / (1.0 - theta))


def replication_score(g: ValueFunction, d: Distribution, k: int) -> float:
    """Expected value of g on k i.i.d. copies of the agent's performance.

    Exact: the team-utility engine run on a block of one row, agent d with
    k copies, which raises BudgetExceededError when its work passes the
    enumeration budget.
    """
    k = check_count(k, 1, "k")
    row = np.zeros((1, 1), np.intp)
    return float(_exact_rows(g, ProjectStore.pack([d]), row, k, enumeration_budget())[0])


def _check_columns(columns, m: int, max_r: int) -> list[tuple[int, int]]:
    # one (lo, hi) range of int r per project, 1 <= lo <= hi <= max_r;
    # None is every column of every project
    if columns is None:
        return [(1, max_r)] * m
    ranges = [(lo, hi) for lo, hi in columns]
    if (
        len(ranges) != m
        or not all(isinstance(x, int) and not isinstance(x, bool) for rng in ranges for x in rng)
        or not all(1 <= lo <= hi <= max_r for lo, hi in ranges)
    ):
        raise ValidationError(
            f"columns must give one range lo..hi within 1..{max_r} for each of "
            f"{m} projects, got {list(columns)}"
        )
    return ranges


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores a[i, j, r] for every agent i, project j and team size
    r = 1..max_r, held as one (n, m, max_r) float array ``scores``.

    ``methods`` and ``std_errors`` have the same shape (given values are
    broadcast to it) and say how each cell was computed; a hand-built table
    may leave them out, and its cells then read as the table's kind with no
    standard error. A NaN score marks a cell that was not built: its method
    reads None and its standard error NaN. The arrays are read-only copies.
    ``get`` reads one cell and ``block`` one project's cells of the first
    agents at a range of sizes; both raise ValidationError for a cell
    outside the table, negative indices included, or not built.
    """

    kind: str  # mean | quantile | replication
    scores: np.ndarray
    methods: Optional[np.ndarray] = None
    std_errors: Optional[np.ndarray] = None
    max_r: int = field(init=False)  # scores.shape[2], kept as a plain attribute

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        if scores.ndim != 3 or 0 in scores.shape:
            raise ValidationError(
                f"scores must be a non-empty (n, m, max_r) array, got shape {scores.shape}"
            )
        # one pass each; a given value raises unless it broadcasts to the shape of scores
        methods, std_errors = np.empty(scores.shape, dtype=object), np.empty(scores.shape)
        methods[...] = self.kind if self.methods is None else self.methods
        std_errors[...] = 0.0 if self.std_errors is None else self.std_errors
        unbuilt = np.isnan(scores)
        methods[unbuilt], std_errors[unbuilt] = None, np.nan
        for name, arr in (("scores", scores), ("methods", methods), ("std_errors", std_errors)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "max_r", scores.shape[2])

    def get(self, agent: int, project: int, r: int) -> float:
        try:
            if agent >= 0 and project >= 0 and r >= 1:
                score = self.scores.item(agent, project, r - 1)
                if score == score:  # not NaN
                    return score
                raise ValidationError(
                    f"table entry for agent {agent}, project {project}, r={r} was not built"
                )
        except (IndexError, TypeError):
            pass
        raise ValidationError(
            f"missing table entry for agent {agent}, project {project}, r={r}"
        )

    def block(self, agents: int, project: int, lo: int, hi: int) -> np.ndarray:
        """The scores of agents 0..agents-1 on ``project`` at sizes
        lo..hi (1 <= lo <= hi), an (agents, hi - lo + 1) read-only view.
        Raises ``get``'s error for the corner cell (agents - 1, project, hi)
        when the block leaves the table, else for its first unbuilt cell
        in (agent, r) order."""
        n, m, max_r = self.scores.shape
        if not (1 <= agents <= n and 0 <= project < m and hi <= max_r):
            self.get(agents - 1, project, hi)  # outside the table: raises
        cells = self.scores[:agents, project, lo - 1 : hi]
        least = cells.min()
        if least != least:  # the min of cells holding a NaN is NaN
            i, r = np.argwhere(np.isnan(cells))[0].tolist()
            self.get(i, project, lo + r)  # not built: raises
        return cells


def build_score_table(
    scn: Scenario,
    kind: str,
    max_r: int,
    *,
    theta: Optional[float] = None,
    rng: Optional[RngSpec] = None,
    mc_fallback: bool = True,
    columns=None,
) -> ScoreTable:
    """Fill every (agent, project, r) cell, or with ``columns``, one range
    (lo, hi) of r per project, only the cells of project j with
    lo <= r <= hi; the others stay NaN, unbuilt (see ``ScoreTable``). Each built
    cell, its Monte Carlo stream included, is the same whatever the ranges.

    Mean and quantile scores do not depend on r: one (n, m) slice is
    computed and repeated across r. Replication scores are filled per
    class of projects with equal value functions: for each r the exact
    engine scores the class in one batched call on its projects' packed
    stores side by side (a class of one reads its project's own), each
    row on its agent's own support so it equals ``replication_score`` bit
    for bit. Methods read ``exact_best_shot`` for best-shot projects and
    ``exact`` otherwise.

    Each cell is exact when its own work fits the enumeration budget and
    otherwise falls back to Monte Carlo on its own stream, recording the
    standard error (sampling is escalated a few rounds toward a 1e-3
    relative standard error). Those cells, and ``total`` or ``ces`` cells
    whose partial sums would pass the engine's merge of equal sums, are
    left out of their class's batch and scored one at a time. With
    mc_fallback=False the budget error of the first over-budget built cell
    in (agent, project, r) order is raised instead, for callers that need
    exact entries only; cells scored one at a time run first, in that
    order, so no later cell is scored before it raises.
    """
    if kind not in ("mean", "quantile", "replication"):
        raise ValidationError(f"unknown score kind {kind!r}")
    max_r = check_count(max_r, 1, "max_r", max(scn.cardinalities))
    if kind == "quantile":
        if theta is None:
            raise ValidationError("quantile tables need theta")
        if not (0 <= theta < 1):
            raise ValidationError(f"theta must be in [0, 1), got {theta}")
    elif theta is not None:
        raise ValidationError("theta only applies to quantile tables")

    n, m = scn.n_agents, scn.n_projects
    ranges = _check_columns(columns, m, max_r)
    scores = np.full((n, m, max_r), np.nan)  # every cell left unset stays unbuilt
    if kind != "replication":
        score = mean_score if kind == "mean" else lambda d: quantile_score(d, theta)
        base = np.array([[score(scn.dist(i, j)) for j in scn.projects] for i in scn.agents])
        for j, (lo, hi) in enumerate(ranges):
            scores[:, j, lo - 1 : hi] = base[:, j, None]
        return ScoreTable(kind=kind, scores=scores, methods=np.array("exact", dtype=object))

    budget = enumeration_budget()
    mc_rng = rng if rng is not None else RngSpec(seed=0)
    methods = np.empty((n, m, max_r), dtype=object)
    std_errors = np.zeros((n, m, max_r))
    labels = ["exact_best_shot" if g.kind == "best_shot" else "exact" for g in scn.value_fns]
    methods[...] = np.array(labels, dtype=object)[:, None]
    # projects with equal value functions and ranges of r form a class,
    # scored on one store (``Scenario.class_store``)
    classes: dict[tuple[ValueFunction, int, int], list[int]] = {}
    for j, (lo, hi) in enumerate(ranges):
        classes.setdefault((scn.value_fns[j], lo, hi), []).append(j)
    stores = [scn.class_store(js) for js in classes.values()]
    single = []  # (agent, project, r): cells scored one by one
    for ((g, lo, hi), js), store in zip(classes.items(), stores):
        sizes = sorted(set(store.lengths.tolist()))
        for r in range(lo, hi + 1):
            # a cell fits its class's batch when ``_batchable`` (its own
            # one-row work within the budget, no merge of partial sums),
            # which depends on its support length alone, monotonely
            least = next((s for s in sizes if not _batchable(g, s, r, budget)), None)
            if least is not None:
                single += [(row % n, js[row // n], r) for row in np.flatnonzero(store.lengths >= least).tolist()]
    # in (agent, project, r) order, so that without the fallback the first
    # over-budget cell raises before any later cell is scored
    for i, j, r in sorted(single):
        g, store = scn.value_fns[j], scn.store(j)
        try:
            scores[i, j, r - 1] = _exact_rows(g, store, np.array([[i]]), r, budget)[0]
            continue
        except BudgetExceededError:
            if not mc_fallback:
                # callers verifying tight analytic bounds need every entry
                # exact, so an overrun must surface, not degrade
                raise
        stream = (i * m + j) * max_r + (r - 1)
        samples = MC_BASE_SAMPLES
        for _ in range(MC_MAX_ROUNDS):
            est = _mc(g, store, [i], r, mc_rng, samples, stream)
            if est.std_error <= MC_TARGET_REL_SE * max(abs(est.value), 1e-12):
                break
            samples *= 2
        scores[i, j, r - 1] = est.value
        methods[i, j, r - 1] = "monte_carlo"
        std_errors[i, j, r - 1] = est.std_error
    for ((g, lo, hi), js), store in zip(classes.items(), stores):
        for r in range(lo, hi + 1):
            # project after project; rows left out keep the scores set above
            cells = scores[:, js, r - 1].T.copy()
            _member_rows(g, store, r, budget, cells.reshape(-1))
            scores[:, js, r - 1] = cells.T
    return ScoreTable(kind=kind, scores=scores, methods=methods, std_errors=std_errors)
