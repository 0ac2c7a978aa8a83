"""Sketches: cheap set-value surrogates built from score tables only.

Two flavors. The min/max bracket takes the extremes of the team-size
replication scores. The harmonic sketch ranks agents greedily and sums
a^r / r along that ranking; it brackets the true utility within factors
that grow only logarithmically with the team size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Scenario, ValidationError, check_count, check_index
from .scores import ScoreTable, build_score_table
from .utility import _subsets, team_values

BOUND_TOL = 1e-9


def _check_members(S, n: int) -> tuple[int, ...]:
    members = tuple(sorted(check_index(i, n, "agent") for i in S))
    if len(members) != len(set(members)):
        raise ValidationError("duplicate agents in set")
    if not members:
        raise ValidationError("empty agent set")
    return members


@dataclass(frozen=True)
class SketchEval:
    """One sketch evaluation: bracket endpoints plus the harmonic sum.

    per_term holds (agent, r, a^r / r) in ranking order, one entry per
    member of the input set.
    """

    lower: float
    upper: float
    strong: float
    pi_order: tuple[int, ...]
    per_term: tuple[tuple[int, int, float], ...]


def minmax_sketch(
    table: ScoreTable, j: int, S, k: int
) -> tuple[float, float]:
    """Min and max of the size-k replication scores over the set."""
    n, m, _ = table.scores.shape
    j, k = check_index(j, m, "project"), check_count(k, 1, "k")
    members = _check_members(S, n)
    if len(members) != k:
        raise ValidationError(f"need |S| = k = {k}, got {len(members)}")
    vals = [table.get(i, j, k) for i in members]
    return min(vals), max(vals)


def strong_sketch(table: ScoreTable, j: int, S) -> SketchEval:
    """Greedy-ranked harmonic sketch of a team's value on project j.

    Rank 1 goes to the agent with the best 1-replication score, rank 2 to
    the best remaining 2-replication score, and so on; ties break toward
    the smallest agent id. The sketch value is sum_r a_{rank r}^r / r.
    Sets smaller than the table's max_r just truncate the sum.
    """
    if table.kind != "replication":
        raise ValidationError(
            f"strong sketch needs a replication table, got {table.kind!r}"
        )
    n, m, _ = table.scores.shape
    j = check_index(j, m, "project")
    members = _check_members(S, n)
    t = len(members)
    if t > table.max_r:
        raise ValidationError(f"|S| = {t} exceeds table max_r = {table.max_r}")
    remaining = list(members)
    order: list[int] = []
    terms: list[tuple[int, int, float]] = []
    total = 0.0
    for r in range(1, t + 1):
        best = remaining[0]
        best_score = table.get(best, j, r)
        for i in remaining[1:]:
            s = table.get(i, j, r)
            if s > best_score:
                best, best_score = i, s
        remaining.remove(best)
        order.append(best)
        terms.append((best, r, best_score / r))
        total += best_score / r
    endpoint = [table.get(i, j, t) for i in members]
    return SketchEval(
        lower=min(endpoint),
        upper=max(endpoint),
        strong=total,
        pi_order=tuple(order),
        per_term=tuple(terms),
    )


def _strong_sketch_values(table: ScoreTable, j: int, teams: np.ndarray) -> np.ndarray:
    """``strong_sketch(table, j, S).strong`` for every row S of ``teams``,
    bit for bit, when each row is a non-empty team in ascending order, as
    ``_subsets`` lists them: at each rank r a row takes the first largest
    a^r of its members not yet ranked (ties go to the smallest id) and
    adds a^r / r to a sum from 0.0."""
    if table.kind != "replication":
        raise ValidationError(f"strong sketch needs a replication table, got {table.kind!r}")
    B, t = teams.shape
    # the table covers every member at sizes 1..t
    block = table.block(int(teams.max()) + 1, j, 1, t)
    rows, ranked, total = np.arange(B), np.zeros((B, t), dtype=bool), np.zeros(B)
    for r in range(1, t + 1):
        scores = np.where(ranked, -np.inf, block[teams, r - 1])
        pick = scores.argmax(axis=1)
        ranked[rows, pick] = True
        total += scores[rows, pick] / r
    return total


@dataclass(frozen=True)
class BoundWitness:
    """Where a bound was tightest (or broken): the set and both sides."""

    bound: str
    slack: float
    witness_set: tuple[int, ...]
    u: float
    v: float


@dataclass(frozen=True)
class SketchBoundReport:
    ok: bool
    worst_lower: BoundWitness
    worst_upper: BoundWitness

    @property
    def worst_lower_slack(self) -> float:
        return self.worst_lower.slack

    @property
    def worst_upper_slack(self) -> float:
        return self.worst_upper.slack

    @property
    def witness(self) -> Optional[BoundWitness]:
        # the broken side, if any; lower side reported first
        if self.worst_lower.slack < -BOUND_TOL:
            return self.worst_lower
        if self.worst_upper.slack < -BOUND_TOL:
            return self.worst_upper
        return None


def _worse(cur: Optional[BoundWitness], cand: BoundWitness) -> BoundWitness:
    return cand if cur is None or cand.slack < cur.slack else cur


def _verify_bracket(scn: Scenario, j: int, k: int, every_size: bool, sides) -> SketchBoundReport:
    """The worst slack of a bracket's lower and upper side over every team
    of size k, or of every size 1..k when ``every_size``: ``sides(table,
    j, teams, u)`` returns both as (bound, slacks, v) for one block of
    teams of a size, from the exact replication table of the sizes'
    columns, the columns either side reads, and the teams' exact
    utilities u. A side's witness is its first smallest slack in
    lexicographic order, a later size replacing it only with a strictly
    smaller one."""
    j = check_index(j, scn.n_projects, "project")
    k = check_count(k, 1, "k", scn.n_agents)
    sizes = range(1 if every_size else k, k + 1)
    columns = [(sizes[0], k)] * scn.n_projects
    table = build_score_table(scn, "replication", max_r=k, mc_fallback=False, columns=columns)
    worst: list[Optional[BoundWitness]] = [None, None]  # lower side, upper side
    for t in sizes:
        teams = _subsets(scn.n_agents, t)
        u = team_values(scn, j, teams)
        for side, (bound, slack, v) in enumerate(sides(table, j, teams, u)):
            i = int(slack.argmin())  # the first smallest
            S = tuple(teams[i].tolist())
            cand = BoundWitness(bound, float(slack[i]), S, u=float(u[i]), v=float(v[i]))
            worst[side] = _worse(worst[side], cand)
    worst_lo, worst_hi = worst
    assert worst_lo is not None and worst_hi is not None
    ok = worst_lo.slack >= -BOUND_TOL and worst_hi.slack >= -BOUND_TOL
    return SketchBoundReport(ok=ok, worst_lower=worst_lo, worst_upper=worst_hi)


def verify_strong_sketch_bounds(scn: Scenario, j: int, k: int) -> SketchBoundReport:
    """Exhaustively check the harmonic-sketch bracket on every team.

    For each nonempty S with |S| <= k verifies, with t = |S|,
        v(S) / (2 (ln t + 1)) <= u(S)   and   u(S) <= 6 v(S),
    both up to 1e-9 slack, using exact utilities and exact score tables.
    The utilities of each team size come from one ``team_values`` batch,
    equal to ``project_utility`` bit for bit.
    """

    def sides(table, j, teams, u):
        v = _strong_sketch_values(table, j, teams)
        scale = 2.0 * (math.log(teams.shape[1]) + 1.0)
        return ("strong_lower", u - v / scale, v), ("strong_upper", 6.0 * v - u, v)

    return _verify_bracket(scn, j, k, True, sides)


def verify_goodness_sandwich(scn: Scenario, j: int, k: int) -> SketchBoundReport:
    """Check (1 - 1/e) * min-score <= u(S) <= 4 * max-score on all size-k teams.

    Holds whenever the project's value function satisfies the balanced
    substitution property; top-r objectives can break the lower side.
    The utilities come from one ``team_values`` batch, equal to
    ``project_utility`` bit for bit.
    """
    lo_factor = 1.0 - 1.0 / math.e

    def sides(table, j, teams, u):
        scores = table.scores[teams, j, teams.shape[1] - 1]
        lower, upper = scores.min(axis=1), scores.max(axis=1)
        return (
            ("goodness_lower", u - lo_factor * lower, lower),
            ("goodness_upper", 4.0 * upper - u, upper),
        )

    return _verify_bracket(scn, j, k, False, sides)
