"""Expected team utility u_j(S) = E[g_j(performances of S)].

One exact engine, ``_expectation``, computes E[g] over independent members
given as (distribution, copies) pairs: a team passes one copy per agent, a
replication score a^r passes r copies of one agent. It never enumerates the
outcome product: ``total`` and ``ces`` build the distribution of the sum of
phi(x_i), ``best_shot`` and ``top_r`` count the members above each support
point, and ``success_prob`` factorizes. Monte Carlo covers work past the
budget.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    Distribution,
    RngSpec,
    Scenario,
    ValidationError,
    enumeration_budget,
)
from .production import ValueFunction, evaluate, evaluate_batch

_MERGE = 1 << 12  # partial-sum atoms past which equal sums are merged

Members = Sequence[tuple[Distribution, int]]


@dataclass(frozen=True)
class UtilityEstimate:
    value: float
    method: str  # exact | exact_best_shot | monte_carlo
    samples: int = 0
    std_error: float = 0.0

    def __post_init__(self):
        # Monte Carlo on deterministic inputs legitimately reports zero
        # spread, so only the exact methods are pinned to std_error 0.
        if self.method in ("exact", "exact_best_shot") and self.std_error != 0.0:
            raise ValidationError("std_error must be 0 exactly for exact methods")


def _charge(work: int, budget: int) -> None:
    if work > budget:
        raise BudgetExceededError(work, budget, what="exact expectation")


def _sum_route(g: ValueFunction, members: Members, budget: int) -> float:
    # E[h(sum phi(x_i))] from the sum's distribution, one copy at a time
    phi = (lambda x: x) if g.kind == "total" else (lambda x: x**g.r)
    shift, sums, probs, work = 0.0, np.zeros(1), np.ones(1), 0
    for d, count in members:
        if len(d) == 1:  # a point mass only moves the sum
            shift += count * phi(d.values[0])
            continue
        terms = phi(d.values_array)
        for _ in range(count):
            work += len(sums) * len(d)
            _charge(work, budget)
            sums = np.add.outer(sums, terms).ravel()
            probs = np.multiply.outer(probs, d.probs_array).ravel()
            if len(sums) > _MERGE:
                sums, inverse = np.unique(sums, return_inverse=True)
                probs = np.bincount(inverse, weights=probs)
    sums = sums + shift
    out = g.f.apply(sums) if g.kind == "total" else sums ** (1.0 / g.r)
    return float(np.dot(out, probs))


def _order_route(g: ValueFunction, members: Members, budget: int) -> float:
    # E[sum of the w largest] = integral over t of E[min(w, N(t))], where
    # N(t) = #{copies > t} is constant between support points
    if len(members) == 1:
        grid = members[0][0].values_array
        cdfs = [(members[0][0].cdf_array, members[0][1])]
    else:  # repeated grid points only add zero-width gaps
        grid = np.sort(np.concatenate([d.values_array for d, _ in members]))
        cdfs = [
            (np.concatenate(([0.0], d.cdf_array))[d.values_array.searchsorted(grid, "right")], c)
            for d, c in members
        ]
    if g.kind == "best_shot":  # N(t) = 0 exactly when every copy is <= t
        _charge(len(grid) * len(cdfs), budget)
        w, above = 1, 1.0 - reduce(operator.mul, [F**count for F, count in cdfs])
    else:
        copies = sum(count for _, count in cdfs)
        w = min(int(g.r), copies)
        _charge(len(grid) * w * copies, budget)
        # Poisson-binomial DP: rows 1..w of pq hold P(N(t) = c), c < w
        pq = np.zeros((w + 1, len(grid)))
        pq[1] = 1.0
        q = pq[1:]
        for F, count in cdfs:
            for _ in range(count):
                q += (pq[:-1] - q) * (1.0 - F)
        above = w - np.arange(w, 0, -1) @ q
    # below the smallest support point every copy counts
    return w * float(grid[0]) + float(np.dot(grid[1:] - grid[:-1], above[:-1]))


def _product_route(g: ValueFunction, members: Members, budget: int) -> float:
    # 1 - prod (1 - E f(X_i)), by independence
    _charge(sum(len(d) for d, _ in members), budget)
    miss = 1.0
    for d, count in members:
        miss *= (1.0 - float(np.dot(g.f.apply(d.values_array), d.probs_array))) ** count
    return 1.0 - miss


def _expectation(g: ValueFunction, members: Members, budget: int) -> float:
    """Exact E[g] over independent (distribution, copies) members. Raises
    BudgetExceededError when the route's summed work passes the budget:
    partial-sum atoms times support per sum step, grid times tracked
    counts per copy on the order route, summed supports otherwise."""
    if not members:
        return 0.0  # g(0, ..., 0) = 0 across the catalogue
    if g.kind in ("total", "ces"):
        return _sum_route(g, members, budget)
    if g.kind in ("best_shot", "top_r"):
        return _order_route(g, members, budget)
    return _product_route(g, members, budget)


def _members(scn: Scenario, S: Iterable[int]) -> tuple[int, ...]:
    members = tuple(sorted(set(int(i) for i in S)))
    for i in members:
        if not (0 <= i < scn.n_agents):
            raise ValidationError(f"unknown agent {i}")
    return members


def _team(scn: Scenario, j: int, S: Iterable[int]) -> Members:
    return [(scn.dist(i, j), 1) for i in _members(scn, S)]


def exact_utility(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """Exact expected utility of team S on project j, from the engine.

    Raises BudgetExceededError past the enumeration budget. The empty team
    is worth g(0, ..., 0) = 0.
    """
    value = _expectation(scn.value_fns[j], _team(scn, j, S), enumeration_budget())
    return UtilityEstimate(value=value, method="exact")


def exact_utility_best_shot(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """E[max of member performances] for a best-shot project: the engine's
    CDF product, linear in the merged support size times |S|."""
    g = scn.value_fns[j]
    if g.kind != "best_shot":
        raise ValidationError(
            f"project {j} has value function {g.kind!r}, expected best_shot"
        )
    value = _expectation(g, _team(scn, j, S), enumeration_budget())
    return UtilityEstimate(value=value, method="exact_best_shot")


def project_utility(scn: Scenario, j: int, S: Iterable[int]) -> UtilityEstimate:
    """Exact utility from the engine; best-shot projects carry the
    ``exact_best_shot`` method label."""
    if scn.value_fns[j].kind == "best_shot":
        return exact_utility_best_shot(scn, j, S)
    return exact_utility(scn, j, S)


def mc_utility(
    scn: Scenario,
    j: int,
    S: Iterable[int],
    rng: RngSpec,
    samples: int,
    stream: int = 0,
) -> UtilityEstimate:
    """Monte Carlo estimate of the expected utility.

    Deterministic for a fixed RngSpec and stream; std_error is the sample
    standard deviation divided by sqrt(samples).
    """
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    members = _members(scn, S)
    g = scn.value_fns[j]
    if not members:
        return UtilityEstimate(value=evaluate(g, []), method="exact")
    gen = rng.generator(stream)
    U = gen.random((samples, len(members)))
    X = np.empty_like(U)
    for c, i in enumerate(members):
        d = scn.dist(i, j)
        X[:, c] = d.values_array[np.searchsorted(d.cdf_array, U[:, c], side="right")]
    vals = evaluate_batch(g, X)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return UtilityEstimate(value=mean, method="monte_carlo", samples=samples, std_error=se)


@dataclass(frozen=True)
class SubmodularityReport:
    ok: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...], Optional[int]]] = None
    # witness = (S, T, i): diminishing-returns violation at S subset T, i outside T;
    # i is None for a monotonicity violation u(S) > u(T).


def submodularity_check(
    scn: Scenario, j: int, max_agents: int = 8, tol: float = 1e-9
) -> SubmodularityReport:
    """Exhaustively verify that u_j is monotone non-decreasing and submodular
    over the whole agent ground set.

    Checks u(T + i) - u(T) <= u(S + i) - u(S) for all S subset T, i outside T,
    and u(S) <= u(T) for S subset T. Returns the first violating witness.
    """
    n = scn.n_agents
    if n > max_agents:
        raise BudgetExceededError(2**n, 2**max_agents, what="subset enumeration")
    u = [0.0] * (1 << n)
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        u[mask] = project_utility(scn, j, members).value

    def as_set(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    for T in range(1 << n):
        S = T
        while True:  # iterate submasks of T, including T and 0
            if u[S] > u[T] + tol:
                return SubmodularityReport(ok=False, witness=(as_set(S), as_set(T), None))
            for i in range(n):
                if T >> i & 1:
                    continue
                bit = 1 << i
                if u[T | bit] - u[T] > u[S | bit] - u[S] + tol:
                    return SubmodularityReport(
                        ok=False, witness=(as_set(S), as_set(T), i)
                    )
            if S == 0:
                break
            S = (S - 1) & T
    return SubmodularityReport(ok=True)
