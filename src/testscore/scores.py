"""Per-agent test scores: mean, quantile, and replication, plus the cached
score table a[i, j, r] for team sizes r = 1..max_r.

A test score summarizes one agent's distribution against one project's value
function; it never looks at joint evaluations, which is the whole point of
the approach. The replication score a^r is the expected value of g on r
i.i.d. copies of the agent, computed by the same exact engine as team
utilities (see ``utility``), with Monte Carlo past the budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .core import (
    BudgetExceededError,
    Distribution,
    RngSpec,
    Scenario,
    ValidationError,
    dist_mean,
    enumeration_budget,
)
from .production import ValueFunction, evaluate_batch
from .utility import _expectation

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


def quantile_level(theta: float, k: int) -> float:
    """Convenience conversion level = 1 - theta/k used by the worst-case
    quantile constructions (theta in (0, k])."""
    if not (0 < theta <= k):
        raise ValidationError(f"theta must be in (0, k], got {theta} with k={k}")
    return 1.0 - theta / k


def _replication_mc(
    g: ValueFunction, d: Distribution, k: int, rng: RngSpec, samples: int, stream: int
) -> tuple[float, float]:
    gen = rng.generator(stream)
    U = gen.random((samples, k))
    X = d.values_array[np.searchsorted(d.cdf_array, U, side="right")]
    vals = evaluate_batch(g, X)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def replication_score(
    g: ValueFunction,
    d: Distribution,
    k: int,
    *,
    rng: Optional[RngSpec] = None,
    samples: int = MC_BASE_SAMPLES,
    budget: Optional[int] = None,
) -> float:
    """Expected value of g on k i.i.d. copies of the agent's performance.

    Exact by default: the team-utility engine run on k copies of d, which
    raises BudgetExceededError when its work passes ``budget`` (default:
    the enumeration budget). Passing an RngSpec switches to Monte Carlo
    with the given sample count.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if rng is not None:
        return _replication_mc(g, d, k, rng, samples, stream=0)[0]
    return _expectation(g, [d], k, budget or enumeration_budget())


@dataclass(frozen=True)
class ScoreDiag:
    method: str  # exact | exact_best_shot | monte_carlo
    std_error: float = 0.0


@dataclass(frozen=True)
class ScoreTable:
    """Cached scores[(agent, project, r)] for r = 1..max_r."""

    kind: str  # mean | quantile | replication
    max_r: int
    scores: dict[tuple[int, int, int], float]
    theta: Optional[float] = None
    diagnostics: dict[tuple[int, int, int], ScoreDiag] = field(default_factory=dict)

    def get(self, agent: int, project: int, r: int) -> float:
        try:
            return self.scores[(agent, project, r)]
        except KeyError:
            raise ValidationError(
                f"missing table entry for agent {agent}, project {project}, r={r}"
            ) from None

    def to_csv(self, out: IO[str]) -> None:
        writer = csv.writer(out)
        writer.writerow(["agent", "project", "r", "score", "method", "std_error"])
        for (i, j, r), score in sorted(self.scores.items()):
            diag = self.diagnostics.get((i, j, r), ScoreDiag(method=self.kind))
            writer.writerow([i, j, r, repr(score), diag.method, repr(diag.std_error)])


def build_score_table(
    scn: Scenario,
    kind: str,
    max_r: int,
    *,
    theta: Optional[float] = None,
    rng: Optional[RngSpec] = None,
    mc_fallback: bool = True,
) -> ScoreTable:
    """Fill every (agent, project, r) cell.

    Mean and quantile scores do not depend on r, so their r-slices are
    copies. Replication entries come from the exact engine (method
    ``exact_best_shot`` for best-shot projects, ``exact`` otherwise)
    whenever its work fits the enumeration budget, and otherwise fall back
    to Monte Carlo, recording the per-entry standard error in the
    diagnostics (sampling is escalated a few rounds toward a 1e-3 relative
    standard error). With mc_fallback=False a budget overrun raises
    instead, for callers that need exact entries only.
    """
    if kind not in ("mean", "quantile", "replication"):
        raise ValidationError(f"unknown score kind {kind!r}")
    if max_r < 1 or max_r > max(scn.cardinalities):
        raise ValidationError(
            f"max_r must be in 1..max cardinality ({max(scn.cardinalities)}), got {max_r}"
        )
    if kind == "quantile":
        if theta is None:
            raise ValidationError("quantile tables need theta")
        if not (0 <= theta < 1):
            raise ValidationError(f"theta must be in [0, 1), got {theta}")
    elif theta is not None:
        raise ValidationError("theta only applies to quantile tables")

    budget = enumeration_budget()
    mc_rng = rng if rng is not None else RngSpec(seed=0)
    scores: dict[tuple[int, int, int], float] = {}
    diags: dict[tuple[int, int, int], ScoreDiag] = {}
    exact, exact_best_shot = ScoreDiag(method="exact"), ScoreDiag(method="exact_best_shot")
    for i in scn.agents:
        for j in scn.projects:
            d = scn.dist(i, j)
            if kind != "replication":
                base = mean_score(d) if kind == "mean" else quantile_score(d, theta)
                for r in range(1, max_r + 1):
                    scores[(i, j, r)] = base
                    diags[(i, j, r)] = exact
                continue
            g = scn.value_fns[j]
            exact_diag = exact_best_shot if g.kind == "best_shot" else exact
            for r in range(1, max_r + 1):
                try:
                    value = _expectation(g, [d], r, budget)
                    diag = exact_diag
                except BudgetExceededError:
                    if not mc_fallback:
                        # callers verifying tight analytic bounds need every
                        # entry exact, so an overrun must surface, not degrade
                        raise
                    stream = (i * scn.n_projects + j) * max_r + (r - 1)
                    samples = MC_BASE_SAMPLES
                    for _ in range(MC_MAX_ROUNDS):
                        value, se = _replication_mc(g, d, r, mc_rng, samples, stream)
                        if se <= MC_TARGET_REL_SE * max(abs(value), 1e-12):
                            break
                        samples *= 2
                    diag = ScoreDiag(method="monte_carlo", std_error=se)
                scores[(i, j, r)] = value
                diags[(i, j, r)] = diag
    return ScoreTable(
        kind=kind, max_r=max_r, scores=scores, theta=theta, diagnostics=diags
    )
