"""Bundled worst-case instances, each with its analytically expected
outcome, plus random scenario samplers for the property checkers.

Every generator returns the scenario together with a map of named
quantities. Keys ending in _lower_bound or _upper_bound are one-sided
claims, keys ending in _limit are asymptotic labels left unchecked, and
everything else must be reproduced exactly by the package's own
evaluators (validate_instance does that)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import Distribution, Scenario, ValidationError, charge, check_count, enumeration_budget
from .production import ConcaveFn, UnitFn, ValueFunction
from .optimize import _assignment_oracles, brute_force_single, greedy_topk, greedy_welfare
from .scores import build_score_table, quantile_score, replication_score
from .utility import project_utility

REL_TOL = 1e-6


@dataclass(frozen=True)
class AdversarialInstance:
    """A scenario engineered to break a specific selection rule."""

    name: str
    scenario: Scenario
    expected: dict[str, float]
    params: dict[str, float]
    citation: str  # one-line description of the construction


def _two_point(v: float, p: float) -> Distribution:
    # {v w.p. p, 0 otherwise}; collapses to a point mass when p = 1
    if p >= 1.0:
        return Distribution.point(v)
    return Distribution.from_pairs(((0.0, 1.0 - p), (v, p)))


def _price(name: str, agents: int, projects: int, atoms: int) -> None:
    # an instance's cells times atoms per cell against the budget, before it is built
    shape = f"{agents} agents x {projects} projects x {atoms} atoms"
    charge(agents * projects * atoms, enumeration_budget(), f"{name} instance", shape)


def gen_mean_fails_bestshot(k: int = 4, a: float = 10.0, p: float = 0.09) -> AdversarialInstance:
    """Steady performers versus all-or-nothing specialists on a best-shot
    project. Mean scores rank the steady agents first, yet one specialist
    hit dwarfs the steady ceiling, so the mean-score team is a vanishing
    fraction of optimal as k grows."""
    k = check_count(k, 1, "k")
    _price("mean_bestshot", 2 * k, 1, 2)
    if a <= 1.0:
        raise ValidationError(f"need a > 1, got {a}")
    if not (0.0 < p < 1.0) or a * p >= 1.0:
        raise ValidationError(f"need 0 < p < 1 and a*p < 1, got a={a}, p={p}")
    steady = Distribution.point(1.0)
    risky = _two_point(a, p)
    scn = Scenario.single_project([steady] * k + [risky] * k, ValueFunction.best_shot(), k)
    hit = a * (1.0 - (1.0 - p) ** k)
    return AdversarialInstance(
        name="mean_bestshot",
        scenario=scn,
        expected={
            "greedy_mean_utility": 1.0,
            "risky_set_utility": hit,
            "opt_lower_bound": hit,
            "ratio_upper_bound": 1.0 / hit,
        },
        params={"k": k, "a": a, "p": p},
        citation="steady performers beat specialists on means but lose on best-shot value",
    )


def gen_quantile_fails_linear(k: int = 10, a: float = 1.5, p: float = 0.11) -> AdversarialInstance:
    """Tail scores versus additive output. At cut 1 - 1/k the specialists'
    tail value a outranks the steady 1, but their contribution to a sum is
    only a*p < 1 each, so the tail-score team underperforms by factor a*p."""
    k = check_count(k, 2, "k")
    _price("quantile_linear", 2 * k, 1, 2)
    if a <= 1.0:
        raise ValidationError(f"need a > 1, got {a}")
    if not (1.0 / k < p < 1.0):
        raise ValidationError(f"need 1/k < p < 1, got p={p} with k={k}")
    if a * p >= 1.0:
        raise ValidationError(f"need a*p < 1, got a={a}, p={p}")
    steady = Distribution.point(1.0)
    risky = _two_point(a, p)
    scn = Scenario.single_project([steady] * k + [risky] * k, ValueFunction.ces(1.0), k)
    return AdversarialInstance(
        name="quantile_linear",
        scenario=scn,
        expected={
            "greedy_quantile_utility": k * a * p,
            "opt_utility": float(k),
            "ratio": a * p,
        },
        params={"k": k, "a": a, "p": p, "theta_cut": 1.0 - 1.0 / k},
        citation="tail scores overrate long shots when output is additive",
    )


def gen_ces_mean_tightness(
    k: int = 4, r: float = 2.0, a: float = 400.0, eps: float = 0.01
) -> AdversarialInstance:
    """How far mean scores can fall behind on a CES project: k slightly
    enhanced steady agents versus k specialists paying out a with chance
    1/a. Mean greedy keeps the steady block, worth k^(1/r)(1+eps), while
    the specialist block alone is worth at least a(1 - e^(-k/a))."""
    k = check_count(k, 1, "k")
    _price("ces_mean", 2 * k, 1, 2)
    if a < 1.0:
        raise ValidationError(f"need a >= 1, got {a}")
    if not 1.0 - math.exp(-k / a) > 0.0:  # k/a below about 1e-16: the ratio divides by 0
        raise ValidationError(f"need 1 - exp(-k/a) > 0 in floats, got a={a} with k={k}")
    if eps <= 0.0:
        raise ValidationError(f"need eps > 0, got {eps}")
    steady = Distribution.point(1.0 + eps)
    risky = _two_point(a, 1.0 / a)
    scn = Scenario.single_project([steady] * k + [risky] * k, ValueFunction.ces(r), k)
    floor = a * (1.0 - math.exp(-k / a))
    return AdversarialInstance(
        name="ces_mean",
        scenario=scn,
        expected={
            "greedy_mean_utility": k ** (1.0 / r) * (1.0 + eps),
            "risky_set_utility_lower_bound": floor,
            "ratio_upper_bound": (1.0 + eps) * k ** (1.0 / r - 1.0) * (k / a) / (1.0 - math.exp(-k / a)),
        },
        params={"k": k, "r": r, "a": a, "eps": eps},
        citation="mean scores on CES output are tight only to k^(1/r - 1)",
    )


def gen_quantile_ces(
    k: int = 16,
    r: float = 2.0,
    theta: float = 1.0,
    a: float = 1.0,
    b: float = 1.0,
    c: float = 2.0,
    n: int = 64,
) -> AdversarialInstance:
    """Four agent families showing tail scores at cut 1 - theta/k can
    prefer a team worth a (theta/k)^(1/r) fraction of the best one on a
    CES project: constants at a, lottery tickets calibrated to tail score
    b, coin flips paying c with chance theta/k, and dead weight."""
    k = check_count(k, 1, "k")
    if not (0.0 < theta <= k):
        raise ValidationError(f"need 0 < theta <= k, got {theta}")
    n = check_count(n, 3 * k, "n")
    _price("quantile_ces", n, 1, 2)
    if n * theta < k:
        raise ValidationError(f"need n*theta >= k for an exact tail score, got n={n}, theta={theta}")
    if min(a, b, c) <= 0.0:
        raise ValidationError("a, b, c must be positive")
    if c <= max(a, b):
        raise ValidationError(f"need c > max(a, b) so the coin flips rank first, got a={a}, b={b}, c={c}")
    constant = Distribution.point(a)
    lottery = _two_point(b * theta * n / k, 1.0 / n)
    coin = _two_point(c, theta / k)
    dead = Distribution.point(0.0)
    rows = []
    for i in range(n):
        if i < k:
            rows.append((constant,))
        elif i < 2 * k:
            rows.append((lottery,))
        elif i < 3 * k:
            rows.append((coin,))
        else:
            rows.append((dead,))
    scn = Scenario(
        dists=tuple(rows),
        value_fns=(ValueFunction.ces(r),),
        cardinalities=(k,),
    )
    return AdversarialInstance(
        name="quantile_ces",
        scenario=scn,
        expected={
            "family1_quantile_score": a,
            "family2_quantile_score": b,
            "family2_quantile_limit": b,
            "family3_quantile_score": c,
            "family1_replication_score": a * k ** (1.0 / r),
            "family1_set_utility": a * k ** (1.0 / r),
            "ratio_vs_family1_upper_bound": (c / a) * (theta / k) ** (1.0 / r),
        },
        params={"k": k, "r": r, "theta": theta, "a": a, "b": b, "c": c, "n": n,
                "theta_cut": 1.0 - theta / k},
        citation="tail scores on CES output degrade with (theta/k)^(1/r)",
    )


def gen_welfare_example1(r: int = 4) -> AdversarialInstance:
    """r best-shot projects, r capable agents hidden among r^2. Welfare r
    needs one capable agent per project; maximizing the summed min-score
    sketch instead piles them into one project for welfare 1."""
    r = check_count(r, 2, "r")
    _price("welfare_ex1", r * r, r, 1)
    heavy = Distribution.point(1.0)
    dead = Distribution.point(0.0)
    dists = tuple(
        tuple(heavy if i < r else dead for _ in range(r)) for i in range(r * r)
    )
    scn = Scenario(
        dists=dists,
        value_fns=tuple(ValueFunction.best_shot() for _ in range(r)),
        cardinalities=tuple(r for _ in range(r)),
    )
    return AdversarialInstance(
        name="welfare_ex1",
        scenario=scn,
        expected={
            "opt_welfare": float(r),
            "greedy_welfare": float(r),
            "min_sketch_welfare": 1.0,
        },
        params={"r": r},
        citation="min-score sketch concentrates scarce talent that should spread",
    )


def gen_welfare_example2(r: int = 4) -> AdversarialInstance:
    """One additive project with r slots plus r single-slot projects paying
    max/sqrt(r). One agent worth sqrt(r), r-1 worth 1, r worth 0. Optimal
    puts all producers on the additive project (sqrt(r) + r - 1); maximizing
    the summed max-score sketch scatters them for about 2 sqrt(r)."""
    r = check_count(r, 2, "r")
    _price("welfare_ex2", 2 * r, r + 1, 1)
    root = math.sqrt(r)
    means = [root] + [1.0] * (r - 1) + [0.0] * r
    scale = 1.0 / root
    rows = []
    for mu in means:
        full = Distribution.point(mu)
        scaled = Distribution.point(mu * scale)
        rows.append((full,) + tuple(scaled for _ in range(r)))
    scn = Scenario(
        dists=tuple(rows),
        value_fns=(ValueFunction.total(ConcaveFn("identity")),)
        + tuple(ValueFunction.best_shot() for _ in range(r)),
        cardinalities=(r,) + tuple(1 for _ in range(r)),
    )
    return AdversarialInstance(
        name="welfare_ex2",
        scenario=scn,
        expected={
            "opt_welfare": root + r - 1.0,
            "greedy_welfare": root + r - 1.0,
            "max_sketch_welfare": root + (r - 1.0) / root,
            "max_sketch_welfare_limit": 2.0 * root,
        },
        params={"r": r},
        citation="max-score sketch scatters talent that should concentrate",
    )


GENERATORS: dict[str, Callable[..., AdversarialInstance]] = {
    "mean_bestshot": gen_mean_fails_bestshot,
    "quantile_linear": gen_quantile_fails_linear,
    "ces_mean": gen_ces_mean_tightness,
    "quantile_ces": gen_quantile_ces,
    "welfare_ex1": gen_welfare_example1,
    "welfare_ex2": gen_welfare_example2,
}


@dataclass(frozen=True)
class CheckRow:
    name: str
    kind: str  # eq | lower_bound | upper_bound | limit
    expected: float
    measured: Optional[float]
    ok: bool


@dataclass(frozen=True)
class InstanceReport:
    name: str
    ok: bool
    rows: tuple[CheckRow, ...]


def _measure_selection(
    inst: AdversarialInstance, scores: str, names: dict[str, str]
) -> dict[str, float]:
    """Greedy on ``scores`` against the exact optimum of a one-project
    instance. ``names`` maps each expected key to the quantity it checks:
    greedy's utility (greedy), the optimum (opt), their ratio (ratio) or
    the utility of the specialists k..2k-1 (risky, valued only when
    named)."""
    scn = inst.scenario
    k = int(inst.params["k"])
    theta = inst.params.get("theta_cut")
    table = build_score_table(scn, scores, max_r=k, theta=theta, columns=[(k, k)])
    oracle = brute_force_single(scn, 0, k)
    greedy, opt = greedy_topk(scn, 0, k, table, known=oracle).total, oracle.total
    quantities = {"greedy": greedy, "opt": opt, "ratio": greedy / opt}
    if "risky" in names.values():
        quantities["risky"] = project_utility(scn, 0, range(k, 2 * k)).value
    return {key: quantities[q] for key, q in names.items()}


def _measure_quantile_ces(inst: AdversarialInstance) -> dict[str, float]:
    scn = inst.scenario
    k = int(inst.params["k"])
    cut = inst.params["theta_cut"]
    g = scn.value_fns[0]
    table = build_score_table(scn, "quantile", max_r=k, theta=cut, columns=[(k, k)])
    greedy = greedy_topk(scn, 0, k, table)
    family1 = tuple(range(k))
    u1 = project_utility(scn, 0, family1).value
    return {
        "family1_quantile_score": quantile_score(scn.dist(0, 0), cut),
        "family2_quantile_score": quantile_score(scn.dist(k, 0), cut),
        "family3_quantile_score": quantile_score(scn.dist(2 * k, 0), cut),
        "family1_replication_score": replication_score(g, scn.dist(0, 0), k),
        "family1_set_utility": u1,
        "ratio_vs_family1_upper_bound": greedy.total / u1,
    }


# the assignment oracle behind each welfare quantity an instance may
# expect, the exact optimum first
_WELFARE_ORACLES = {
    "opt_welfare": "brute_force_welfare",
    "min_sketch_welfare": "baseline_min_sketch_welfare",
    "max_sketch_welfare": "baseline_max_sketch_welfare",
}


def _measure_welfare(inst: AdversarialInstance) -> dict[str, float]:
    scn = inst.scenario
    # the greedy and the sketch oracles read columns 1..k_j of project j
    table = build_score_table(
        scn, "replication", max_r=max(scn.cardinalities), mc_fallback=False,
        columns=[(1, k) for k in scn.cardinalities],
    )
    out = {"greedy_welfare": greedy_welfare(scn, table).total}
    # every expected oracle quantity from one DP pass
    keys = [key for key in _WELFARE_ORACLES if key in inst.expected]
    results = _assignment_oracles(scn, table, [_WELFARE_ORACLES[key] for key in keys])
    out.update((key, res.total) for key, res in zip(keys, results))
    return out


_MEASURERS: dict[str, Callable[[AdversarialInstance], dict[str, float]]] = {
    "mean_bestshot": partial(_measure_selection, scores="mean", names={
        "greedy_mean_utility": "greedy",
        "risky_set_utility": "risky",
        "opt_lower_bound": "opt",
        "ratio_upper_bound": "ratio",
    }),
    "quantile_linear": partial(_measure_selection, scores="quantile", names={
        "greedy_quantile_utility": "greedy",
        "opt_utility": "opt",
        "ratio": "ratio",
    }),
    "ces_mean": partial(_measure_selection, scores="mean", names={
        "greedy_mean_utility": "greedy",
        "risky_set_utility_lower_bound": "risky",
        "ratio_upper_bound": "ratio",
    }),
    "quantile_ces": _measure_quantile_ces,
    "welfare_ex1": _measure_welfare,
    "welfare_ex2": _measure_welfare,
}


def _kind_of(key: str) -> str:
    if key.endswith("_limit"):
        return "limit"
    if key.endswith("_lower_bound"):
        return "lower_bound"
    if key.endswith("_upper_bound"):
        return "upper_bound"
    return "eq"


def validate_instance(inst: AdversarialInstance) -> InstanceReport:
    """Recompute every validatable expected quantity with the package's own
    evaluators and compare, honoring the key-suffix conventions."""
    measured = _MEASURERS[inst.name](inst)
    rows = []
    for key in sorted(inst.expected):
        kind = _kind_of(key)
        exp = inst.expected[key]
        if kind == "limit":
            rows.append(CheckRow(key, kind, exp, None, True))
            continue
        m = float(measured[key])
        slack = max(REL_TOL * abs(exp), 1e-9)
        if kind == "eq":
            ok = abs(m - exp) <= slack
        elif kind == "lower_bound":
            ok = m >= exp - slack
        else:
            ok = m <= exp + slack
        rows.append(CheckRow(key, kind, exp, m, bool(ok)))
    return InstanceReport(
        name=inst.name, ok=all(r.ok for r in rows), rows=tuple(rows)
    )


_BSP_POOL: tuple[Callable[[], ValueFunction], ...] = (
    lambda: ValueFunction.total(ConcaveFn("identity")),
    lambda: ValueFunction.total(ConcaveFn("sqrt")),
    lambda: ValueFunction.total(ConcaveFn("log1p")),
    lambda: ValueFunction.best_shot(),
    lambda: ValueFunction.ces(1.5),
    lambda: ValueFunction.ces(2.0),
    lambda: ValueFunction.ces(4.0),
    lambda: ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
    lambda: ValueFunction.success_prob(UnitFn("one_minus_exp", 0.5)),
)


# every catalogue variant, including top-r (which is not BSP)
CATALOGUE_POOL: tuple[Callable[[], ValueFunction], ...] = _BSP_POOL + (
    lambda: ValueFunction.total(ConcaveFn("power", 0.5)),
    lambda: ValueFunction.ces(1.0),
    lambda: ValueFunction.top_r(2),
)


def _random_dist(gen: np.random.Generator) -> Distribution:
    size = int(gen.integers(1, 4))
    values = np.unique(np.round(gen.uniform(0.0, 3.0, size), 3))
    raw = gen.uniform(0.2, 1.0, len(values))
    probs = raw / raw.sum()
    return Distribution(tuple(values.tolist()), tuple(probs.tolist()))


def random_single_scenario(
    gen: np.random.Generator, g: ValueFunction, *, n: int = 5, k: int = 2
) -> Scenario:
    """Random one-project scenario with a caller-chosen value function."""
    n = check_count(n, 1, "n")
    k = check_count(k, 1, "k", n)
    return Scenario.single_project([_random_dist(gen) for _ in range(n)], g, k)


def random_bsp_scenario(
    gen: np.random.Generator,
    *,
    n_max: int = 7,
    k_max: int = 4,
    k_min: int = 1,
    pool: Optional[tuple[Callable[[], ValueFunction], ...]] = None,
) -> Scenario:
    """A random single-project scenario whose value function satisfies the
    balanced substitution property. Supports have at most 3 atoms."""
    n_max = check_count(n_max, 2, "n_max")
    k_max = check_count(k_max, 1, "k_max")
    k_min = check_count(k_min, 1, "k_min", min(k_max, n_max))
    candidates = pool if pool is not None else _BSP_POOL
    n = int(gen.integers(max(2, k_min), n_max + 1))
    k = int(gen.integers(k_min, min(k_max, n) + 1))
    g = candidates[int(gen.integers(len(candidates)))]()
    return Scenario.single_project([_random_dist(gen) for _ in range(n)], g, k)


def random_welfare_scenario(
    gen: np.random.Generator, *, n_max: int = 8, m_max: int = 3
) -> Scenario:
    """A random multi-project scenario with BSP value functions and slot
    totals not exceeding the number of agents."""
    m_max = check_count(m_max, 2, "m_max")
    n_max = check_count(n_max, m_max + 1, "n_max")
    m = int(gen.integers(2, m_max + 1))
    n = int(gen.integers(m + 1, n_max + 1))
    ks = []
    left = n
    for j in range(m):
        hi = max(1, min(3, left - (m - 1 - j)))
        kj = int(gen.integers(1, hi + 1))
        ks.append(kj)
        left -= kj
    value_fns = tuple(_BSP_POOL[int(gen.integers(len(_BSP_POOL)))]() for _ in range(m))
    dists = tuple(
        tuple(_random_dist(gen) for _ in range(m)) for _ in range(n)
    )
    return Scenario(dists=dists, value_fns=value_fns, cardinalities=tuple(ks))
