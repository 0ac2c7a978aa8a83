"""Acceptance gate: ten checks, one test per shipped guarantee.

Every test appends a one-line verdict with its measured margins to the
acceptance summary block (printed after the run). Tolerances are pinned
here and nowhere looser.
"""

import csv
import math
import time
from itertools import combinations

import numpy as np
import pytest

from testscore import (
    ConcaveFn,
    CATALOGUE_POOL,
    Distribution,
    RngSpec,
    SINGLE_GREEDY_BOUND,
    Scenario,
    UnitFn,
    ValueFunction,
    baseline_max_sketch_welfare,
    baseline_min_sketch_welfare,
    best_strong_sketch_assignment,
    brute_force_single,
    brute_force_welfare,
    bsp_check,
    build_score_table,
    gen_ces_mean_tightness,
    gen_mean_fails_bestshot,
    gen_quantile_ces,
    gen_quantile_fails_linear,
    gen_welfare_example1,
    gen_welfare_example2,
    greedy_topk,
    greedy_welfare,
    project_utility,
    quantile_score,
    random_bsp_scenario,
    random_single_scenario,
    random_welfare_scenario,
    submodularity_check,
    verify_goodness_sandwich,
    verify_strong_sketch_bounds,
    welfare_greedy_bound,
)
from testscore.cli import main as cli_main

from oracle_tools import diminishing_across_check

TOL = 1e-9
SEED = 20260817

# the eight value-function variants the random single-project instances draw from
INSTANCE_POOL = (
    lambda: ValueFunction.total(ConcaveFn("sqrt")),
    lambda: ValueFunction.best_shot(),
    lambda: ValueFunction.ces(1.0),
    lambda: ValueFunction.ces(1.5),
    lambda: ValueFunction.ces(2.0),
    lambda: ValueFunction.ces(4.0),
    lambda: ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
    lambda: ValueFunction.success_prob(UnitFn("one_minus_exp", 0.5)),
)


@pytest.fixture(scope="module")
def single_instances():
    return [
        random_bsp_scenario(
            RngSpec(SEED).generator(t), n_max=7, k_max=4, k_min=2, pool=INSTANCE_POOL
        )
        for t in range(200)
    ]


@pytest.fixture(scope="module")
def welfare_instances():
    return [
        random_welfare_scenario(RngSpec(SEED + 4).generator(t), n_max=8, m_max=3)
        for t in range(100)
    ]


def test_c01_goodness_sandwich_on_random_instances(single_instances, acceptance_log):
    start = time.perf_counter()
    worst_lower = math.inf
    worst_upper = math.inf
    for scn in single_instances:
        rep = verify_goodness_sandwich(scn, 0, scn.cardinalities[0])
        worst_lower = min(worst_lower, rep.worst_lower_slack)
        worst_upper = min(worst_upper, rep.worst_upper_slack)
        assert rep.ok, rep.witness
    elapsed = time.perf_counter() - start
    assert worst_lower >= -TOL and worst_upper >= -TOL
    assert elapsed <= 120.0
    acceptance_log.append(
        f"c01 goodness sandwich        PASS  200 instances, worst slacks "
        f"lower {worst_lower:.3e} upper {worst_upper:.3e}, {elapsed:.1f}s"
    )


def test_c02_single_greedy_ratio_floor(single_instances, acceptance_log):
    min_ratio = math.inf
    for scn in single_instances:
        k = scn.cardinalities[0]
        table = build_score_table(scn, "replication", max_r=k, mc_fallback=False)
        greedy = greedy_topk(scn, 0, k, table)
        oracle = brute_force_single(scn, 0, k)
        ratio = 1.0 if oracle.total <= TOL else greedy.total / oracle.total
        assert ratio >= SINGLE_GREEDY_BOUND - TOL
        min_ratio = min(min_ratio, ratio)
    acceptance_log.append(
        f"c02 greedy ratio floor       PASS  bound {SINGLE_GREEDY_BOUND:.5f}, "
        f"empirical min ratio {min_ratio:.5f}"
    )


def test_c03_harmonic_sketch_bracket(single_instances, acceptance_log):
    start = time.perf_counter()
    worst_lower = math.inf
    worst_upper = math.inf
    for scn in single_instances:
        rep = verify_strong_sketch_bounds(scn, 0, scn.cardinalities[0])
        worst_lower = min(worst_lower, rep.worst_lower_slack)
        worst_upper = min(worst_upper, rep.worst_upper_slack)
        assert rep.ok, rep.witness
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    acceptance_log.append(
        f"c03 harmonic sketch bracket  PASS  200 instances, worst slacks "
        f"lower {worst_lower:.3e} upper {worst_upper:.3e}, {elapsed:.1f}s"
    )


def test_c04_welfare_greedy_floors(welfare_instances, acceptance_log):
    min_welfare_ratio = math.inf
    min_sketch_ratio = math.inf
    for scn in welfare_instances:
        k = max(scn.cardinalities)
        table = build_score_table(scn, "replication", max_r=k, mc_fallback=False)
        greedy = greedy_welfare(scn, table)
        oracle = brute_force_welfare(scn)
        ratio = 1.0 if oracle.total <= TOL else greedy.total / oracle.total
        assert ratio >= welfare_greedy_bound(k) - TOL
        min_welfare_ratio = min(min_welfare_ratio, ratio)
        best_sketch = best_strong_sketch_assignment(scn, table)
        assert best_sketch.sketch_objective is not None
        s_ratio = (
            1.0
            if best_sketch.sketch_objective <= TOL
            else greedy.sketch_objective / best_sketch.sketch_objective
        )
        assert s_ratio >= 0.5 - TOL
        min_sketch_ratio = min(min_sketch_ratio, s_ratio)
    acceptance_log.append(
        f"c04 welfare greedy floors    PASS  100 instances, min welfare ratio "
        f"{min_welfare_ratio:.5f}, min sketch-objective ratio {min_sketch_ratio:.5f}"
    )


def test_c05_ces_mean_tightness_window(acceptance_log):
    inst = gen_ces_mean_tightness(k=4, r=2.0, a=400.0, eps=0.01)
    scn = inst.scenario
    table = build_score_table(scn, "mean", max_r=4)
    greedy = greedy_topk(scn, 0, 4, table)
    oracle = brute_force_single(scn, 0, 4)
    assert abs(greedy.total - 2.02) <= TOL
    ratio = greedy.total / oracle.total
    lower = 0.5  # 1 / k^(1 - 1/r) at k = 4, r = 2
    upper = inst.expected["ratio_upper_bound"] + 0.01
    assert lower - TOL <= ratio <= upper + TOL
    acceptance_log.append(
        f"c05 ces mean tightness       PASS  greedy utility 2.02 exact, ratio "
        f"{ratio:.5f} in [{lower}, {upper:.5f}]"
    )


def test_c06_quantile_ces_directions(acceptance_log):
    # direction 1: at a shallow tail cut the quantile greedy lands within a
    # vanishing fraction of the constant-family utility it passed over
    inst = gen_quantile_ces(k=16, r=2.0, theta=1.0)
    scn = inst.scenario
    cut = inst.params["theta_cut"]
    table = build_score_table(scn, "quantile", max_r=16, theta=cut)
    greedy = greedy_topk(scn, 0, 16, table)
    u_const = project_utility(scn, 0, tuple(range(16))).value
    assert abs(u_const - 4.0) <= TOL
    ratio = greedy.total / u_const
    cap = 2.0 * (1.0 / 16.0) ** 0.5 + 0.05
    assert ratio <= cap + TOL

    # direction 2: with curvature 8 the tail-score bracket holds on every
    # size-16 team of 50 random two-point instances
    factor_hi = 1.0 + 16.0 ** (1.0 / 8.0)
    factor_lo = 1.0 - 1.0 / math.e
    worst_lower = math.inf
    worst_upper = math.inf
    start = time.perf_counter()
    for t in range(50):
        gen = RngSpec(SEED + 6).generator(t)
        dists = []
        for _ in range(17):
            lo = round(float(gen.uniform(0.0, 1.0)), 3)
            hi = round(float(gen.uniform(1.001, 3.0)), 3)
            q = round(float(gen.uniform(0.05, 0.95)), 3)
            dists.append((Distribution.from_pairs(((lo, 1.0 - q), (hi, q))),))
        scn = Scenario(
            dists=tuple(dists),
            value_fns=(ValueFunction.ces(8.0),),
            cardinalities=(16,),
        )
        scores = [quantile_score(scn.dist(i, 0), 15.0 / 16.0) for i in scn.agents]
        for S in combinations(scn.agents, 16):
            u = project_utility(scn, 0, S).value
            lo_side = factor_lo * min(scores[i] for i in S)
            hi_side = factor_hi * max(scores[i] for i in S)
            assert lo_side <= u + TOL and u <= hi_side + TOL
            worst_lower = min(worst_lower, u - lo_side)
            worst_upper = min(worst_upper, hi_side - u)
    elapsed = time.perf_counter() - start
    acceptance_log.append(
        f"c06 quantile ces directions  PASS  shallow-cut ratio {ratio:.5f} <= "
        f"{cap:.2f}; bracket worst slacks lower {worst_lower:.3e} upper "
        f"{worst_upper:.3e}, {elapsed:.1f}s"
    )


def test_c07_score_rule_separations(acceptance_log):
    inst = gen_mean_fails_bestshot(k=8, a=20.0, p=0.049)
    scn = inst.scenario
    oracle = brute_force_single(scn, 0, 8)
    mean_table = build_score_table(scn, "mean", max_r=8)
    mean_ratio = greedy_topk(scn, 0, 8, mean_table).total / oracle.total
    mean_cap = 1.0 / (20.0 * (1.0 - 0.951**8)) + 1e-6
    assert mean_ratio <= mean_cap
    repl_table = build_score_table(scn, "replication", max_r=8)
    repl_ratio = greedy_topk(scn, 0, 8, repl_table).total / oracle.total
    assert repl_ratio >= 0.9

    inst = gen_quantile_fails_linear(k=10, a=1.5, p=0.11)
    scn = inst.scenario
    cut = inst.params["theta_cut"]
    q_table = build_score_table(scn, "quantile", max_r=10, theta=cut)
    q_greedy = greedy_topk(scn, 0, 10, q_table)
    q_oracle = brute_force_single(scn, 0, 10)
    q_ratio = q_greedy.total / q_oracle.total
    assert abs(q_ratio - 0.165) <= TOL
    acceptance_log.append(
        f"c07 score rule separations   PASS  mean ratio {mean_ratio:.5f} <= "
        f"{mean_cap:.5f}, replication ratio {repl_ratio:.5f} >= 0.9, "
        f"tail-cut ratio {q_ratio:.5f} = 0.165"
    )


def test_c08_welfare_spread_vs_concentrate(acceptance_log):
    inst = gen_welfare_example1(r=4)
    scn = inst.scenario
    table = build_score_table(scn, "replication", max_r=4, mc_fallback=False)
    greedy = greedy_welfare(scn, table)
    min_base = baseline_min_sketch_welfare(scn, table)
    assert abs(greedy.total - 4.0) <= TOL
    assert abs(min_base.total - 1.0) <= TOL

    inst = gen_welfare_example2(r=4)
    scn = inst.scenario
    table = build_score_table(scn, "replication", max_r=4, mc_fallback=False)
    greedy2 = greedy_welfare(scn, table)
    oracle = brute_force_welfare(scn)
    max_base = baseline_max_sketch_welfare(scn, table)
    assert abs(oracle.total - 5.0) <= TOL
    assert abs(greedy2.total - 5.0) <= TOL
    # exact scatter welfare is sqrt(r) + (r-1)/sqrt(r) = 3.5, below the 2 sqrt(r)
    # ceiling = 4, and strictly below the optimum 5
    assert abs(max_base.total - 3.5) <= TOL
    assert max_base.total <= 4.0 + TOL < 5.0
    acceptance_log.append(
        "c08 welfare spread/concentrate PASS  spread: greedy 4 vs min-sketch 1; "
        "concentrate: max-sketch 3.5 <= 4 < optimum 5 (greedy 5)"
    )


def test_c09_structural_suites(acceptance_log):
    for t in range(50):
        gen = RngSpec(SEED + 9).generator(t)
        g = CATALOGUE_POOL[t % len(CATALOGUE_POOL)]()
        scn = random_single_scenario(gen, g, n=5, k=2)
        rep = submodularity_check(scn, 0, max_agents=5)
        assert rep.ok, (t, rep.witness)

    members = (
        ValueFunction.total(ConcaveFn("sqrt")),
        ValueFunction.best_shot(),
        ValueFunction.ces(2.0),
        ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
    )
    gen = RngSpec(SEED + 90).generator(0)
    worst_gap = 0.0
    for g in members:
        for _ in range(10_000):
            x = gen.uniform(0.0, 3.0, int(gen.integers(2, 7)))
            res = bsp_check(g, x.tolist())
            gap = abs(res.lhs - res.rhs)
            worst_gap = max(worst_gap, gap)
            assert gap <= TOL
    fixture = bsp_check(ValueFunction.top_r(2), (1.0, 1.0, 1.0))
    assert not fixture.holds
    assert fixture.lhs == 3.0 and fixture.rhs == 2.0

    grid = (0.0, 0.25, 0.5, 1.0, 1.75, 2.5)
    for factory in CATALOGUE_POOL:
        g = factory()
        for y in (0.5, 1.5, 3.0):
            assert diminishing_across_check(g, y, grid)
    acceptance_log.append(
        f"c09 structural suites        PASS  submodularity 50/50, balanced "
        f"substitution worst gap {worst_gap:.3e} over 4x10^4 vectors, top-2 "
        f"counterexample 3 > 2, diminishing marginals on all 12 variants"
    )


def test_c10_bundled_experiment_protocol(tmp_path, capsys, acceptance_log):
    out = tmp_path / "experiment.csv"
    start = time.perf_counter()
    code = cli_main(
        ["experiment", "--sample", "--n", "10", "--k", "2,3,4",
         "--trials", "100", "--seed", "0", "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed <= 60.0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "k", "greedy", "opt", "ratio"]
    data = [r for r in rows[1:] if r[0] not in ("mean", "min")]
    assert len(data) == 300
    ratios = [float(r[4]) for r in data]
    assert all(r >= SINGLE_GREEDY_BOUND - TOL for r in ratios)
    overall_mean = next(
        float(r[4]) for r in rows[1:] if r[0] == "mean" and r[1] == "all"
    )
    # 0.9 is a property-level floor; observed means sit essentially at 1
    assert overall_mean >= 0.9
    acceptance_log.append(
        f"c10 bundled experiment       PASS  300 trials, min ratio "
        f"{min(ratios):.5f} >= {SINGLE_GREEDY_BOUND:.5f}, mean ratio "
        f"{overall_mean:.5f} >= 0.9, {elapsed:.1f}s"
    )
