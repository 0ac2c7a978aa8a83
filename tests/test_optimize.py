"""Greedy selection, welfare assignment, exact oracles, baselines."""

import functools
import json
import math
import tracemalloc
from dataclasses import asdict
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    ConcaveFn,
    Distribution,
    RngSpec,
    Scenario,
    ScoreTable,
    SINGLE_GREEDY_BOUND,
    ValidationError,
    ValueFunction,
    approximation_report,
    baseline_max_sketch_welfare,
    baseline_min_sketch_welfare,
    best_strong_sketch_assignment,
    brute_force_single,
    brute_force_welfare,
    build_score_table,
    greedy_topk,
    greedy_welfare,
    mc_utility,
    minmax_sketch,
    project_utility,
    random_bsp_scenario,
    random_welfare_scenario,
    strong_sketch,
    welfare_greedy_bound,
)
from testscore import adversarial, optimize, scenario_io, utility
from testscore.adversarial import CATALOGUE_POOL, random_single_scenario
from testscore.core import ProjectStore
from testscore.optimize import _maximize_assignment, _subset_enum_cost, _team_blocks, _team_cells
from testscore.scenario_io import value_fn_tag
from testscore.utility import exact_utility, team_values

from oracle_tools import (
    fn_best_shot,
    fn_ces,
    fn_total,
    ref_best_assignment,
    ref_best_subset,
    ref_greedy_welfare,
    ref_maximize_assignment,
    ref_utility,
)

TWO_POINT = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))
CATALOGUE = [factory() for factory in CATALOGUE_POOL]
CATALOGUE_TAGS = [value_fn_tag(g) for g in CATALOGUE]
# the sum-route variants E[h(sum phi(x_i))] with h concave and not linear,
# whose oracle screens teams by their Jensen bound
BOUNDED = [g for g in CATALOGUE if g.kind in ("total", "ces") and not utility._linear(g)]
BOUNDED_TAGS = [value_fn_tag(g) for g in BOUNDED]


def tied_table(gen, n, m, max_r):
    # quarter steps tie often, also across slots (1.0 / 1 == 2.0 / 2)
    return ScoreTable(kind="replication", scores=gen.integers(0, 9, (n, m, max_r)) * 0.25)


def point_scenario(n, ks):
    m = len(ks)
    return Scenario(
        dists=((Distribution.point(1.0),) * m,) * n,
        value_fns=(ValueFunction.best_shot(),) * m,
        cardinalities=tuple(ks),
    )


def unbuilt_table(agent, r):
    # a 3-agent, one-project table at sizes 1..2 whose cell (agent, 0, r) is unbuilt
    scores = np.array([[[3.0, 2.0]], [[2.0, 1.5]], [[1.0, 1.0]]])
    scores[agent, 0, r - 1] = np.nan
    return ScoreTable(kind="replication", scores=scores)


def pairs_of(scn, j):
    return [list(zip(scn.dist(i, j).values, scn.dist(i, j).probs)) for i in scn.agents]


REF_FNS = {
    "best_shot": lambda g: fn_best_shot(),
    "ces": lambda g: fn_ces(g.r),
    "total": lambda g: fn_total(
        {
            "identity": lambda s: s,
            "sqrt": math.sqrt,
            "log1p": math.log1p,
        }[g.f.kind]
    ),
    "success_prob": None,  # covered via package exact utilities elsewhere
}


class TestGreedyTopK:
    def test_bound_constant(self):
        assert SINGLE_GREEDY_BOUND == pytest.approx((1 - 1 / math.e) / (5 - 1 / math.e))
        assert 0.1364 < SINGLE_GREEDY_BOUND < 0.1365

    def test_selects_top_scores(self):
        dists = [Distribution.point(v) for v in (1.0, 3.0, 2.0, 0.5)]
        scn = Scenario.single_project(dists, ValueFunction.best_shot(), 2)
        table = build_score_table(scn, "replication", max_r=2)
        res = greedy_topk(scn, 0, 2, table)
        assert sorted(res.assignment.sets[0]) == [1, 2]
        assert res.total == pytest.approx(3.0)

    def test_refuses_an_unbuilt_cell_of_its_column(self):
        # agent 1's NaN would sort last and leave (0, 2) picked
        with pytest.raises(ValidationError, match="agent 1, project 0, r=2 was not built"):
            greedy_topk(point_scenario(3, [2]), 0, 2, unbuilt_table(1, 2))

    def test_k_equals_n_selects_everyone(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.best_shot(), 3)
        table = build_score_table(scn, "replication", max_r=3)
        res = greedy_topk(scn, 0, 3, table)
        assert sorted(res.assignment.sets[0]) == [0, 1, 2]

    def test_ties_prefer_small_ids(self):
        scn = Scenario.single_project([TWO_POINT] * 4, ValueFunction.best_shot(), 2)
        table = build_score_table(scn, "replication", max_r=2)
        res = greedy_topk(scn, 0, 2, table)
        assert res.assignment.sets[0] == (0, 1)

    def test_trace_records_scores(self):
        dists = [Distribution.point(v) for v in (1.0, 3.0)]
        scn = Scenario.single_project(dists, ValueFunction.best_shot(), 2)
        table = build_score_table(scn, "replication", max_r=2)
        res = greedy_topk(scn, 0, 2, table)
        assert len(res.score_trace) == 2
        assert res.score_trace[0].agent == 1
        assert res.score_trace[0].score == pytest.approx(3.0)

    def test_total_is_exact_utility_of_choice(self):
        gen = np.random.default_rng(61)
        for _ in range(10):
            scn = random_bsp_scenario(gen)
            k = scn.cardinalities[0]
            table = build_score_table(scn, "replication", max_r=k)
            res = greedy_topk(scn, 0, k, table)
            want = project_utility(scn, 0, res.assignment.sets[0]).value
            assert res.total == pytest.approx(want, abs=1e-12)

    def test_mean_table_changes_choice(self):
        # deterministic 1 vs risky {0, 10 w.p. 0.09}: mean prefers safety,
        # replication at k = 4 prefers the risky pool
        safe = Distribution.point(1.0)
        risky = Distribution.from_pairs(((0.0, 0.91), (10.0, 0.09)))
        scn = Scenario.single_project([safe] * 4 + [risky] * 4, ValueFunction.best_shot(), 4)
        mean_t = build_score_table(scn, "mean", max_r=4)
        repl_t = build_score_table(scn, "replication", max_r=4)
        by_mean = greedy_topk(scn, 0, 4, mean_t)
        by_repl = greedy_topk(scn, 0, 4, repl_t)
        assert sorted(by_mean.assignment.sets[0]) == [0, 1, 2, 3]
        assert sorted(by_repl.assignment.sets[0]) == [4, 5, 6, 7]
        assert by_repl.total > by_mean.total


    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_known_team_is_not_scored_again(self, g, monkeypatch):
        # the oracle's objective stands in for greedy's when both pick the
        # same team; a selection of another team lends nothing
        scn = random_single_scenario(np.random.default_rng(62), g, n=6, k=3)
        table = build_score_table(scn, "replication", max_r=3, columns=[(3, 3)])
        alone = greedy_topk(scn, 0, 3, table)
        oracle = brute_force_single(scn, 0, 3)
        assert oracle.assignment.sets[0] == alone.assignment.sets[0]
        pair = Scenario.single_project([scn.dist(i, 0) for i in scn.agents], g, 2)
        other = brute_force_single(pair, 0, 2)  # a team of two
        scored = []
        real = optimize._exact_rows
        monkeypatch.setattr(optimize, "_exact_rows", lambda *a: scored.append(a) or real(*a))
        for known, calls in ((oracle, 0), (other, 1)):
            scored.clear()
            res = greedy_topk(scn, 0, 3, table, known=known)
            assert len(scored) == calls
            assert json.dumps(res.to_json()) == json.dumps(alone.to_json())

    @pytest.mark.parametrize("g", [g for g in CATALOGUE if g.kind in ("total", "ces", "top_r")], ids=value_fn_tag)
    def test_team_past_float_range_raises(self, g):
        # project 0 takes teams of 1, and the table's column 2 covers project
        # 1's teams of 2: greedy's team of 2 on project 0 sums A's top atom
        # twice, past the float range, and raises as a scenario of k_0 = 2 does
        top = 0.9 * np.finfo(float).max
        r = g.r if g.kind == "ces" else 1.0
        A, P = Distribution.from_pairs(((1.0, 1.0 - 1e-6), (top ** (1.0 / r), 1e-6))), Distribution.point(2.0)
        scn = Scenario(tuple((d, P) for d in (P, A, A)), (g, ValueFunction.best_shot()), (1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            table = build_score_table(scn, "replication", max_r=2, columns=[(2, 2), (1, 2)])
        with pytest.raises(ValidationError, match="^project 0: a team of 2 at support value .* sums past the float range$"):
            greedy_topk(scn, 0, 2, table)

    def test_ties_match_sorted_ranking(self):
        gen = np.random.default_rng(91)
        for _ in range(20):
            n = int(gen.integers(1, 12))
            k = int(gen.integers(1, n + 1))
            table = tied_table(gen, n, 1, k)
            res = greedy_topk(point_scenario(n, [k]), 0, k, table)
            ranked = sorted(range(n), key=lambda i: (-table.get(i, 0, k), i))[:k]
            assert [(t.agent, t.score) for t in res.score_trace] == [
                (i, table.get(i, 0, k)) for i in ranked
            ]
            assert all(type(t.agent) is int for t in res.score_trace)
            assert res.assignment.sets[0] == tuple(sorted(ranked))


class TestBruteForceSingle:
    def test_matches_reference_oracle(self):
        gen = np.random.default_rng(62)
        for trial in range(15):
            scn = random_bsp_scenario(gen, n_max=6, k_max=3)
            k = scn.cardinalities[0]
            g = scn.value_fns[0]
            res = brute_force_single(scn, 0, k)
            make_ref = REF_FNS[g.kind]
            if make_ref is None:
                best = max(
                    project_utility(scn, 0, S).value
                    for S in __import__("itertools").combinations(scn.agents, k)
                )
                assert res.total == pytest.approx(best, abs=1e-12)
            else:
                want, _ = ref_best_subset(pairs_of(scn, 0), make_ref(g), k, scn.n_agents)
                assert res.total == pytest.approx(want, abs=1e-10)

    def test_k_equals_n(self):
        scn = Scenario.single_project([TWO_POINT] * 3, ValueFunction.ces(2.0), 3)
        res = brute_force_single(scn, 0, 3)
        assert res.assignment.sets[0] == (0, 1, 2)

    @pytest.mark.parametrize("g", [ValueFunction.best_shot(), ValueFunction.top_r(2)], ids=value_fn_tag)
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_pool_grid_built_once(self, monkeypatch, g, k):
        # the store's merged grid is built the first time teams of several
        # members, but fewer than n, are screened, and serves every such k
        def fresh():
            return random_single_scenario(np.random.default_rng(17), g, n=6, k=6)

        want = {size: brute_force_single(fresh(), 0, size).to_json() for size in (2, 3, 6)}
        builds = []
        real = ProjectStore.merged.func

        def counting(store):
            builds.append(store)
            return real(store)

        spy = functools.cached_property(counting)
        spy.__set_name__(ProjectStore, "merged")
        monkeypatch.setattr(ProjectStore, "merged", spy)
        scn = fresh()
        assert brute_force_single(scn, 0, k).to_json() == want[k]
        # the lone team of k = n runs on its own sorted atoms
        assert len(builds) == (k < 6)
        for size in (2, 3, 6):
            assert brute_force_single(scn, 0, size).to_json() == want[size]
        assert builds == [scn.store(0)]

    def test_lexicographic_tie_break(self):
        scn = Scenario.single_project([TWO_POINT] * 5, ValueFunction.best_shot(), 2)
        res = brute_force_single(scn, 0, 2)
        assert res.assignment.sets[0] == (0, 1)

    def test_risky_agents_beat_uniform_safety(self):
        # a deterministic-1 pool never exceeds 1; adding spread does
        safe = Distribution.point(1.0)
        risky = Distribution.from_pairs(((0.0, 0.5), (3.0, 0.5)))
        scn = Scenario.single_project([safe, safe, risky], ValueFunction.best_shot(), 2)
        res = brute_force_single(scn, 0, 2)
        assert 2 in res.assignment.sets[0]
        assert res.total > 1.0

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        scn = Scenario.single_project([TWO_POINT] * 8, ValueFunction.ces(2.0), 4)
        with pytest.raises(BudgetExceededError):
            brute_force_single(scn, 0, 4)

    @staticmethod
    def per_team_oracle(scn, k):
        # every team scored on its own; strict > keeps the first best
        best_S, best_u = None, -math.inf
        for S in combinations(scn.agents, k):
            u = project_utility(scn, 0, S).value
            if u > best_u:
                best_S, best_u = S, u
        return best_S, best_u

    def check_against_per_team(self, scn, k):
        want_S, want_u = self.per_team_oracle(scn, k)
        res = brute_force_single(scn, 0, k)
        assert res.assignment.sets[0] == want_S, (scn.value_fns[0], k)
        assert res.total.hex() == want_u.hex(), (scn.value_fns[0], k)

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_matches_per_team_loop(self, g):
        gen = np.random.default_rng(66)
        for n, k in ((6, 1), (6, 2), (7, 3), (7, 4), (5, 5)):
            for _ in range(3):
                self.check_against_per_team(random_single_scenario(gen, g, n=n, k=k), k)

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_small_blocks_match_one_pass(self, g, monkeypatch):
        # a tiny block size splits the C(7, 3) teams over many array passes
        scn = random_single_scenario(np.random.default_rng(68), g, n=7, k=3)
        one_pass = brute_force_single(scn, 0, 3)
        monkeypatch.setattr(utility, "_BLOCK", 7)
        blocked = brute_force_single(scn, 0, 3)
        assert blocked.assignment.sets == one_pass.assignment.sets
        assert blocked.total == one_pass.total
        self.check_against_per_team(scn, 3)

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_point_masses_and_identical_agents(self, g):
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        pools = (
            [Distribution.point(v) for v in (1.0, 2.0, 1.0, 0.0, 2.0)],
            [Distribution.point(1.25), coin, Distribution.point(1.25), coin, coin],
            [coin] * 5,
        )
        for dists in pools:
            for k in (1, 2, 3, 5):
                self.check_against_per_team(Scenario.single_project(dists, g, k), k)
        # identical agents tie on every team, so the smallest team wins
        for k in (1, 3):
            scn = Scenario.single_project([coin] * 5, g, k)
            assert brute_force_single(scn, 0, k).assignment.sets[0] == tuple(range(k))

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_budget_prices_route_work(self, g, monkeypatch):
        gen = np.random.default_rng(67)
        dists = [d for (d,) in random_single_scenario(gen, g, n=4, k=3).dists]
        dists += dists[:2]  # shared support points merge on the pool's grid
        scn = Scenario.single_project(dists, g, 3)
        teams = math.comb(6, 3)
        grid = len(np.unique(np.concatenate([d.values_array for d in dists])))
        if g.kind == "best_shot":
            want = teams * grid * 3
        elif g.kind == "top_r":
            want = teams * grid * min(int(g.r), 3) * 3
        elif g.kind == "success_prob":
            want = sum(len(d) for d in dists) + teams * 3
        else:
            # the sum route prices each team at the engine's own charge,
            # the least budget its exact utility runs under, plus one unit
            def charge(S):
                lo, hi = 0, 10**6
                while lo < hi:
                    mid = (lo + hi) // 2
                    monkeypatch.setenv("TESTSCORE_BUDGET", str(max(mid, 1)))
                    try:
                        exact_utility(scn, 0, S)
                        hi = mid
                    except BudgetExceededError:
                        lo = mid + 1
                return lo

            want = sum(charge(S) + 1 for S in combinations(scn.agents, 3))
        monkeypatch.delenv("TESTSCORE_BUDGET", raising=False)
        assert _subset_enum_cost(scn, 0, 3) == want
        monkeypatch.setenv("TESTSCORE_BUDGET", str(want))
        # the up-front price bounds the best team's own charge, so its
        # reported value is exact, never the Monte Carlo fallback
        assert brute_force_single(scn, 0, 3).per_project[0].method != "monte_carlo"
        monkeypatch.setenv("TESTSCORE_BUDGET", str(want - 1))
        with pytest.raises(BudgetExceededError):
            brute_force_single(scn, 0, 3)


    @pytest.mark.parametrize(
        "g",
        [g for g in CATALOGUE if g.kind in ("best_shot", "top_r")],
        ids=[tag for g, tag in zip(CATALOGUE, CATALOGUE_TAGS) if g.kind in ("best_shot", "top_r")],
    )
    def test_budget_prices_one_member_teams_on_own_supports(self, g, monkeypatch):
        # one-member teams each run on their own support: summed supports
        dists = [d for (d,) in random_single_scenario(np.random.default_rng(69), g, n=6, k=1).dists]
        scn = Scenario.single_project(dists, g, 1)
        want = sum(len(d) for d in dists)
        assert _subset_enum_cost(scn, 0, 1) == want
        monkeypatch.setenv("TESTSCORE_BUDGET", str(want))
        assert brute_force_single(scn, 0, 1).assignment.sets[0] == self.per_team_oracle(scn, 1)[0]
        monkeypatch.setenv("TESTSCORE_BUDGET", str(want - 1))
        with pytest.raises(BudgetExceededError):
            brute_force_single(scn, 0, 1)

    @pytest.mark.parametrize(
        "g",
        [g for g in CATALOGUE if utility._linear(g)],
        ids=[tag for g, tag in zip(CATALOGUE, CATALOGUE_TAGS) if utility._linear(g)],
    )
    def test_linear_blocks_match_one_pass(self, g, monkeypatch):
        # one team per block: the running maximum and the screened teams
        # carry across every block boundary
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        gen = np.random.default_rng(73)
        scns = [random_single_scenario(gen, g, n=8, k=4) for _ in range(3)]
        scns.append(Scenario.single_project([coin] * 8, g, 4))
        scns.append(
            Scenario.single_project([Distribution.point(v) for v in (1, 2, 2, 0, 2, 1, 2, 2)], g, 4)
        )
        one_pass = [brute_force_single(scn, 0, 4) for scn in scns]
        monkeypatch.setattr(utility, "_BLOCK", 1)
        for scn, want in zip(scns, one_pass):
            blocked = brute_force_single(scn, 0, 4)
            assert blocked.assignment.sets == want.assignment.sets
            assert blocked.total == want.total
            self.check_against_per_team(scn, 4)
        # identical agents tie on every team, so the smallest team wins
        assert one_pass[3].assignment.sets[0] == (0, 1, 2, 3)
        assert one_pass[4].assignment.sets[0] == (1, 2, 4, 6)

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_blocks_match_per_team_loop(self, g, monkeypatch):
        # one or two teams per block, so every kind's screen carries its
        # running maximum across block boundaries; repeated agents tie, and
        # so do the C(n-1, k-1) teams holding a point mass above every
        # other support
        gen = np.random.default_rng(74)
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        few = [d for (d,) in random_single_scenario(gen, g, n=4, k=1).dists]
        rest = [d for (d,) in random_single_scenario(gen, g, n=6, k=1).dists]
        top = Distribution.point(1.0 + max(max(d.values) for d in rest))
        pools = (
            [d for (d,) in random_single_scenario(gen, g, n=7, k=1).dists],
            few + few[:3],
            [coin] * 6,
            [Distribution.point(v) for v in (1.0, 2.0, 2.0, 0.0, 2.0, 1.0)],
            rest[:2] + [top] + rest[2:],
        )
        monkeypatch.setattr(utility, "_BLOCK", 5)
        for dists in pools:
            for k in (1, 2, 3, 4):
                scn = Scenario.single_project(dists, g, k)
                want_S, want_u = self.per_team_oracle(scn, k)
                res = brute_force_single(scn, 0, k)
                assert res.assignment.sets[0] == want_S, (k, dists)
                assert res.total.hex() == want_u.hex(), (k, dists)

    def test_team_blocks_stream_every_team_in_order(self, monkeypatch):
        monkeypatch.setattr(utility, "_BLOCK", 10)
        blocks = list(_team_blocks(7, 3))
        assert all(block.size <= 10 for block in blocks)
        assert len(blocks) == math.ceil(math.comb(7, 3) / 3)
        assert [tuple(t) for t in np.concatenate(blocks).tolist()] == list(combinations(range(7), 3))

    @pytest.mark.parametrize("block", [None, 1, 10, 64])
    def test_team_blocks_equal_combinations(self, monkeypatch, block):
        # blocks of exactly _BLOCK // k teams, the last one fewer, cut
        # across the prefix pieces, in the smallest type that holds n
        if block is not None:
            monkeypatch.setattr(utility, "_BLOCK", block)
        shapes = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
        shapes += [(n, k) for n in (127, 128, 129) for k in (1, 2, n - 1, n)]
        for n, k in shapes:
            rows = max(1, utility._BLOCK // k)
            blocks = list(_team_blocks(n, k))
            assert all(len(b) == rows for b in blocks[:-1]) and 0 < len(blocks[-1]) <= rows
            assert {b.dtype for b in blocks} == {np.min_scalar_type(-n)}
            got = [tuple(t) for t in np.concatenate(blocks).tolist()]
            assert got == list(combinations(range(n), k)), (n, k)

    @staticmethod
    def scored_rows(monkeypatch, scn, k):
        # the result, and the number of rows _sum_rows scores to find it
        rows = []
        real = utility._sum_rows

        def counting(g, store, teams, *rest):
            rows.extend(teams.tolist())
            return real(g, store, teams, *rest)

        monkeypatch.setattr(utility, "_sum_rows", counting)
        res = brute_force_single(scn, 0, k)
        monkeypatch.setattr(utility, "_sum_rows", real)
        return res, len(rows)

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_bound_screen_point_masses(self, g):
        # a team of point masses, or of agents whose two atoms are a few
        # ulps apart, is worth its bound up to rounding, so only the
        # SCREEN_TOL margin keeps the best and its ties; teams of zeros are
        # worth exactly 0, their bound and the cut alike. With 0.2 on the
        # upper atom, 0.2 * 5e-324 rounds to 0 in the mean of a zero agent
        # but not in its value under a root, so every team is scored
        gen = np.random.default_rng(75)
        pools = [[0.0] * 5, [0.0, 1.0, 0.0, 2.0, 1.0, 2.0], [1.5, 0.5, 1.5, 0.5, 1.5]]
        pools += [gen.uniform(0.0, 3.0, 6).tolist() for _ in range(4)]
        pools += [gen.integers(0, 4, 7).astype(float).tolist() for _ in range(4)]
        for values in pools:
            points = [Distribution.point(v) for v in values]
            near = [
                [Distribution.from_pairs(((v, 1.0 - w), (v * (1.0 + 4e-16) + 5e-324, w))) for v in values]
                for w in (0.8, 0.2)
            ]
            for dists in (points, *near):
                for k in range(1, 5):
                    self.check_against_per_team(Scenario.single_project(dists, g, k), k)

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_bound_screen_identical_agents(self, g, monkeypatch):
        # every team has the same bound and value, so every team is a
        # candidate, each scored once: the leading team among them, and the
        # winner's value is its reported objective; the smallest team wins
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        for k in range(1, 5):
            scn = Scenario.single_project([coin] * 6, g, k)
            res, rows = self.scored_rows(monkeypatch, scn, k)
            assert rows == math.comb(6, k)
            assert res.assignment.sets[0] == tuple(range(k))
            self.check_against_per_team(scn, k)

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_bound_screen_small_blocks(self, g, monkeypatch):
        # two teams per block: the largest bound, and then the candidates,
        # are found across many blocks
        monkeypatch.setattr(utility, "_BLOCK", 7)
        gen = np.random.default_rng(76)
        for _ in range(4):
            scn = random_single_scenario(gen, g, n=8, k=3)
            self.check_against_per_team(scn, 3)

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_bound_screen_walks_the_teams_once(self, g, monkeypatch):
        # across many blocks the screen streams the teams one time only
        monkeypatch.setattr(utility, "_BLOCK", 7)
        walks = []
        real = optimize._team_blocks

        def counting(n, k, *rest):
            walks.append((n, k))
            return real(n, k, *rest)

        monkeypatch.setattr(optimize, "_team_blocks", counting)
        scn = random_single_scenario(np.random.default_rng(79), g, n=8, k=3)
        brute_force_single(scn, 0, 3)
        assert walks == [(8, 3)]

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_team_past_float_range_raises(self, g):
        # A's rare top atom fits a team of 1 but two of them sum past the
        # float range: teams of 2 on a cardinality-1 scenario raise the
        # error a scenario of cardinality 2 raises, instead of valuing inf
        top = 0.9 * np.finfo(float).max
        r = g.r if g.kind == "ces" else 1.0
        A = Distribution.from_pairs(((1.0, 1.0 - 1e-6), (top ** (1.0 / r), 1e-6)))
        dists = [Distribution.point(2.0), A, A]
        with pytest.raises(ValidationError, match="sums past the float range") as built:
            Scenario.single_project(dists, g, 2)
        scn = Scenario.single_project(dists, g, 1)
        for call in (
            partial(brute_force_single, scn, 0, 2),
            partial(project_utility, scn, 0, (1, 2)),
            partial(team_values, scn, 0, np.array([[0, 1]])),
            partial(mc_utility, scn, 0, (0, 1), RngSpec(seed=0), samples=100),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == str(built.value)

    @pytest.mark.parametrize("g", BOUNDED, ids=BOUNDED_TAGS)
    def test_bound_screen_underflow_scores_every_team(self, g):
        # below the normal range phi(x) * p loses its bits to the mean while
        # h, a root say, lifts the value it leaves out: A's rare atom, whose
        # phi(x) is subnormal, rounds out of A's mean but not out of its
        # value, which beats B's, whose bound is positive; so every team is
        # scored, as the per-team loop does
        r = g.r if g.kind == "ces" else 1.0
        low = 1e-318 ** (1.0 / r)
        A = Distribution.from_pairs(((0.0, 1.0 - 1e-6), (low, 1e-6)))
        B = Distribution.from_pairs(((0.0, 1.0 - 1e-300), (1.0, 1e-300)))
        for dists in ([B, A, B, A], [Distribution.point(low), B, A], [A] * 5):
            for k in range(1, len(dists)):
                self.check_against_per_team(Scenario.single_project(dists, g, k), k)

    def test_bound_screen_scores_few_teams(self, monkeypatch):
        # 8 agents with distinct support lengths, as a benchmark cohort: of
        # the 56 teams only the leading team is scored exactly; it is the
        # only candidate, and its value is the reported objective
        gen = np.random.default_rng(77)
        dists = []
        for size in range(1, 9):
            values = np.sort(gen.choice(101, size, replace=False)).astype(float)
            dists.append(Distribution.from_pairs(zip(values.tolist(), gen.dirichlet(np.ones(size)).tolist())))
        scn = Scenario.single_project(dists, ValueFunction.total(ConcaveFn("sqrt")), 3)
        assert self.scored_rows(monkeypatch, scn, 3)[1] == 1
        self.check_against_per_team(scn, 3)

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_objective_is_the_winners_project_utility(self, g, monkeypatch):
        # the reported objective is project_utility of the winner, bits and
        # label, reused from the screen's or the rescoring's own-bits value:
        # the winner is never scored again, not even a lone merged-grid survivor
        merged = g.kind in ("best_shot", "top_r")
        calls = []
        real = optimize.project_utility

        def counting(scn, j, S):
            calls.append(S)
            return real(scn, j, S)

        monkeypatch.setattr(optimize, "project_utility", counting)
        gen = np.random.default_rng(78)
        coin = Distribution.from_pairs(((0.5, 0.4), (2.0, 0.6)))
        cases = [(random_single_scenario(gen, g, n=n, k=k), "one") for n, k in ((6, 1), (6, 2), (7, 3))]
        cases.append((Scenario.single_project([coin] * 5, g, 2), "tied"))  # every team ties
        # agents 0 and 1, and 2 and 4, are copies, so the best teams tie; on
        # the merged grid of all five supports their values round apart from
        # their own bits (seed 6 does so under the SkylakeX, Haswell,
        # Sandybridge and Prescott OpenBLAS kernels alike)
        gen = np.random.default_rng(6)
        dists = []
        for _ in range(3):
            values = np.unique(np.round(gen.uniform(0.0, 3.0, int(gen.integers(2, 5))), 3))
            w = gen.uniform(0.2, 1.0, len(values))
            dists.append(Distribution(tuple(values.tolist()), tuple((w / w.sum()).tolist())))
        copies = Scenario.single_project([dists[i] for i in (0, 0, 1, 2, 1)], g, 2)
        if merged:
            store, teams = copies.store(0), utility._subsets(5, 2)
            on_grid = utility._merged_rows(g, store, teams)
            assert on_grid.max() != team_values(copies, 0, teams)[on_grid.argmax()]
        cases.append((copies, "tied"))
        for scn, survivors in cases:
            k = scn.cardinalities[0]
            calls.clear()
            res = brute_force_single(scn, 0, k)
            (got,) = res.per_project
            want = real(scn, 0, res.assignment.sets[0])
            assert (got.value.hex(), got.method) == (want.value.hex(), want.method), (k, survivors)
            assert calls == [], (k, survivors)

    def test_budget_error_names_oracle_and_shape(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        dists = [TWO_POINT] * 7 + [Distribution.point(1.0)]
        scn = Scenario.single_project(dists, ValueFunction.ces(2.0), 4)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_single(scn, 0, 4)
        assert exc.value.shape == "n=8, k=4, largest support 2"
        assert str(exc.value).startswith("brute_force_single subset enumeration budget exceeded: ")
        assert str(exc.value).endswith(" > 10 (n=8, k=4, largest support 2)")


class TestProjectIndex:
    """``brute_force_single``, ``greedy_topk``, ``team_values`` and the
    team utilities refuse a project that is not an index in range(n_projects) with
    ValidationError: a negative or too large index, a bool, a float, a
    string or None. A numpy integer reads as its int."""

    @staticmethod
    def calls():
        # two projects, so that -1 must not read as the last one
        d = [TWO_POINT, Distribution.point(1.0), Distribution.from_pairs(((0.5, 0.3), (3.0, 0.7))), TWO_POINT]
        scn = Scenario(tuple((x, x) for x in d), (ValueFunction.ces(2.0), ValueFunction.best_shot()), (2, 2))
        table = build_score_table(scn, "replication", max_r=2)
        return {
            "brute_force_single": lambda j: brute_force_single(scn, j, 2).to_json(),
            "greedy_topk": lambda j: greedy_topk(scn, j, 2, table).to_json(),
            "team_values": lambda j: team_values(scn, j, [[0, 1], [1, 2]]).tolist(),
            "project_utility": lambda j: repr(project_utility(scn, j, [0, 1])),
            "exact_utility": lambda j: repr(exact_utility(scn, j, [0, 1])),
            "mc_utility": lambda j: repr(mc_utility(scn, j, [0, 1], RngSpec(seed=1), samples=8)),
        }

    @pytest.mark.parametrize("j", [-1, 2, True, False, np.True_, 1.0, "0", None], ids=repr)
    def test_refused(self, j):
        for call in self.calls().values():
            with pytest.raises(ValidationError, match=r"^project must be an index in range\(2\), got "):
                call(j)

    def test_numpy_integer_reads_as_its_int(self):
        for call in self.calls().values():
            for j in (0, 1):
                assert call(np.int64(j)) == call(j)


class TestGreedyWelfare:
    def test_to_json_is_the_asdict_of_each_field(self, monkeypatch):
        # a trace, exact and Monte Carlo objectives and a sketch objective,
        # written as dataclasses.asdict writes them, to the byte
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        scn = random_welfare_scenario(np.random.default_rng(5))
        res = greedy_welfare(scn, build_score_table(scn, "replication", max_r=max(scn.cardinalities)))
        assert {est.method for est in res.per_project} == {"exact", "monte_carlo"}
        assert res.score_trace and res.sketch_objective is not None
        want = {
            "assignment": [list(S) for S in res.assignment.sets],
            "per_project": [asdict(est) for est in res.per_project],
            "total": res.total,
            "trace": [asdict(step) for step in res.score_trace],
            "sketch_objective": res.sketch_objective,
        }
        assert json.dumps(res.to_json()) == json.dumps(want)

    def test_single_project_follows_rank_order(self):
        gen = np.random.default_rng(63)
        for _ in range(10):
            scn = random_bsp_scenario(gen)
            k = scn.cardinalities[0]
            table = build_score_table(scn, "replication", max_r=k)
            res = greedy_welfare(scn, table)
            # replay the rank-greedy construction over the full agent pool
            remaining = list(scn.agents)
            expect = []
            for r in range(1, k + 1):
                best = max(remaining, key=lambda i: (table.get(i, 0, r), -i))
                remaining.remove(best)
                expect.append(best)
            assert res.assignment.sets[0] == tuple(expect)

    def test_trace_scores_never_increase(self):
        gen = np.random.default_rng(64)
        for _ in range(10):
            scn = random_welfare_scenario(gen)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            res = greedy_welfare(scn, table)
            scores = [step.score for step in res.score_trace]
            assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_fills_every_seat(self):
        gen = np.random.default_rng(65)
        scn = random_welfare_scenario(gen)
        table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
        res = greedy_welfare(scn, table)
        assert res.assignment.total_assigned() == sum(scn.cardinalities)
        for j in scn.projects:
            assert len(res.assignment.sets[j]) == scn.cardinalities[j]

    def test_objective_equals_sum_of_final_sketches(self):
        gen = np.random.default_rng(66)
        for _ in range(10):
            scn = random_welfare_scenario(gen)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            res = greedy_welfare(scn, table)
            want = sum(
                strong_sketch(table, j, res.assignment.sets[j]).strong
                for j in scn.projects
                if res.assignment.sets[j]
            )
            assert res.sketch_objective == pytest.approx(want, abs=1e-12)

    def test_objective_equals_sum_of_final_sketches_property(self):
        # each project's picks are its strong sketch's ranking, term for
        # term; the totals differ only in the order of the sum
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1))
        def check(seed):
            scn = random_welfare_scenario(np.random.default_rng(seed), n_max=10, m_max=4)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            res = greedy_welfare(scn, table)
            sketches = [strong_sketch(table, j, S) for j, S in enumerate(res.assignment.sets)]
            for j, ev in enumerate(sketches):
                picks = [t for t in res.score_trace if t.project == j]
                assert [(t.agent, r, t.score) for r, t in enumerate(picks, 1)] == list(ev.per_term)
            want = math.fsum(ev.strong for ev in sketches)
            assert math.isclose(res.sketch_objective, want, rel_tol=1e-12, abs_tol=1e-12)

        check()

    def test_total_is_exact_welfare(self):
        gen = np.random.default_rng(67)
        scn = random_welfare_scenario(gen)
        table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
        res = greedy_welfare(scn, table)
        want = sum(
            project_utility(scn, j, res.assignment.sets[j]).value
            for j in scn.projects
        )
        assert res.total == pytest.approx(want, abs=1e-12)

    def test_random_ties_still_feasible(self):
        scn = Scenario(
            dists=((TWO_POINT, TWO_POINT),) * 4,
            value_fns=(ValueFunction.best_shot(), ValueFunction.best_shot()),
            cardinalities=(2, 2),
        )
        table = build_score_table(scn, "replication", max_r=2)
        res = greedy_welfare(scn, table, tie_rng=RngSpec(seed=3))
        # every project filled to its cap, every agent known
        assert [len(S) for S in res.assignment.sets] == [2, 2]
        assert sorted(i for S in res.assignment.sets for i in S) == [0, 1, 2, 3]

    def test_deterministic_reruns_identical(self):
        gen = np.random.default_rng(68)
        scn = random_welfare_scenario(gen)
        table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
        a = greedy_welfare(scn, table)
        b = greedy_welfare(scn, table)
        assert a.assignment == b.assignment


    @pytest.mark.parametrize("tie_seed", [None, 5], ids=["first-tie", "tie-rng"])
    def test_matches_reference_loop(self, tie_seed):
        gen = np.random.default_rng(90)
        for trial in range(30):
            n = int(gen.integers(2, 40))
            m = int(gen.integers(1, 6))
            ks = [int(gen.integers(1, 4)) for _ in range(m)]
            while sum(ks) > n:
                ks[int(np.argmax(ks))] -= 1
            ks = [k for k in ks if k > 0]
            table = tied_table(gen, n, len(ks), max(ks))
            tie_rng = None if tie_seed is None else RngSpec(seed=tie_seed + trial)
            res = greedy_welfare(point_scenario(n, ks), table, tie_rng=tie_rng)
            sets, trace = ref_greedy_welfare(
                table, ks, n, None if tie_rng is None else tie_rng.generator(0)
            )
            assert res.assignment.sets == tuple(tuple(S) for S in sets)
            assert [(t.step, t.agent, t.project, t.score) for t in res.score_trace] == trace
            assert all(type(t.agent) is int and type(t.project) is int for t in res.score_trace)
            assert res.sketch_objective == float(sum(t[3] for t in trace))

    def test_refuses_an_unbuilt_cell_of_its_block(self):
        # argmax would take agent 0's NaN at r = 1 first, a NaN in the trace
        with pytest.raises(ValidationError, match="agent 0, project 0, r=1 was not built"):
            greedy_welfare(point_scenario(3, [2]), unbuilt_table(0, 1))

    def test_table_must_cover_the_scenario(self):
        table = tied_table(np.random.default_rng(92), 3, 2, 2)
        with pytest.raises(ValidationError, match="missing table entry"):
            greedy_welfare(point_scenario(4, [2, 2]), table)


class TestBruteForceWelfare:
    def test_matches_reference_oracle(self):
        gen = np.random.default_rng(69)
        for trial in range(8):
            scn = random_welfare_scenario(gen, n_max=6)
            res = brute_force_welfare(scn)
            want = 0.0
            dists_by_project = [pairs_of(scn, j) for j in scn.projects]
            gs = []
            usable = True
            for j in scn.projects:
                make_ref = REF_FNS[scn.value_fns[j].kind]
                if make_ref is None:
                    usable = False
                    break
                gs.append(make_ref(scn.value_fns[j]))
            if not usable:
                continue
            want, _ = ref_best_assignment(
                dists_by_project, gs, list(scn.cardinalities), scn.n_agents
            )
            assert res.total == pytest.approx(want, abs=1e-10)

    def test_single_project_reduces_to_subset_oracle(self):
        gen = np.random.default_rng(70)
        scn = random_bsp_scenario(gen, n_max=6, k_max=3)
        k = scn.cardinalities[0]
        a = brute_force_welfare(scn)
        b = brute_force_single(scn, 0, k)
        assert a.total == pytest.approx(b.total, abs=1e-12)
        assert a.assignment.sets[0] == b.assignment.sets[0]

    def test_lexicographic_argmax(self):
        g = ValueFunction.best_shot()
        scn = Scenario(
            dists=((TWO_POINT, TWO_POINT),) * 4,
            value_fns=(g, g),
            cardinalities=(1, 2),
        )
        res = brute_force_welfare(scn)
        assert res.assignment.sets == ((0,), (1, 2))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        g = ValueFunction.best_shot()
        scn = Scenario(
            dists=((TWO_POINT, TWO_POINT),) * 8,
            value_fns=(g, g),
            cardinalities=(4, 4),
        )
        with pytest.raises(BudgetExceededError):
            brute_force_welfare(scn)


class TestSketchBaselines:
    def _enumerate_best(self, scn, table, score_of):
        # independent max over all assignments of the given sketch objective
        import itertools

        n, ks = scn.n_agents, scn.cardinalities

        def rec(j, free):
            if j == len(ks):
                yield ()
                return
            for S in itertools.combinations(sorted(free), ks[j]):
                for tail in rec(j + 1, free - set(S)):
                    yield (S,) + tail

        return max(
            sum(score_of(j, S) for j, S in enumerate(asg))
            for asg in rec(0, set(range(n)))
        )

    def test_min_max_baselines_match_enumeration(self):
        gen = np.random.default_rng(71)
        for _ in range(5):
            scn = random_welfare_scenario(gen, n_max=6)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            lo = baseline_min_sketch_welfare(scn, table)
            hi = baseline_max_sketch_welfare(scn, table)
            want_lo = self._enumerate_best(
                scn, table, lambda j, S: min(table.get(i, j, len(S)) for i in S)
            )
            want_hi = self._enumerate_best(
                scn, table, lambda j, S: max(table.get(i, j, len(S)) for i in S)
            )
            assert lo.sketch_objective == pytest.approx(want_lo, abs=1e-12)
            assert hi.sketch_objective == pytest.approx(want_hi, abs=1e-12)

    def test_strong_baseline_matches_enumeration(self):
        gen = np.random.default_rng(72)
        for _ in range(5):
            scn = random_welfare_scenario(gen, n_max=6)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            best = best_strong_sketch_assignment(scn, table)
            want = self._enumerate_best(
                scn, table, lambda j, S: strong_sketch(table, j, S).strong
            )
            assert best.sketch_objective == pytest.approx(want, abs=1e-12)

    def test_min_sketch_refuses_an_unbuilt_cell(self):
        # agent 1's NaN at r = 2 would make the min-sketch objective NaN
        with pytest.raises(ValidationError, match="agent 1, project 0, r=2 was not built"):
            baseline_min_sketch_welfare(point_scenario(3, [2]), unbuilt_table(1, 2))

    def test_single_agent_everything_agrees(self):
        scn = Scenario.single_project([TWO_POINT], ValueFunction.best_shot(), 1)
        table = build_score_table(scn, "replication", max_r=1)
        values = {
            baseline_min_sketch_welfare(scn, table).total,
            baseline_max_sketch_welfare(scn, table).total,
            best_strong_sketch_assignment(scn, table).total,
            brute_force_welfare(scn).total,
        }
        assert len(values) == 1


def tie_heavy_scenario(gen, kind):
    # random_welfare_scenario's shape and value functions with supports
    # that tie: random point masses, one shared distribution per project,
    # or one point mass everywhere
    scn = random_welfare_scenario(gen)
    n, m = scn.n_agents, scn.n_projects
    if kind == "points":
        dists = [[Distribution.point(float(gen.integers(0, 3))) for _ in range(m)] for _ in range(n)]
    elif kind == "identical":
        dists = [list(scn.dists[0])] * n
    else:
        dists = [[Distribution.point(1.0)] * m] * n
    return Scenario(
        dists=tuple(tuple(row) for row in dists),
        value_fns=scn.value_fns,
        cardinalities=scn.cardinalities,
    )


def per_row(value_of):
    """A per-team ``value_of(j, S)`` as the DP's block callback: one call
    per row, in the order the rows are given."""
    return lambda j, teams: np.array([value_of(j, tuple(S)) for S in teams.tolist()], dtype=float)


def welfare_oracles(scn, table):
    """Each assignment oracle's result with the per-team value it
    maximizes."""

    def sketch(kind):
        def value(j, S):
            if kind == "strong":
                return strong_sketch(table, j, S).strong
            lo, hi = minmax_sketch(table, j, S, scn.cardinalities[j])
            return lo if kind == "min" else hi

        return value

    return [
        (brute_force_welfare(scn), lambda j, S: project_utility(scn, j, S).value),
        (baseline_min_sketch_welfare(scn, table), sketch("min")),
        (baseline_max_sketch_welfare(scn, table), sketch("max")),
        (best_strong_sketch_assignment(scn, table), sketch("strong")),
    ]


class TestAssignmentDP:
    """The array DP against the dict-of-masks reference: the same sets
    and the same objective bits."""

    def check_oracles(self, scn):
        table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
        for res, value_of in welfare_oracles(scn, table):
            sets, total = ref_maximize_assignment(scn.n_agents, scn.cardinalities, value_of)
            assert res.assignment.sets == tuple(sets)
            if res.sketch_objective is None:
                welfare = float(sum(project_utility(scn, j, S).value for j, S in enumerate(sets)))
                assert res.total.hex() == welfare.hex()
                got = _maximize_assignment(scn, (per_row(value_of),), "test")[0]
                assert (got[0], got[1].hex()) == (sets, total.hex())
            else:
                assert res.sketch_objective.hex() == float(total).hex()

    def test_random_welfare_scenarios(self):
        gen = np.random.default_rng(74)
        for _ in range(200):
            self.check_oracles(random_welfare_scenario(gen))

    @pytest.mark.parametrize("kind", ["points", "identical", "constant"])
    def test_tie_heavy_scenarios(self, kind):
        gen = np.random.default_rng(75)
        for _ in range(20):
            self.check_oracles(tie_heavy_scenario(gen, kind))

    def test_one_set_per_block(self, monkeypatch):
        # a block of one used set splits every stage with more than one
        gen = np.random.default_rng(76)
        scns = [random_welfare_scenario(gen) for _ in range(30)]
        scns += [tie_heavy_scenario(gen, "points") for _ in range(10)]
        scns.append(adversarial.gen_welfare_example1(3).scenario)
        monkeypatch.setattr(utility, "_BLOCK", 1)
        for scn in scns:
            self.check_oracles(scn)

    @pytest.mark.parametrize("n, ks", [(70, (1, 1)), (64, (1, 1, 1)), (66, (65,))])
    def test_more_agents_than_mask_bits(self, n, ks):
        # colex ranks stay small where bitmasks would pass 64 bits
        gen = np.random.default_rng(77)
        values = {}

        def value_of(j, S):
            if (j, S) not in values:
                values[j, S] = float(gen.integers(0, 4))
            return values[j, S]

        got = _maximize_assignment(point_scenario(n, ks), (per_row(value_of),), "test")[0]
        assert got == tuple(ref_maximize_assignment(n, ks, value_of))

    def test_leftover_cells_are_complements(self):
        # the leftover cells of the t-th lexicographic team, those of the
        # (f - k)-subsets reversed, sit at the positions the team leaves
        for f in range(2, 10):
            for k in range(1, f):
                places = _team_cells(f, k)[0].tolist()
                left = (_team_cells(f, f - k)[1][:, ::-1].T // (f - k)).tolist()
                assert left == [sorted(set(range(f)) - set(team)) for team in places]

    def test_first_stage_ranks_no_leftovers(self):
        # with no agent used the union is the team: the pass peaks at about
        # 3.90 MB, and ranking stage 0's 300 leftovers of 299 agents instead
        # would take it to about 4.61 MB
        scn = point_scenario(300, (1, 1))
        for cache in (optimize._binomials, optimize._team_cells, utility._lex_table):
            cache.cache_clear()  # built under the trace, whatever ran before
        tracemalloc.start()
        try:
            [found] = _maximize_assignment(scn, (per_row(lambda j, S: 1.0),), "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == ([(0,), (1,)], 2.0)
        assert peak < 4_200_000, peak

    def test_signed_zero_values(self):
        # v + 0.0 turns -0.0 into 0.0, in the reference as here
        for n, ks in ((3, (1,)), (4, (1, 2)), (5, (2, 1, 1))):
            [(sets, total)] = _maximize_assignment(
                point_scenario(n, ks), (per_row(lambda j, S: -0.0),), "test"
            )
            assert (sets, total.hex()) == (
                ref_maximize_assignment(n, ks, lambda j, S: -0.0)[0],
                (0.0).hex(),
            )

    def test_matches_reference_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # few distinct values, signed zeros and sums that round apart
        pool = [0.0, -0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 0.5, 1.0]

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(data=st.data())
        def check(data):
            n = data.draw(st.integers(1, 7))
            ks = []
            while sum(ks) < n and len(ks) < 3:
                ks.append(data.draw(st.integers(1, n - sum(ks))))
            values = {}

            def value_of(j, S):
                if (j, S) not in values:
                    values[j, S] = data.draw(st.sampled_from(pool))
                return values[j, S]

            [(sets, total)] = _maximize_assignment(point_scenario(n, ks), (per_row(value_of),), "test")
            want_sets, want_total = ref_maximize_assignment(n, ks, value_of)
            assert (sets, total.hex()) == (want_sets, float(want_total).hex())

        check()

    def test_batched_oracle_matches_per_team_reference_property(self):
        # the welfare oracle's batched team values lead to the sets and
        # the objective bits of the reference DP over per-team utilities
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1))
        def check(seed):
            scn = random_welfare_scenario(np.random.default_rng(seed))
            sets, total = ref_maximize_assignment(
                scn.n_agents, scn.cardinalities, lambda j, S: project_utility(scn, j, S).value
            )
            assert brute_force_welfare(scn).assignment.sets == tuple(sets)
            got = _maximize_assignment(scn, (partial(team_values, scn),), "test")[0]
            assert (got[0], got[1].hex()) == (sets, total.hex())

        check()

    def test_several_objectives_in_one_pass(self):
        # each objective of a joint pass keeps the reference's sets and
        # total bits, and those of its own pass: tied objectives, signed
        # zeros and a constant objective share the pass
        gen = np.random.default_rng(78)
        pool = [0.0, -0.0, 0.5, 1.0]
        for t in range(60):
            if t % 2:
                scn = random_welfare_scenario(gen)
            else:
                n = int(gen.integers(1, 8))
                ks = []
                while sum(ks) < n and len(ks) < 3:
                    ks.append(int(gen.integers(1, n - sum(ks) + 1)))
                scn = point_scenario(n, ks)
            drawn = [{}, {}]

            def tied(o, j, S):
                if (j, S) not in drawn[o]:
                    drawn[o][j, S] = pool[int(gen.integers(len(pool)))]
                return drawn[o][j, S]

            objectives = [
                partial(tied, 0),
                lambda j, S: -0.0,
                partial(tied, 1) if t % 3 else lambda j, S: project_utility(scn, j, S).value,
            ][: 2 + t % 2]
            joint = _maximize_assignment(scn, [per_row(v) for v in objectives], "test")
            assert len(joint) == len(objectives)
            for value_of, (sets, total) in zip(objectives, joint):
                [alone] = _maximize_assignment(scn, (per_row(value_of),), "test")
                want_sets, want_total = ref_maximize_assignment(
                    scn.n_agents, scn.cardinalities, value_of
                )
                assert (sets, total.hex()) == (want_sets, float(want_total).hex())
                assert (sets, total.hex()) == (alone[0], alone[1].hex())

    @pytest.mark.parametrize(
        "name, oracle",
        [
            ("welfare_ex1", "brute_force_welfare+baseline_min_sketch_welfare"),
            ("welfare_ex2", "brute_force_welfare+baseline_max_sketch_welfare"),
        ],
    )
    def test_welfare_instance_takes_one_pass(self, monkeypatch, name, oracle):
        # the exact optimum and the sketch baseline share one DP pass
        calls = []
        real = optimize._maximize_assignment

        def spy(scn, objectives, oracle):
            calls.append((len(objectives), oracle))
            return real(scn, objectives, oracle)

        monkeypatch.setattr(optimize, "_maximize_assignment", spy)
        assert adversarial.validate_instance(adversarial.GENERATORS[name]()).ok
        assert calls == [(2, oracle)]

    def test_budget_errors_name_oracle_and_shape(self, monkeypatch):
        monkeypatch.setenv("TESTSCORE_BUDGET", "10")
        g = ValueFunction.best_shot()
        scn = Scenario(
            dists=((TWO_POINT, Distribution.point(1.0)),) * 8,
            value_fns=(g, g),
            cardinalities=(4, 4),
        )
        table = ScoreTable(kind="replication", scores=np.ones((8, 2, 4)))
        shape = "(n=8, cardinalities (4, 4), largest support 2)"
        for oracle, run in (
            ("brute_force_welfare", lambda: brute_force_welfare(scn)),
            ("baseline_min_sketch_welfare", lambda: baseline_min_sketch_welfare(scn, table)),
            ("baseline_max_sketch_welfare", lambda: baseline_max_sketch_welfare(scn, table)),
            ("best_strong_sketch_assignment", lambda: best_strong_sketch_assignment(scn, table)),
        ):
            with pytest.raises(BudgetExceededError) as exc:
                run()
            assert str(exc.value) == f"{oracle} assignment DP budget exceeded: 140 > 10 {shape}"
        # one pass, one check: its error names every oracle in it
        names = ("brute_force_welfare", "baseline_min_sketch_welfare", "best_strong_sketch_assignment")
        with pytest.raises(BudgetExceededError) as exc:
            optimize._assignment_oracles(scn, table, names)
        assert str(exc.value) == (
            "brute_force_welfare+baseline_min_sketch_welfare+best_strong_sketch_assignment "
            f"assignment DP budget exceeded: 140 > 10 {shape}"
        )


class TestApproximationReport:
    def test_modular_ratio_one(self):
        dists = [Distribution.point(v) for v in (3.0, 2.0, 1.0)]
        scn = Scenario.single_project(dists, ValueFunction.ces(1.0), 2)
        table = build_score_table(scn, "replication", max_r=2)
        res = greedy_topk(scn, 0, 2, table)
        oracle = brute_force_single(scn, 0, 2)
        report = approximation_report(scn, res, oracle)
        assert report.ratio == pytest.approx(1.0)
        assert report.problem == "single"
        assert report.bound == pytest.approx(SINGLE_GREEDY_BOUND)
        assert report.satisfied

    def test_single_bound_holds_on_random_instances(self):
        gen = np.random.default_rng(73)
        worst = 1.0
        for _ in range(25):
            scn = random_bsp_scenario(gen, n_max=6, k_max=3)
            k = scn.cardinalities[0]
            table = build_score_table(scn, "replication", max_r=k)
            res = greedy_topk(scn, 0, k, table)
            oracle = brute_force_single(scn, 0, k)
            report = approximation_report(scn, res, oracle)
            assert report.satisfied
            worst = min(worst, report.ratio)
        assert worst >= SINGLE_GREEDY_BOUND - 1e-9

    def test_welfare_bound_holds_on_random_instances(self):
        gen = np.random.default_rng(74)
        for _ in range(10):
            scn = random_welfare_scenario(gen, n_max=7)
            table = build_score_table(scn, "replication", max_r=max(scn.cardinalities))
            res = greedy_welfare(scn, table)
            oracle = brute_force_welfare(scn)
            report = approximation_report(scn, res, oracle)
            assert report.problem == "welfare"
            k = max(scn.cardinalities)
            assert report.bound == pytest.approx(welfare_greedy_bound(k))
            assert report.satisfied

    def test_zero_optimum_defines_ratio_one(self):
        dists = [Distribution.point(0.0)] * 2
        scn = Scenario.single_project(dists, ValueFunction.best_shot(), 1)
        table = build_score_table(scn, "replication", max_r=1)
        res = greedy_topk(scn, 0, 1, table)
        oracle = brute_force_single(scn, 0, 1)
        report = approximation_report(scn, res, oracle)
        assert report.ratio == 1.0

    def test_welfare_bound_values(self):
        assert welfare_greedy_bound(1) == pytest.approx(1.0 / 24.0)
        assert welfare_greedy_bound(4) == pytest.approx(1.0 / (24.0 * (math.log(4) + 1)))


def _two_projects():
    # three agents, projects of sizes 1 and 2, a replication table up to size 1
    scn = Scenario(
        dists=((TWO_POINT, TWO_POINT),) * 3,
        value_fns=(ValueFunction.best_shot(), ValueFunction.best_shot()),
        cardinalities=(1, 2),
    )
    return scn, build_score_table(scn, "replication", max_r=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda scn, t: greedy_topk(scn, 0, 0, t), r"k must be in 1..3, got 0"),
        (lambda scn, t: greedy_topk(scn, 0, 4, t), r"k must be in 1..3, got 4"),
        (lambda scn, t: brute_force_single(scn, 0, 0), r"k must be in 1..3, got 0"),
        (lambda scn, t: brute_force_single(scn, 0, 4), r"k must be in 1..3, got 4"),
        (
            lambda scn, t: greedy_welfare(scn, build_score_table(scn, "mean", max_r=2)),
            r"welfare greedy needs a replication table, got 'mean'",
        ),
        (
            lambda scn, t: greedy_welfare(scn, t),
            r"table max_r does not cover the largest project",
        ),
        (lambda scn, t: welfare_greedy_bound(0), r"k must be an integer >= 1, got 0"),
    ],
    ids=["topk-0", "topk-n+1", "brute-0", "brute-n+1", "welfare-kind", "welfare-max_r", "bound-0"],
)
def test_rejects_out_of_range_inputs(call, message):
    scn, table = _two_projects()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(scn, table)


def _bits(est):
    return (est.value.hex(), est.method, est.samples, est.std_error.hex())


def _class_scenario(gen, g, ks):
    # every (agent, project) support has 1 to 3 atoms, so point masses mix with wider supports
    n = sum(ks)

    def dist():
        values = np.unique(np.round(gen.uniform(0.0, 3.0, int(gen.integers(1, 4))), 3))
        w = gen.uniform(0.2, 1.0, len(values))
        return Distribution(tuple(values.tolist()), tuple((w / w.sum()).tolist()))

    dists = tuple(tuple(dist() for _ in ks) for _ in range(n))
    return Scenario(dists=dists, value_fns=(g,) * len(ks), cardinalities=ks)


class TestClassObjectives:
    """``_result`` scores the teams of each class of projects with equal
    value functions and team sizes in one engine block, and each objective
    equals the project's own ``_objective`` bit for bit."""

    def check(self, scn, res):
        want = [optimize._objective(scn, j, S) for j, S in enumerate(res.assignment.sets)]
        assert [_bits(est) for est in res.per_project] == [_bits(est) for est in want]
        assert res.total.hex() == float(sum(est.value for est in want)).hex()

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_sets_in_insertion_order(self, g, monkeypatch):
        gen = np.random.default_rng(91)
        # classes of sizes 3, 2 and 1 with two projects each, a class of
        # two empty teams and, on project 6, a team below its cardinality
        sizes, ks = (3, 3, 2, 0, 1, 1, 2, 0), (3, 3, 2, 1, 1, 1, 3, 2)
        scn = _class_scenario(gen, g, ks)
        for _ in range(3):
            agents, sets = gen.permutation(scn.n_agents).tolist(), []
            for size in sizes:
                sets.append(tuple(agents[:size]))
                del agents[:size]
            self.check(scn, optimize._result(scn, sets))
        # only the empty teams are scored one by one
        lone = []
        objective = optimize._objective
        monkeypatch.setattr(optimize, "_objective", lambda scn, j, S: lone.append(j) or objective(scn, j, S))
        optimize._result(scn, sets)
        assert lone == [3, 7]

    @pytest.mark.parametrize("g", CATALOGUE, ids=CATALOGUE_TAGS)
    def test_assignment_algorithms(self, g):
        gen = np.random.default_rng(92)
        scn = _class_scenario(gen, g, (1, 2, 3, 1, 2))
        table = build_score_table(scn, "replication", max_r=3)
        results = [
            greedy_welfare(scn, table),
            greedy_welfare(scn, table, tie_rng=RngSpec(seed=4)),
            brute_force_welfare(scn),
            baseline_min_sketch_welfare(scn, table),
            baseline_max_sketch_welfare(scn, table),
            best_strong_sketch_assignment(scn, table),
        ]
        for res in results:
            self.check(scn, res)

    def test_class_stores_built_once(self, monkeypatch):
        # assign's table (columns 1..k_j) and its objectives read the same
        # classes, {0, 3} and {1, 4}, whose stores the scenario keeps
        scn = _class_scenario(np.random.default_rng(93), ValueFunction.best_shot(), (1, 2, 3, 1, 2))
        built = []
        concat = ProjectStore.concat.__func__
        monkeypatch.setattr(ProjectStore, "concat", classmethod(lambda cls, stores: built.append(1) or concat(cls, stores)))
        columns = [(1, k) for k in scn.cardinalities]
        table = build_score_table(scn, "replication", max_r=3, columns=columns)
        self.check(scn, greedy_welfare(scn, table))
        assert len(built) == 2
        assert scn.class_store([0, 3]) is scn.class_store((0, 3))

    @pytest.mark.parametrize("kind", ["best_shot", "top_r:2", "total:sqrt"])
    def test_over_budget_team_keeps_its_monte_carlo(self, kind, monkeypatch):
        # at budget 8 the team of two 3-atom supports is over, and the
        # teams of point masses fit (best shot 4, top_r 8, sum route 0)
        monkeypatch.setenv("TESTSCORE_BUDGET", "8")
        wide = Distribution.from_pairs(((0.0, 0.2), (1.0, 0.3), (2.5, 0.5)))
        dists = [wide, wide] + [Distribution.point(float(v)) for v in (0.5, 2.0, 1.0, 3.0)]
        scn = Scenario(
            dists=tuple((d,) * 3 for d in dists),
            value_fns=(scenario_io.parse_value_fn(kind),) * 3,
            cardinalities=(2, 2, 2),
        )
        res = optimize._result(scn, [(3, 2), (1, 0), (5, 4)])
        self.check(scn, res)
        sampled = mc_utility(scn, 1, (0, 1), RngSpec(seed=0), samples=optimize.MC_OBJECTIVE_SAMPLES, stream=1)
        assert _bits(res.per_project[1]) == _bits(sampled)
        for j, S in ((0, (2, 3)), (2, (4, 5))):
            assert _bits(res.per_project[j]) == _bits(project_utility(scn, j, S))
