"""Harmonic strong sketch and its verified bound sandwiches."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from testscore import (
    CATALOGUE_POOL,
    Distribution,
    Scenario,
    ScoreTable,
    ValidationError,
    ValueFunction,
    build_score_table,
    minmax_sketch,
    project_utility,
    random_bsp_scenario,
    strong_sketch,
    verify_goodness_sandwich,
    verify_strong_sketch_bounds,
)
from testscore.core import RngSpec
from testscore.sketch import _strong_sketch_values
from testscore.utility import _subsets

from oracle_tools import max_term_bound, ref_verify_bracket


def table_from(entries, max_r, kind="replication"):
    # entries: {(agent, r): score} covering every agent and r, single project 0
    scores = np.zeros((1 + max(i for i, _ in entries), 1, max_r))
    for (i, r), v in entries.items():
        scores[i, 0, r - 1] = v
    return ScoreTable(kind=kind, scores=scores)


class TestStrongSketch:
    def test_identical_unit_agents_harmonic_sum(self):
        k = 5
        scn = Scenario.single_project(
            [Distribution.point(1.0)] * k, ValueFunction.best_shot(), k
        )
        table = build_score_table(scn, "replication", max_r=k)
        ev = strong_sketch(table, 0, range(k))
        h_k = sum(1.0 / r for r in range(1, k + 1))
        assert ev.strong == pytest.approx(h_k)
        assert ev.lower == ev.upper == 1.0

    def test_singleton_reduces_to_single_score(self):
        scn = Scenario.single_project(
            [Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))],
            ValueFunction.best_shot(),
            1,
        )
        table = build_score_table(scn, "replication", max_r=1)
        ev = strong_sketch(table, 0, [0])
        u = project_utility(scn, 0, [0]).value
        assert ev.strong == pytest.approx(u)
        assert ev.lower == ev.upper == pytest.approx(u)

    def test_two_point_masses_ranked_greedily(self):
        scn = Scenario.single_project(
            [Distribution.point(2.0), Distribution.point(1.0)],
            ValueFunction.best_shot(),
            2,
        )
        table = build_score_table(scn, "replication", max_r=2)
        ev = strong_sketch(table, 0, [0, 1])
        assert ev.pi_order == (0, 1)
        assert ev.strong == pytest.approx(2.0 + 0.5)

    def test_ties_break_to_smaller_id(self):
        table = table_from(
            {(0, 1): 3.0, (0, 2): 1.0, (1, 1): 3.0, (1, 2): 1.0}, max_r=2
        )
        ev = strong_sketch(table, 0, [1, 0])
        assert ev.pi_order == (0, 1)

    def test_rank_specific_scores_drive_selection(self):
        # agent 1 wins rank 1, agent 0's r=2 score is used at rank 2
        table = table_from(
            {(0, 1): 1.0, (0, 2): 4.0, (1, 1): 2.0, (1, 2): 0.0}, max_r=2
        )
        ev = strong_sketch(table, 0, [0, 1])
        assert ev.pi_order == (1, 0)
        assert ev.strong == pytest.approx(2.0 + 4.0 / 2.0)
        assert ev.per_term == ((1, 1, 2.0), (0, 2, 2.0))

    def test_input_order_irrelevant(self):
        gen = np.random.default_rng(51)
        scn = random_bsp_scenario(gen)
        k = scn.cardinalities[0]
        table = build_score_table(scn, "replication", max_r=k)
        S = list(range(k))
        a = strong_sketch(table, 0, S)
        b = strong_sketch(table, 0, list(reversed(S)))
        assert a == b

    def test_truncates_below_max_r(self):
        table = table_from(
            {(0, 1): 2.0, (0, 2): 1.0, (1, 1): 1.0, (1, 2): 1.0}, max_r=2
        )
        ev = strong_sketch(table, 0, [0])
        assert ev.strong == 2.0
        assert ev.pi_order == (0,)

    def test_oversized_set_rejected(self):
        table = table_from({(0, 1): 1.0, (1, 1): 1.0, (2, 1): 1.0}, max_r=1)
        with pytest.raises(ValidationError, match="max_r"):
            strong_sketch(table, 0, [0, 1])

    def test_mean_table_rejected(self):
        table = table_from({(0, 1): 1.0}, max_r=1, kind="mean")
        with pytest.raises(ValidationError, match="replication"):
            strong_sketch(table, 0, [0])

    def test_empty_set_rejected(self):
        table = table_from({(0, 1): 1.0}, max_r=1)
        with pytest.raises(ValidationError):
            strong_sketch(table, 0, [])

    @pytest.mark.parametrize(
        "sketch",
        [lambda t: strong_sketch(t, 0, [1, 0, 1]), lambda t: minmax_sketch(t, 0, [1, 1], 2)],
        ids=["strong", "minmax"],
    )
    def test_duplicate_agents_rejected(self, sketch):
        table = table_from({(0, 1): 1.0, (1, 1): 2.0, (0, 2): 1.0, (1, 2): 2.0}, max_r=2)
        with pytest.raises(ValidationError, match="^duplicate agents in set$"):
            sketch(table)


class TestStrongSketchValues:
    def test_equal_to_strong_sketch_bit_for_bit_with_ties(self):
        # integer scores in 0..3 tie often, so the rank order rests on the
        # smallest-id rule, and score / r rounds for r = 3, 5, 6
        gen = np.random.default_rng(59)
        for _ in range(12):
            n, m, max_r = int(gen.integers(2, 9)), int(gen.integers(1, 3)), int(gen.integers(1, 7))
            scores = gen.integers(0, 4, size=(n, m, max_r)).astype(float)
            table = ScoreTable(kind="replication", scores=scores)
            for j in range(m):
                for t in range(1, min(n, max_r) + 1):
                    teams = _subsets(n, t)
                    got = _strong_sketch_values(table, j, teams).tolist()
                    want = [strong_sketch(table, j, S).strong for S in teams.tolist()]
                    assert [x.hex() for x in got] == [x.hex() for x in want], (n, j, t)

    def test_refuses_an_unbuilt_cell(self):
        # agent 0 takes rank 2 of team (0, 1), so its NaN would make that value NaN
        table = ScoreTable(kind="replication", scores=[[[1.0, np.nan]], [[2.0, 2.0]], [[3.0, 3.0]]])
        with pytest.raises(ValidationError, match="agent 0, project 0, r=2 was not built"):
            _strong_sketch_values(table, 0, np.array([[0, 1], [0, 2]]))

    def test_rejects_the_tables_strong_sketch_rejects(self):
        table = table_from({(i, r): 1.0 for i in range(3) for r in (1, 2)}, max_r=2)
        with pytest.raises(ValidationError, match="missing table entry"):
            _strong_sketch_values(table, 0, np.array([[0, 1, 2]]))  # past max_r
        with pytest.raises(ValidationError, match="missing table entry"):
            _strong_sketch_values(table, 0, np.array([[1, 3]]))
        mean = table_from({(0, 1): 1.0}, max_r=1, kind="mean")
        with pytest.raises(ValidationError, match="replication"):
            _strong_sketch_values(mean, 0, np.array([[0]]))


class TestMinMaxSketch:
    def test_extrema_of_endpoint_scores(self):
        table = table_from(
            {(0, 2): 1.0, (1, 2): 7.0, (2, 2): 3.0, (0, 1): 0, (1, 1): 0, (2, 1): 0},
            max_r=2,
        )
        lo, hi = minmax_sketch(table, 0, [0, 1, 2][:2], 2)
        assert (lo, hi) == (1.0, 7.0)

    def test_identical_agents_collapse(self):
        table = table_from({(0, 2): 4.0, (1, 2): 4.0, (0, 1): 0, (1, 1): 0}, max_r=2)
        assert minmax_sketch(table, 0, [0, 1], 2) == (4.0, 4.0)

    def test_wrong_size_rejected(self):
        table = table_from({(0, 1): 1.0, (1, 1): 2.0}, max_r=1)
        with pytest.raises(ValidationError):
            minmax_sketch(table, 0, [0, 1], 1)

    def test_agrees_with_strong_sketch_endpoints(self):
        gen = np.random.default_rng(52)
        scn = random_bsp_scenario(gen)
        k = scn.cardinalities[0]
        table = build_score_table(scn, "replication", max_r=k)
        S = list(range(k))
        ev = strong_sketch(table, 0, S)
        assert minmax_sketch(table, 0, S, k) == (ev.lower, ev.upper)


class TestArguments:
    """The sketches and the verifiers refuse a project, an agent or a size
    that is not an index or a count with ValidationError naming that
    argument; a numpy integer answers as its int."""

    @staticmethod
    def scenario():
        d = [Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5))), Distribution.point(1.0), Distribution.point(3.0)]
        return Scenario.single_project(d, ValueFunction.best_shot(), 2)

    @pytest.mark.parametrize("verify", [verify_strong_sketch_bounds, verify_goodness_sandwich])
    @pytest.mark.parametrize("k", [2.0, True, np.float64(2.0), "2", None], ids=repr)
    def test_verifier_refuses_a_non_integer_k(self, verify, k):
        with pytest.raises(ValidationError, match=rf"^k must be in 1..3, got {re.escape(repr(k))}$"):
            verify(self.scenario(), 0, k)

    @pytest.mark.parametrize("verify", [verify_strong_sketch_bounds, verify_goodness_sandwich])
    @pytest.mark.parametrize("j", [-1, 1, True, 0.0, "0", None], ids=repr)
    def test_verifier_refuses_a_project_that_is_no_index(self, verify, j):
        with pytest.raises(ValidationError, match=r"^project must be an index in range\(1\), got "):
            verify(self.scenario(), j, 2)

    @pytest.mark.parametrize("verify", [verify_strong_sketch_bounds, verify_goodness_sandwich])
    def test_verifier_takes_numpy_integers(self, verify):
        scn = self.scenario()
        assert repr(verify(scn, np.int64(0), np.int64(2))) == repr(verify(scn, 0, 2))

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda t: minmax_sketch(t, 0, [0, 1], 2.0), r"^k must be an integer >= 1, got 2.0$"),
            (lambda t: minmax_sketch(t, 0, [0, 1], True), r"^k must be an integer >= 1, got True$"),
            (lambda t: minmax_sketch(t, 0, [0, 3], 2), r"^agent must be an index in range\(3\), got 3$"),
            (lambda t: minmax_sketch(t, True, [0, 1], 2), r"^project must be an index in range\(1\), got True$"),
            (lambda t: strong_sketch(t, 0, [True, 0]), r"^agent must be an index in range\(3\), got True$"),
            (lambda t: strong_sketch(t, 0, [1.0, 0]), r"^agent must be an index in range\(3\), got 1.0$"),
            (lambda t: strong_sketch(t, 0, [-1]), r"^agent must be an index in range\(3\), got -1$"),
            (lambda t: strong_sketch(t, -1, [0]), r"^project must be an index in range\(1\), got -1$"),
        ],
    )
    def test_sketch_refuses(self, call, match):
        table = build_score_table(self.scenario(), "replication", max_r=2)
        with pytest.raises(ValidationError, match=match):
            call(table)

    def test_sketch_takes_numpy_integers(self):
        table = build_score_table(self.scenario(), "replication", max_r=2)
        one, two = np.int64(1), np.int64(2)
        assert minmax_sketch(table, np.int64(0), [one, two], two) == minmax_sketch(table, 0, [1, 2], 2)
        assert strong_sketch(table, np.int64(0), [two, one]) == strong_sketch(table, 0, [2, 1])
        assert type(strong_sketch(table, 0, [two, one]).pi_order[0]) is int


class TestMaxTermBound:
    def test_holds_on_random_instances(self):
        gen = np.random.default_rng(53)
        for _ in range(30):
            scn = random_bsp_scenario(gen)
            k = scn.cardinalities[0]
            table = build_score_table(scn, "replication", max_r=k)
            ev = strong_sketch(table, 0, range(k))
            res = max_term_bound(ev)
            assert res.holds, res

    def test_uniform_terms_give_slack(self):
        # all scores 1: lhs = 1, rhs = (2/l) * H_l >= 1 for every l
        table = table_from(
            {(i, r): 1.0 for i in range(3) for r in (1, 2, 3)}, max_r=3
        )
        res = max_term_bound(strong_sketch(table, 0, [0, 1, 2]))
        assert res.holds
        assert res.ell == 1
        assert res.lhs == 1.0
        assert res.rhs == 2.0


class TestBoundVerifiers:
    def test_strong_sketch_sandwich_random(self):
        gen = np.random.default_rng(54)
        for _ in range(30):
            scn = random_bsp_scenario(gen)
            rep = verify_strong_sketch_bounds(scn, 0, scn.cardinalities[0])
            assert rep.ok
            assert rep.witness is None
            assert rep.worst_lower_slack >= 0
            assert rep.worst_upper_slack >= 0

    def test_goodness_sandwich_random(self):
        gen = np.random.default_rng(55)
        for _ in range(30):
            scn = random_bsp_scenario(gen)
            rep = verify_goodness_sandwich(scn, 0, scn.cardinalities[0])
            assert rep.ok
            assert rep.witness is None

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("verify", [verify_strong_sketch_bounds, verify_goodness_sandwich])
    def test_k_out_of_range(self, verify, k):
        scn = Scenario.single_project(
            [Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))] * 2, ValueFunction.best_shot(), 1
        )
        with pytest.raises(ValidationError, match=f"^k must be in 1..2, got {k}$"):
            verify(scn, 0, k)

    def test_single_agent_sandwich(self):
        scn = Scenario.single_project(
            [Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))],
            ValueFunction.best_shot(),
            1,
        )
        rep = verify_strong_sketch_bounds(scn, 0, 1)
        # k = 1: v/2 <= u <= 6v with v = u exactly
        assert rep.ok
        assert rep.worst_lower_slack == pytest.approx(1.0 - 1.0 / 2.0)

    def test_identical_agents_goodness_tight_on_replication(self):
        k = 3
        scn = Scenario.single_project(
            [Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))] * k,
            ValueFunction.best_shot(),
            k,
        )
        rep = verify_goodness_sandwich(scn, 0, k)
        assert rep.ok
        # u(k identical agents) equals the k-replication score here, so the
        # lower slack is exactly (1/e) * u and the upper slack is 3u
        u = project_utility(scn, 0, range(k)).value
        assert rep.worst_lower_slack == pytest.approx(u / math.e, abs=1e-9)

    def test_witness_json_shape(self):
        gen = np.random.default_rng(56)
        scn = random_bsp_scenario(gen)
        rep = verify_strong_sketch_bounds(scn, 0, scn.cardinalities[0])
        doc = json.dumps(asdict(rep))
        assert '"ok": true' in doc
        back = json.loads(doc)
        assert set(back) == {"ok", "worst_lower", "worst_upper"}
        assert set(back["worst_lower"]) == {"bound", "slack", "witness_set", "u", "v"}

    def test_mc_entries_refused(self, monkeypatch):
        # exactness matters at 1e-9 tolerance, so the verifier must not
        # silently accept Monte Carlo table entries
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        d = Distribution.from_pairs(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        scn = Scenario.single_project([d] * 3, ValueFunction.ces(2.0), 3)
        from testscore import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            verify_strong_sketch_bounds(scn, 0, 3)


class TestBlockedVerifiers:
    @staticmethod
    def scenarios():
        gen = np.random.default_rng(60)
        scns = [random_bsp_scenario(gen, pool=CATALOGUE_POOL) for _ in range(40)]
        # identical agents tie every slack, so the witness is the first
        # team; two kinds of agent tie between sizes as well
        d = Distribution.from_pairs(((0.0, 0.5), (2.0, 0.5)))
        scns.append(Scenario.single_project([d] * 5, ValueFunction.best_shot(), 3))
        scns.append(Scenario.single_project([Distribution.point(1.0), d] * 3, ValueFunction.top_r(2), 3))
        # every slack 0: the first size keeps the witness
        scns.append(Scenario.single_project([Distribution.point(0.0)] * 4, ValueFunction.ces(2.0), 3))
        return scns

    def test_reports_equal_per_team_loop(self):
        for scn in self.scenarios():
            k = scn.cardinalities[0]
            for verify, which in (
                (verify_strong_sketch_bounds, "strong"),
                (verify_goodness_sandwich, "goodness"),
            ):
                # repr tells every float apart, -0.0 from 0.0 included
                want = repr(ref_verify_bracket(scn, 0, k, which))
                assert repr(verify(scn, 0, k)) == want, (scn, which)
