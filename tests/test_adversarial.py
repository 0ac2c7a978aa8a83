"""Bundled worst-case instances and the random scenario samplers."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    CATALOGUE_POOL,
    GENERATORS,
    RngSpec,
    ValidationError,
    ValueFunction,
    gen_ces_mean_tightness,
    gen_mean_fails_bestshot,
    gen_quantile_ces,
    gen_quantile_fails_linear,
    gen_welfare_example1,
    gen_welfare_example2,
    random_bsp_scenario,
    random_single_scenario,
    random_welfare_scenario,
    validate_instance,
)


class TestGeneratorDefaults:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_default_instance_validates(self, name):
        inst = GENERATORS[name]()
        assert inst.name == name
        report = validate_instance(inst)
        bad = [r for r in report.rows if not r.ok]
        assert report.ok, f"{name}: {bad}"

    def test_mean_bestshot_expected_values(self):
        inst = gen_mean_fails_bestshot()
        hit = 10.0 * (1.0 - 0.91**4)
        assert inst.expected["greedy_mean_utility"] == 1.0
        assert inst.expected["risky_set_utility"] == pytest.approx(hit, abs=1e-12)
        assert inst.expected["ratio_upper_bound"] == pytest.approx(1.0 / hit, abs=1e-12)
        assert inst.scenario.n_agents == 8
        assert inst.scenario.cardinalities == (4,)

    def test_quantile_linear_exact_ratio(self):
        inst = gen_quantile_fails_linear(k=10, a=1.5, p=0.11)
        assert inst.expected["ratio"] == pytest.approx(0.165, abs=1e-12)
        assert inst.expected["greedy_quantile_utility"] == pytest.approx(1.65, abs=1e-12)
        assert inst.expected["opt_utility"] == 10.0
        report = validate_instance(inst)
        row = {r.name: r for r in report.rows}["ratio"]
        assert row.kind == "eq"
        assert row.measured == pytest.approx(0.165, abs=1e-9)

    def test_ces_mean_tightness_values(self):
        inst = gen_ces_mean_tightness(k=4, r=2.0, a=400.0, eps=0.01)
        assert inst.expected["greedy_mean_utility"] == pytest.approx(2.02, abs=1e-12)
        bound = 1.01 * 4 ** (-0.5) * (4 / 400) / (1 - math.exp(-0.01))
        assert inst.expected["ratio_upper_bound"] == pytest.approx(bound, abs=1e-12)
        report = validate_instance(inst)
        rows = {r.name: r for r in report.rows}
        # measured ratio must sit inside the sandwich the construction promises
        assert 0.5 <= rows["ratio_upper_bound"].measured <= bound + 1e-9

    def test_quantile_ces_family_scores(self):
        inst = gen_quantile_ces()
        exp = inst.expected
        assert exp["family1_quantile_score"] == 1.0
        assert exp["family2_quantile_score"] == 1.0
        assert exp["family3_quantile_score"] == 2.0
        assert exp["family1_replication_score"] == pytest.approx(4.0, abs=1e-12)
        assert exp["family1_set_utility"] == pytest.approx(4.0, abs=1e-12)
        assert exp["ratio_vs_family1_upper_bound"] == pytest.approx(0.5, abs=1e-12)
        assert inst.scenario.n_agents == 64

    def test_welfare_ex1_values(self):
        inst = gen_welfare_example1(r=4)
        assert inst.expected["opt_welfare"] == 4.0
        assert inst.expected["greedy_welfare"] == 4.0
        assert inst.expected["min_sketch_welfare"] == 1.0
        assert inst.scenario.n_agents == 16
        assert inst.scenario.cardinalities == (4, 4, 4, 4)

    def test_welfare_ex2_values(self):
        inst = gen_welfare_example2(r=4)
        assert inst.expected["opt_welfare"] == pytest.approx(5.0, abs=1e-12)
        assert inst.expected["greedy_welfare"] == pytest.approx(5.0, abs=1e-12)
        assert inst.expected["max_sketch_welfare"] == pytest.approx(3.5, abs=1e-12)
        assert inst.expected["max_sketch_welfare_limit"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("gen", [gen_welfare_example1, gen_welfare_example2])
    def test_welfare_generators_smallest_r(self, gen):
        assert validate_instance(gen(r=2)).ok


class TestGeneratorPreconditions:
    def test_mean_bestshot_rejects(self):
        with pytest.raises(ValidationError):
            gen_mean_fails_bestshot(k=0)
        with pytest.raises(ValidationError):
            gen_mean_fails_bestshot(a=1.0)
        with pytest.raises(ValidationError):
            gen_mean_fails_bestshot(a=10.0, p=0.2)  # a*p >= 1
        with pytest.raises(ValidationError):
            gen_mean_fails_bestshot(p=0.0)

    def test_quantile_linear_rejects(self):
        with pytest.raises(ValidationError):
            gen_quantile_fails_linear(k=1)
        with pytest.raises(ValidationError):
            gen_quantile_fails_linear(k=10, p=0.05)  # below 1/k
        with pytest.raises(ValidationError):
            gen_quantile_fails_linear(a=0.9)
        with pytest.raises(ValidationError):
            gen_quantile_fails_linear(a=1.5, p=0.8)  # a*p >= 1

    def test_ces_mean_rejects(self):
        with pytest.raises(ValidationError):
            gen_ces_mean_tightness(k=0)
        with pytest.raises(ValidationError):
            gen_ces_mean_tightness(a=0.5)
        with pytest.raises(ValidationError):
            gen_ces_mean_tightness(eps=0.0)
        # 1 - exp(-k/a) is 0.0 in floats, and the ratio would divide by it
        with pytest.raises(ValidationError, match=r"a=1e\+30 with k=4"):
            gen_ces_mean_tightness(a=1e30)

    def test_quantile_ces_rejects(self):
        with pytest.raises(ValidationError):
            gen_quantile_ces(theta=0.0)
        with pytest.raises(ValidationError):
            gen_quantile_ces(theta=17.0)  # above k
        with pytest.raises(ValidationError):
            gen_quantile_ces(n=40)  # below 3k
        with pytest.raises(ValidationError):
            gen_quantile_ces(c=1.0)  # coin must rank first
        with pytest.raises(ValidationError):
            gen_quantile_ces(a=0.0)

    @pytest.mark.parametrize("gen", [gen_welfare_example1, gen_welfare_example2])
    def test_welfare_rejects_small_r(self, gen):
        with pytest.raises(ValidationError):
            gen(r=1)

    @pytest.mark.parametrize(
        "make, cells",
        [
            (gen_mean_fails_bestshot, 8 * 1 * 2),  # 2k agents, one project, two atoms
            (gen_quantile_fails_linear, 20 * 1 * 2),
            (gen_ces_mean_tightness, 8 * 1 * 2),
            (gen_quantile_ces, 64 * 1 * 2),
            (gen_welfare_example1, 16 * 4 * 1),  # r^2 agents, r projects
            (gen_welfare_example2, 8 * 5 * 1),  # 2r agents, r + 1 projects
        ],
    )
    def test_instance_priced_against_the_budget(self, monkeypatch, make, cells):
        monkeypatch.setenv("TESTSCORE_BUDGET", str(cells))
        make()
        monkeypatch.setenv("TESTSCORE_BUDGET", str(cells - 1))
        with pytest.raises(BudgetExceededError) as exc:
            make()
        assert (exc.value.required, exc.value.budget) == (cells, cells - 1)
        assert " agents x " in exc.value.shape and exc.value.shape.endswith(" atoms")


class TestValidateInstanceMechanics:
    def test_rows_sorted_and_typed(self):
        report = validate_instance(gen_welfare_example2())
        names = [r.name for r in report.rows]
        assert names == sorted(names)
        kinds = {r.name: r.kind for r in report.rows}
        assert kinds["opt_welfare"] == "eq"
        assert kinds["max_sketch_welfare_limit"] == "limit"

    def test_limit_rows_skip_measurement(self):
        report = validate_instance(gen_welfare_example2())
        limit = [r for r in report.rows if r.kind == "limit"]
        assert limit and all(r.measured is None and r.ok for r in limit)

    def test_report_round_trips_through_json(self):
        report = validate_instance(gen_mean_fails_bestshot())
        blob = json.dumps(asdict(report))
        back = json.loads(blob)
        assert back["name"] == "mean_bestshot"
        assert back["ok"] is True
        assert len(back["rows"]) == len(report.rows)

    def test_bound_rows_carry_measurements(self):
        report = validate_instance(gen_mean_fails_bestshot())
        rows = {r.name: r for r in report.rows}
        assert rows["opt_lower_bound"].kind == "lower_bound"
        assert rows["opt_lower_bound"].measured >= rows["opt_lower_bound"].expected - 1e-9
        assert rows["ratio_upper_bound"].kind == "upper_bound"


class TestSamplers:
    def test_single_scenario_shape(self):
        gen = RngSpec(7).generator(0)
        g = ValueFunction.best_shot()
        scn = random_single_scenario(gen, g, n=5, k=2)
        assert scn.n_agents == 5
        assert scn.n_projects == 1
        assert scn.cardinalities == (2,)
        assert scn.value_fns[0] is g

    def test_bsp_scenario_is_deterministic(self):
        a = random_bsp_scenario(RngSpec(11).generator(3))
        b = random_bsp_scenario(RngSpec(11).generator(3))
        assert a.cardinalities == b.cardinalities
        assert a.n_agents == b.n_agents
        for i in range(a.n_agents):
            assert a.dist(i, 0).values == b.dist(i, 0).values
            assert a.dist(i, 0).probs == b.dist(i, 0).probs

    def test_bsp_scenario_respects_limits(self):
        for t in range(40):
            scn = random_bsp_scenario(RngSpec(23).generator(t), n_max=7, k_max=4)
            assert 2 <= scn.n_agents <= 7
            assert 1 <= scn.cardinalities[0] <= min(4, scn.n_agents)
            assert all(len(scn.dist(i, 0).values) <= 3 for i in range(scn.n_agents))

    def test_bsp_scenario_k_min(self):
        for t in range(20):
            scn = random_bsp_scenario(RngSpec(5).generator(t), k_min=2)
            assert scn.cardinalities[0] >= 2
        with pytest.raises(ValidationError):
            random_bsp_scenario(RngSpec(5).generator(0), k_min=0)
        with pytest.raises(ValidationError):
            random_bsp_scenario(RngSpec(5).generator(0), k_min=9, n_max=7)

    def test_bsp_scenario_accepts_custom_pool(self):
        pool = (lambda: ValueFunction.top_r(2),)
        scn = random_bsp_scenario(RngSpec(1).generator(0), pool=pool)
        assert scn.value_fns[0].kind == "top_r"

    def test_welfare_scenario_feasible(self):
        for t in range(40):
            scn = random_welfare_scenario(RngSpec(31).generator(t))
            assert 2 <= scn.n_projects <= 3
            assert scn.n_agents <= 8
            assert sum(scn.cardinalities) <= scn.n_agents
            assert all(k >= 1 for k in scn.cardinalities)

    def test_catalogue_pool_covers_every_kind(self):
        kinds = {p().kind for p in CATALOGUE_POOL}
        assert kinds == {"total", "best_shot", "top_r", "ces", "success_prob"}
        assert len(CATALOGUE_POOL) == 12
